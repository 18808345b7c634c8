"""Authenticated point-to-point links and provisioning.

Sessions are keyed from a static Diffie-Hellman exchange (X25519):
each direction gets its own AEAD key, derived by hashing the shared
secret with the ordered pair of public keys, so sender and receiver
agree without a handshake round trip. Handshake/rekey protocol
machinery is deliberately out of scope.

Every frame on the wire is exactly ``DEFAULT_MTU`` (1500) bytes, a
wire-format constant like the block size, so a payload holds at most
``max_payload()`` = 1474 bytes::

    counter u64 BE | AEAD( inner_len u16 BE | payload | pad ) | tag[16]

The counter is associated data (and feeds the nonce); inner_len and the
payload are encrypted, so observable length is always the MTU. Padding
frames carry inner_len 0 and a zero pad inside the AEAD, as real frames
pad short payloads. Each frame has its own counter and so its own
nonce, so a padding frame is as unreadable and as distinct on the wire
as a real one. Receivers decrypt, notice the empty payload and drop
them. Received counters pass a 64-wide sliding replay window:
duplicates inside the window and counters that fell off the back are
both rejected, each with its own error, before any decryption. The
window (``ReplayWindow``) takes two steps: ``verify`` refuses a counter
and changes nothing, and ``accept`` records it, which ``open_packet``
does only once the frame has authenticated.

Provisioning: the first established session is the trust root. A
provisioning record (disk key, verity root, peer list, command line)
is accepted exactly once and only over that first session. The verity
root is the crypt-integrity image's trusted root (see ``blockcrypto``).
Attestation is stubbed; anything provisioned is marked "unverified".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import (
    HandshakeError,
    IntegrityError,
    ParameterError,
    PolicyError,
    ReplayError,
    SizeError,
    StaleCounterError,
)
from .hostiface import DEFAULT_MTU

COUNTER_BYTES = 8
LEN_BYTES = 2
TAG_BYTES = 16
REPLAY_WINDOW = 64
_WINDOW_MASK = (1 << REPLAY_WINDOW) - 1

PROV_MAGIC = b"OBPV"
PROV_VERSION = 1


def max_payload(mtu: int = DEFAULT_MTU) -> int:
    return mtu - COUNTER_BYTES - LEN_BYTES - TAG_BYTES


class StaticIdentity:
    """Long-lived X25519 keypair."""

    def __init__(self, private: X25519PrivateKey):
        self._private = private
        self.public_bytes = private.public_key().public_bytes_raw()

    @classmethod
    def generate(cls) -> "StaticIdentity":
        return cls(X25519PrivateKey.generate())

    @classmethod
    def from_private_bytes(cls, raw: bytes) -> "StaticIdentity":
        if len(raw) != 32:
            raise HandshakeError("private key must be 32 bytes")
        return cls(X25519PrivateKey.from_private_bytes(raw))

    def shared_secret(self, peer_public: bytes) -> bytes:
        try:
            return self._private.exchange(X25519PublicKey.from_public_bytes(peer_public))
        except ValueError as exc:
            raise HandshakeError(f"bad peer public key: {exc}") from exc


@dataclass(frozen=True)
class PeerIdentity:
    public_key: bytes
    address: str = ""
    rate_bps: int = 200_000_000

    def __post_init__(self):
        if not 1 <= self.rate_bps < 2**64:
            raise ParameterError(
                f"peer rate_bps {self.rate_bps}: want 1 <= rate_bps < 2**64")


def _directional_key(secret: bytes, sender_pub: bytes, receiver_pub: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(), length=32, salt=b"oblivsim-link-v1",
        info=sender_pub + receiver_pub,
    ).derive(secret)


class ReplayWindow:
    """Sliding acceptance window over frame counters (``REPLAY_WINDOW``)."""

    def __init__(self):
        self.max_seen = 0
        self._bits = 0

    def verify(self, counter: int) -> None:
        """Raise if ``counter`` is stale or already accepted; changes nothing."""
        if counter < 1:
            raise StaleCounterError("counters start at 1")
        age = self.max_seen - counter
        if age >= REPLAY_WINDOW:
            raise StaleCounterError(
                f"counter {counter} fell behind the window (max {self.max_seen})")
        if age >= 0 and self._bits >> age & 1:
            raise ReplayError(f"counter {counter} already accepted")

    def accept(self, counter: int) -> None:
        """Record a verified counter; a jump of a whole window or more
        clears the bitmap instead of shifting it that far."""
        if counter > self.max_seen:
            shift = counter - self.max_seen
            self._bits = (self._bits << shift) & _WINDOW_MASK if shift < REPLAY_WINDOW else 0
            self.max_seen = counter
        self._bits |= 1 << (self.max_seen - counter)


_COUNTER = struct.Struct(">Q")
_NONCE = struct.Struct(">4xQ")  # 4 zero bytes, then the counter
_INNER_LEN = struct.Struct(">H")


class PeerSession:
    """One established link: directional keys plus replay state. Its
    frames are ``DEFAULT_MTU`` bytes and carry up to ``payload_limit``."""

    def __init__(self, send_key: bytes, recv_key: bytes):
        self._send = AESGCM(send_key)
        self._recv = AESGCM(recv_key)
        self.payload_limit = max_payload()
        # A padding frame's plaintext: inner_len 0 and a zero pad.
        self._zero_inner = bytes(LEN_BYTES + self.payload_limit)
        self.send_counter = 0
        self.window = ReplayWindow()
        self.sent_real = 0
        self.sent_dummy = 0
        self.received_real = 0
        self.received_dummy = 0

    def _seal(self, inner: bytes) -> bytes:
        self.send_counter += 1
        counter = self.send_counter
        header = _COUNTER.pack(counter)
        return header + self._send.encrypt(_NONCE.pack(counter), inner, header)

    def seal_packet(self, payload: bytes) -> bytes:
        n = len(payload)
        if not 0 < n <= self.payload_limit:
            # inner_len 0 marks padding, so an empty payload is refused.
            raise SizeError(f"payload must be 1 to {self.payload_limit} bytes")
        self.sent_real += 1
        return self._seal(_INNER_LEN.pack(n) + payload
                          + self._zero_inner[LEN_BYTES + n:])

    def seal_dummy(self) -> bytes:
        """Padding frame: empty payload, zero filler under the AEAD."""
        self.sent_dummy += 1
        return self._seal(self._zero_inner)

    def open_packet(self, frame: bytes) -> bytes:
        if len(frame) != DEFAULT_MTU:
            raise SizeError("frame is not MTU-sized")
        counter = _COUNTER.unpack_from(frame)[0]
        self.window.verify(counter)
        try:
            inner = self._recv.decrypt(_NONCE.pack(counter), frame[COUNTER_BYTES:],
                                       frame[:COUNTER_BYTES])
        except InvalidTag as exc:
            raise IntegrityError("frame failed authentication") from exc
        self.window.accept(counter)  # a forged counter moves nothing
        inner_len = _INNER_LEN.unpack_from(inner)[0]
        if inner_len > self.payload_limit:
            raise SizeError("inner length field exceeds the frame")
        if inner_len == 0:
            self.received_dummy += 1
            return b""
        self.received_real += 1
        return inner[LEN_BYTES:LEN_BYTES + inner_len]


def establish(local: StaticIdentity, peer: PeerIdentity) -> PeerSession:
    """Derive the two directional keys shared with ``peer``."""
    if len(peer.public_key) != 32:
        raise HandshakeError("peer public key must be 32 bytes")
    if peer.public_key == local.public_bytes:
        raise HandshakeError("cannot establish a session with ourselves")
    secret = local.shared_secret(peer.public_key)
    send_key = _directional_key(secret, local.public_bytes, peer.public_key)
    recv_key = _directional_key(secret, peer.public_key, local.public_bytes)
    return PeerSession(send_key, recv_key)


# ---------------------------------------------------------------------------
# Provisioning.
# ---------------------------------------------------------------------------

def record_u16(n: int, what: str) -> bytes:
    """A provisioning record's 16-bit length or count; ``what`` names it
    in the ParameterError that refuses one above 65535."""
    if n > 0xFFFF:
        raise ParameterError(f"{what} is {n}, over the record's limit of 65535")
    return struct.pack(">H", n)


@dataclass(frozen=True)
class ProvisioningSecrets:
    disk_key: bytes | None = None
    verity_root: bytes | None = None
    peers: tuple[PeerIdentity, ...] = ()
    exec_path: str = ""
    exec_args: tuple[str, ...] = ()

    def encode(self) -> bytes:
        """Length-prefixed binary record (versioned). Lengths and counts
        are 16-bit; a larger one raises ParameterError, and so does text
        that cannot be written as UTF-8."""
        def lv(b: bytes, what: str) -> bytes:
            return record_u16(len(b), what) + b

        def text(s: str, what: str) -> bytes:
            try:
                return lv(s.encode(), f"{what} length")
            except UnicodeEncodeError as exc:
                raise ParameterError(f"{what} is not UTF-8 text") from exc

        out = [PROV_MAGIC, struct.pack(">B", PROV_VERSION)]
        out.append(lv(self.disk_key or b"", "disk key length"))
        out.append(lv(self.verity_root or b"", "verity root length"))
        out.append(record_u16(len(self.peers), "peer count"))
        for p in self.peers:
            if len(p.public_key) != 32:
                raise ParameterError("peer public keys are 32 bytes")
            out.append(p.public_key)
            out.append(text(p.address, "peer address"))
            out.append(struct.pack(">Q", p.rate_bps))
        out.append(text(self.exec_path, "exec path"))
        out.append(record_u16(len(self.exec_args), "exec arg count"))
        for a in self.exec_args:
            out.append(text(a, "exec arg"))
        return b"".join(out)

    @classmethod
    def decode(cls, raw: bytes) -> "ProvisioningSecrets":
        """Inverse of ``encode``; any malformed record raises
        ParameterError."""
        if raw[:4] != PROV_MAGIC:
            raise ParameterError("not a provisioning record")
        if len(raw) < 5:
            raise ParameterError("truncated provisioning record")
        if raw[4] != PROV_VERSION:
            raise ParameterError(f"unsupported record version {raw[4]}")
        pos = 5

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(raw):
                raise ParameterError("truncated provisioning record")
            out = raw[pos:pos + n]
            pos += n
            return out

        def lv() -> bytes:
            return take(struct.unpack(">H", take(2))[0])

        def text() -> str:
            try:
                return lv().decode()
            except UnicodeDecodeError as exc:
                raise ParameterError("provisioning record text is not UTF-8") from exc

        disk_key = lv() or None
        root = lv() or None
        n_peers = struct.unpack(">H", take(2))[0]
        peers = []
        for _ in range(n_peers):
            pub = take(32)
            addr = text()
            rate = struct.unpack(">Q", take(8))[0]
            peers.append(PeerIdentity(pub, addr, rate))
        exec_path = text()
        n_args = struct.unpack(">H", take(2))[0]
        args = tuple(text() for _ in range(n_args))
        if pos != len(raw):
            raise ParameterError("trailing bytes after the provisioning record")
        return cls(disk_key, root, tuple(peers), exec_path, args)


@dataclass
class Endpoint:
    """The provisioned side: tracks session order and enforces the
    first-peer trust rule. Attestation is a stub; provisioned state is
    always flagged unverified."""

    identity: StaticIdentity
    sessions: list[PeerSession] = field(default_factory=list)
    provisioned: ProvisioningSecrets | None = None
    attestation: str = "unverified"

    def establish_with(self, peer: PeerIdentity) -> PeerSession:
        session = establish(self.identity, peer)
        self.sessions.append(session)
        return session

    def provision(self, session: PeerSession, secrets: ProvisioningSecrets) -> None:
        if not self.sessions or session is not self.sessions[0]:
            raise PolicyError("provisioning is accepted from the first peer only")
        if self.provisioned is not None:
            raise PolicyError("already provisioned")
        self.provisioned = secrets
