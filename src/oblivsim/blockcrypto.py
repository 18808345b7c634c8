"""Block protection and the image container format.

Four protection modes cover the usual storage trust levels: PLAIN
(nothing), VERITY (read-only integrity), CRYPT (confidentiality) and
CRYPT_INTEGRITY (confidentiality plus tamper and replay detection).

Encrypted blocks use an AEAD (AES-256-GCM) with a fresh random nonce
per write, so two writes of the same plaintext never repeat on disk,
and with the physical block index bound as associated data, so a
ciphertext presented at the wrong slot fails to open. The nonce's 16
leading bytes are OS randomness, each prefix used once in the process:
one ``os.urandom`` call fills a pool of ``_POOL_PREFIXES`` prefixes and
a forked child starts with an empty pool, so parent and child never
share one. The per-block write counter rides in the low 8 bytes of the
24-byte nonce; a counter that disagrees with the in-memory freshness
table is reported as a replay, distinct from a tag failure. Padding is
sealed zeros: under a fresh nonce they cannot be told from sealed
noise. A VERITY block's slot holds the SHA-256 of its plaintext instead.

Both integrity modes rest on one trusted root, the SHA-256 of the
header block and the whole slot region: ``persist_metadata`` returns
it, and a mount given it refuses any other header or slot region, so
neither a stale slot nor another image's metadata gets past it.

The container layout (header, slot region, data) is in FORMATS.md.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import os
import struct
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import IntegrityError, ModeError, ParameterError, ReplayError, SizeError
from .hostiface import BLOCK_SIZE, HostInterface

MAGIC = b"OBLV1"
KEY_SIZE = 32
NONCE_SIZE = 24
NONCE_RANDOM = 16  # leading random bytes; the rest carries the write counter
TAG_SIZE = 16
SLOT_SIZE = NONCE_SIZE + TAG_SIZE

AEAD_NONE = 0
AEAD_AES256GCM = 1
HASH_NONE = 0
HASH_SHA256 = 1

_POOL_PREFIXES = 256  # nonce prefixes per os.urandom call

_HEADER = struct.Struct("<5sIQBBB")
_ZERO_BLOCK = bytes(BLOCK_SIZE)
_ZERO_SLOT = bytes(SLOT_SIZE)


class ProtectionMode(enum.Enum):
    PLAIN = 0
    VERITY = 1
    CRYPT = 2
    CRYPT_INTEGRITY = 3

    @property
    def encrypted(self) -> bool:
        return self in (ProtectionMode.CRYPT, ProtectionMode.CRYPT_INTEGRITY)


class EncryptedBlock(NamedTuple):
    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def slot(self) -> bytes:
        return self.nonce + self.tag

    @property
    def version(self) -> int:
        return int.from_bytes(self.nonce[NONCE_RANDOM:], "big")


class FreshnessTable:
    """Per-physical-block write counters, kept in trusted memory."""

    def __init__(self):
        self._versions: dict[int, int] = {}

    def version_of(self, phys: int) -> int:
        return self._versions.get(phys, 0)

    def bump(self, phys: int) -> int:
        v = self._versions.get(phys, 0) + 1
        self._versions[phys] = v
        return v

    def restore(self, versions: list[int]) -> None:
        """Take block ``phys``'s counter from ``versions[phys]``, for
        every block at once; a 0 (never written) leaves it as it was."""
        self._versions.update(compress(enumerate(versions), versions))


_aad = struct.Struct(">QQ").pack  # (phys, version) -> associated data
_slot = struct.Struct(f"{SLOT_SIZE}s")
_slot_version = struct.Struct(f">{NONCE_RANDOM}xQ{TAG_SIZE}x")  # the nonce's counter
_nonce = struct.Struct(f">{NONCE_RANDOM}sQ").pack  # (prefix, version) -> nonce
_split_prefixes = struct.Struct(f"{NONCE_RANDOM}s" * _POOL_PREFIXES).unpack
_new_block = tuple.__new__  # EncryptedBlock without its Python-level __new__

# Unused nonce prefixes. ``list.pop`` is atomic, so no prefix is handed
# out twice, and a forked child drops what it inherited.
_prefix_pool: list[bytes] = []
os.register_at_fork(after_in_child=_prefix_pool.clear)


def _nonce_prefix() -> bytes:
    """16 fresh OS-random bytes, never returned before in this process."""
    try:
        return _prefix_pool.pop()
    except IndexError:
        first, *rest = _split_prefixes(os.urandom(NONCE_RANDOM * _POOL_PREFIXES))
        _prefix_pool.extend(rest)
        return first


# One AEAD object per key: building ``AESGCM(key)`` costs as much as
# sealing a block. A mount uses one key, so a few entries suffice.
_ciphers: dict[bytes, AESGCM] = {}


def _new_cipher(key: bytes) -> AESGCM:
    if len(_ciphers) >= 8:
        _ciphers.clear()
    cipher = _ciphers[key] = AESGCM(key)
    return cipher


def seal_block(key: bytes, phys: int, plaintext: bytes,
               freshness: FreshnessTable) -> EncryptedBlock:
    """Encrypt one block for physical slot ``phys``.

    Every call takes a fresh random nonce prefix from the pool and
    advances the block's write counter, so sealing is probabilistic:
    equal plaintexts never produce equal ciphertexts.
    """
    if len(key) != KEY_SIZE:
        raise ParameterError("key must be 32 bytes")
    if len(plaintext) != BLOCK_SIZE:
        raise SizeError("plaintext must be exactly one block")
    version = freshness.bump(phys)
    nonce = _nonce(_nonce_prefix(), version)
    sealed = (_ciphers.get(key) or _new_cipher(key)).encrypt(
        nonce, plaintext, _aad(phys, version))
    return _new_block(EncryptedBlock, (nonce, sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]))


def open_block(key: bytes, phys: int, enc: EncryptedBlock,
               freshness: FreshnessTable | None = None) -> bytes:
    """Decrypt and verify one block.

    With a freshness table the embedded write counter must equal the
    trusted counter; a mismatch on an otherwise well-formed block means
    the host presented stale data and raises ReplayError. Tag failures
    raise IntegrityError.
    """
    if len(key) != KEY_SIZE:
        raise ParameterError("key must be 32 bytes")
    if len(enc.nonce) != NONCE_SIZE or len(enc.tag) != TAG_SIZE:
        raise SizeError("malformed sealed block")
    nonce = enc.nonce
    version = int.from_bytes(nonce[NONCE_RANDOM:], "big")
    if freshness is not None and version != freshness.version_of(phys):
        raise ReplayError(
            f"block {phys}: version {version} != expected {freshness.version_of(phys)}")
    try:
        return (_ciphers.get(key) or _new_cipher(key)).decrypt(
            nonce, enc.ciphertext + enc.tag, _aad(phys, version))
    except InvalidTag as exc:
        raise IntegrityError(f"block {phys}: tag check failed") from exc


# ---------------------------------------------------------------------------
# Image container.
# ---------------------------------------------------------------------------

def _blocks_for(nbytes: int) -> int:
    return (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE


def _root(header: bytes, slot_region: bytes) -> bytes:
    """The trusted root: SHA-256 over the header block, then the slot region."""
    root = hashlib.sha256(header)
    root.update(slot_region)
    return root.digest()


def _verity_slot(block: bytes) -> bytes:
    """A VERITY block's slot: its SHA-256, then zeros."""
    return hashlib.sha256(block).digest() + bytes(SLOT_SIZE - 32)


@dataclass(frozen=True)
class ImageLayout:
    n_blocks: int
    mode: ProtectionMode
    slot_blocks: int

    @property
    def data_start_block(self) -> int:
        return 1 + self.slot_blocks

    @property
    def total_bytes(self) -> int:
        return (self.data_start_block + self.n_blocks) * BLOCK_SIZE

    def slot_region_offset(self) -> int:
        return BLOCK_SIZE

    def data_offset(self, phys: int) -> int:
        if not (0 <= phys < self.n_blocks):
            raise ParameterError(f"physical block {phys} out of range")
        return (self.data_start_block + phys) * BLOCK_SIZE

    def header_block(self) -> bytes:
        """The header block exactly as written: fields, then zeros."""
        aead = AEAD_AES256GCM if self.mode.encrypted else AEAD_NONE
        hashid = HASH_SHA256 if self.mode is ProtectionMode.VERITY else HASH_NONE
        fields = _HEADER.pack(MAGIC, BLOCK_SIZE, self.n_blocks, self.mode.value,
                              aead, hashid)
        return fields + bytes(BLOCK_SIZE - len(fields))


def layout_for(n_blocks: int, mode: ProtectionMode) -> ImageLayout:
    return ImageLayout(n_blocks, mode, _blocks_for(n_blocks * SLOT_SIZE))


def new_image(n_blocks: int, mode: ProtectionMode) -> bytearray:
    """Fresh zeroed image with a written header."""
    layout = layout_for(n_blocks, mode)
    image = bytearray(layout.total_bytes)
    image[:BLOCK_SIZE] = layout.header_block()
    return image


def parse_header(block: bytes) -> ImageLayout:
    magic, _bs, n_blocks, mode_v, _aead, _hash = _HEADER.unpack_from(block, 0)
    if magic != MAGIC:
        raise ParameterError("not a recognized image (bad magic)")
    try:
        mode = ProtectionMode(mode_v)
    except ValueError as exc:
        raise ParameterError(f"unknown protection mode {mode_v}") from exc
    layout = layout_for(n_blocks, mode)
    if block != layout.header_block():
        raise ParameterError(f"header fields or padding do not fit a {mode.name} image")
    return layout


class BlockStore:
    """A mounted image: typed block reads/writes over the host boundary.

    Holds the key, the slot cache and the freshness table. All byte
    traffic with the image goes through the host interface; per-block
    metadata is cached in trusted memory and persisted in bulk by
    persist_metadata(), which returns the image's trusted root.
    """

    def __init__(self, iface: HostInterface, layout: ImageLayout,
                 key: bytes | None, sealed: bool = False):
        self.iface = iface
        self.layout = layout
        self.key = key
        self.slots: list[bytes | None] = [None] * layout.n_blocks  # None: never written
        self.freshness = FreshnessTable()
        self.sealed = sealed
        # Fixed for the mount, so the data path works them out once.
        self._data_base = layout.data_start_block * BLOCK_SIZE
        self._encrypted = layout.mode.encrypted
        self._open_freshness = (
            self.freshness if layout.mode is ProtectionMode.CRYPT_INTEGRITY else None)

    @property
    def mode(self) -> ProtectionMode:
        return self.layout.mode

    @property
    def n_blocks(self) -> int:
        return self.layout.n_blocks

    # Mounting ---------------------------------------------------------

    @classmethod
    def mount(cls, iface: HostInterface, key: bytes | None = None,
              trusted_root: bytes | None = None) -> "BlockStore":
        """Mount the image behind ``iface``.

        Given ``trusted_root``, whatever mode the header claims, the
        header and the slot region must hash to it before any slot is
        used; a mismatch means the host presented other or older
        metadata and raises ReplayError. VERITY images require a root.
        """
        header = iface.disk_read(0)
        layout = parse_header(header)
        if layout.mode.encrypted and (key is None or len(key) != KEY_SIZE):
            raise ParameterError("this image requires a 32-byte key")
        if layout.mode is ProtectionMode.VERITY and trusted_root is None:
            raise ParameterError("verity images require the trusted root hash")
        raw = b"".join(
            iface.disk_read(layout.slot_region_offset() + i * BLOCK_SIZE)
            for i in range(layout.slot_blocks)
        )
        if trusted_root is not None and not hmac.compare_digest(
                _root(header, raw), trusted_root):
            raise ReplayError(
                "image header and slot region do not match the trusted root")
        store = cls(iface, layout, key, sealed=layout.mode is ProtectionMode.VERITY)
        region = memoryview(raw)[:layout.n_blocks * SLOT_SIZE]
        store.slots = [None if slot == _ZERO_SLOT else slot
                       for (slot,) in _slot.iter_unpack(region)]
        if store._encrypted:
            store.freshness.restore(
                [version for (version,) in _slot_version.iter_unpack(region)])
        return store

    # Data path --------------------------------------------------------

    def read_block(self, phys: int) -> bytes:
        if not 0 <= phys < self.layout.n_blocks:
            raise ParameterError(f"physical block {phys} out of range")
        raw = self.iface.disk_read(self._data_base + phys * BLOCK_SIZE)
        slot = self.slots[phys]
        if self._encrypted:
            if slot is None:
                raise IntegrityError(f"block {phys} was never written")
            enc = _new_block(EncryptedBlock, (slot[:NONCE_SIZE], raw, slot[NONCE_SIZE:]))
            return open_block(self.key, phys, enc, self._open_freshness)
        if self.layout.mode is ProtectionMode.VERITY and slot != _verity_slot(raw):
            raise IntegrityError(f"block {phys}: digest does not match its slot")
        return raw

    def write_block(self, phys: int, plaintext: bytes) -> None:
        if self.sealed:
            raise ModeError("image is sealed read-only")
        if not 0 <= phys < self.layout.n_blocks:
            raise ParameterError(f"physical block {phys} out of range")
        offset = self._data_base + phys * BLOCK_SIZE
        if self._encrypted:
            nonce, ciphertext, tag = seal_block(self.key, phys, plaintext, self.freshness)
            self.iface.disk_write(offset, ciphertext)
            self.slots[phys] = nonce + tag
            return
        if len(plaintext) != BLOCK_SIZE:
            raise SizeError("plaintext must be exactly one block")
        self.iface.disk_write(offset, plaintext)

    def dummy_read(self, phys: int) -> None:
        """Fetch and discard; padding traffic never decrypts. The host
        sees the same call a real read of ``phys`` makes."""
        self.iface.disk_read(self.layout.data_offset(phys))

    def dummy_write(self, phys: int) -> None:
        """Overwrite a sacrificial block with a freshly sealed zero block.

        On encrypted images each seal takes a fresh nonce prefix and bumps
        the block's version, and under AES-256-GCM the sealed zeros cannot
        be told from sealed noise, so nothing is lost by skipping the
        random plaintext. The image builder pads every block no file uses
        this way, and a run's padding writes do the same. The host sees
        the same call a real write of ``phys`` makes; which writes were
        padding is counted by the caller, not recorded in the trace. On
        PLAIN images the pad block then holds zeros; PLAIN hides nothing,
        and oblivious runs refuse it.
        """
        self.write_block(phys, _ZERO_BLOCK)

    # Sealing and persistence -------------------------------------------

    def seal_readonly(self) -> bytes:
        """Record each block's SHA-256 in its slot, refuse writes from
        now on, and persist; returns the trusted root."""
        if self.mode is not ProtectionMode.VERITY:
            raise ModeError("only verity images are sealed read-only")
        for phys in range(self.n_blocks):
            self.slots[phys] = _verity_slot(
                self.iface.disk_read(self.layout.data_offset(phys)))
        self.sealed = True
        return self.persist_metadata()

    def persist_metadata(self) -> bytes:
        """Write the slot cache back whole; returns the trusted root
        over the header and the slot region as written."""
        raw = b"".join([_ZERO_SLOT if s is None else s for s in self.slots])
        raw += bytes(self.layout.slot_blocks * BLOCK_SIZE - len(raw))
        for i in range(self.layout.slot_blocks):
            self.iface.disk_write(
                self.layout.slot_region_offset() + i * BLOCK_SIZE,
                raw[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE])
        return _root(self.layout.header_block(), raw)
