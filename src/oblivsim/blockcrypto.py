"""Block protection and the image container format.

Four protection modes cover the usual storage trust levels: PLAIN
(nothing), VERITY (read-only integrity from a hash tree whose root
lives in trusted memory), CRYPT (confidentiality) and CRYPT_INTEGRITY
(confidentiality plus tamper and replay detection).

Encrypted blocks use an AEAD (AES-256-GCM) with a fresh random nonce
per write, so two writes of the same plaintext never repeat on disk,
and with the physical block index bound as associated data, so a
ciphertext presented at the wrong slot fails to open. The per-block
write counter rides in the low 8 bytes of the 24-byte nonce; a counter
that disagrees with the in-memory freshness table is reported as a
replay, distinct from a tag failure.

The image container layout (header, slot region, verity region, data
region) is specified in FORMATS.md.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import os
import struct
from dataclasses import dataclass

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

_HEADER = struct.Struct("<5sIQBBB")
_ZERO_BLOCK = bytes(BLOCK_SIZE)


class ProtectionMode(enum.Enum):
    PLAIN = 0
    VERITY = 1
    CRYPT = 2
    CRYPT_INTEGRITY = 3

    @property
    def encrypted(self) -> bool:
        return self in (ProtectionMode.CRYPT, ProtectionMode.CRYPT_INTEGRITY)


@dataclass(frozen=True)
class EncryptedBlock:
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

    def restore(self, phys: int, version: int) -> None:
        if version:
            self._versions[phys] = version


def _aad(phys: int, version: int) -> bytes:
    return struct.pack(">QQ", phys, version)


@functools.lru_cache(maxsize=8)
def _cipher(key: bytes) -> AESGCM:
    """One AEAD object per key: building ``AESGCM(key)`` costs as much
    as sealing a block. A mount uses one key, so a few entries suffice."""
    return AESGCM(key)


def seal_block(key: bytes, phys: int, plaintext: bytes,
               freshness: FreshnessTable) -> EncryptedBlock:
    """Encrypt one block for physical slot ``phys``.

    Every call draws a fresh random nonce and advances the block's
    write counter, so sealing is probabilistic: equal plaintexts never
    produce equal ciphertexts.
    """
    if len(key) != KEY_SIZE:
        raise ParameterError("key must be 32 bytes")
    if len(plaintext) != BLOCK_SIZE:
        raise SizeError("plaintext must be exactly one block")
    version = freshness.bump(phys)
    nonce = os.urandom(NONCE_RANDOM) + version.to_bytes(NONCE_SIZE - NONCE_RANDOM, "big")
    sealed = _cipher(key).encrypt(nonce, plaintext, _aad(phys, version))
    return EncryptedBlock(nonce, sealed[:-TAG_SIZE], sealed[-TAG_SIZE:])


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
    version = enc.version
    if freshness is not None and version != freshness.version_of(phys):
        raise ReplayError(
            f"block {phys}: version {version} != expected {freshness.version_of(phys)}")
    try:
        return _cipher(key).decrypt(
            enc.nonce, enc.ciphertext + enc.tag, _aad(phys, version))
    except InvalidTag as exc:
        raise IntegrityError(f"block {phys}: tag check failed") from exc


# ---------------------------------------------------------------------------
# Read-only integrity: hash tree over plaintext blocks.
# ---------------------------------------------------------------------------

_ZERO_DIGEST = b"\x00" * 32


class VerityTree:
    """Binary SHA-256 tree over the data blocks.

    Leaves are padded to a power of two with zero digests. Only the
    root needs trusted storage; the full node set lives in the image
    (untrusted) and is used to recompute a path on every read.
    """

    def __init__(self, levels: list[list[bytes]], n_blocks: int):
        self.levels = levels
        self.n_blocks = n_blocks

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    @classmethod
    def build(cls, blocks) -> "VerityTree":
        leaves = [hashlib.sha256(b).digest() for b in blocks]
        n = len(leaves)
        padded = 1
        while padded < max(n, 1):
            padded *= 2
        leaves += [_ZERO_DIGEST] * (padded - n)
        levels = [leaves]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            levels.append([
                hashlib.sha256(prev[i] + prev[i + 1]).digest()
                for i in range(0, len(prev), 2)
            ])
        return cls(levels, n)

    def path_root(self, index: int, block: bytes) -> bytes:
        """Root implied by ``block`` at leaf ``index`` and the stored
        sibling nodes."""
        if not (0 <= index < len(self.levels[0])):
            raise ParameterError(f"leaf {index} out of range")
        digest = hashlib.sha256(block).digest()
        for level in self.levels[:-1]:
            sibling = level[index ^ 1]
            if index % 2 == 0:
                digest = hashlib.sha256(digest + sibling).digest()
            else:
                digest = hashlib.sha256(sibling + digest).digest()
            index //= 2
        return digest

    def serialize(self) -> bytes:
        out = [struct.pack("<QQ", self.n_blocks, len(self.levels[0]))]
        for level in self.levels:
            out.extend(level)
        return b"".join(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "VerityTree":
        n_blocks, padded = struct.unpack_from("<QQ", data, 0)
        pos = 16
        levels = []
        width = padded
        while True:
            level = [data[pos + 32 * i:pos + 32 * (i + 1)] for i in range(width)]
            pos += 32 * width
            levels.append(level)
            if width == 1:
                break
            width //= 2
        return cls(levels, n_blocks)

    def serialized_size(self) -> int:
        return 16 + 32 * sum(len(lv) for lv in self.levels)


def verify_verity(tree: VerityTree, trusted_root: bytes, phys: int,
                  block: bytes) -> None:
    if tree.path_root(phys, block) != trusted_root:
        raise IntegrityError(f"block {phys}: hash path does not reach trusted root")


# ---------------------------------------------------------------------------
# Image container.
# ---------------------------------------------------------------------------

def _blocks_for(nbytes: int) -> int:
    return (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE


def _verity_tree_bytes(n_blocks: int) -> int:
    padded = 1
    while padded < max(n_blocks, 1):
        padded *= 2
    total = 0
    width = padded
    while True:
        total += width
        if width == 1:
            break
        width //= 2
    return 16 + 32 * total


@dataclass(frozen=True)
class ImageLayout:
    n_blocks: int
    mode: ProtectionMode
    slot_blocks: int
    verity_blocks: int

    @property
    def data_start_block(self) -> int:
        return 1 + self.slot_blocks + self.verity_blocks

    @property
    def total_bytes(self) -> int:
        return (self.data_start_block + self.n_blocks) * BLOCK_SIZE

    def slot_region_offset(self) -> int:
        return BLOCK_SIZE

    def verity_region_offset(self) -> int:
        return (1 + self.slot_blocks) * BLOCK_SIZE

    def data_offset(self, phys: int) -> int:
        if not (0 <= phys < self.n_blocks):
            raise ParameterError(f"physical block {phys} out of range")
        return (self.data_start_block + phys) * BLOCK_SIZE


def layout_for(n_blocks: int, mode: ProtectionMode) -> ImageLayout:
    slot_blocks = _blocks_for(n_blocks * SLOT_SIZE)
    verity_blocks = 0
    if mode is ProtectionMode.VERITY:
        verity_blocks = _blocks_for(_verity_tree_bytes(n_blocks))
    return ImageLayout(n_blocks, mode, slot_blocks, verity_blocks)


def new_image(n_blocks: int, mode: ProtectionMode) -> bytearray:
    """Fresh zeroed image with a written header."""
    layout = layout_for(n_blocks, mode)
    image = bytearray(layout.total_bytes)
    aead = AEAD_AES256GCM if mode.encrypted else AEAD_NONE
    hashid = HASH_SHA256 if mode is ProtectionMode.VERITY else HASH_NONE
    _HEADER.pack_into(image, 0, MAGIC, BLOCK_SIZE, n_blocks, mode.value, aead, hashid)
    return image


def parse_header(block: bytes) -> ImageLayout:
    magic, bs, n_blocks, mode_v, aead, hashid = _HEADER.unpack_from(block, 0)
    if magic != MAGIC:
        raise ParameterError("not a recognized image (bad magic)")
    if bs != BLOCK_SIZE:
        raise ParameterError(f"unsupported block size {bs}")
    try:
        mode = ProtectionMode(mode_v)
    except ValueError as exc:
        raise ParameterError(f"unknown protection mode {mode_v}") from exc
    if mode.encrypted and aead != AEAD_AES256GCM:
        raise ParameterError(f"unknown AEAD id {aead}")
    if mode is ProtectionMode.VERITY and hashid != HASH_SHA256:
        raise ParameterError(f"unknown hash id {hashid}")
    return layout_for(n_blocks, mode)


class BlockStore:
    """A mounted image: typed block reads/writes over the host boundary.

    Holds the key, the slot cache, the freshness table and (for verity)
    the trusted root. All byte traffic with the image goes through the
    host interface; per-block metadata is cached in trusted memory and
    persisted in bulk by persist_metadata().
    """

    def __init__(self, iface: HostInterface, layout: ImageLayout,
                 key: bytes | None, slots: list[bytes | None],
                 verity: VerityTree | None = None,
                 trusted_root: bytes | None = None):
        self.iface = iface
        self.layout = layout
        self.key = key
        self.slots = slots
        self.verity = verity
        self.trusted_root = trusted_root
        self.freshness = FreshnessTable()
        self.sealed = verity is not None
        for phys, slot in enumerate(slots):
            if slot is not None:
                version = int.from_bytes(slot[NONCE_RANDOM:NONCE_SIZE], "big")
                self.freshness.restore(phys, version)

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
        layout = parse_header(iface.disk_read(0))
        if layout.mode.encrypted and (key is None or len(key) != KEY_SIZE):
            raise ParameterError("this image requires a 32-byte key")
        raw = b"".join(
            iface.disk_read(layout.slot_region_offset() + i * BLOCK_SIZE)
            for i in range(layout.slot_blocks)
        )
        slots: list[bytes | None] = []
        for phys in range(layout.n_blocks):
            slot = raw[phys * SLOT_SIZE:(phys + 1) * SLOT_SIZE]
            slots.append(None if slot == b"\x00" * SLOT_SIZE else slot)
        verity = None
        if layout.mode is ProtectionMode.VERITY:
            blob = b"".join(
                iface.disk_read(layout.verity_region_offset() + i * BLOCK_SIZE)
                for i in range(layout.verity_blocks)
            )
            verity = VerityTree.deserialize(blob)
            if trusted_root is None:
                raise ParameterError("verity images require the trusted root hash")
        return cls(iface, layout, key, slots, verity, trusted_root)

    # Data path --------------------------------------------------------

    def read_block(self, phys: int) -> bytes:
        raw = self.iface.disk_read(self.layout.data_offset(phys))
        if self.mode is ProtectionMode.PLAIN:
            return raw
        if self.mode is ProtectionMode.VERITY:
            verify_verity(self.verity, self.trusted_root, phys, raw)
            return raw
        slot = self.slots[phys]
        if slot is None:
            raise IntegrityError(f"block {phys} was never written")
        enc = EncryptedBlock(slot[:NONCE_SIZE], raw, slot[NONCE_SIZE:])
        freshness = (
            self.freshness if self.mode is ProtectionMode.CRYPT_INTEGRITY else None
        )
        return open_block(self.key, phys, enc, freshness)

    def write_block(self, phys: int, plaintext: bytes, dummy: bool = False) -> None:
        if self.sealed:
            raise ModeError("image is sealed read-only")
        if self.mode in (ProtectionMode.PLAIN, ProtectionMode.VERITY):
            if len(plaintext) != BLOCK_SIZE:
                raise SizeError("plaintext must be exactly one block")
            self.iface.disk_write(self.layout.data_offset(phys), plaintext, dummy)
            return
        enc = seal_block(self.key, phys, plaintext, self.freshness)
        self.iface.disk_write(self.layout.data_offset(phys), enc.ciphertext, dummy)
        self.slots[phys] = enc.slot()

    def dummy_read(self, phys: int) -> None:
        """Fetch and discard; padding traffic never decrypts."""
        self.iface.disk_read(self.layout.data_offset(phys), dummy=True)

    def dummy_write(self, phys: int) -> None:
        """Overwrite a sacrificial block with a freshly sealed zero block.

        On encrypted images each seal draws a fresh nonce and bumps the
        block's version, and under AES-256-GCM the sealed zeros cannot be
        told from sealed noise, so nothing is lost by skipping the random
        plaintext. On PLAIN images the pad block then holds zeros; PLAIN
        hides nothing, and oblivious runs refuse it.
        """
        self.write_block(phys, _ZERO_BLOCK, dummy=True)

    # Sealing and persistence -------------------------------------------

    def seal_readonly(self) -> bytes:
        """Build the hash tree over current contents; returns the root."""
        if self.mode is not ProtectionMode.VERITY:
            raise ModeError("only verity images are sealed read-only")
        blocks = (
            self.iface.disk_read(self.layout.data_offset(p))
            for p in range(self.n_blocks)
        )
        self.verity = VerityTree.build(blocks)
        self.trusted_root = self.verity.root
        self.sealed = True
        self._persist_verity()
        return self.trusted_root

    def _persist_verity(self) -> None:
        blob = self.verity.serialize()
        blob += b"\x00" * (self.layout.verity_blocks * BLOCK_SIZE - len(blob))
        for i in range(self.layout.verity_blocks):
            self.iface.disk_write(
                self.layout.verity_region_offset() + i * BLOCK_SIZE,
                blob[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE])

    def persist_metadata(self) -> None:
        """Flush slot cache (and verity tree) back into the image."""
        raw = b"".join(
            (s if s is not None else b"\x00" * SLOT_SIZE) for s in self.slots
        )
        raw += b"\x00" * (self.layout.slot_blocks * BLOCK_SIZE - len(raw))
        for i in range(self.layout.slot_blocks):
            self.iface.disk_write(
                self.layout.slot_region_offset() + i * BLOCK_SIZE,
                raw[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE])
        if self.verity is not None:
            self._persist_verity()
