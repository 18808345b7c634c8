"""Block protection and the image container format.

Two protection modes: PLAIN (nothing; the baseline and the
passthrough path's negative control) and CRYPT_INTEGRITY
(confidentiality plus tamper and replay detection).

Encrypted blocks use an AEAD (AES-256-GCM) with a fresh random nonce
per write, so two writes of the same plaintext never repeat on disk,
and with the physical block index bound as associated data, so a
ciphertext presented at the wrong slot fails to open. The nonce's 16
leading bytes are OS randomness, each prefix used once in the process:
one ``os.urandom`` call fills a pool of ``_POOL_PREFIXES`` prefixes and
a forked child starts with an empty pool, so parent and child never
share one. The block's write counter rides in the low 8 bytes of the
24-byte nonce. A sealed block is its 40-byte slot (nonce, then tag) and
its ciphertext, the on-disk form and the only one. A ``BlockStore``
holds the image's one AEAD object and one write counter per block; a
slot whose counter disagrees with the store's is reported as a replay,
distinct from a tag failure. Padding is sealed zeros: under a fresh
nonce they cannot be told from sealed noise.

A mounted image's byte traffic all goes through the host interface.
The one exception is the owner's offline build: ``new_image`` hands the
builder a private mapping, and ``BlockStore.seal_first`` seals each
file block, and then (``seal_unwritten``) the padding, straight into it
as the block's first write, before any host holds the image.

An encrypted image rests on one trusted root, the SHA-256 of the
header block and the whole slot region: ``persist_metadata`` returns
it, and a mount given it refuses any other header or slot region, so
neither a stale slot nor another image's metadata gets past it.

The container layout (header, slot region, data) is in FORMATS.md.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import hmac
import mmap
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

_POOL_PREFIXES = 256  # nonce prefixes per os.urandom call

_HEADER = struct.Struct("<5sIQBBB")
_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)  # where the platform has it
_HUGE_PAGE_SIZE = 2 << 20  # a new image is faulted in one write per huge page
_ZERO_BLOCK = bytes(BLOCK_SIZE)
_ZERO_SLOT = bytes(SLOT_SIZE)


class ProtectionMode(enum.Enum):
    PLAIN = 0
    CRYPT_INTEGRITY = 3  # 1 and 2 are retired and refused

    @property
    def encrypted(self) -> bool:
        return self is ProtectionMode.CRYPT_INTEGRITY


_aad = struct.Struct(">QQ").pack  # (phys, version) -> associated data
_slot = struct.Struct(f"{SLOT_SIZE}s")
_slot_version = struct.Struct(f">{NONCE_RANDOM}xQ{TAG_SIZE}x")  # the nonce's counter
_nonce = struct.Struct(f">{NONCE_RANDOM}sQ").pack  # (prefix, version) -> nonce
_split_prefixes = struct.Struct(f"{NONCE_RANDOM}s" * _POOL_PREFIXES).unpack

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


def seal_block(cipher: AESGCM, phys: int, version: int,
               plaintext: bytes) -> tuple[bytes, bytes]:
    """Encrypt one block for physical slot ``phys`` at write counter
    ``version``; returns its slot (nonce ‖ tag) and its ciphertext.

    Every call takes a fresh random nonce prefix from the pool, so
    sealing is probabilistic: equal plaintexts never produce equal
    ciphertexts.
    """
    if len(plaintext) != BLOCK_SIZE:
        raise SizeError("plaintext must be exactly one block")
    try:
        prefix = _prefix_pool.pop()
    except IndexError:
        prefix = _nonce_prefix()
    nonce = _nonce(prefix, version)
    sealed = cipher.encrypt(nonce, plaintext, _aad(phys, version))
    return nonce + sealed[BLOCK_SIZE:], sealed[:BLOCK_SIZE]


def open_block(cipher: AESGCM, phys: int, slot: bytes, ciphertext: bytes,
               version: int) -> bytes:
    """Decrypt and verify one block from its slot and ciphertext.

    The write counter in the slot's nonce must equal ``version``; a
    mismatch on an otherwise well-formed block means the host presented
    stale data and raises ReplayError. Tag failures raise IntegrityError.
    """
    if len(slot) != SLOT_SIZE:
        raise SizeError("malformed sealed block")
    (found,) = _slot_version.unpack(slot)
    if found != version:
        raise ReplayError(f"block {phys}: version {found} != expected {version}")
    try:
        return cipher.decrypt(slot[:NONCE_SIZE], ciphertext + slot[NONCE_SIZE:],
                              _aad(phys, found))
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
        fields = _HEADER.pack(MAGIC, BLOCK_SIZE, self.n_blocks, self.mode.value,
                              aead, HASH_NONE)
        return fields + bytes(BLOCK_SIZE - len(fields))


def layout_for(n_blocks: int, mode: ProtectionMode) -> ImageLayout:
    return ImageLayout(n_blocks, mode, _blocks_for(n_blocks * SLOT_SIZE))


def new_image(n_blocks: int, mode: ProtectionMode) -> mmap.mmap:
    """Fresh zeroed image with a written header: a private anonymous
    mapping of the image's size, unmapped when the last reference to it
    goes, so it never sits in the process heap. It is advised to use huge
    pages where the platform has them and faulted in with one write per
    2 MiB; pages the kernel maps one at a time fault in as the builder
    writes them."""
    layout = layout_for(n_blocks, mode)
    image = mmap.mmap(-1, layout.total_bytes, flags=mmap.MAP_PRIVATE)
    if _HUGEPAGE is not None:
        with contextlib.suppress(OSError):  # a kernel without huge pages
            image.madvise(_HUGEPAGE)
    for offset in range(0, len(image), _HUGE_PAGE_SIZE):
        image[offset] = 0
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

    Holds the image's one cipher, the slot cache and each block's write
    counter. All byte traffic with a mounted image goes through the host
    interface; per-block metadata is cached in trusted memory and
    persisted in bulk by persist_metadata(), which returns the image's
    trusted root. The one exception is the builder's: ``seal_first``,
    which stores every file block and, through ``seal_unwritten``, every
    padding block, writes a new image its owner still holds directly.
    """

    def __init__(self, iface: HostInterface, layout: ImageLayout, key: bytes | None):
        self.iface = iface
        self.layout = layout
        self.slots: list[bytes | None] = [None] * layout.n_blocks  # None: never written
        self.versions = [0] * layout.n_blocks  # write counters, kept in trusted memory
        self._data_base = layout.data_start_block * BLOCK_SIZE
        self._cipher = None
        if layout.mode.encrypted:
            if key is None or len(key) != KEY_SIZE:
                raise ParameterError("this image requires a 32-byte key")
            self._cipher = AESGCM(key)
        elif key is not None:
            raise ParameterError("a plain image takes no key")

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
        metadata and raises ReplayError.
        """
        header = iface.disk_read(0)
        layout = parse_header(header)
        raw = b"".join(
            iface.disk_read(layout.slot_region_offset() + i * BLOCK_SIZE)
            for i in range(layout.slot_blocks)
        )
        if trusted_root is not None and not hmac.compare_digest(
                _root(header, raw), trusted_root):
            raise ReplayError(
                "image header and slot region do not match the trusted root")
        # Built only now: a hostile n_blocks has failed the slot-region
        # reads above before it can size the store's lists.
        store = cls(iface, layout, key)
        region = memoryview(raw)[:layout.n_blocks * SLOT_SIZE]
        store.slots = [None if slot == _ZERO_SLOT else slot
                       for (slot,) in _slot.iter_unpack(region)]
        if store._cipher is not None:
            store.versions = [version for (version,) in _slot_version.iter_unpack(region)]
        return store

    # Data path --------------------------------------------------------

    def read_block(self, phys: int) -> bytes:
        if not 0 <= phys < self.layout.n_blocks:
            raise ParameterError(f"physical block {phys} out of range")
        raw = self.iface.disk_read(self._data_base + phys * BLOCK_SIZE)
        if self._cipher is None:
            return raw
        slot = self.slots[phys]
        if slot is None:
            raise IntegrityError(f"block {phys} was never written")
        return open_block(self._cipher, phys, slot, raw, self.versions[phys])

    def write_block(self, phys: int, plaintext: bytes) -> None:
        if not 0 <= phys < self.layout.n_blocks:
            raise ParameterError(f"physical block {phys} out of range")
        offset = self._data_base + phys * BLOCK_SIZE
        if self._cipher is not None:
            version = self.versions[phys] + 1
            slot, ciphertext = seal_block(self._cipher, phys, version, plaintext)
            self.iface.disk_write(offset, ciphertext)
            self.slots[phys] = slot
            self.versions[phys] = version
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
        random plaintext. A run's padding writes take this path; the image
        builder seals the same zeros in ``seal_unwritten``. The host sees
        the same call a real write of ``phys`` makes; which writes were
        padding is counted by the caller, not recorded in the trace. On
        PLAIN images the pad block then holds zeros; PLAIN hides nothing,
        and a protected mount refuses it (``Engine``).
        """
        self.write_block(phys, _ZERO_BLOCK)

    def seal_first(self, image: bytearray | mmap.mmap, phys: int, page) -> None:
        """Store ``page``, any one-block buffer, as block ``phys``'s first
        write straight into ``image``, the buffer behind this store: sealed
        at version 1 with its slot and counter on an encrypted image, as it
        is on a plain one. No host call is made; only the owner's offline
        build of a new image, which no host observes, calls this."""
        if not 0 <= phys < self.layout.n_blocks:
            raise ParameterError(f"physical block {phys} out of range")
        if self._cipher is not None:
            self.slots[phys], page = seal_block(self._cipher, phys, 1, page)
            self.versions[phys] = 1
        elif len(page) != BLOCK_SIZE:
            raise SizeError("plaintext must be exactly one block")
        offset = self._data_base + phys * BLOCK_SIZE
        image[offset:offset + BLOCK_SIZE] = page

    def seal_unwritten(self, image: bytearray | mmap.mmap) -> int:
        """Seal zeros into every never-written block with ``seal_first``,
        straight into ``image``; returns how many. Written blocks are left
        alone, so a second call seals nothing."""
        if self._cipher is None:
            raise ModeError("only an encrypted image has padding to seal")
        sealed = 0  # counted, not listed: a list of block numbers costs peak memory
        for phys, slot in enumerate(self.slots):
            if slot is None:
                self.seal_first(image, phys, _ZERO_BLOCK)
                sealed += 1
        return sealed

    # Persistence ------------------------------------------------------

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
