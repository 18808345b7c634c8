"""Block protection and the image container format.

Two protection modes: PLAIN (nothing; the baseline and the
passthrough path's negative control) and CRYPT_INTEGRITY
(confidentiality plus tamper and replay detection).

Every unit of an image is one record of ``RECORD_SIZE`` bytes, and a
disk call moves one record: a block and the 40 bytes of its seal. The
host stores the seal beside the block, so the only per-block state the
enclave keeps is the block's write counter.

Encrypted blocks use an AEAD (AES-256-GCM) with a fresh random nonce
per write, so two writes of the same plaintext never repeat on disk,
and with the physical block index bound as associated data, so a
record presented at the wrong block fails to open. The nonce's 16
leading bytes are OS randomness, each prefix used once in the process:
one ``os.urandom`` call fills a pool of ``_POOL_PREFIXES`` prefixes and
a forked child starts with an empty pool, so parent and child never
share one. The block's write counter rides in the low 8 bytes of the
24-byte nonce. A sealed record is AES-GCM's own output (ciphertext,
then tag) followed by the nonce, the on-disk form and the only one. A
``BlockStore`` holds the image's one AEAD object and one write counter
per block; a record whose counter disagrees with the store's is
reported as a replay, distinct from a tag failure, and a record never
written fails its tag. A counter names a write and orders nothing: each
store draws a random start below 2**63 at its first write, and each of
its writes takes the next value from there, so two stores mounted from one image
seal at counters of their own and refuse each other's records. Padding
is sealed zeros: under a fresh nonce they cannot be told from sealed
noise.

A mounted image's byte traffic all goes through the host interface.
The owner's offline build makes no host call: ``seal_new_image`` seals
every block of a new image at version 1, in one sweep in block order
straight into ``new_image``'s private mapping, and writes the counter
region there too, before any host holds the image.

An encrypted image's header names it with 16 random bytes, and a store
seals under a key derived from the owner's key and that id, so no two
images share a root or a record.

An image rests on one trusted root, the SHA-256 of the header record
and the counter region, which holds every block's write counter:
``persist_metadata`` returns it, and a mount given it refuses any other
header or counter region, so neither a rolled-back record nor another
image's metadata gets past it. Two forks of one image write at counters
drawn apart, so neither's record opens in the other (FORMATS.md).

The container layout (header, counter region, data) is in FORMATS.md.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import hmac
import mmap
import os
import struct
import sys
from array import array
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import IntegrityError, ParameterError, ReplayError, SizeError
from .hostiface import BLOCK_SIZE, RECORD_SIZE, HostInterface

MAGIC = b"OBLV2"
KEY_SIZE = 32
NONCE_SIZE = 24
NONCE_RANDOM = 16  # leading random bytes; the rest carries the write counter
IMAGE_ID_SIZE = 16  # random bytes in the header naming the image
TAG_SIZE = 16
SEALED_SIZE = BLOCK_SIZE + TAG_SIZE  # AES-GCM's output, which the nonce follows
COUNTER_SIZE = 8  # one u64 LE write counter per block in the counter region

AEAD_NONE = 0
AEAD_AES256GCM = 1
HASH_NONE = 0

_POOL_PREFIXES = 256  # nonce prefixes per os.urandom call

_HEADER = struct.Struct(f"<5sIQBBB{IMAGE_ID_SIZE}s")
_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)  # where the platform has it
_HUGE_PAGE_SIZE = 2 << 20  # a new image is faulted in one write per huge page
_ZERO_BLOCK = bytes(BLOCK_SIZE)
_ZERO_SEAL = bytes(RECORD_SIZE - BLOCK_SIZE)  # a plain record's tail
_BIG_ENDIAN = sys.byteorder == "big"  # the counter region is little endian


class ProtectionMode(enum.Enum):
    PLAIN = 0
    CRYPT_INTEGRITY = 3  # 1 and 2 are retired and refused

    @property
    def encrypted(self) -> bool:
        return self is ProtectionMode.CRYPT_INTEGRITY


_aad = struct.Struct(">QQ").pack  # (phys, version) -> associated data
_record_version = struct.Struct(f">{SEALED_SIZE + NONCE_RANDOM}xQ").unpack  # the nonce's counter
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


def _seal(cipher: AESGCM, phys: int, version: int, plaintext, record):
    """The record rule: ``plaintext`` sealed as block ``phys`` at write
    counter ``version``, under the nonce fresh pool prefix ‖ version and
    with (phys, version) as associated data, is the record
    ciphertext ‖ tag ‖ nonce. Returned when ``record`` is None, else
    written into ``record``, a writable one-record buffer."""
    if len(plaintext) != BLOCK_SIZE:
        raise SizeError("plaintext must be exactly one block")
    try:
        prefix = _prefix_pool.pop()
    except IndexError:
        prefix = _nonce_prefix()
    nonce = _nonce(prefix, version)
    if record is None:
        return cipher.encrypt(nonce, plaintext, _aad(phys, version)) + nonce
    cipher.encrypt_into(nonce, plaintext, _aad(phys, version), record[:SEALED_SIZE])
    record[SEALED_SIZE:] = nonce
    return None


def seal_block(cipher: AESGCM, phys: int, version: int, plaintext: bytes) -> bytes:
    """Encrypt one block for physical block ``phys`` at write counter
    ``version``; returns its record, ciphertext ‖ tag ‖ nonce.

    Every call takes a fresh random nonce prefix from the pool, so
    sealing is probabilistic: equal plaintexts never produce equal
    ciphertexts.
    """
    return _seal(cipher, phys, version, plaintext, None)


def open_block(cipher: AESGCM, phys: int, record: bytes, version: int) -> bytes:
    """Decrypt and verify one block from its record.

    The write counter in the record's nonce must equal ``version``; a
    mismatch on an otherwise well-formed record means the host presented
    stale data and raises ReplayError. Tag failures raise IntegrityError.
    """
    if len(record) != RECORD_SIZE:
        raise SizeError("malformed sealed record")
    (found,) = _record_version(record)
    if found != version:
        raise ReplayError(f"block {phys}: version {found} != expected {version}")
    try:
        return cipher.decrypt(record[SEALED_SIZE:], record[:SEALED_SIZE],
                              _aad(phys, found))
    except InvalidTag as exc:
        raise IntegrityError(f"block {phys}: tag check failed") from exc


# ---------------------------------------------------------------------------
# Image container.
# ---------------------------------------------------------------------------

def _root(header: bytes, counter_region: bytes) -> bytes:
    """The trusted root: SHA-256 over the header record, then the counter region."""
    root = hashlib.sha256(header)
    root.update(counter_region)
    return root.digest()


def _counter_region(counters: array, records: int) -> bytes:
    """The counter region as written: one u64 LE per block, then zeros
    to the end of its ``records`` records."""
    if _BIG_ENDIAN:  # a byteswapped copy; the region is little endian
        counters = array("Q", counters)
        counters.byteswap()
    return counters.tobytes().ljust(records * RECORD_SIZE, b"\0")


def _image_cipher(layout: ImageLayout, key: bytes | None) -> AESGCM | None:
    """The AEAD an encrypted image seals under, keyed by the owner's key
    and the image id; None for a plain image, which takes no key."""
    if not layout.mode.encrypted:
        if key is not None:
            raise ParameterError("a plain image takes no key")
        return None
    if key is None or len(key) != KEY_SIZE:
        raise ParameterError("this image requires a 32-byte key")
    return AESGCM(hmac.digest(key, b"oblivsim image key" + layout.image_id, "sha256"))


@dataclass(frozen=True)
class ImageLayout:
    n_blocks: int
    mode: ProtectionMode
    counter_records: int
    image_id: bytes

    @property
    def data_start_record(self) -> int:
        return 1 + self.counter_records

    @property
    def total_bytes(self) -> int:
        return (self.data_start_record + self.n_blocks) * RECORD_SIZE

    def data_offset(self, phys: int) -> int:
        if not (0 <= phys < self.n_blocks):
            raise ParameterError(f"physical block {phys} out of range")
        return (self.data_start_record + phys) * RECORD_SIZE

    def header_record(self) -> bytes:
        """The header record exactly as written: fields, then zeros."""
        aead = AEAD_AES256GCM if self.mode.encrypted else AEAD_NONE
        fields = _HEADER.pack(MAGIC, BLOCK_SIZE, self.n_blocks, self.mode.value,
                              aead, HASH_NONE, self.image_id)
        return fields + bytes(RECORD_SIZE - len(fields))


def _layout(n_blocks: int, mode: ProtectionMode, image_id: bytes) -> ImageLayout:
    if not mode.encrypted:  # no key to bind: a plain image is named by zeros
        image_id = bytes(IMAGE_ID_SIZE)
    return ImageLayout(n_blocks, mode, -(-n_blocks * COUNTER_SIZE // RECORD_SIZE), image_id)


def layout_for(n_blocks: int, mode: ProtectionMode) -> ImageLayout:
    """The layout of a new image; an encrypted one gets a fresh random id."""
    return _layout(n_blocks, mode, os.urandom(IMAGE_ID_SIZE))


def new_image(layout: ImageLayout) -> mmap.mmap:
    """Fresh zeroed image of ``layout`` with its header written: a private
    anonymous mapping, off the process heap and unmapped with its last
    reference, advised to use huge pages and faulted in one write per 2 MiB."""
    image = mmap.mmap(-1, layout.total_bytes, flags=mmap.MAP_PRIVATE)
    if _HUGEPAGE is not None:
        with contextlib.suppress(OSError):  # a kernel without huge pages
            image.madvise(_HUGEPAGE)
    for offset in range(0, len(image), _HUGE_PAGE_SIZE):
        image[offset] = 0
    image[:RECORD_SIZE] = layout.header_record()
    return image


def seal_new_image(layout: ImageLayout, key: bytes | None,
                   pages: list) -> tuple[mmap.mmap, bytes | None]:
    """A new image of ``layout`` in ``new_image``'s mapping, and its root:
    ``pages`` holds each block's plaintext, a one-block buffer or None
    for zeros. One sweep in block order writes every record straight
    into the mapping, with no host call. An encrypted image seals each
    block at version 1 and gets the counter region ``persist_metadata``
    would write, every counter 1; a plain one holds each page as it is,
    beside a zero seal, and gets no root.
    """
    cipher = _image_cipher(layout, key)
    if len(pages) != layout.n_blocks:
        raise ParameterError(f"{len(pages)} pages for {layout.n_blocks} blocks")
    image = new_image(layout)
    at = layout.data_start_record * RECORD_SIZE
    if cipher is None:
        for page in pages:
            if page is not None:
                if len(page) != BLOCK_SIZE:
                    raise SizeError("plaintext must be exactly one block")
                image[at:at + BLOCK_SIZE] = page
            at += RECORD_SIZE
        return image, None
    view = memoryview(image)
    for phys, page in enumerate(pages):
        _seal(cipher, phys, 1, _ZERO_BLOCK if page is None else page,
              view[at:at + RECORD_SIZE])
        at += RECORD_SIZE
    region = _counter_region(array("Q", [1]) * layout.n_blocks, layout.counter_records)
    image[RECORD_SIZE:RECORD_SIZE + len(region)] = region
    return image, _root(layout.header_record(), region)


def parse_header(record: bytes) -> ImageLayout:
    magic, _bs, n_blocks, mode_v, _aead, _hash, image_id = _HEADER.unpack_from(record, 0)
    if magic != MAGIC:
        raise ParameterError("not a recognized image (bad magic)")
    try:
        mode = ProtectionMode(mode_v)
    except ValueError as exc:
        raise ParameterError(f"unknown protection mode {mode_v}") from exc
    layout = _layout(n_blocks, mode, image_id)
    if record != layout.header_record():
        raise ParameterError(f"header fields or padding do not fit a {mode.name} image")
    return layout


class BlockStore:
    """A mounted image: typed block reads/writes over the host boundary.

    Holds the image's one cipher and each block's write counter, the
    only per-block state kept in trusted memory: a block's seal travels
    in its record. All byte traffic goes through the host interface.
    persist_metadata() writes the counters and returns the image's
    trusted root.
    """

    def __init__(self, iface: HostInterface, layout: ImageLayout, key: bytes | None):
        self.iface = iface
        self.layout = layout
        # Write counters, kept in trusted memory; 0: never written.
        self.versions = array("Q", [0]) * layout.n_blocks
        # This store's writes take counters from a random start on, which
        # its first write draws: a mount allocates nothing for it.
        self._next_version: int | None = None
        self._data_base = layout.data_start_record * RECORD_SIZE
        self._cipher = _image_cipher(layout, key)

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
        header and the counter region must hash to it before any counter
        is used; a mismatch means the host presented other or older
        metadata and raises ReplayError.
        """
        header = iface.disk_read(0)
        layout = parse_header(header)
        region = b"".join(
            iface.disk_read((1 + i) * RECORD_SIZE) for i in range(layout.counter_records))
        if trusted_root is not None and not hmac.compare_digest(
                _root(header, region), trusted_root):
            raise ReplayError(
                "image header and counter region do not match the trusted root")
        # Built only now: a hostile n_blocks has failed the counter-region
        # reads above before it can size the store's counters, filled in place.
        store = cls(iface, layout, key)
        counters = memoryview(store.versions).cast("B")
        counters[:] = memoryview(region)[:len(counters)]
        if _BIG_ENDIAN:
            store.versions.byteswap()
        return store

    # Data path --------------------------------------------------------

    def read_block(self, phys: int) -> bytes:
        if not 0 <= phys < self.layout.n_blocks:
            raise ParameterError(f"physical block {phys} out of range")
        record = self.iface.disk_read(self._data_base + phys * RECORD_SIZE)
        if self._cipher is None:
            return record[:BLOCK_SIZE]
        return open_block(self._cipher, phys, record, self.versions[phys])

    def write_block(self, phys: int, plaintext: bytes) -> None:
        if not 0 <= phys < self.layout.n_blocks:
            raise ParameterError(f"physical block {phys} out of range")
        offset = self._data_base + phys * RECORD_SIZE
        if self._cipher is not None:
            version = self._next_version
            if version is None:
                version = int.from_bytes(os.urandom(COUNTER_SIZE), "big") >> 1
            self.iface.disk_write(offset, seal_block(self._cipher, phys, version, plaintext))
            self.versions[phys] = version
            self._next_version = version + 1
            return
        if len(plaintext) != BLOCK_SIZE:
            raise SizeError("plaintext must be exactly one block")
        self.iface.disk_write(offset, b"".join((plaintext, _ZERO_SEAL)))

    def dummy_read(self, phys: int) -> None:
        """Fetch and discard; padding traffic never decrypts. The host
        sees the same call a real read of ``phys`` makes."""
        if not 0 <= phys < self.layout.n_blocks:
            raise ParameterError(f"physical block {phys} out of range")
        self.iface.disk_read(self._data_base + phys * RECORD_SIZE)

    def dummy_write(self, phys: int) -> None:
        """Overwrite a padding block with sealed zeros, which under a fresh
        nonce cannot be told from sealed noise (a new image holds the same,
        from ``seal_new_image``). The host sees the call a real write of
        ``phys`` makes; the caller counts which were padding. A PLAIN pad
        block holds zeros: PLAIN hides nothing, and a protected mount
        refuses it."""
        self.write_block(phys, _ZERO_BLOCK)

    # Persistence ------------------------------------------------------

    def persist_metadata(self) -> bytes:
        """Write every write counter to the counter region; returns the
        trusted root over the header and the counter region as written."""
        records = self.layout.counter_records
        region = _counter_region(self.versions, records)
        for i in range(records):
            self.iface.disk_write(
                (1 + i) * RECORD_SIZE, region[i * RECORD_SIZE:(i + 1) * RECORD_SIZE])
        return _root(self.layout.header_record(), region)
