"""Minimal block-mapped filesystem.

Flat namespace (files are small integer ids), direct block maps, one
free-block bitmap. No directories, journaling or permissions; the point
is the physical layout, which is randomized: every allocation draws a
uniformly random free block, so logical adjacency says nothing about
physical adjacency from the moment an image is created.

Every file carries data. The blocks that padding traffic reads and
writes (the padding domain) belong to no file: ``format`` draws
``DUMMY_FRACTION`` of the disk for them before any file exists, and
``load`` finds them again as the allocated data blocks that no file
maps. A shuffle pass draws each block's new home like any allocation
(``draw_home``); the homes it vacates (a plain list with no inode) stay
allocated until the pass ends, so every new home comes from the pool
as it stood at the start (``shuffle`` gives the argument).

The on-disk layout (superblock, bitmap, inode table), the geometry rule
and the one consistency rule are specified in FORMATS.md. ``fsck`` is
the only statement of that rule; ``load`` refuses any image that breaks
it, because the host stores the image between mounts.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Protocol

from .errors import (
    DescriptorError,
    ParameterError,
    RangeError,
    ShuffleImpossibleError,
    SpaceError,
)
from .hostiface import BLOCK_SIZE
from .rng import Rng

FS_MAGIC = b"OBFS1"
UNMAPPED = 0xFFFFFFFF

FLAG_REGULAR = 0
DUMMY_FRACTION = 0.10  # share of the disk drawn as the padding domain

_SB = struct.Struct("<5sQIIIIIIQ")
_MAP_AT = 14  # an inode entry's block map follows used, flags, size, nblocks
_BITS = [bytes(b >> k & 1 for k in range(8)) for b in range(256)]  # bitmap byte -> 8 flags
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class BlockIo(Protocol):
    """How file data reaches the disk; implemented by the cached path
    (page cache + batched rounds) and by the direct path."""

    def read_block(self, fd: int, lblk: int) -> bytes: ...

    def write_block(self, fd: int, lblk: int, page: bytes) -> None: ...


@dataclass
class Inode:
    used: bool = False
    flags: int = FLAG_REGULAR
    size: int = 0
    block_map: list[int] | None = None

    @property
    def nblocks(self) -> int:
        return (self.size + BLOCK_SIZE - 1) // BLOCK_SIZE


def _inode_struct(max_file_blocks: int) -> struct.Struct:
    """One inode-table entry: used, flags, size, nblocks, block map."""
    return struct.Struct(f"<BBQI{max_file_blocks}I")


def _blocks_for(nbytes: int) -> int:
    return (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE


def _padded(data: bytes, blocks: int) -> bytes:
    return data + b"\x00" * (blocks * BLOCK_SIZE - len(data))


def _bitmap_blocks(n_blocks: int) -> int:
    return _blocks_for((n_blocks + 7) // 8)


def _itab_blocks(max_files: int, max_file_blocks: int) -> int:
    return _blocks_for(max_files * _inode_struct(max_file_blocks).size)


def metadata_block_count(n_blocks: int, max_files: int, max_file_blocks: int) -> int:
    return 1 + _bitmap_blocks(n_blocks) + _itab_blocks(max_files, max_file_blocks)


def default_geometry(n_blocks: int) -> tuple[int, int]:
    """(max_files, max_file_blocks) scaled to the disk size."""
    max_file_blocks = min(64, n_blocks)
    max_files = min(128, max(16, n_blocks // 8))
    return max_files, max_file_blocks


class BlockFs:
    def __init__(self, n_blocks: int, max_files: int, max_file_blocks: int,
                 rng: Rng):
        self.n_blocks = n_blocks
        self.max_files = max_files
        self.max_file_blocks = max_file_blocks
        self.rng = rng
        self.bitmap = bytearray((n_blocks + 7) // 8)
        self.inodes = [Inode() for _ in range(max_files)]
        # 4-byte block numbers, not lists of int objects: 4 bytes of
        # trusted memory per free or padding block.
        self._free = array("I")
        self._padding = array("I")

    # Bitmap and allocation --------------------------------------------

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def metadata_blocks(self) -> int:
        return metadata_block_count(self.n_blocks, self.max_files,
                                    self.max_file_blocks)

    def allocate_block(self) -> int:
        """Uniformly random free block; this is what randomizes layout."""
        return self.draw_home(())

    def free_block(self, phys: int) -> None:
        self.unlink_all((phys,))

    # Formatting and (de)serialization ----------------------------------

    @classmethod
    def format(cls, n_blocks: int, rng: Rng, *, max_files: int | None = None,
               max_file_blocks: int | None = None) -> "BlockFs":
        if n_blocks < 8:
            raise ParameterError("filesystem needs at least 8 blocks")
        df_files, df_blocks = default_geometry(n_blocks)
        max_files = max_files if max_files is not None else df_files
        max_file_blocks = (max_file_blocks if max_file_blocks is not None
                           else df_blocks)
        if min(max_files, max_file_blocks) < 1:
            raise ParameterError(f"max_files {max_files}, max_file_blocks "
                                 f"{max_file_blocks}: each must be at least 1")
        fs = cls(n_blocks, max_files, max_file_blocks, rng)
        meta = fs.metadata_blocks
        if meta >= n_blocks:
            raise SpaceError("filesystem metadata does not fit")
        for phys in range(meta):
            fs.bitmap[phys >> 3] |= 1 << (phys & 7)
        fs._free.extend(range(meta, n_blocks))
        fs._padding = array("I", sorted(fs.allocate_block()
                                        for _ in range(int(n_blocks * DUMMY_FRACTION))))
        return fs

    def persist(self, store) -> None:
        """Encode the metadata region once (superblock, bitmap and inode
        table, each zero-padded to whole blocks) and write it to blocks
        ``0 .. metadata_blocks-1`` in order."""
        bmb = _bitmap_blocks(self.n_blocks)
        itb = _itab_blocks(self.max_files, self.max_file_blocks)
        entry = _inode_struct(self.max_file_blocks)
        # An unused entry is its flag and zeros, so each distinct one is packed once.
        no_map = [UNMAPPED] * self.max_file_blocks
        unused = {flags: entry.pack(0, flags, 0, 0, *no_map)
                  for flags in {ino.flags for ino in self.inodes if not ino.used}}
        itab = b"".join([
            entry.pack(1, ino.flags, ino.size, ino.nblocks,
                       *[UNMAPPED if p is None else p for p in ino.block_map])
            if ino.used else unused[ino.flags]
            for ino in self.inodes])
        region = b"".join((
            _padded(_SB.pack(FS_MAGIC, self.n_blocks, 1, bmb, 1 + bmb, itb,
                             self.max_files, self.max_file_blocks,
                             self.free_blocks), 1),
            _padded(self.bitmap, bmb),
            _padded(itab, itb),
        ))
        for phys in range(self.metadata_blocks):
            store.write_block(phys, region[phys * BLOCK_SIZE:(phys + 1) * BLOCK_SIZE])

    @classmethod
    def load(cls, store, rng: Rng) -> "BlockFs":
        sb = store.read_block(0)
        magic, n_blocks, bitmap_start, bmb, itab_start, itb, max_files, \
            max_file_blocks, free_blocks = _SB.unpack_from(sb, 0)
        if magic != FS_MAGIC:
            raise ParameterError("no filesystem on this image")
        # Check the geometry before the constructor sizes anything by it.
        if n_blocks != store.n_blocks:
            raise ParameterError("superblock block count disagrees with the image")
        want_bmb = _bitmap_blocks(n_blocks)
        if (bitmap_start, bmb, itab_start, itb) != (
                1, want_bmb, 1 + want_bmb,
                _itab_blocks(max_files, max_file_blocks)):
            raise ParameterError("superblock region geometry is inconsistent")
        if metadata_block_count(n_blocks, max_files, max_file_blocks) >= n_blocks:
            raise ParameterError("filesystem metadata does not fit the image")
        fs = cls(n_blocks, max_files, max_file_blocks, rng)
        region = b"".join(store.read_block(phys)
                          for phys in range(1, fs.metadata_blocks))
        fs.bitmap = bytearray(region[:(n_blocks + 7) // 8])
        entry = _inode_struct(max_file_blocks)
        itab = memoryview(region)[bmb * BLOCK_SIZE:bmb * BLOCK_SIZE + max_files * entry.size]
        # used, flags and size of every entry; the block map of used ones only.
        head = struct.Struct(f"<BBQ4x{4 * max_file_blocks}x")
        block_map = struct.Struct(f"<{max_file_blocks}I").unpack_from
        for fd, (used, flags, size) in enumerate(head.iter_unpack(itab)):
            ino = fs.inodes[fd]
            ino.flags, ino.size = flags, size
            if used:
                ino.used = True
                ino.block_map = [None if p == UNMAPPED else p
                                 for p in block_map(itab, fd * entry.size + _MAP_AT)]
        # One byte per block, 1 where the bitmap marks it allocated.
        allocated = bytearray(b"".join(map(_BITS.__getitem__, fs.bitmap))[:n_blocks])
        fs._free = array("I", compress(range(n_blocks), allocated.translate(_FLIP)))
        for ino in fs.inodes:
            if ino.used:
                for p in ino.block_map:
                    if p is not None and p < n_blocks:
                        allocated[p] = 0
        meta = fs.metadata_blocks
        fs._padding = array("I", compress(range(meta, n_blocks), allocated[meta:]))
        if fs.free_blocks != free_blocks:
            raise ParameterError("superblock free count disagrees with bitmap")
        problems = fs.fsck()
        if problems:
            raise ParameterError(problems[0])
        return fs

    # Files --------------------------------------------------------------

    def _inode(self, fd: int) -> Inode:
        if not (0 <= fd < self.max_files) or not self.inodes[fd].used:
            raise DescriptorError(f"no such file {fd}")
        return self.inodes[fd]

    def create_file(self) -> int:
        """A new empty regular file, the only kind there is."""
        for fd, ino in enumerate(self.inodes):
            if not ino.used:
                ino.used = True
                ino.flags = FLAG_REGULAR
                ino.size = 0
                ino.block_map = [None] * self.max_file_blocks
                return fd
        raise SpaceError("inode table full")

    def unlink(self, fd: int) -> None:
        ino = self._inode(fd)
        self.unlink_all([phys for phys in ino.block_map if phys is not None])
        ino.used = False
        ino.size = 0
        ino.block_map = None

    def phys_of(self, fd: int, lblk: int) -> int:
        ino = self._inode(fd)
        if not (0 <= lblk < self.max_file_blocks) or ino.block_map[lblk] is None:
            raise RangeError(f"file {fd} has no block {lblk}")
        return ino.block_map[lblk]

    def files_with_flag(self, flags: int) -> list[int]:
        return [fd for fd, ino in enumerate(self.inodes)
                if ino.used and ino.flags == flags]

    def dummy_blocks(self) -> memoryview:
        """The padding domain, in ascending block order: a read-only view
        of the filesystem's own array, so the domain is held once."""
        return memoryview(self._padding).toreadonly()

    # Data path ----------------------------------------------------------

    def file_size(self, fd: int) -> int:
        return self._inode(fd).size

    def file_blocks(self, fd: int) -> int:
        return self._inode(fd).nblocks

    def file_read(self, io: BlockIo, fd: int, offset: int, length: int) -> bytes:
        ino = self._inode(fd)
        if offset < 0 or length < 0 or offset + length > ino.size:
            raise RangeError("read outside file")
        chunks = []
        pos = offset
        end = offset + length
        while pos < end:
            lblk, boff = divmod(pos, BLOCK_SIZE)
            n = min(BLOCK_SIZE - boff, end - pos)
            page = io.read_block(fd, lblk)
            chunks.append(page[boff:boff + n])
            pos += n
        return b"".join(chunks)

    def check_write(self, fd: int, offset: int, length: int) -> int:
        """The number of blocks a write of ``length`` bytes at ``offset``
        adds to file ``fd``. A write that would leave a hole or pass the
        per-file block limit is refused with ``RangeError``."""
        ino = self._inode(fd)
        if offset < 0 or offset > ino.size:
            raise RangeError("write would leave a hole")
        end = offset + length
        if end > self.max_file_blocks * BLOCK_SIZE:
            raise RangeError("file would exceed the per-file block limit")
        return max(0, _blocks_for(end) - ino.nblocks)

    def file_write(self, io: BlockIo, fd: int, offset: int, data: bytes) -> None:
        self.check_write(fd, offset, len(data))
        ino = self.inodes[fd]
        pos, end = offset, offset + len(data)
        while pos < end:
            lblk, boff = divmod(pos, BLOCK_SIZE)
            n = min(BLOCK_SIZE - boff, end - pos)
            chunk = data[pos - offset:pos - offset + n]
            written_bytes = ino.size - lblk * BLOCK_SIZE
            fresh = ino.block_map[lblk] is None
            if fresh:
                ino.block_map[lblk] = self.allocate_block()
                written_bytes = 0
            if n == BLOCK_SIZE:
                page = chunk
            elif written_bytes <= 0:
                # Fresh block: no on-disk content to preserve.
                page = (b"\x00" * boff + chunk +
                        b"\x00" * (BLOCK_SIZE - boff - n))
            else:
                old = io.read_block(fd, lblk)
                page = old[:boff] + chunk + old[boff + n:]
            try:
                io.write_block(fd, lblk, page)
            except BaseException:
                if fresh:  # the block never joined the file
                    self.free_block(ino.block_map[lblk])
                    ino.block_map[lblk] = None
                raise
            pos += n
            # Each block joins the file as it is written: a shuffle pass
            # can run between two blocks, and walks what the size covers.
            ino.size = max(ino.size, pos)

    # Shuffle support ------------------------------------------------------

    def create_donors(self) -> list[int]:
        """A shuffle pass's list of the homes it vacates, none yet. Refused
        when the free pool is empty: the pass's first step could draw no
        home, and every later step can reuse one the pass vacated."""
        if not self.free_blocks:
            raise ShuffleImpossibleError("0 free blocks; a shuffle pass needs 1")
        return []

    def draw_home(self, vacated: list[int]) -> int:
        """A block's new home, in one draw: a uniformly random free block,
        swapped out of the pool, or, once the pool is empty, a uniformly
        random block taken out of ``vacated``. ``allocate_block`` passes
        no vacated homes; a shuffle pass passes the ones it vacated."""
        free = self._free
        if free:
            i = self.rng.randbelow(len(free))
            phys = free[i]
            free[i] = free[-1]
            free.pop()
            self.bitmap[phys >> 3] |= 1 << (phys & 7)
            return phys
        if not vacated:
            raise SpaceError("no free blocks")
        return vacated.pop(self.rng.randbelow(len(vacated)))

    def move_extent(self, block_map: list[int], lblk: int, vacated: list[int]) -> int:
        """Re-home mapped block ``lblk`` of a used inode's ``block_map`` at
        a ``draw_home`` draw, append its old home to ``vacated`` and return
        the new one. The caller resolved the map, so nothing is checked."""
        home = self.draw_home(vacated)
        vacated.append(block_map[lblk])
        block_map[lblk] = home
        return home

    def unlink_all(self, blocks) -> None:
        """Free ``blocks`` in order, in one sweep over the bitmap: an
        unlinked file's blocks, or a pass's homes in the order it vacated them."""
        bitmap, free = self.bitmap, self._free
        for phys in blocks:
            byte, mask = phys >> 3, 1 << (phys & 7)
            if not bitmap[byte] & mask:
                raise ParameterError(f"block {phys} already free")
            bitmap[byte] &= ~mask
            free.append(phys)

    # Consistency ------------------------------------------------------------

    def fsck(self) -> list[str]:
        """Check the filesystem's consistency rule; returns the problems
        found, empty when clean. ``load`` refuses an image on the first
        one, so every mounted filesystem obeys it:

        * a used inode carries the one known flag, regular;
        * a used inode maps exactly its first ceil(size / BLOCK_SIZE)
          entries (files have no holes), at most ``max_file_blocks``;
        * each mapped block lies in the data region and is mapped once;
        * the bitmap marks allocated exactly the metadata blocks, the
          mapped blocks and the padding blocks, and no bit past
          ``n_blocks``;
        * ``int(n_blocks * DUMMY_FRACTION)`` allocated data blocks are
          mapped by no file: the padding domain;
        * the free list holds one entry per clear bit.
        """
        problems = []
        n, meta, limit = self.n_blocks, self.metadata_blocks, self.max_file_blocks
        implied = bytearray(len(self.bitmap))
        for p in range(meta):
            implied[p >> 3] |= 1 << (p & 7)
        for fd, ino in enumerate(self.inodes):
            if not ino.used:
                continue
            if ino.flags != FLAG_REGULAR:
                problems.append(f"file {fd}: unknown flag {ino.flags}")
            nblocks, block_map = ino.nblocks, ino.block_map
            if nblocks > limit:
                problems.append(f"file {fd}: size exceeds the per-file block limit")
            elif (None in block_map[:nblocks]
                  or block_map[nblocks:].count(None) != len(block_map) - nblocks):
                problems.append(f"file {fd}: size disagrees with its block map")
            for p in block_map:
                if p is None:
                    continue
                if not meta <= p < n:
                    problems.append(f"file {fd}: block {p} is outside the data region")
                elif implied[p >> 3] & 1 << (p & 7):
                    problems.append(f"file {fd}: block {p} is mapped twice")
                else:
                    implied[p >> 3] |= 1 << (p & 7)
        for p in self._padding:
            if implied[p >> 3] & 1 << (p & 7):
                problems.append(f"padding block {p} is mapped by a file")
            implied[p >> 3] |= 1 << (p & 7)
        if implied != self.bitmap:
            for p in range(8 * len(implied)):
                want = implied[p >> 3] >> (p & 7) & 1
                got = self.bitmap[p >> 3] >> (p & 7) & 1
                if want and not got:
                    problems.append(f"bitmap marks free block {p}, which is in use")
                elif got and not want:
                    why = "past the end" if p >= n else "which nothing maps"
                    problems.append(f"bitmap marks used block {p}, {why}")
        want = int(n * DUMMY_FRACTION)
        if len(self._padding) != want:
            problems.append(
                f"{len(self._padding)} data blocks are marked used, which "
                f"nothing maps; the padding domain has {want}")
        used = (int.from_bytes(self.bitmap, "little") & ((1 << n) - 1)).bit_count()
        if self.free_blocks != n - used:
            problems.append(
                f"free count {self.free_blocks} != bitmap free bits {n - used}")
        return problems
