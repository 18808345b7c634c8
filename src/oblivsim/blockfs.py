"""Minimal block-mapped filesystem.

Flat namespace (files are small integer ids), direct block maps, one
free-block bitmap. No directories, journaling or permissions; the point
is the physical layout, which is randomized: every allocation draws a
uniformly random free block, so logical adjacency says nothing about
physical adjacency from the moment an image is created.

Two file roles exist: regular files carry data, and dummy-pad files
reserve the blocks that padding traffic reads and writes; they are
created at format time from a configurable fraction of the disk. The
shuffle's scratch space (donors) is plain lists of slots with no inode,
each homed at a random free block when first used.

The on-disk layout (superblock, bitmap, inode table), the geometry rule
and the one consistency rule are specified in FORMATS.md. ``fsck`` is
the only statement of that rule; ``load`` refuses any image that breaks
it, because the host stores the image between mounts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Protocol

from .errors import (
    DescriptorError,
    ParameterError,
    RangeError,
    SpaceError,
)
from .hostiface import BLOCK_SIZE
from .rng import Rng

FS_MAGIC = b"OBFS1"
UNMAPPED = 0xFFFFFFFF

FLAG_REGULAR = 0
FLAG_DUMMY = 2

_SB = struct.Struct("<5sQIIIIIIQ")


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


@dataclass(frozen=True)
class FsStats:
    n_blocks: int
    metadata_blocks: int
    free_blocks: int
    regular_files: int
    dummy_files: int
    dummy_blocks: int


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
        self._free: list[int] = []

    # Bitmap and allocation --------------------------------------------

    def _bit(self, phys: int) -> bool:
        return bool(self.bitmap[phys // 8] & (1 << (phys % 8)))

    def _set_bit(self, phys: int, value: bool) -> None:
        if value:
            self.bitmap[phys // 8] |= 1 << (phys % 8)
        else:
            self.bitmap[phys // 8] &= ~(1 << (phys % 8))

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def metadata_blocks(self) -> int:
        return metadata_block_count(self.n_blocks, self.max_files,
                                    self.max_file_blocks)

    def allocate_block(self) -> int:
        """Uniformly random free block; this is what randomizes layout."""
        if not self._free:
            raise SpaceError("no free blocks")
        free = self._free
        i = self.rng.randbelow(len(free))
        phys = free[i]
        free[i] = free[-1]
        free.pop()
        self.bitmap[phys // 8] |= 1 << (phys % 8)
        return phys

    def free_block(self, phys: int) -> None:
        if self._bit(phys) is False:
            raise ParameterError(f"block {phys} already free")
        self._set_bit(phys, False)
        self._free.append(phys)

    # Formatting and (de)serialization ----------------------------------

    @classmethod
    def format(cls, n_blocks: int, rng: Rng, *, max_files: int | None = None,
               max_file_blocks: int | None = None,
               dummy_fraction: float = 0.10) -> "BlockFs":
        if n_blocks < 8:
            raise ParameterError("filesystem needs at least 8 blocks")
        df_files, df_blocks = default_geometry(n_blocks)
        max_files = max_files if max_files is not None else df_files
        max_file_blocks = (max_file_blocks if max_file_blocks is not None
                           else df_blocks)
        fs = cls(n_blocks, max_files, max_file_blocks, rng)
        meta = fs.metadata_blocks
        if meta >= n_blocks:
            raise SpaceError("filesystem metadata does not fit")
        for phys in range(meta):
            fs._set_bit(phys, True)
        fs._free.extend(range(meta, n_blocks))
        dummy_total = int(n_blocks * dummy_fraction)
        while dummy_total > 0:
            chunk = min(dummy_total, max_file_blocks)
            fd = fs.create_file(FLAG_DUMMY)
            fs._map_fresh_blocks(fd, chunk)
            dummy_total -= chunk
        return fs

    def _map_fresh_blocks(self, fd: int, count: int) -> None:
        ino = self._inode(fd)
        if count > self.max_file_blocks:
            raise RangeError("file would exceed the per-file block limit")
        if count > self.free_blocks:
            raise SpaceError("not enough free blocks")
        for lblk in range(count):
            ino.block_map[lblk] = self.allocate_block()
        ino.size = count * BLOCK_SIZE

    def persist(self, store) -> None:
        """Encode the metadata region once (superblock, bitmap and inode
        table, each zero-padded to whole blocks) and write it to blocks
        ``0 .. metadata_blocks-1`` in order."""
        bmb = _bitmap_blocks(self.n_blocks)
        itb = _itab_blocks(self.max_files, self.max_file_blocks)
        entry = _inode_struct(self.max_file_blocks)
        no_map = [None] * self.max_file_blocks
        itab = b"".join(
            entry.pack(int(ino.used), ino.flags, ino.size, ino.nblocks,
                       *(UNMAPPED if p is None else p
                         for p in ino.block_map or no_map))
            for ino in self.inodes)
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
        itab = region[bmb * BLOCK_SIZE:bmb * BLOCK_SIZE + max_files * entry.size]
        for ino, (used, flags, size, _nblocks, *block_map) in zip(
                fs.inodes, entry.iter_unpack(itab)):
            ino.used = bool(used)
            ino.flags = flags
            ino.size = size
            if ino.used:
                ino.block_map = [None if p == UNMAPPED else p for p in block_map]
        for phys in range(n_blocks):
            if not fs._bit(phys):
                fs._free.append(phys)
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

    def create_file(self, flags: int = FLAG_REGULAR) -> int:
        for fd, ino in enumerate(self.inodes):
            if not ino.used:
                ino.used = True
                ino.flags = flags
                ino.size = 0
                ino.block_map = [None] * self.max_file_blocks
                return fd
        raise SpaceError("inode table full")

    def unlink(self, fd: int) -> None:
        ino = self._inode(fd)
        for phys in ino.block_map:
            if phys is not None:
                self.free_block(phys)
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

    def dummy_blocks(self) -> list[int]:
        out = []
        for fd in self.files_with_flag(FLAG_DUMMY):
            out.extend(p for p in self.inodes[fd].block_map if p is not None)
        out.sort()
        return out

    def stats(self) -> FsStats:
        return FsStats(
            n_blocks=self.n_blocks,
            metadata_blocks=self.metadata_blocks,
            free_blocks=self.free_blocks,
            regular_files=len(self.files_with_flag(FLAG_REGULAR)),
            dummy_files=len(self.files_with_flag(FLAG_DUMMY)),
            dummy_blocks=len(self.dummy_blocks()),
        )

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

    def file_write(self, io: BlockIo, fd: int, offset: int, data: bytes) -> None:
        ino = self._inode(fd)
        if offset < 0 or offset > ino.size:
            raise RangeError("write would leave a hole")
        end = offset + len(data)
        if end > self.max_file_blocks * BLOCK_SIZE:
            raise RangeError("file would exceed the per-file block limit")
        pos = offset
        while pos < end:
            lblk, boff = divmod(pos, BLOCK_SIZE)
            n = min(BLOCK_SIZE - boff, end - pos)
            chunk = data[pos - offset:pos - offset + n]
            written_bytes = ino.size - lblk * BLOCK_SIZE
            if ino.block_map[lblk] is None:
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
            io.write_block(fd, lblk, page)
            pos += n
        if end > ino.size:
            ino.size = end

    # Shuffle support ------------------------------------------------------

    def move_extent(self, fd: int, donor: list[int | None], lblk: int) -> None:
        """Exchange file ``fd``'s physical block at ``lblk`` with
        ``donor[lblk]``, first drawing that slot's home with
        ``allocate_block`` if it has none yet."""
        phys = self.phys_of(fd, lblk)
        if not 0 <= lblk < len(donor):
            raise RangeError(f"donor has no block {lblk}")
        if donor[lblk] is None:
            donor[lblk] = self.allocate_block()
        self.inodes[fd].block_map[lblk], donor[lblk] = donor[lblk], phys

    def create_donors(self, count: int, size_blocks: int) -> list[list[int | None]]:
        """``count`` donors of ``size_blocks`` unhomed slots (``None``)
        each. Nothing is allocated here: ``move_extent`` draws a slot's
        home on first use, so only the slots a shuffle touches cost a
        draw. The free pool must still be able to home every slot."""
        if count * size_blocks > self.free_blocks:
            raise SpaceError("not enough free blocks for donors")
        return [[None] * size_blocks for _ in range(count)]

    def unlink_all(self, donors) -> None:
        """Return every homed donor slot's block to the free pool, donor
        by donor."""
        for donor in donors:
            for phys in donor:
                if phys is not None:
                    self.free_block(phys)

    # Consistency ------------------------------------------------------------

    def fsck(self) -> list[str]:
        """Check the filesystem's consistency rule; returns the problems
        found, empty when clean. ``load`` refuses an image on the first
        one, so every mounted filesystem obeys it:

        * a used inode carries a known flag (regular or dummy-pad);
        * a used inode maps exactly its first ceil(size / BLOCK_SIZE)
          entries (files have no holes), at most ``max_file_blocks``;
        * each mapped block lies in the data region and is mapped once;
        * the bitmap marks allocated exactly the metadata blocks and the
          mapped blocks, and no bit past ``n_blocks``;
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
            if ino.flags not in (FLAG_REGULAR, FLAG_DUMMY):
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
        if implied != self.bitmap:
            for p in range(8 * len(implied)):
                want = implied[p >> 3] >> (p & 7) & 1
                got = self.bitmap[p >> 3] >> (p & 7) & 1
                if want and not got:
                    problems.append(f"bitmap marks free block {p}, which is in use")
                elif got and not want:
                    why = "past the end" if p >= n else "which nothing maps"
                    problems.append(f"bitmap marks used block {p}, {why}")
        used = (int.from_bytes(self.bitmap, "little") & ((1 << n) - 1)).bit_count()
        if self.free_blocks != n - used:
            problems.append(
                f"free count {self.free_blocks} != bitmap free bits {n - used}")
        return problems
