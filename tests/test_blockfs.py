from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from oblivsim import (
    BLOCK_SIZE,
    BlockFs,
    BlockStore,
    DescriptorError,
    FLAG_DUMMY,
    FLAG_REGULAR,
    Host,
    HostInterface,
    ParameterError,
    ProtectionMode,
    RangeError,
    RngTree,
    SimClock,
    SpaceError,
    build_image,
    layout_for,
    mount,
    new_image,
)


class DictIo:
    """Block interface backed by a plain dict; keeps fs unit tests off
    the crypto and scheduling layers."""

    def __init__(self):
        self.pages: dict[tuple[int, int], bytes] = {}
        self.reads = 0
        self.writes = 0

    def read_block(self, fd, lblk):
        self.reads += 1
        return self.pages.get((fd, lblk), b"\x00" * BLOCK_SIZE)

    def write_block(self, fd, lblk, page):
        self.writes += 1
        assert len(page) == BLOCK_SIZE
        self.pages[(fd, lblk)] = bytes(page)


def make_fs(n_blocks=64, seed=1, **kw) -> BlockFs:
    return BlockFs.format(n_blocks, RngTree(seed).stream("layout"), **kw)


def test_format_reserves_metadata_and_dummy_share():
    fs = make_fs(64, dummy_fraction=0.10)
    assert fs.fsck() == []
    st_ = fs.stats()
    assert st_.dummy_blocks == 6  # 10% of 64, rounded down
    assert st_.regular_files == 0
    assert st_.free_blocks == 64 - fs.metadata_blocks - 6
    for phys in range(fs.metadata_blocks):
        assert fs._bit(phys)


def test_format_rejects_tiny_disks():
    with pytest.raises(ParameterError):
        make_fs(4)


def test_dummy_files_split_at_per_file_limit():
    fs = make_fs(256, max_file_blocks=8, dummy_fraction=0.10)
    dummies = fs.files_with_flag(FLAG_DUMMY)
    assert sum(fs.file_blocks(fd) for fd in dummies) == 25
    assert max(fs.file_blocks(fd) for fd in dummies) <= 8


def test_allocation_is_unique_and_exhaustible():
    fs = make_fs(64)
    seen = set()
    for _ in range(fs.free_blocks):
        phys = fs.allocate_block()
        assert phys not in seen
        assert phys >= fs.metadata_blocks
        seen.add(phys)
    with pytest.raises(SpaceError):
        fs.allocate_block()
    some = next(iter(seen))
    fs.free_block(some)
    with pytest.raises(ParameterError):
        fs.free_block(some)


def test_allocation_spread_is_layout_randomizing():
    # Two different layout seeds should not hand out the same sequence.
    fs1, fs2 = make_fs(256, seed=1), make_fs(256, seed=2)
    seq1 = [fs1.allocate_block() for _ in range(20)]
    seq2 = [fs2.allocate_block() for _ in range(20)]
    assert seq1 != seq2


def test_create_unlink_recycles_blocks():
    fs = make_fs(64)
    free0 = fs.free_blocks
    fd = fs.create_file(FLAG_REGULAR)
    io = DictIo()
    fs.file_write(io, fd, 0, b"\x01" * (3 * BLOCK_SIZE))
    assert fs.free_blocks == free0 - 3
    fs.unlink(fd)
    assert fs.free_blocks == free0
    with pytest.raises(DescriptorError):
        fs.phys_of(fd, 0)
    assert fs.fsck() == []


def test_inode_table_capacity():
    fs = make_fs(64, max_files=4)
    already = sum(1 for ino in fs.inodes if ino.used)
    for _ in range(4 - already):
        fs.create_file()
    with pytest.raises(SpaceError):
        fs.create_file()


@settings(max_examples=25)
@given(st.binary(min_size=1, max_size=3 * BLOCK_SIZE),
       st.integers(min_value=0, max_value=BLOCK_SIZE))
def test_file_write_read_roundtrip(data, gap_offset):
    fs = make_fs(64)
    io = DictIo()
    fd = fs.create_file()
    fs.file_write(io, fd, 0, data)
    assert fs.file_read(io, fd, 0, len(data)) == data
    # Overwrite somewhere inside, re-read the whole file.
    off = min(gap_offset, len(data))
    fs.file_write(io, fd, off, b"\xee\xff")
    expect = data[:off] + b"\xee\xff" + data[off + 2:]
    assert fs.file_read(io, fd, 0, fs.file_size(fd)) == expect


def test_partial_overwrite_preserves_block_rest():
    fs = make_fs(64)
    io = DictIo()
    fd = fs.create_file()
    fs.file_write(io, fd, 0, bytes(range(256)) * 16)
    fs.file_write(io, fd, 100, b"XYZ")
    got = fs.file_read(io, fd, 0, BLOCK_SIZE)
    assert got[100:103] == b"XYZ"
    assert got[:100] == (bytes(range(256)) * 16)[:100]
    assert got[103:] == (bytes(range(256)) * 16)[103:]


def test_fresh_block_tail_is_zero_filled():
    fs = make_fs(64)
    io = DictIo()
    fd = fs.create_file()
    fs.file_write(io, fd, 0, b"ab")
    # The store page must be fully defined, not just the written bytes.
    assert io.pages[(fd, 0)][:2] == b"ab"
    assert io.pages[(fd, 0)][2:] == b"\x00" * (BLOCK_SIZE - 2)
    # Appending into a block that already holds data preserves it.
    fs.file_write(io, fd, 2, b"cd")
    assert fs.file_read(io, fd, 0, 4) == b"abcd"
    # Appending at a block boundary allocates fresh and skips the read.
    fs.file_write(io, fd, 4, b"\x00" * (BLOCK_SIZE - 4))
    reads_before = io.reads
    fs.file_write(io, fd, BLOCK_SIZE, b"ef")
    assert io.reads == reads_before
    assert fs.file_read(io, fd, BLOCK_SIZE, 2) == b"ef"


def test_holes_and_limits_are_rejected():
    fs = make_fs(64, max_file_blocks=2)
    io = DictIo()
    fd = fs.create_file()
    with pytest.raises(RangeError):
        fs.file_write(io, fd, 10, b"x")  # would leave a hole
    with pytest.raises(RangeError):
        fs.file_write(io, fd, 0, b"\x00" * (2 * BLOCK_SIZE + 1))
    fs.file_write(io, fd, 0, b"abc")
    with pytest.raises(RangeError):
        fs.file_read(io, fd, 2, 10)  # beyond size


def test_move_extent_swaps_physical_homes():
    fs = make_fs(64)
    io = DictIo()
    a = fs.create_file()
    fs.file_write(io, a, 0, b"\x01" * BLOCK_SIZE)
    [donor] = fs.create_donors(1, 1)
    assert donor == [None]
    free0, pool = fs.free_blocks, set(fs._free)
    pa = fs.phys_of(a, 0)
    # The first move at a slot draws its home from the free pool.
    fs.move_extent(a, donor, 0)
    pd = fs.phys_of(a, 0)
    assert pd in pool and fs._bit(pd)
    assert donor == [pa] and fs._bit(pa)
    assert fs.free_blocks == free0 - 1
    # A second move at the same slot takes the block it vacated.
    fs.move_extent(a, donor, 0)
    assert fs.phys_of(a, 0) == pa
    assert donor == [pd]
    assert fs.free_blocks == free0 - 1
    with pytest.raises(RangeError):
        fs.move_extent(a, donor, 1)  # the file has no block 1
    fs.file_write(io, a, BLOCK_SIZE, b"\x02" * BLOCK_SIZE)
    with pytest.raises(RangeError):
        fs.move_extent(a, donor, 1)  # the donor has no block 1
    fs.unlink_all([donor])
    assert fs.free_blocks == free0 - 1  # only file a's second block is gone
    assert fs.fsck() == []


def test_create_donors_and_unlink_all():
    fs = make_fs(64)
    io = DictIo()
    f = fs.create_file()
    fs.file_write(io, f, 0, b"\x03" * 2 * BLOCK_SIZE)
    free0 = fs.free_blocks
    inodes0 = [ino.used for ino in fs.inodes]
    donors = fs.create_donors(3, 2)
    assert donors == [[None, None]] * 3
    assert fs.free_blocks == free0  # homes are drawn on first use
    assert [ino.used for ino in fs.inodes] == inodes0  # no inode spent
    fs.move_extent(f, donors[1], 0)
    fs.move_extent(f, donors[2], 1)
    assert fs.free_blocks == free0 - 2
    assert sum(p is not None for d in donors for p in d) == 2
    fs.unlink_all(donors)
    assert fs.free_blocks == free0
    assert fs.fsck() == []
    # Every slot must still fit in the free pool, homed or not.
    assert fs.create_donors(1, free0) == [[None] * free0]
    with pytest.raises(SpaceError):
        fs.create_donors(1, free0 + 1)
    with pytest.raises(SpaceError):
        fs.create_donors(100, 10)
    assert fs.free_blocks == free0


def test_persist_load_roundtrip():
    layout = layout_for(64, ProtectionMode.PLAIN)
    host = Host(new_image(64, ProtectionMode.PLAIN), SimClock())
    store = BlockStore(HostInterface(host), layout, None)
    fs = make_fs(64, seed=5)
    fd = fs.create_file()
    io = DictIo()
    fs.file_write(io, fd, 0, b"\x07" * (2 * BLOCK_SIZE + 17))
    fs.persist(store)

    again = BlockFs.load(store, RngTree(5).stream("layout"))
    assert again.fsck() == []
    assert again.stats() == fs.stats()
    assert again.file_size(fd) == 2 * BLOCK_SIZE + 17
    assert [again.phys_of(fd, i) for i in range(3)] \
        == [fs.phys_of(fd, i) for i in range(3)]
    assert again.dummy_blocks() == fs.dummy_blocks()


def test_plain_image_bytes_are_pinned():
    # Any change to the on-disk format or to seeded placement shows here.
    # Placement reads the layout stream through Rng's buffered 1024-byte
    # generates, so changing the buffering moves this digest too.
    bundle = build_image(64, ProtectionMode.PLAIN,
                         [bytes(range(256)) * 16 * 8, b"\xab" * BLOCK_SIZE * 3],
                         seed=3)
    assert hashlib.sha256(bundle.image).hexdigest() == (
        "ca8af28d797b92317e0c0cde886ed9603f918adef6e5fd9b02521e50599d965b")


def test_persist_load_roundtrip_full_inode_table():
    layout = layout_for(256, ProtectionMode.PLAIN)
    host = Host(new_image(256, ProtectionMode.PLAIN), SimClock())
    store = BlockStore(HostInterface(host), layout, None)
    fs = make_fs(256, seed=9, max_files=8, max_file_blocks=6)
    io = DictIo()
    while True:
        try:
            fd = fs.create_file()
        except SpaceError:
            break
        fs.file_write(io, fd, 0, bytes([fd]) * (fd * BLOCK_SIZE // 2 + 3))
    gone = fs.files_with_flag(FLAG_REGULAR)[1]
    fs.inodes[gone].flags = FLAG_DUMMY  # a stale flag must survive unlink
    fs.unlink(gone)
    assert all(ino.used for fd, ino in enumerate(fs.inodes) if fd != gone)
    fs.persist(store)

    again = BlockFs.load(store, RngTree(9).stream("layout"))
    assert (again.n_blocks, again.max_files, again.max_file_blocks) == (256, 8, 6)
    assert again.bitmap == fs.bitmap
    assert again.free_blocks == fs.free_blocks
    assert [(i.used, i.flags, i.size, i.block_map) for i in again.inodes] \
        == [(i.used, i.flags, i.size, i.block_map) for i in fs.inodes]
    assert again.inodes[gone].flags == FLAG_DUMMY
    assert again.fsck() == []


@pytest.mark.parametrize("field, value, reason", [
    ("itab_blocks", 0, "geometry"),
    ("n_blocks", 128, "block count"),
    ("max_files", 100_000, "geometry"),
    ("max_files+itab_blocks", 100_000, "does not fit"),
])
def test_mount_rejects_hostile_superblock(field, value, reason):
    # Refused from the superblock alone, before anything is sized by it.
    offsets = {"n_blocks": (5, "<Q"), "itab_blocks": (25, "<I"),
               "max_files": (29, "<I")}
    image = bytearray(build_image(64, ProtectionMode.PLAIN, [b"x"], seed=1).image)
    sb = layout_for(64, ProtectionMode.PLAIN).data_offset(0)
    for name in field.split("+"):
        off, fmt = offsets[name]
        struct.pack_into(fmt, image, sb + off, value)
    if field == "max_files+itab_blocks":
        # Self-consistent region geometry that no 64-block image can hold.
        entry = 14 + 4 * struct.unpack_from("<I", image, sb + 33)[0]
        struct.pack_into("<I", image, sb + 25, -(-value * entry // BLOCK_SIZE))
    with pytest.raises(ParameterError, match=reason):
        mount(bytes(image), oblivious=False)


_FLAGS_AT = 1  # byte offsets within an inode-table entry
_SIZE_AT = 2
_MAP_AT = 14


def _itab_pos(image, store, fd, at):
    """Image offset of byte ``at`` of file ``fd``'s inode-table entry."""
    sb = store.layout.data_offset(0)
    itab_start, = struct.unpack_from("<I", image, sb + 21)
    max_file_blocks, = struct.unpack_from("<I", image, sb + 33)
    entry = _MAP_AT + 4 * max_file_blocks
    blk, within = divmod(itab_start * BLOCK_SIZE + fd * entry + at, BLOCK_SIZE)
    return store.layout.data_offset(blk) + within


@pytest.mark.parametrize("target, reason", [
    ("other file", "twice"),
    ("superblock", "data region"),
    ("past the end", "data region"),
    ("free block", "marks free"),
])
def test_mount_rejects_hostile_inode_table(target, reason):
    bundle = build_image(64, ProtectionMode.PLAIN,
                         [b"\x01" * BLOCK_SIZE, b"\x02" * BLOCK_SIZE], seed=4)
    m = mount(bundle.image, oblivious=False)
    one, two = m.engine.regular_fd(0), m.engine.regular_fd(1)
    phys = {"other file": m.fs.phys_of(one, 0), "superblock": 0,
            "past the end": 64, "free block": m.fs._free[0]}[target]
    image = bytearray(bundle.image)
    struct.pack_into("<I", image, _itab_pos(image, m.store, two, _MAP_AT), phys)
    with pytest.raises(ParameterError, match=reason):
        mount(bytes(image), oblivious=False)


@pytest.mark.parametrize("blocks, reason", [
    (5, "size disagrees"), (0, "size disagrees"), (65, "per-file block limit"),
])
def test_mount_rejects_size_that_disagrees_with_the_block_map(blocks, reason):
    # File 2 maps one block; a size claiming more would make every later
    # shuffle fail on the unmapped tail, a size of 0 hides a mapped block.
    bundle = build_image(64, ProtectionMode.PLAIN,
                         [b"\x01" * BLOCK_SIZE, b"\x02" * BLOCK_SIZE], seed=4)
    m = mount(bundle.image, oblivious=False)
    two = m.engine.regular_fd(1)
    image = bytearray(bundle.image)
    struct.pack_into("<Q", image, _itab_pos(image, m.store, two, _SIZE_AT),
                     blocks * BLOCK_SIZE)
    with pytest.raises(ParameterError, match=reason):
        mount(bytes(image), oblivious=False)


@pytest.mark.parametrize("flag", [1, 9])
def test_mount_rejects_unknown_inode_flag(flag):
    # An unknown flag would hide file 2 from every files_with_flag caller
    # while its block stays allocated.
    bundle = build_image(64, ProtectionMode.PLAIN,
                         [b"\x01" * BLOCK_SIZE, b"\x02" * BLOCK_SIZE], seed=4)
    m = mount(bundle.image, oblivious=False)
    two = m.engine.regular_fd(1)
    image = bytearray(bundle.image)
    image[_itab_pos(image, m.store, two, _FLAGS_AT)] = flag
    with pytest.raises(ParameterError, match=f"file {two}: unknown flag {flag}"):
        mount(bytes(image), oblivious=False)


@pytest.mark.parametrize("target, reason", [
    ("metadata block", "marks free block 1, which is in use"),
    ("unmapped data block", "which nothing maps"),
    ("past the end", "marks used block 60, past the end"),
])
def test_mount_rejects_hostile_bitmap(target, reason):
    # 60 blocks, so the bitmap's last byte holds bits past n_blocks. The
    # superblock's free count follows the flipped bit: only the bitmap
    # is wrong.
    bundle = build_image(60, ProtectionMode.PLAIN, [b"\x01" * BLOCK_SIZE], seed=4)
    m = mount(bundle.image, oblivious=False)
    phys = {"metadata block": 1, "unmapped data block": m.fs._free[0],
            "past the end": 60}[target]
    image = bytearray(bundle.image)
    sb, bitmap = m.store.layout.data_offset(0), m.store.layout.data_offset(1)
    image[bitmap + phys // 8] ^= 1 << (phys % 8)
    free = sum(not image[bitmap + p // 8] >> (p % 8) & 1 for p in range(60))
    struct.pack_into("<Q", image, sb + 37, free)
    with pytest.raises(ParameterError, match=reason):
        mount(bytes(image), oblivious=False)


def test_load_rejects_foreign_contents():
    layout = layout_for(64, ProtectionMode.PLAIN)
    host = Host(new_image(64, ProtectionMode.PLAIN), SimClock())
    store = BlockStore(HostInterface(host), layout, None)
    store.write_block(0, b"\x00" * BLOCK_SIZE)
    with pytest.raises(ParameterError):
        BlockFs.load(store, RngTree(0).stream("layout"))


def test_fsck_catches_corruption():
    fs = make_fs(64)
    fd = fs.create_file()
    io = DictIo()
    fs.file_write(io, fd, 0, b"\x01" * BLOCK_SIZE)
    phys = fs.phys_of(fd, 0)
    fs._set_bit(phys, False)  # mapped but marked free
    assert any("marks free" in p for p in fs.fsck())
    fs._set_bit(phys, True)
    assert fs.fsck() == []
    other = fs.create_file()
    fs._map_fresh_blocks(other, 1)
    fs.inodes[other].block_map[0] = phys  # double claim
    assert any("mapped twice" in p for p in fs.fsck())


def test_dummy_blocks_sorted_and_flagged():
    fs = make_fs(128)
    blocks = fs.dummy_blocks()
    assert blocks == sorted(blocks)
    assert len(blocks) == len(set(blocks))
    regular = fs.create_file(FLAG_REGULAR)
    io = DictIo()
    fs.file_write(io, regular, 0, b"x")
    assert fs.phys_of(regular, 0) not in fs.dummy_blocks()
