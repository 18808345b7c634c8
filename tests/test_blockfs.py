from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from oblivsim import (
    BLOCK_SIZE,
    RECORD_SIZE,
    BlockFs,
    BlockStore,
    DescriptorError,
    FLAG_REGULAR,
    Host,
    HostInterface,
    ParameterError,
    ProtectionMode,
    RangeError,
    RngTree,
    ShuffleImpossibleError,
    SimClock,
    SpaceError,
    build_image,
    layout_for,
    mount,
    new_image,
)
from oblivsim.blockfs import UNMAPPED, default_geometry, metadata_block_count


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


def allocated(fs: BlockFs, phys: int) -> bool:
    """Whether the bitmap marks ``phys`` in use."""
    return bool(fs.bitmap[phys >> 3] >> (phys & 7) & 1)


def test_format_reserves_metadata_and_dummy_share():
    fs = make_fs(64)
    assert fs.fsck() == []
    assert len(fs.dummy_blocks()) == 6  # 10% of 64, rounded down
    assert fs.files_with_flag(FLAG_REGULAR) == []
    assert fs.free_blocks == 64 - fs.metadata_blocks - 6
    for phys in range(fs.metadata_blocks):
        assert allocated(fs, phys)


def test_format_rejects_tiny_disks():
    with pytest.raises(ParameterError):
        make_fs(4)


def test_padding_domain_ignores_the_per_file_limit():
    # The padding domain is a set of blocks, not files: its size does not
    # depend on the per-file limit, and format spends no inode on it.
    for max_file_blocks in (1, 8, 64):
        fs = make_fs(256, max_file_blocks=max_file_blocks)
        padding = fs.dummy_blocks()
        assert len(padding) == int(256 * 0.10) == 25
        assert all(allocated(fs, p) and p >= fs.metadata_blocks for p in padding)
        assert not any(ino.used for ino in fs.inodes)
        assert fs.fsck() == []


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
    fd = fs.create_file()
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
    for lblk in (1, 2, -1):  # unmapped, past the per-file limit, negative
        with pytest.raises(RangeError):
            fs.phys_of(fd, lblk)


def test_move_extent_swaps_physical_homes():
    fs = make_fs(64)
    io = DictIo()
    a = fs.create_file()
    fs.file_write(io, a, 0, b"\x01" * 2 * BLOCK_SIZE)
    donor = fs.create_donors()
    free0, pool = fs.free_blocks, set(fs._free)
    pa, pb = fs.phys_of(a, 0), fs.phys_of(a, 1)
    block_map = fs.inodes[a].block_map
    # While the pool lasts, the new home is drawn from it and the old
    # home stays allocated on the donor.
    home = fs.move_extent(block_map, 0, donor)
    assert home == fs.phys_of(a, 0) and home in pool and allocated(fs, home)
    assert donor == [pa] and allocated(fs, pa)
    assert fs.free_blocks == free0 - 1
    # Once the pool is empty, the new home is taken out of the donor.
    held = [fs.allocate_block() for _ in range(fs.free_blocks)]
    with pytest.raises(SpaceError):
        fs.move_extent(block_map, 1, [])  # no free block and nothing vacated
    assert fs.phys_of(a, 1) == pb  # the refused move changed nothing
    assert fs.move_extent(block_map, 1, donor) == pa
    assert donor == [pb] and fs.phys_of(a, 1) == pa
    for phys in held:
        fs.free_block(phys)
    fs.unlink_all(donor)
    assert fs.free_blocks == free0
    assert fs.fsck() == []


def test_create_donors_and_unlink_all():
    fs = make_fs(64)
    io = DictIo()
    f = fs.create_file()
    fs.file_write(io, f, 0, b"\x03" * 2 * BLOCK_SIZE)
    free0 = fs.free_blocks
    inodes0 = [ino.used for ino in fs.inodes]
    donor = fs.create_donors()
    assert donor == [] and fs.free_blocks == free0  # nothing allocated up front
    vacated = [fs.phys_of(f, 0), fs.phys_of(f, 1)]
    fs.move_extent(fs.inodes[f].block_map, 1, donor)
    fs.move_extent(fs.inodes[f].block_map, 0, donor)
    assert donor == vacated[::-1]  # in the order the homes were vacated
    assert [ino.used for ino in fs.inodes] == inodes0  # no inode spent
    assert fs.free_blocks == free0 - 2
    fs.unlink_all(donor)
    assert fs.free_blocks == free0 and list(fs._free[-2:]) == vacated[::-1]
    assert fs.fsck() == []
    # One free block is room enough; an empty pool is refused.
    held = [fs.allocate_block() for _ in range(free0 - 1)]
    assert fs.create_donors() == []
    held.append(fs.allocate_block())
    with pytest.raises(ShuffleImpossibleError, match="0 free blocks; a shuffle pass needs 1"):
        fs.create_donors()
    for phys in held:
        fs.free_block(phys)
    assert fs.free_blocks == free0 and fs.fsck() == []


def test_persist_load_roundtrip():
    layout = layout_for(64, ProtectionMode.PLAIN)
    host = Host(new_image(layout), SimClock())
    store = BlockStore(HostInterface(host), layout, None)
    fs = make_fs(64, seed=5)
    fd = fs.create_file()
    io = DictIo()
    fs.file_write(io, fd, 0, b"\x07" * (2 * BLOCK_SIZE + 17))
    fs.persist(store)

    again = BlockFs.load(store, RngTree(5).stream("layout"))
    assert again.fsck() == []
    assert again.dummy_blocks() == fs.dummy_blocks()
    assert again.free_blocks == fs.free_blocks
    assert again.files_with_flag(FLAG_REGULAR) == fs.files_with_flag(FLAG_REGULAR)
    assert again.file_size(fd) == 2 * BLOCK_SIZE + 17
    assert [again.phys_of(fd, i) for i in range(3)] \
        == [fs.phys_of(fd, i) for i in range(3)]


def test_plain_image_bytes_are_pinned():
    # Any change to the on-disk format or to seeded placement shows here.
    # Placement reads the layout stream through Rng's buffered 1024-byte
    # generates, so changing the buffering moves the data digest too. The
    # image is pinned in two parts: the metadata region (container header,
    # superblock, bitmap, inode table) and the data blocks after it, so a
    # change to the inode table alone leaves the data digest standing.
    bundle = build_image(64, ProtectionMode.PLAIN,
                         [bytes(range(256)) * 16 * 8, b"\xab" * BLOCK_SIZE * 3],
                         seed=3)
    cut = layout_for(64, ProtectionMode.PLAIN).data_offset(
        metadata_block_count(64, *default_geometry(64)))
    digests = [hashlib.sha256(part).hexdigest()
               for part in (bundle.image[:cut], bundle.image[cut:])]
    assert digests == [
        "ded59c0ac4d2a4dbf489c6095cfa5c788015c477c0fbd6c95ab6e76a73d7db1d",
        "7287f750526263721cf1db86094b633bdaf813037d5dd375f847bfc4e16ddca3"]


def test_persist_load_roundtrip_full_inode_table():
    layout = layout_for(256, ProtectionMode.PLAIN)
    host = Host(new_image(layout), SimClock())
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
    fs.inodes[gone].flags = 2  # a stale flag must survive unlink
    fs.unlink(gone)
    assert all(ino.used for fd, ino in enumerate(fs.inodes) if fd != gone)
    fs.persist(store)

    again = BlockFs.load(store, RngTree(9).stream("layout"))
    assert (again.n_blocks, again.max_files, again.max_file_blocks) == (256, 8, 6)
    assert again.bitmap == fs.bitmap
    assert again.free_blocks == fs.free_blocks
    assert [(i.used, i.flags, i.size, i.block_map) for i in again.inodes] \
        == [(i.used, i.flags, i.size, i.block_map) for i in fs.inodes]
    assert again.inodes[gone].flags == 2
    assert again.fsck() == []


def _reference_metadata(store):
    """The persisted metadata region decoded one entry and one bitmap bit
    at a time, from FORMATS.md alone: every inode's (used, flags, size,
    map; None for an unused entry's), the free blocks and the padding
    blocks (allocated data blocks no used inode maps), both ascending."""
    _, n, _, bmb, _, itb, max_files, max_file_blocks, _ = struct.unpack_from(
        "<5sQIIIIIIQ", store.read_block(0))
    region = b"".join(store.read_block(p) for p in range(1, 1 + bmb + itb))
    inodes = []
    for fd in range(max_files):
        used, flags, size, _nblocks, *block_map = struct.unpack_from(
            f"<BBQI{max_file_blocks}I", region,
            bmb * BLOCK_SIZE + fd * (14 + 4 * max_file_blocks))
        inodes.append((bool(used), flags, size,
                       [None if p == UNMAPPED else p for p in block_map]
                       if used else None))
    mapped = {p for used, _, _, block_map in inodes if used for p in block_map}
    free, padding = [], []
    for p in range(n):
        if not region[p // 8] >> (p % 8) & 1:
            free.append(p)
        elif p >= 1 + bmb + itb and p not in mapped:
            padding.append(p)
    return inodes, free, padding


def _reference_counters(host, layout):
    """The counter region decoded one counter at a time: each block's
    write counter, a u64 LE from the record after the header on."""
    return [int.from_bytes(host.image[at:at + 8], "little")
            for at in range(RECORD_SIZE, RECORD_SIZE + 8 * layout.n_blocks, 8)]


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(ProtectionMode),
       n_blocks=st.integers(8, 160),
       max_files=st.integers(1, 10),
       max_file_blocks=st.integers(1, 20),
       ops=st.lists(st.tuples(st.sampled_from(["create", "write", "unlink"]),
                              st.integers(0, 9), st.integers(0, 20 * BLOCK_SIZE)),
                    max_size=24),
       data_writes=st.lists(st.integers(0, 159), max_size=24),
       seed=st.integers(0, 3))
def test_bulk_codecs_match_a_per_entry_reference(mode, n_blocks, max_files,
                                                 max_file_blocks, ops,
                                                 data_writes, seed):
    # persist -> BlockStore.mount -> BlockFs.load gives what a per-entry
    # decode of the same bytes gives, in every mode, on images where some
    # blocks were written (some more than once) and others never were.
    meta = metadata_block_count(n_blocks, max_files, max_file_blocks)
    assume(meta < n_blocks)
    fs = make_fs(n_blocks, seed=seed, max_files=max_files,
                 max_file_blocks=max_file_blocks)
    io = DictIo()
    for op, pick, nbytes in ops:
        used = fs.files_with_flag(FLAG_REGULAR)
        if op == "create":
            if len(used) < max_files:
                fs.create_file()
        elif used and op == "write":
            fd = used[pick % len(used)]
            room = min(max_file_blocks, fs.file_blocks(fd) + fs.free_blocks)
            fs.file_write(io, fd, 0, b"\x05" * min(nbytes, room * BLOCK_SIZE))
        elif used:
            fd = used[pick % len(used)]
            fs.inodes[fd].flags = pick % 3 + 1  # a stale flag survives unlink
            fs.unlink(fd)
    layout = layout_for(n_blocks, mode)
    host = Host(new_image(layout), SimClock())
    key = bytes(range(32)) if mode.encrypted else None
    store = BlockStore(HostInterface(host), layout, key)
    fs.persist(store)
    for p in data_writes:
        if meta <= p < n_blocks:
            store.write_block(p, bytes([p % 251]) * BLOCK_SIZE)
    root = store.persist_metadata()

    mounted = BlockStore.mount(HostInterface(host), key=key, trusted_root=root)
    versions = _reference_counters(host, layout)
    assert list(mounted.versions) == versions == list(store.versions)
    again = BlockFs.load(mounted, RngTree(seed).stream("layout"))
    inodes, free, padding = _reference_metadata(mounted)
    assert [(i.used, i.flags, i.size, i.block_map) for i in again.inodes] == inodes
    assert list(again._free) == free
    assert list(again._padding) == padding == fs.dummy_blocks()


def test_unused_inode_entries_keep_only_their_flag():
    # FORMATS.md: an unused entry is written with size 0, nblocks 0 and
    # every index unmapped; only its flag stays. A stale size that the
    # host left in one is not written back.
    bundle = build_image(64, ProtectionMode.PLAIN, [b"\x01" * BLOCK_SIZE], seed=4)
    image = bytearray(bundle.image)
    m = mount(bundle.image, oblivious=False)
    at = _itab_pos(image, m.store, 3, 0)
    struct.pack_into("<BBQ", image, at, 0, 2, 12345)
    m = mount(bytes(image), oblivious=False)
    m.fs.persist(m.store)
    max_file_blocks = m.fs.max_file_blocks
    assert struct.unpack_from(f"<BBQI{max_file_blocks}I", m.host.image, at) \
        == (0, 2, 0, 0) + (UNMAPPED,) * max_file_blocks


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


@pytest.mark.parametrize("flag", [1, 2, 9])
def test_mount_rejects_unknown_inode_flag(flag):
    # An unknown flag would hide file 2 from every files_with_flag caller
    # while its block stays allocated. Flags 1 (donor) and 2 (dummy-pad)
    # are retired, so an image that still carries them is refused.
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
    ("padding block", "5 data blocks are marked used, which nothing maps; "
                      "the padding domain has 6"),
])
def test_mount_rejects_hostile_bitmap(target, reason):
    # 60 blocks, so the bitmap's last byte holds bits past n_blocks. The
    # superblock's free count follows the flipped bit: only the bitmap
    # is wrong. A padding block marked free would shrink the padding
    # domain and hand that block to the next file.
    bundle = build_image(60, ProtectionMode.PLAIN, [b"\x01" * BLOCK_SIZE], seed=4)
    m = mount(bundle.image, oblivious=False)
    phys = {"metadata block": 1, "unmapped data block": m.fs._free[0],
            "past the end": 60, "padding block": m.fs.dummy_blocks()[0]}[target]
    image = bytearray(bundle.image)
    sb, bitmap = m.store.layout.data_offset(0), m.store.layout.data_offset(1)
    image[bitmap + phys // 8] ^= 1 << (phys % 8)
    free = sum(not image[bitmap + p // 8] >> (p % 8) & 1 for p in range(60))
    struct.pack_into("<Q", image, sb + 37, free)
    with pytest.raises(ParameterError, match=reason):
        mount(bytes(image), oblivious=False)


def test_load_rejects_foreign_contents():
    layout = layout_for(64, ProtectionMode.PLAIN)
    host = Host(new_image(layout), SimClock())
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
    fs.bitmap[phys >> 3] ^= 1 << (phys & 7)  # mapped but marked free
    assert any("marks free" in p for p in fs.fsck())
    fs.bitmap[phys >> 3] ^= 1 << (phys & 7)
    assert fs.fsck() == []
    other = fs.create_file()
    fs.file_write(io, other, 0, b"\x02" * BLOCK_SIZE)
    fs.inodes[other].block_map[0] = phys  # double claim
    assert any("mapped twice" in p for p in fs.fsck())
    padding = fs.dummy_blocks()[0]
    fs.inodes[other].block_map[0] = padding  # a file claims a padding block
    assert f"padding block {padding} is mapped by a file" in fs.fsck()


def test_dummy_blocks_sorted_and_flagged():
    fs = make_fs(128)
    blocks = fs.dummy_blocks()
    assert blocks == sorted(blocks)
    assert len(blocks) == len(set(blocks))
    regular = fs.create_file()
    io = DictIo()
    fs.file_write(io, regular, 0, b"x")
    assert fs.phys_of(regular, 0) not in fs.dummy_blocks()


def test_data_files_can_use_every_inode():
    # The padding domain takes no inode, so a four-entry table holds four
    # data files, and the padding blocks stay where format drew them.
    bundle = build_image(64, ProtectionMode.PLAIN, [b"x" * BLOCK_SIZE] * 4,
                         seed=4, max_files=4)
    m = mount(bundle.image, oblivious=False)
    fds = m.fs.files_with_flag(FLAG_REGULAR)
    assert fds == list(bundle.data_fds) == [0, 1, 2, 3]
    assert m.fs.dummy_blocks() == [6, 10, 15, 36, 40, 45]
    mapped = {m.fs.phys_of(fd, 0) for fd in fds}
    assert mapped.isdisjoint(m.fs.dummy_blocks())
    for fd in fds:
        assert m.engine.read_file(fd, 0, BLOCK_SIZE) == b"x" * BLOCK_SIZE
