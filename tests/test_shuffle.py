from __future__ import annotations

import dataclasses
import hashlib
import json
from itertools import count, permutations

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from conftest import DEFAULT_KEY, mount
from oblivsim import (
    BLOCK_SIZE,
    BlockFs,
    FLAG_REGULAR,
    IntegrityError,
    ProtectionMode,
    RoundBudgetExhausted,
    RngTree,
    ShuffleImpossibleError,
    ShufflePlan,
    ShuffleStats,
    build_image,
    build_plan,
    engine,
    oblivious_shuffle,
    shuffle_pass,
)
from oblivsim.blockfs import DUMMY_FRACTION, default_geometry, metadata_block_count
from oblivsim.rng import _CHUNK
from oblivsim.shuffle import fisher_yates


class FakeIo:
    """Shuffle rounds against a phys-keyed dict; logs every slot. Each
    round of a pass reads one block and then lands one, as the engine's
    rounds do."""

    def __init__(self, resident=None):
        self.pages: dict[int, bytes] = {}
        self.read_log: list[int] = []
        self.write_log: list[int] = []
        self.rounds = 0
        self.resident = dict(resident or {})

    def shuffle_round(self, read, land):
        self.rounds += 1
        self.read_log.append(read)
        data = self.pages[read]
        phys, block = land(data)
        self.write_log.append(phys)
        self.pages[phys] = bytes(block)
        return data

    def peek_cache(self, fd, lblk):
        return self.resident.get((fd, lblk))


def run_shuffle(fs, io, rng, fds=None):
    """A whole pass over ``io``'s rounds and resident pages, one round
    per ``pass_round`` call; a round that raises closes the pass."""
    steps = shuffle_pass(fs, io.peek_cache, rng, fds)

    def pass_round():
        try:
            io.shuffle_round(*next(steps))
        except StopIteration as done:
            return done.value
        except BaseException:
            steps.close()
            raise
        return None

    return oblivious_shuffle(pass_round)


def token(fd, b):
    return f"{fd}:{b}".encode()


class _Discard:
    """Block interface that drops what ``file_write`` sends; the world's
    pages are seeded by physical block instead."""

    def write_block(self, fd, lblk, page):
        pass


def make_world(sizes=(5, 3, 1), n=64, seed=11, filler=0, **fmt):
    fs = BlockFs.format(n, RngTree(seed).stream("layout"), **fmt)
    io = FakeIo()
    fds = []
    for size in sizes:
        fd = fs.create_file()
        fs.file_write(_Discard(), fd, 0, bytes(size * BLOCK_SIZE))
        fds.append(fd)
        for b in range(size):
            io.pages[fs.phys_of(fd, b)] = token(fd, b)
    if filler:
        hold = fs.create_file()
        fs.file_write(_Discard(), hold, 0, bytes(filler * BLOCK_SIZE))
    return fs, io, fds


def placements(fs, fds):
    return {(fd, b): fs.phys_of(fd, b)
            for fd in fds for b in range(fs.file_blocks(fd))}


def test_fisher_yates_permutes_and_is_seeded():
    items = list(range(10))
    out = fisher_yates(items, RngTree(1).stream("shuffle"))
    assert sorted(out) == items
    assert out == fisher_yates(items, RngTree(1).stream("shuffle"))
    assert out != fisher_yates(items, RngTree(2).stream("shuffle"))
    assert fisher_yates([], RngTree(0).stream("shuffle")) == []
    assert fisher_yates([7], RngTree(0).stream("shuffle")) == [7]


def test_fisher_yates_is_uniform_over_permutations():
    index = {p: i for i, p in enumerate(permutations(range(4)))}
    rng = RngTree(5).stream("shuffle")
    counts = [0] * 24
    for _ in range(3000):
        counts[index[tuple(fisher_yates(range(4), rng))]] += 1
    assert sstats.chisquare(counts).pvalue > 1e-4


def _fisher_yates_per_draw(items, rng):
    """The reference permutation: one ``randbelow`` call per draw."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@pytest.mark.parametrize("n,prefix", [(1, 0), (2, 0), (255, 0), (256, 0),
                                      (257, 0), (65536, 0), (65537, 0),
                                      (700, _CHUNK - 1)])
def test_fisher_yates_matches_the_per_draw_loop(n, prefix):
    # fisher_yates takes the draws of the reference per-draw loop, from
    # the same bytes: the same permutation, and the stream left at the
    # same place.
    # With a prefix of _CHUNK - 1 bytes the first two-byte try straddles
    # the end of the first buffered chunk.
    ref, one = RngTree(n).stream("shuffle"), RngTree(n).stream("shuffle")
    for rng in (ref, one):
        rng.random_bytes(prefix)
    if prefix:
        assert len(one._buf) - one._pos == 1
    assert fisher_yates(range(n), one) == _fisher_yates_per_draw(range(n), ref)
    assert one.randbelow(2**23 + 1) == ref.randbelow(2**23 + 1)
    assert one.random_bytes(5) == ref.random_bytes(5)


def test_build_plan_counts_and_skips_empty_files():
    fs, io, fds = make_world(sizes=(5, 3, 1))
    empty = fs.create_file()
    plan = build_plan(fs, fds + [empty])
    assert plan == ShufflePlan(tuple(fds), 9)
    assert build_plan(fs, [empty]) == ShufflePlan((), 0)


def test_shuffle_preserves_contents_and_moves_every_block():
    fs, io, fds = make_world()
    before = placements(fs, fds)
    free_before = fs.free_blocks
    stats = run_shuffle(fs, io, RngTree(2).stream("shuffle"))
    after = placements(fs, fds)
    assert stats.swaps == 9
    for key, phys in after.items():
        assert io.pages[phys] == token(*key)
        assert phys != before[key]  # new homes come from the free pool
    assert len(set(after.values())) == 9
    assert fs.free_blocks == free_before
    assert fs.fsck() == []
    assert len(fs.files_with_flag(FLAG_REGULAR)) == 3  # no file was added


def test_every_step_spends_exactly_one_read_slot():
    fs, io, fds = make_world()
    before = placements(fs, fds)
    stats = run_shuffle(fs, io, RngTree(3).stream("shuffle"))
    # Each step reads its own block's pre-pass home, once, and lands that
    # block at its new home in the same round: a round per step.
    assert io.rounds == len(io.read_log) == len(io.write_log) == stats.swaps
    assert sorted(io.read_log) == sorted(before.values())
    block_at, after = {phys: key for key, phys in before.items()}, placements(fs, fds)
    assert io.write_log == [after[block_at[phys]] for phys in io.read_log]


def test_cache_resident_blocks_read_their_own_home_and_land_the_cached_bytes():
    fs, io, fds = make_world(sizes=(4,))
    fd = fds[0]
    # Block 0 is resident with bytes the disk does not hold (a dirty
    # page); block 2 is resident and clean.
    io.resident = {(fd, 0): b"dirty", (fd, 2): token(fd, 2)}
    before = placements(fs, fds)
    stats = run_shuffle(fs, io, RngTree(4).stream("shuffle"))
    # Step k reads the pre-pass home of the k-th block in shuffle order,
    # resident or not.
    order = fisher_yates([(fd, b) for b in range(4)], RngTree(4).stream("shuffle"))
    assert io.read_log == [before[key] for key in order]
    assert stats.swaps == io.rounds == 4
    # The dirty page's cached bytes land, not the bytes its step read.
    assert io.pages[fs.phys_of(fd, 0)] == b"dirty"
    for b in range(1, 4):
        assert io.pages[fs.phys_of(fd, b)] == token(fd, b)


def test_vacated_homes_are_reused_only_when_the_pool_runs_dry():
    # Two 4-block files over 5 free blocks: the first five steps draw
    # their homes from the pool, the last three take homes the pass
    # itself vacated.
    fs, io, fds = make_world(sizes=(4, 4), filler=41)
    pool, before = set(fs._free), placements(fs, fds)
    assert len(pool) == 5
    stats = run_shuffle(fs, io, RngTree(6).stream("shuffle"), fds)
    assert (stats.swaps, stats.donor_reuses) == (8, 3)
    assert set(io.write_log[:5]) == pool
    assert set(io.write_log[5:]) <= set(before.values())
    for fd in fds:
        for b in range(4):
            assert io.pages[fs.phys_of(fd, b)] == token(fd, b)
    # The five homes left vacated go back to the pool.
    assert fs.free_blocks == 5 and set(fs._free) <= set(before.values())
    assert fs.fsck() == []


def test_shuffle_without_room_fails_loudly():
    # With no free block the first step has no home to draw: the pass is
    # refused before its first round.
    fs, io, fds = make_world(sizes=(40,), filler=14)
    assert fs.free_blocks == 0
    before = placements(fs, fds)
    with pytest.raises(ShuffleImpossibleError, match="0 free blocks; a shuffle pass needs 1"):
        run_shuffle(fs, io, RngTree(0).stream("shuffle"), fds)
    assert io.rounds == 0 and placements(fs, fds) == before
    assert fs.fsck() == []


def test_a_pool_smaller_than_the_largest_file_is_room_enough():
    # One free block under a 40-block file: the first step takes it, and
    # every later step takes a home the pass itself vacated.
    fs, io, fds = make_world(sizes=(40,), filler=13)
    pool, before = set(fs._free), placements(fs, fds)
    assert len(pool) == 1
    stats = run_shuffle(fs, io, RngTree(4).stream("shuffle"), fds)
    assert (stats.swaps, stats.donor_reuses, io.rounds) == (40, 39, 40)
    assert set(io.write_log[:1]) == pool
    assert set(io.write_log[1:]) <= set(before.values())
    assert placements(fs, fds) != before
    for b in range(40):
        assert io.pages[fs.phys_of(fds[0], b)] == token(fds[0], b)
    assert fs.free_blocks == 1 and fs.fsck() == []


def test_a_file_larger_than_the_pool_survives_repeated_passes():
    # A 49-block file beside 5 free blocks, on a protected mount: each
    # pass reuses vacated homes, and the file reads back byte for byte.
    data = (bytes(range(251)) * 800)[:200_000]
    bundle = build_image(64, ProtectionMode.CRYPT_INTEGRITY, [data], seed=2)
    m = mount(bundle, seed=1)
    fd = m.engine.regular_fd(0)
    assert (m.fs.file_blocks(fd), m.fs.free_blocks) == (49, 5)
    for _ in range(3):
        stats = m.engine.shuffle_now()
        assert (stats.swaps, stats.donor_reuses) == (49, 44)
    assert m.engine.read_file(fd, 0, len(data)) == data
    assert m.fs.free_blocks == 5 and m.fs.fsck() == []


def test_shuffle_succeeds_with_a_full_inode_table():
    fs, io, fds = make_world(sizes=(2, 2, 2, 2), n=64, max_files=4)
    assert all(ino.used for ino in fs.inodes)
    free_before = fs.free_blocks
    stats = run_shuffle(fs, io, RngTree(0).stream("shuffle"), fds)
    assert stats.swaps == 8
    for fd in fds:
        for b in range(2):
            assert io.pages[fs.phys_of(fd, b)] == token(fd, b)
    assert fs.free_blocks == free_before
    assert fs.fsck() == []


def test_a_pass_reads_and_rehomes_through_the_block_maps_it_resolved(
        small_bundle, monkeypatch):
    # No step looks a block up by descriptor: each reads its file's block
    # map and re-homes through it.
    m = mount(small_bundle, seed=7)
    calls = {"phys_of": 0, "move_extent": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(BlockFs, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(BlockFs, name, counted)
    stats = m.engine.shuffle_now()
    assert stats.swaps == 11
    assert calls == {"phys_of": 0, "move_extent": 11}


def test_one_block_file_shuffles_on_a_default_geometry_image():
    data = bytes(range(256)) * (BLOCK_SIZE // 256)
    bundle = build_image(4096, ProtectionMode.CRYPT_INTEGRITY, [data],
                         seed=3, key=DEFAULT_KEY)
    m = mount(bundle, seed=3)
    fd = m.engine.regular_fd(0)
    before, free_before = m.fs.phys_of(fd, 0), m.fs.free_blocks
    stats = m.engine.shuffle_now()
    assert (stats.swaps, stats.donor_reuses) == (1, 0)
    assert m.fs.phys_of(fd, 0) != before
    assert m.engine.read_file(fd, 0, BLOCK_SIZE) == data
    assert m.fs.free_blocks == free_before
    assert m.fs.fsck() == []


def _count_pool_draws(fs):
    """Per ``draw_home`` call, how many blocks it took out of the free
    pool: 1 for a pool draw, 0 for a vacated home."""
    taken = []
    draw = fs.draw_home

    def counted(vacated):
        before = fs.free_blocks
        home = draw(vacated)
        taken.append(before - fs.free_blocks)
        return home

    fs.draw_home = counted
    return taken


def test_shuffle_draws_one_home_per_swap_until_the_pool_runs_dry():
    # A reuse takes a vacated home and draws nothing from the pool.
    fs, io, fds = make_world(sizes=(4, 4), filler=41)
    taken = _count_pool_draws(fs)
    stats = run_shuffle(fs, io, RngTree(6).stream("shuffle"), fds)
    assert (stats.swaps, stats.donor_reuses) == (8, 3)
    assert taken == [1] * 5 + [0] * 3

    bundle = build_image(4096, ProtectionMode.CRYPT_INTEGRITY, [b"x"],
                         seed=3, key=DEFAULT_KEY)
    m = mount(bundle, seed=3)
    taken = _count_pool_draws(m.fs)
    stats = m.engine.shuffle_now()
    assert (stats.swaps, stats.donor_reuses) == (1, 0)
    assert taken == [1]
    assert m.fs.fsck() == []


def test_tampered_read_mid_shuffle_returns_the_vacated_homes(small):
    fd = small.engine.regular_fd(0)
    phys = small.fs.phys_of(fd, 5)
    small.host.image[small.store.layout.data_offset(phys)] ^= 0x01
    free_before = small.fs.free_blocks
    assert small.fs.fsck() == []
    with pytest.raises(IntegrityError):
        small.engine.shuffle_now()
    assert small.fs.free_blocks == free_before
    assert small.fs.fsck() == []
    # Free space is intact, so a retry meets the same tampered block
    # rather than a shortage of free blocks.
    with pytest.raises(IntegrityError):
        small.engine.shuffle_now()


def test_a_pass_finds_a_tampered_home_behind_a_cached_page(small):
    # The pass reads a resident block's home too, so a flipped byte there
    # fails its tag check although the cache could have served the block.
    fd = small.engine.regular_fd(0)
    assert small.engine.read_file(fd, 0, 1) == b"\x00"
    assert small.engine.cache.peek(fd, 0) is not None
    phys = small.fs.phys_of(fd, 0)
    small.host.image[small.store.layout.data_offset(phys)] ^= 0x01
    free_before, fsck_before = small.fs.free_blocks, small.fs.fsck()
    with pytest.raises(IntegrityError, match=f"block {phys}: tag check failed"):
        small.engine.shuffle_now()
    assert small.fs.free_blocks == free_before
    assert small.fs.fsck() == fsck_before


def test_shuffle_of_nothing_is_a_noop():
    fs, io, _ = make_world(sizes=())
    stats = run_shuffle(fs, io, RngTree(0).stream("shuffle"))
    assert stats.swaps == 0 and stats.plan.num_shuff_blk == 0
    assert io.rounds == 0 and io.read_log == [] and io.write_log == []


def test_shuffle_is_deterministic_under_a_fixed_seed():
    runs = []
    for _ in range(2):
        fs, io, fds = make_world(seed=8)
        stats = run_shuffle(fs, io, RngTree(12).stream("shuffle"))
        runs.append((placements(fs, fds), io.write_log, stats))
    assert runs[0] == runs[1]


def test_default_selection_is_regular_files_only():
    fs, io, fds = make_world(sizes=(3,), n=32)
    dummy_before = fs.dummy_blocks()
    run_shuffle(fs, io, RngTree(9).stream("shuffle"))
    assert fs.dummy_blocks() == dummy_before


def _host_io_digest(io, fs, fds, stats=None) -> str:
    # Files are named by their index in ``fds``, not by descriptor, so the
    # digest does not depend on which inode entries the files landed in.
    index = {fd: i for i, fd in enumerate(fds)}
    maps = sorted([index[fd], b, phys]
                  for (fd, b), phys in placements(fs, fds).items())
    record = {"reads": io.read_log, "writes": io.write_log, "maps": maps}
    if stats is not None:
        record["stats"] = shape = dataclasses.asdict(stats)
        shape["plan"]["fds"] = [index[fd] for fd in stats.plan.fds]
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def test_placement_is_pinned_while_the_pool_lasts():
    # Three files of 4, 4 and 2 blocks over 14 free blocks, three sources
    # held in the cache: the pool never runs dry, so every new home is a
    # pool draw in step order and no vacated home is reused.
    # The digest covers the ordered read and write logs and the final
    # block maps, not the stats. The write log and the maps were fixed
    # while homes still came from a grid of donor slots, which placed
    # every block the same, and the read log since each step reads its
    # own block; they are unchanged since a step lands its block in its
    # own round.
    fs, io, fds = make_world(sizes=(4, 4, 2), filler=30)
    assert fs.free_blocks == 14
    io.resident = {key: token(*key) for key in
                   ((fds[0], 2), (fds[1], 0), (fds[2], 1))}
    stats = run_shuffle(fs, io, RngTree(5).stream("shuffle"), fds)
    assert (stats.swaps, stats.donor_reuses) == (10, 0)
    assert len(io.read_log) == io.rounds == 10
    for fd in fds:
        for b in range(fs.file_blocks(fd)):
            assert io.pages[fs.phys_of(fd, b)] == token(fd, b)
    assert _host_io_digest(io, fs, fds) == (
        "fe7b3ddca9524dd704412f1e013918360295b97b7bbc01b78a69e56581f4af01")


def test_shuffle_host_io_is_pinned():
    # Cache-resident sources and reuse of vacated homes in one world:
    # three files of 4, 4 and 2 blocks over 7 free blocks, so the last
    # three steps find the pool dry, with four sources held in the cache.
    # The digest covers the ordered read and write phys lists, one of
    # each per round, the final block maps and the stats.
    fs, io, fds = make_world(sizes=(4, 4, 2), filler=37)
    assert fs.free_blocks == 7
    io.resident = {key: token(*key) for key in
                   ((fds[0], 1), (fds[1], 3), (fds[2], 0), (fds[2], 1))}
    stats = run_shuffle(fs, io, RngTree(21).stream("shuffle"), fds)
    assert stats.donor_reuses == 3
    assert len(io.read_log) == io.rounds == 10
    for fd in fds:
        for b in range(fs.file_blocks(fd)):
            assert io.pages[fs.phys_of(fd, b)] == token(fd, b)
    assert _host_io_digest(io, fs, fds, stats) == (
        "f04611184b1954b07b71a0e4c62f3a4b8a5e56fb87e05994a2c58c2b0272eeab")


def _reference_shuffle(fs, peek_cache, rng, fds=None):
    """The pass as a per-step generator, kept as the oracle: it yields
    each round's (read, land), as ``shuffle_pass`` does, but draws
    ``fisher_yates`` through one ``randbelow`` per draw, and takes
    ``phys_of`` for each step's read, ``move_extent`` for each new home
    and ``free_block`` for each vacated home at the end."""
    if fds is None:
        fds = fs.files_with_flag(FLAG_REGULAR)
    plan = build_plan(fs, fds)
    stats = ShuffleStats(plan)
    if plan.num_shuff_blk == 0:
        return stats
    vacated = fs.create_donors()
    try:
        sources = [(fd, b) for fd in plan.fds
                   for b in range(fs.file_blocks(fd))]
        order = _fisher_yates_per_draw(sources, rng)
        reuses = max(0, len(order) - fs.free_blocks)
        for fd, b in order:
            def land(data, fd=fd, b=b):
                page = peek_cache(fd, b)
                return fs.move_extent(fs.inodes[fd].block_map, b, vacated), page or data
            yield fs.phys_of(fd, b), land
        stats.swaps, stats.donor_reuses = len(order), reuses
    finally:
        for phys in vacated:
            fs.free_block(phys)
    return stats


def _pass_on_a_fresh_mount(bundle, touches, cut, shuffle):
    """Mount ``bundle``, make the ``touches`` resident (read or written
    through the cache), then run ``Engine.shuffle_now`` with passes built
    by ``shuffle``, at most ``cut`` rounds of it if given."""
    m = mount(bundle, seed=5)
    fds = m.fs.files_with_flag(FLAG_REGULAR)
    for i, b, write in touches:
        fd = fds[i % len(fds)]
        offset = b % m.fs.file_blocks(fd) * BLOCK_SIZE
        if write:
            m.engine.write_file(fd, offset, b"w%d" % b)
        else:
            m.engine.read_file(fd, offset, 1)
    if cut is not None:
        m.engine.round_target = m.engine.rounds_done + cut
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "shuffle_pass", shuffle)
        try:
            outcome = m.engine.shuffle_now()
        except (RoundBudgetExhausted, ShuffleImpossibleError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
    fs, rngs = m.fs, (m.engine.rng.stream("shuffle"), m.fs.rng)
    return {
        "outcome": outcome,
        "trace": list(m.trace.events),
        "maps": [ino.block_map and list(ino.block_map) for ino in fs.inodes],
        "free": list(fs._free),
        "bitmap": bytes(fs.bitmap),
        "fsck": fs.fsck(),
        "next_draws": [rng.randbelow(2**20) for rng in rngs],
    }


def _blocks_for_a_pool(data_blocks: int) -> int:
    """The smallest image with at least ``data_blocks`` blocks for files
    and free pool together; metadata and the padding domain come first."""
    return next(n for n in count(16)
                if n - metadata_block_count(n, *default_geometry(n))
                - int(n * DUMMY_FRACTION) >= data_blocks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       slack=st.integers(0, 16),
       touches=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 11),
                                  st.booleans()), max_size=8),
       cut=st.none() | st.integers(0, 40),
       seed=st.integers(0, 2**16))
def test_pass_matches_the_per_step_reference(sizes, slack, touches, cut, seed):
    # The free pool holds the largest file plus ``slack`` blocks, so a
    # pass over files of more blocks than that reuses vacated homes.
    # Cache residency comes from reads and dirty writes, and a cut pass
    # stops on the round budget.
    files = [bytes([k + 1]) * (size * BLOCK_SIZE) for k, size in enumerate(sizes)]
    bundle = build_image(_blocks_for_a_pool(sum(sizes) + max(sizes) + slack),
                         ProtectionMode.CRYPT_INTEGRITY, files,
                         seed=seed, key=DEFAULT_KEY)
    new = _pass_on_a_fresh_mount(bundle, touches, cut, shuffle_pass)
    ref = _pass_on_a_fresh_mount(bundle, touches, cut, _reference_shuffle)
    assert new == ref
    assert new["fsck"] == []
