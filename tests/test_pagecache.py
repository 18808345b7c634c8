from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oblivsim import BUDGET_PAGES, PageCache, ParameterError, SimError, default_capacity

PAGE = 4  # cache is size-agnostic; tiny pages keep the tests light


class Harness:
    """Cache over a dict-backed disk with a mutable placement map. Its
    pass, which ``flush`` runs, lands every resident page of file 0 at
    its block's home and ends the epoch."""

    def __init__(self, capacity, n_blocks=16):
        self.disk = {p: bytes([p]) * PAGE for p in range(n_blocks)}
        self.placement = {lblk: lblk for lblk in range(n_blocks)}
        self.fetch_log: list[int] = []
        self.write_log: list[int] = []
        self.passes = 0
        self.cache = PageCache(capacity,
                               lambda fd, lblk: self.placement[lblk],
                               self.shuffle_now)

    def fetch(self, phys):
        self.fetch_log.append(phys)
        return self.disk[phys]

    def shuffle_now(self):
        for lblk, phys in self.placement.items():
            page = self.cache.peek(0, lblk)
            if page is not None:
                self.write_log.append(phys)
                self.disk[phys] = page
        self.cache.end_epoch(lambda fd, lblk: True)
        self.passes += 1


def test_default_capacity_is_a_1_5_mib_budget():
    # The shelter takes its whole trusted-memory budget, or the whole disk
    # when the disk is smaller.
    assert BUDGET_PAGES * 4096 == 3 << 19
    for n in range(1, 40001):
        assert default_capacity(n) == min(BUDGET_PAGES, n)


def test_capacity_must_be_positive():
    with pytest.raises(ParameterError):
        PageCache(0, lambda fd, lblk: lblk, Harness(1).shuffle_now)


def test_flush_runs_one_pass_and_counts_the_dirty_pages():
    h = Harness(4)
    h.cache.get_block(0, 2, h.fetch)
    for lblk in (1, 3):
        h.cache.put_block(0, lblk, bytes([0x30 + lblk]) * PAGE, h.fetch)
    assert h.cache.flush() == 2 and h.passes == 1
    assert h.disk[1] == b"\x31" * PAGE and h.disk[3] == b"\x33" * PAGE
    # The pass ended the epoch: nothing is dirty, and a flush runs a pass
    # all the same.
    h.cache.end_epoch(lambda fd, lblk: False)
    assert h.cache.flush() == 0 and h.passes == 2


def test_flush_refuses_once_its_pass_owner_is_gone():
    # The cache holds its pass weakly, so it keeps its owner alive by no
    # reference; once the owner is gone a flush is refused.
    class Owner:
        def shuffle_now(self):
            raise AssertionError("no pass runs")

    owner = Owner()
    cache = PageCache(2, lambda fd, lblk: lblk, owner.shuffle_now)
    cache.put_block(0, 1, b"\x01" * PAGE, lambda phys: bytes(PAGE))
    del owner
    with pytest.raises(SimError, match="is gone"):
        cache.flush()
    assert cache.peek(0, 1) == b"\x01" * PAGE


def test_resident_hits_cost_no_host_reads():
    h = Harness(4)
    assert h.cache.get_block(0, 3, h.fetch) == bytes([3]) * PAGE
    assert (h.cache.hits, h.cache.fetches, h.fetch_log) == (0, 1, [3])
    for i in range(10):
        assert h.cache.get_block(0, 3, h.fetch) == bytes([3]) * PAGE
        assert (h.cache.hits, h.cache.fetches) == (i + 1, 1)
    assert h.fetch_log == [3]
    assert (h.cache.hits, h.cache.fetches) == (10, 1)


def test_lru_eviction_drops_only_clean_carried_pages():
    h = Harness(2)
    h.cache.put_block(0, 1, bytes([1]) * PAGE, h.fetch)
    h.cache.get_block(0, 0, h.fetch)
    h.cache.end_epoch(lambda fd, lblk: True)  # the pass landed page 1
    h.cache.get_block(0, 2, h.fetch)  # evicts 1, the LRU page, now clean
    h.cache.get_block(0, 3, h.fetch)  # then 0
    assert h.write_log == []
    assert h.cache.peek(0, 0) is None and h.cache.peek(0, 1) is None


def test_carried_over_page_is_evicted_before_a_fetched_one():
    h = Harness(3)
    h.cache.get_block(0, 0, h.fetch)
    h.cache.get_block(0, 3, h.fetch)
    h.cache.end_epoch(lambda fd, lblk: True)  # 0 and 3 are carried over
    h.cache.get_block(0, 1, h.fetch)
    h.cache.get_block(0, 3, h.fetch)
    h.cache.get_block(0, 0, h.fetch)  # 1 is now LRU
    assert h.cache.hits == 2 and h.fetch_log == [0, 3, 1]
    h.cache.get_block(0, 2, h.fetch)  # evicts 3, the LRU carried-over page
    assert h.cache.peek(0, 1) is not None and h.cache.peek(0, 3) is None
    # Block 3 was not fetched this epoch, so it comes back for one read.
    assert h.cache.get_block(0, 3, h.fetch) == bytes([3]) * PAGE
    assert h.cache.hits == 2
    assert h.cache.peek(0, 0) is None
    assert h.fetch_log == [0, 3, 1, 2, 3]


def test_put_page_never_fetched_is_evicted_before_a_fetched_one():
    # Page 1 was put last epoch and carried over; this epoch has not
    # fetched its block, so it goes before block 0, which it fetched.
    h = Harness(2)
    h.cache.put_block(0, 1, b"\x11" * PAGE, h.fetch)
    h.cache.end_epoch(lambda fd, lblk: True)
    h.cache.get_block(0, 0, h.fetch)
    assert h.cache.get_block(0, 1, h.fetch) == b"\x11" * PAGE  # 0 is now LRU
    assert h.cache.hits == 1
    h.cache.get_block(0, 2, h.fetch)
    assert h.cache.peek(0, 0) is not None and h.cache.peek(0, 1) is None
    assert h.write_log == [] and h.fetch_log == [1, 0, 2]


def test_put_over_a_block_fetched_this_epoch_is_not_spare():
    h = Harness(3)
    for lblk in (0, 1):
        h.cache.get_block(0, lblk, h.fetch)
    h.cache.end_epoch(lambda fd, lblk: True)  # 0 and 1 are carried over
    h.cache.get_block(0, 2, h.fetch)
    h.cache.put_block(0, 2, b"\x12" * PAGE, h.fetch)  # fetched: no new read
    for lblk in (0, 1):
        h.cache.get_block(0, lblk, h.fetch)  # 2 is now LRU
    h.cache.get_block(0, 3, h.fetch)  # evicts 0, the LRU carried-over page
    assert h.cache.peek(0, 0) is None and h.cache.peek(0, 2) == b"\x12" * PAGE
    assert h.fetch_log == [0, 1, 2, 3]


def test_eviction_is_refused_once_no_page_is_carried_over():
    # Three pages fetched or written this epoch fill a three-page cache:
    # the epoch is over, and a fourth admission is a broken invariant.
    h = Harness(3)
    h.cache.get_block(0, 0, h.fetch)
    h.cache.put_block(0, 5, b"\x55" * PAGE, h.fetch)
    h.cache.get_block(0, 1, h.fetch)
    with pytest.raises(ParameterError, match="all 3 pages were fetched this epoch"):
        h.cache.get_block(0, 2, h.fetch)
    assert [lblk for lblk in range(8) if h.cache.peek(0, lblk) is not None] == [0, 1, 5]
    assert h.write_log == []


def test_put_block_installs_without_fetch():
    # Over a block this epoch fetched, a put reads nothing more.
    h = Harness(4)
    h.cache.get_block(0, 5, h.fetch)
    h.cache.put_block(0, 5, b"\xaa" * PAGE, h.fetch)
    assert h.fetch_log == [5]
    assert h.cache.peek(0, 5) == b"\xaa" * PAGE
    assert h.cache.flush() == 1
    assert h.disk[5] == b"\xaa" * PAGE


def test_put_block_keeps_no_alias_of_the_callers_buffer():
    h = Harness(4)
    page = bytearray(b"\xaa" * PAGE)
    h.cache.put_block(0, 5, page, h.fetch)
    page[:] = b"\xbb" * PAGE
    assert h.cache.get_block(0, 5, h.fetch) == b"\xaa" * PAGE
    assert (h.cache.hits, h.fetch_log) == (1, [5])
    h.cache.flush()
    assert h.disk[5] == b"\xaa" * PAGE


def test_put_block_over_resident_clean_page():
    h = Harness(4)
    h.cache.get_block(0, 2, h.fetch)
    h.cache.put_block(0, 2, b"\xbb" * PAGE, h.fetch)
    assert h.cache.get_block(0, 2, h.fetch) == b"\xbb" * PAGE
    assert (h.cache.hits, h.fetch_log) == (1, [2])
    assert h.cache.flush() == 1
    assert h.disk[2] == b"\xbb" * PAGE


def test_peek_does_not_refresh_lru():
    h = Harness(2)
    h.cache.get_block(0, 0, h.fetch)
    h.cache.get_block(0, 1, h.fetch)
    h.cache.end_epoch(lambda fd, lblk: True)
    assert h.cache.peek(0, 0) == bytes([0]) * PAGE
    h.cache.get_block(0, 2, h.fetch)
    assert h.cache.peek(0, 0) is None
    assert h.cache.peek(0, 1) is not None
    assert h.cache.peek(0, 7) is None


def test_refetch_within_epoch_demands_shuffle():
    # A fetched page stays resident for the whole epoch, so only a home
    # that changed under the cache can repeat a fetch: it is refused.
    h = Harness(2)
    h.cache.get_block(0, 0, h.fetch)
    h.placement[1] = 0  # block 1 now lives at the home just fetched
    with pytest.raises(ParameterError, match="block 0 would be fetched twice in one epoch"):
        h.cache.get_block(0, 1, h.fetch)
    with pytest.raises(ParameterError, match="block 0 would be fetched twice"):
        h.cache.put_block(0, 1, b"\x01" * PAGE, h.fetch)
    assert h.fetch_log == [0]  # the repeat never reached the host
    assert h.cache.peek(0, 1) is None
    h.cache.end_epoch(lambda fd, lblk: True)
    assert h.cache.get_block(0, 1, h.fetch) == bytes([0]) * PAGE
    assert (h.cache.hits, h.fetch_log) == (0, [0, 0])


def test_end_epoch_forgets_only_landed_pages():
    h = Harness(4)
    for lblk in (1, 2, 3):
        h.cache.put_block(0, lblk, bytes([0x30 + lblk]) * PAGE, h.fetch)
    with pytest.raises(ParameterError, match="dirty page 2 of file 0"):
        h.cache.end_epoch(lambda fd, lblk: lblk != 2)
    # The pass landed all three: none is dirty any more.
    h.cache.end_epoch(lambda fd, lblk: True)
    assert h.cache.flush() == 0


def test_end_epoch_requires_clean_cache():
    h = Harness(3)
    h.cache.get_block(0, 2, h.fetch)
    h.cache.put_block(0, 1, b"\x01" * PAGE, h.fetch)  # dirty
    h.cache.get_block(0, 3, h.fetch)
    with pytest.raises(ParameterError, match="dirty page 1 of file 0"):
        h.cache.end_epoch(lambda fd, lblk: lblk != 1)
    # The refusal changed nothing: the fetched set stands, and page 1 is
    # still dirty, so a flush's pass lands it and ends the epoch.
    assert h.cache.epoch_fetched == {1, 2, 3}
    assert h.cache.flush() == 1 and h.disk[1] == b"\x01" * PAGE
    assert h.cache.epoch_fetched == set()
    h.cache.end_epoch(lambda fd, lblk: False)  # nothing dirty is left


def test_writeback_targets_current_placement():
    # A page dirtied before its block moved lands where the flush's pass
    # finds the block, not where it was when the page was dirtied.
    h = Harness(1)
    h.cache.put_block(0, 0, bytes([0]) * PAGE, h.fetch)
    h.placement[0] = 7
    assert h.cache.flush() == 1
    assert h.write_log == [7]
    assert h.disk[7] == bytes([0]) * PAGE


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(["read", "put"]),
                          st.integers(min_value=0, max_value=7),
                          st.integers(min_value=0, max_value=255)),
                max_size=40))
def test_cache_is_transparent(ops):
    h = Harness(3, n_blocks=8)
    expected = dict(h.disk)
    epoch_fetches = 0
    for op, lblk, v in ops:
        if len(h.fetch_log) - epoch_fetches == 3:
            # The epoch's three fetches are spent, so a shuffle runs: the
            # pass writes the resident pages of the blocks it re-homes
            # (here 0-5) from the cache, and the epoch ends. A dirty page
            # outside the pass is refused, and lands only through a flush,
            # whose pass re-homes every block.
            for b in range(6):
                page = h.cache.peek(0, b)
                if page is not None:
                    h.disk[h.placement[b]] = page
            try:
                h.cache.end_epoch(lambda fd, b: b < 6)
            except ParameterError:
                h.cache.flush()
            epoch_fetches = len(h.fetch_log)
        if op == "put":
            page = bytes([v]) * PAGE
            h.cache.put_block(0, lblk, page, h.fetch)
            expected[lblk] = page
        else:
            hits, fetches = h.cache.hits, h.cache.fetches
            assert h.cache.get_block(0, lblk, h.fetch) == expected[lblk]
            assert h.cache.hits + h.cache.fetches == hits + fetches + 1
        assert len(h.cache) <= 3
        fetched = h.fetch_log[epoch_fetches:]
        assert len(set(fetched)) == len(fetched)  # at most once per epoch
    h.cache.flush()
    assert h.disk == expected
