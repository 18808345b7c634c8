"""In-memory page cache with epoch bookkeeping: the shelter of the
square-root ORAM's cadence.

The cache is what makes batched rounds affordable: repeated access to a
resident block costs nothing observable. It also carries the one rule
the layout shuffle depends on: within an epoch each physical block is
fetched from the host at most once. The engine ends an epoch with a
shuffle pass after a fixed number of rounds, as many as the cache has
pages, so an epoch holds at most ``capacity`` fetches.

Every page the epoch admits or dirties costs one fetch. A miss fetches
its block, and ``put_block`` over a page whose block this epoch has not
fetched first spends a fetch on the block's current home, whether the
page is absent or carried over from before the last pass. So no more
pages are admitted or dirtied in an epoch than the cache holds, and
eviction never needs to drop one of them: it drops the least recently
used page among those carried over and not yet touched by a write or a
fetch, which are clean. Evictions write nothing, and a fetched page
stays resident until the epoch ends, so a repeat fetch is a broken
invariant, refused with ``ParameterError``.

An epoch ends at a shuffle. The pass lands every page of every file it
re-homes straight from the cache, and ``end_epoch`` checks that it
landed every dirty page before it forgets any: no page is dropped
unwritten. Every resident page is then carried over, in LRU order.

Capacity defaults to max(ceil(sqrt(n)), ceil(n / 16)) pages of an
n-block disk, capped by a trusted-memory budget of 1 MiB. The shelter
sits in enclave memory behind a dict lookup, so its size is bounded by
memory, not by the cost of scanning it.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from typing import Callable

from .errors import ParameterError
from .hostiface import BLOCK_SIZE

BUDGET_PAGES = (1 << 20) // BLOCK_SIZE  # the shelter's trusted-memory budget


def default_capacity(n_blocks: int) -> int:
    sqrt_ceil = math.isqrt(n_blocks - 1) + 1 if n_blocks > 1 else 1
    return min(BUDGET_PAGES, max(sqrt_ceil, -(-n_blocks // 16)))


class Outcome(enum.Enum):
    HIT = "hit"
    FETCHED = "fetched"
    # Kept while ``benchmarks/`` names it: no call returns it any more.
    SHUFFLE_REQUIRED = "shuffle_required"


class PageCache:
    """Page cache keyed by (fd, logical block) that evicts only clean
    carried-over pages, in LRU order. Pages are immutable ``bytes``;
    installing a page replaces it.

    Two collaborators are injected: ``phys_of`` resolves the current
    physical placement, ``writeback`` persists a dirty page for ``flush``
    (the engine queues it for a later round). The fetch that performs a
    real host read is passed to each ``get_block`` and ``put_block`` call
    instead of being stored, so the cache holds no reference back to
    whoever fetches.
    """

    def __init__(self, capacity: int,
                 phys_of: Callable[[int, int], int],
                 writeback: Callable[[int, bytes], None]):
        if capacity < 1:
            raise ParameterError("cache needs at least one page")
        self.capacity = capacity
        self._phys_of = phys_of
        self._writeback = writeback
        self._pages: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        # Carried-over pages this epoch has neither fetched nor written,
        # in the same relative (LRU) order as _pages: the evictable ones.
        self._carried: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._dirty: set[tuple[int, int]] = set()
        self.epoch_fetched: set[int] = set()
        self.hits = 0
        self.fetches = 0

    # Inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    def peek(self, fd: int, lblk: int) -> bytes | None:
        """Read a resident page without touching LRU order."""
        return self._pages.get((fd, lblk))

    # Main entry ----------------------------------------------------------

    def get_block(self, fd: int, lblk: int,
                  fetch: Callable[[int], bytes]) -> tuple[bytes, Outcome]:
        """The page, from the cache or else from ``fetch(phys)``, which
        costs one round when it reads the host."""
        key = (fd, lblk)
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            if key in self._carried:
                self._carried.move_to_end(key)
            self.hits += 1
            return page, Outcome.HIT
        page = self._fetch(key, fetch)
        self._admit(key, page)
        return page, Outcome.FETCHED

    def put_block(self, fd: int, lblk: int, page: bytes,
                  fetch: Callable[[int], bytes]) -> None:
        """Install a full page (whole-block overwrites and freshly
        allocated blocks). Unless this epoch fetched the page's block, a
        ``fetch`` of its current home comes first; what it reads is not
        needed, only the read slot it spends."""
        key, page = (fd, lblk), bytes(page)  # never alias the caller's buffer
        if key in self._pages:
            if key in self._carried:
                self._fetch(key, fetch)
                del self._carried[key]
            self._pages[key] = page
            self._pages.move_to_end(key)
        else:
            self._fetch(key, fetch)
            self._admit(key, page)
        self._dirty.add(key)

    # Internals -----------------------------------------------------------

    def _fetch(self, key: tuple[int, int], fetch: Callable[[int], bytes]) -> bytes:
        phys = self._phys_of(*key)
        if phys in self.epoch_fetched:
            raise ParameterError(f"block {phys} would be fetched twice in one epoch")
        page = fetch(phys)
        self.epoch_fetched.add(phys)
        self.fetches += 1
        return page

    def _admit(self, key: tuple[int, int], page: bytes) -> None:
        """Make room by dropping the LRU carried-over page, which is
        clean, then install ``page``."""
        if len(self._pages) >= self.capacity:
            if not self._carried:
                raise ParameterError(
                    f"all {self.capacity} pages were fetched this epoch; it is over")
            del self._pages[self._carried.popitem(last=False)[0]]
        self._pages[key] = page

    # Flush and epochs ------------------------------------------------------

    def flush(self) -> int:
        """Write out all dirty pages (in LRU order, deterministic).
        Returns the number of pages written. Not while a pass runs: the
        writes go to the homes the pages have now."""
        written = 0
        for key in [k for k in self._pages if k in self._dirty]:
            self._writeback(self._phys_of(*key), self._pages[key])
            self._dirty.discard(key)
            written += 1
        return written

    def end_epoch(self, landed: Callable[[int, int], bool]) -> None:
        """Start a new epoch once a shuffle pass has run: nothing fetched
        yet, nothing dirty, every page carried over. ``landed(fd, lblk)``
        says whether the pass wrote that page; a dirty page it did not
        write is refused with ``ParameterError``, and nothing changes."""
        for key in self._pages:
            if key in self._dirty and not landed(*key):
                raise ParameterError(
                    f"dirty page {key[1]} of file {key[0]} was not landed by the pass")
        self._dirty.clear()
        self.epoch_fetched.clear()
        self._carried = OrderedDict.fromkeys(self._pages)
