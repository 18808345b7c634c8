"""In-memory page cache with epoch bookkeeping.

The cache is what makes batched rounds affordable: repeated access to a
resident block costs nothing observable. It also carries the one rule
the layout shuffle depends on: within an epoch each physical block may
be fetched from the host at most once. The cache remembers which
physical blocks it fetched this epoch; a request for a block that was
fetched and has since been evicted cannot be served again without
revealing a repeat, so the caller is told to reshuffle first.

An epoch ends at a shuffle. The pass lands every page of every file it
re-homes straight from the cache, and ``end_epoch`` checks that it
landed every dirty page before it forgets any: no page is dropped
unwritten.

Eviction spares what the epoch fetched. A *spare* page is a resident
page whose block this epoch has not fetched: it was carried over from
before the last shuffle, or ``put_block`` installed it without a fetch
over a block the epoch has not fetched either. Dropping a spare page costs at most one later read, while dropping a
fetched page means the next access to it needs a shuffle, so eviction
takes the least recently used spare page, and the least recently used
page of all only when none is spare. ``end_epoch`` makes every resident
page spare again, in LRU order. A second ordered map keeps the spare
pages in LRU order, so each operation stays O(1). Evictions reach the
host only as dirty writebacks, and the fetch rule is the same whichever
page goes, so the order leaks nothing the writebacks did not.

Capacity defaults to ceil(sqrt(n_blocks)) pages, sized so epochs and
shuffles balance.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from typing import Callable

from .errors import ParameterError


def default_capacity(n_blocks: int) -> int:
    return max(1, math.isqrt(n_blocks - 1) + 1 if n_blocks > 1 else 1)


class Outcome(enum.Enum):
    HIT = "hit"
    FETCHED = "fetched"
    SHUFFLE_REQUIRED = "shuffle_required"


class PageCache:
    """Page cache keyed by (fd, logical block) that evicts spare pages
    first, each kind in LRU order. Pages are immutable ``bytes``;
    installing a page replaces it.

    Two collaborators are injected: ``phys_of`` resolves the current
    physical placement, ``writeback`` persists a dirty page (the engine
    queues it for a later round). The fetch that performs a real host
    read is passed to each ``get_block`` call instead of being stored,
    so the cache holds no reference back to whoever fetches.
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
        # The spare pages, in the same relative (LRU) order as _pages.
        self._spare: OrderedDict[tuple[int, int], None] = OrderedDict()
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
                  fetch: Callable[[int], bytes]) -> tuple[bytes | None, Outcome]:
        """The page, from the cache or else from ``fetch(phys)``, which
        costs one round when it reads the host."""
        key = (fd, lblk)
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            if key in self._spare:
                self._spare.move_to_end(key)
            self.hits += 1
            return page, Outcome.HIT
        phys = self._phys_of(fd, lblk)
        if phys in self.epoch_fetched:
            # Fetched earlier this epoch and evicted since; serving it
            # again would repeat a host read of the same block.
            return None, Outcome.SHUFFLE_REQUIRED
        data = fetch(phys)
        self.epoch_fetched.add(phys)
        self.fetches += 1
        self._admit(key, data)
        return data, Outcome.FETCHED

    def put_block(self, fd: int, lblk: int, page: bytes) -> None:
        """Install a full page without reading the host (whole-block
        overwrites and freshly allocated blocks)."""
        key, page = (fd, lblk), bytes(page)  # never alias the caller's buffer
        if key in self._pages:
            self._pages[key] = page
            self._pages.move_to_end(key)
            if key in self._spare:
                self._spare.move_to_end(key)
        else:
            self._admit(key, page)
            if self._phys_of(*key) not in self.epoch_fetched:
                self._spare[key] = None
        self._dirty.add(key)

    # Internals -----------------------------------------------------------

    def _admit(self, key: tuple[int, int], page: bytes) -> None:
        while len(self._pages) >= self.capacity:
            self._evict()
        self._pages[key] = page

    def _evict(self) -> None:
        """Drop the LRU spare page, or the LRU page if none is spare."""
        if self._spare:
            key, _ = self._spare.popitem(last=False)
            page = self._pages.pop(key)
        else:
            key, page = self._pages.popitem(last=False)
        if key in self._dirty:
            self._dirty.discard(key)
            self._writeback(self._phys_of(*key), page)

    # Flush and epochs ------------------------------------------------------

    def flush(self) -> int:
        """Write out all dirty pages (in LRU order, deterministic).
        Returns the number of pages written."""
        written = 0
        for key in [k for k in self._pages if k in self._dirty]:
            self._writeback(self._phys_of(*key), self._pages[key])
            self._dirty.discard(key)
            written += 1
        return written

    def end_epoch(self, landed: Callable[[int, int], bool]) -> None:
        """Start a new epoch once a shuffle pass has run: nothing fetched
        yet, nothing dirty, every page spare. ``landed(fd, lblk)`` says
        whether the pass wrote that page; a dirty page it did not write
        is refused with ``ParameterError``, and nothing changes."""
        for key in self._pages:
            if key in self._dirty and not landed(*key):
                raise ParameterError(
                    f"dirty page {key[1]} of file {key[0]} was not landed by the pass")
        self._dirty.clear()
        self.epoch_fetched.clear()
        self._spare = OrderedDict.fromkeys(self._pages)
