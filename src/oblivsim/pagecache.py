"""In-memory page cache with epoch bookkeeping.

The cache is what makes batched rounds affordable: repeated access to a
resident block costs nothing observable. It also carries the one rule
the layout shuffle depends on: within an epoch each physical block may
be fetched from the host at most once. The cache remembers which
physical blocks it fetched this epoch; a request for a block that was
fetched and has since been evicted cannot be served again without
revealing a repeat, so the caller is told to reshuffle first. An
epoch ends only when the caller, after its shuffle, calls ``flush``
and then ``end_epoch``.

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
    """LRU page cache keyed by (fd, logical block).

    Collaborators are injected: ``phys_of`` resolves the current
    physical placement, ``fetch`` performs a real host read (pumping
    rounds until the data arrives), ``writeback`` persists a dirty page
    (pumping rounds until the write lands).
    """

    def __init__(self, capacity: int,
                 phys_of: Callable[[int, int], int],
                 fetch: Callable[[int], bytes],
                 writeback: Callable[[int, bytes], None]):
        if capacity < 1:
            raise ParameterError("cache needs at least one page")
        self.capacity = capacity
        self._phys_of = phys_of
        self._fetch = fetch
        self._writeback = writeback
        self._pages: OrderedDict[tuple[int, int], bytearray] = OrderedDict()
        self._dirty: set[tuple[int, int]] = set()
        self.epoch_fetched: set[int] = set()
        self.hits = 0
        self.fetches = 0

    # Inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    def resident(self, fd: int, lblk: int) -> bool:
        return (fd, lblk) in self._pages

    def peek(self, fd: int, lblk: int) -> bytes | None:
        """Read a resident page without touching LRU order."""
        page = self._pages.get((fd, lblk))
        return bytes(page) if page is not None else None

    # Main entry ----------------------------------------------------------

    def get_block(self, fd: int, lblk: int) -> tuple[bytes | None, Outcome]:
        key = (fd, lblk)
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            self.hits += 1
            return bytes(page), Outcome.HIT
        phys = self._phys_of(fd, lblk)
        if phys in self.epoch_fetched:
            # Fetched earlier this epoch and evicted since; serving it
            # again would repeat a host read of the same block.
            return None, Outcome.SHUFFLE_REQUIRED
        data = self._fetch(phys)
        self.epoch_fetched.add(phys)
        self.fetches += 1
        self._admit(key, bytearray(data))
        return data, Outcome.FETCHED

    def put_block(self, fd: int, lblk: int, page: bytes) -> None:
        """Install a full page without reading the host (whole-block
        overwrites and freshly allocated blocks)."""
        key = (fd, lblk)
        if key in self._pages:
            self._pages[key][:] = page
            self._pages.move_to_end(key)
        else:
            self._admit(key, bytearray(page))
        self._dirty.add(key)

    # Internals -----------------------------------------------------------

    def _admit(self, key: tuple[int, int], page: bytearray) -> None:
        while len(self._pages) >= self.capacity:
            self._evict_lru()
        self._pages[key] = page

    def _evict_lru(self) -> None:
        key, page = self._pages.popitem(last=False)
        if key in self._dirty:
            self._dirty.discard(key)
            self._writeback(self._phys_of(*key), bytes(page))

    # Flush and epochs ------------------------------------------------------

    def flush(self) -> int:
        """Write out all dirty pages (in LRU order, deterministic).
        Returns the number of pages written."""
        written = 0
        for key in [k for k in self._pages if k in self._dirty]:
            self._writeback(self._phys_of(*key), bytes(self._pages[key]))
            self._dirty.discard(key)
            written += 1
        return written

    def end_epoch(self) -> None:
        if self._dirty:
            raise ParameterError("dirty pages must be flushed before epoch end")
        self.epoch_fetched.clear()
