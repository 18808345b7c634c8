"""Layout shuffle: re-randomize physical placement without revealing
which blocks the workload cares about.

The shuffle walks every block of the selected files in a uniformly
random order. Each step claims one read slot and one write slot of the
batched round cadence:

* the read slot serves the shuffle's read stream: the sources the page
  cache does not hold, in shuffle order, listed once when the shuffle
  starts. Step *i* reads the stream's *i*-th entry; once the stream runs
  out, the read slot is padding;
* the write slot lands the step's block, freshly re-encrypted, at its
  new home. The block comes from the cache if it is resident there, and
  otherwise from the stream, read at this step or ahead of it.

So the pass persists every resident page of the files it walks, with
the bytes the cache holds, dirty or not: the cache does not change while
the pass runs. The engine therefore flushes no dirty page before a
shuffle; once the pass's writes have drained, those pages are clean.

The stream is read no later than it is needed. Among the first *i* + 1
steps at most *i* + 1 sources are uncached, so an uncached source at
step *i* sits at stream index *k* <= *i* and was read at step *k*.

Each step re-homes its block with ``BlockFs.move_extent``: the new home
is an ``allocate_block`` draw, uniform over the free pool, and the old
home goes on the pass's one donor, the list of homes it has vacated.
The donor is freed when the pass ends, in its ``finally``, so a pass
that fails part way still returns every vacated block.

Vacated homes wait for the end of the pass rather than rejoining the
pool at once. So while the pool lasts, the *k*-th step draws uniformly
from the pool as it stood at the start of the pass minus the *k* - 1
homes already drawn: the new homes are a uniform sample without
replacement from that pool, drawn one element at a time. They are
independent of where the blocks lived before, and no write lands on a
home the pass reads. Only when the pool runs dry does a step take a
uniformly random vacated home instead (a donor reuse). That write lands
on a home the pass has read, so reuse is the fallback, never the rule.
The shuffle stream's draws do not depend on the homes, so the slot
sequence is the same either way.

Each source block is read at most once, and the observable pattern is a
function of (num_shuff_blk, free blocks, cache occupancy) only, never of
file contents or of which file a block belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .blockfs import FLAG_REGULAR, BlockFs
from .rng import Rng


def fisher_yates(items, rng: Rng) -> list:
    """Uniform random permutation (swap-down construction)."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class ShufflePlan:
    fds: tuple[int, ...]
    max_blk: int
    num_shuff_blk: int


@dataclass
class ShuffleStats:
    plan: ShufflePlan
    swaps: int = 0
    real_reads: int = 0
    dummy_reads: int = 0
    served_from_cache: int = 0
    donor_reuses: int = 0


class ShuffleIo(Protocol):
    """Host traffic needed by the shuffle, routed through the batched
    scheduler by the engine so shuffle rounds look like any other."""

    def read_phys(self, phys: int) -> bytes: ...

    def write_phys(self, phys: int, data: bytes) -> None: ...

    def pump_dummy_read(self) -> None: ...

    def peek_cache(self, fd: int, lblk: int) -> bytes | None: ...


def build_plan(fs: BlockFs, fds) -> ShufflePlan:
    fds = tuple(fd for fd in fds if fs.file_blocks(fd) > 0)
    sizes = [fs.file_blocks(fd) for fd in fds]
    return ShufflePlan(fds, max(sizes, default=0), sum(sizes))


def oblivious_shuffle(fs: BlockFs, io: ShuffleIo, rng: Rng,
                      fds=None) -> ShuffleStats:
    if fds is None:
        fds = fs.files_with_flag(FLAG_REGULAR)
    plan = build_plan(fs, fds)
    stats = ShuffleStats(plan)
    if plan.num_shuff_blk == 0:
        return stats
    donor = fs.create_donors(plan.max_blk)
    try:
        sources = [(fd, b) for fd in plan.fds
                   for b in range(fs.file_blocks(fd))]
        order = fisher_yates(sources, rng)
        stream = [src for src in order if io.peek_cache(*src) is None]
        stats.real_reads = len(stream)
        stats.dummy_reads = stats.served_from_cache = len(order) - len(stream)
        # Stream blocks read, at their own step or ahead of it.
        fetched: dict[tuple[int, int], bytes] = {}
        phys_of, move_extent = fs.phys_of, fs.move_extent
        for step, (fd, b) in enumerate(order):
            if step < len(stream):
                src = stream[step]
                fetched[src] = io.read_phys(phys_of(*src))
            else:
                io.pump_dummy_read()
            data = fetched.pop((fd, b), None) or io.peek_cache(fd, b)
            if not fs.free_blocks:
                stats.donor_reuses += 1
            io.write_phys(move_extent(fd, b, donor), data)
            stats.swaps += 1
    finally:
        fs.unlink_all(donor)
    return stats
