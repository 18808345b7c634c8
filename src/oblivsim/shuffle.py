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

New homes come from donors: groups of ``max_blk`` slots, one per
``max_blk`` free blocks, held in memory and never in the inode table. A
donor is picked uniformly among those with an untouched slot at the
needed logical index (falling back to reuse when files outnumber
donors; the swapped-out block a reused slot holds has already been
rehomed, so the chain stays consistent). The donors' final blocks
return to the free pool, even on failure.

Homes are drawn on first use: a slot gets its uniformly random free
block only when a swap first touches it, so a shuffle makes one layout
draw per swap that is not a donor reuse, not one per donor slot. The
placement distribution is the one eager homes would give. Eagerly, the
touched slots hold a uniform sample without replacement from the free
pool at shuffle start. Lazily, each first touch draws uniformly from
that same pool minus the homes already drawn (vacated blocks sit in
their donor slot, not in the pool, until the donors are freed), which
is the same sample drawn one element at a time. The shuffle stream's
draws do not depend on the homes, so the slot sequence is unchanged.

Each source block is read at most once, and the observable pattern is a
function of (num_shuff_blk, num_donors, cache occupancy) only, never of
file contents or of which file a block belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .blockfs import FLAG_REGULAR, BlockFs
from .errors import ShuffleImpossibleError
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
    num_donors: int


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
    if not fds:
        return ShufflePlan((), 0, 0, 0)
    max_blk = max(fs.file_blocks(fd) for fd in fds)
    total = sum(fs.file_blocks(fd) for fd in fds)
    return ShufflePlan(fds, max_blk, total, fs.free_blocks // max_blk)


def oblivious_shuffle(fs: BlockFs, io: ShuffleIo, rng: Rng,
                      fds=None) -> ShuffleStats:
    if fds is None:
        fds = fs.files_with_flag(FLAG_REGULAR)
    plan = build_plan(fs, fds)
    stats = ShuffleStats(plan)
    if plan.num_shuff_blk == 0:
        return stats
    if fs.free_blocks < plan.max_blk:
        raise ShuffleImpossibleError(
            f"{fs.free_blocks} free blocks cannot host a {plan.max_blk}-block donor")
    donors = fs.create_donors(plan.num_donors, plan.max_blk)
    try:
        sources = [(fd, b) for fd in plan.fds
                   for b in range(fs.file_blocks(fd))]
        order = fisher_yates(sources, rng)
        stream = [src for src in order if io.peek_cache(*src) is None]
        stats.real_reads = len(stream)
        stats.dummy_reads = stats.served_from_cache = len(order) - len(stream)
        # Per logical index, the donors whose slot there is untouched.
        untouched = [list(range(len(donors))) for _ in range(plan.max_blk)]
        # Stream blocks read, at their own step or ahead of it.
        fetched: dict[tuple[int, int], bytes] = {}
        phys_of, randbelow = fs.phys_of, rng.randbelow
        for step, (fd, b) in enumerate(order):
            if step < len(stream):
                src = stream[step]
                fetched[src] = io.read_phys(phys_of(*src))
            else:
                io.pump_dummy_read()
            data = fetched.pop((fd, b), None) or io.peek_cache(fd, b)
            eligible = untouched[b]
            if eligible:
                d = eligible.pop(randbelow(len(eligible)))
            else:
                d = randbelow(len(donors))
                stats.donor_reuses += 1
            io.write_phys(fs.move_extent(fd, donors[d], b), data)
            stats.swaps += 1
    finally:
        fs.unlink_all(donors)
    return stats
