"""Layout shuffle: re-randomize physical placement without revealing
which blocks the workload cares about.

The shuffle walks every block of the selected files in a uniformly
random order. Each step is one round of the batched cadence, which the
pass hands to ``ShuffleIo.shuffle_round`` with its first read slot and
its first write slot already filled:

* the read slot serves the shuffle's read stream: the sources the page
  cache does not hold, in shuffle order, listed once when the shuffle
  starts. Step *i* reads the stream's *i*-th entry; once the stream runs
  out, the read slot is padding;
* the write slot lands the previous step's block, freshly re-encrypted,
  at its new home. A step's block comes from the cache if it is
  resident there, and otherwise from the stream, read at this step or
  ahead of it. A last round pads its read slot and lands the last
  step's block, so a pass of *n* steps takes *n* + 1 rounds.

So the pass persists every resident page of the files it walks, with
the bytes the cache holds, dirty or not: the cache does not change while
the pass runs.

The stream is read no later than it is needed. Among the first *i* + 1
steps at most *i* + 1 sources are uncached, so an uncached source at
step *i* sits at stream index *k* <= *i* and was read at step *k*.

A stream read never needs the write queue's ``pending_write_for``. The
engine drains the queue before the pass, and every step's write lands
in the round after it, so the only write not yet on the host when step
*i* reads is the one landing in that same round, after the read. It
targets a fresh pool draw, which no file maps, or a vacated home, whose
block was stepped, and so read if uncached, before now.

The pass does its bookkeeping once, at its start: it takes the files'
block maps from ``BlockFs.block_map``, the Fisher-Yates draws in one
``Rng.randbelow_each`` call, and the home of every stream read from
those maps. That last is sound because the source read at step *i* has
not been stepped before step *i* (its stream index is at most its
step), so it still sits at its pre-pass home: neither free nor vacated.

Each step then re-homes its block through its map: the new home is one
``BlockFs.draw_home`` draw, the rule ``move_extent`` uses too, uniform
over the free pool, and the old home joins the pass's list of vacated
homes (``create_donors`` starts it empty, and refuses a pass with no
free block before any host call). The draw follows the step's round,
so when a round raises, the homes drawn so far are exactly those of
the steps whose old homes were listed. ``unlink_all`` frees the list
in one sweep when the pass ends, in its ``finally``, so a pass cut by
the round budget or by a block that fails to authenticate still returns
every vacated block.

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
    """Uniform random permutation (swap-down construction). Its draws are
    ``rng.randbelow(i + 1)`` for i = n - 1 down to 1, taken in one call."""
    out = list(items)
    n = len(out)
    for i, j in zip(range(n - 1, 0, -1), rng.randbelow_each(range(n, 1, -1))):
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class ShufflePlan:
    fds: tuple[int, ...]
    num_shuff_blk: int


@dataclass
class ShuffleStats:
    plan: ShufflePlan
    swaps: int = 0
    real_reads: int = 0
    dummy_reads: int = 0
    donor_reuses: int = 0


class ShuffleIo(Protocol):
    """Host traffic needed by the shuffle: one batched round per call,
    run by the engine so shuffle rounds look like any other."""

    def shuffle_round(self, read: int | None,
                      write: tuple[int, bytes] | None) -> bytes | None:
        """One round whose first read slot reads block ``read`` and whose
        first write slot lands ``write``, a (block, plaintext) pair; None
        leaves that slot to padding. Returns ``read``'s plaintext."""
        ...

    def peek_cache(self, fd: int, lblk: int) -> bytes | None: ...


def build_plan(fs: BlockFs, fds) -> ShufflePlan:
    fds = tuple(fd for fd in fds if fs.file_blocks(fd) > 0)
    return ShufflePlan(fds, sum(fs.file_blocks(fd) for fd in fds))


def oblivious_shuffle(fs: BlockFs, io: ShuffleIo, rng: Rng,
                      fds=None) -> ShuffleStats:
    if fds is None:
        fds = fs.files_with_flag(FLAG_REGULAR)
    plan = build_plan(fs, fds)
    stats = ShuffleStats(plan)
    if plan.num_shuff_blk == 0:
        return stats
    vacated = fs.create_donors()
    try:
        maps = {fd: fs.block_map(fd) for fd in plan.fds}
        sources = [(fd, b) for fd in plan.fds
                   for b in range(fs.file_blocks(fd))]
        order = fisher_yates(sources, rng)
        # The blocks in hand: resident pages, peeked once since the cache
        # does not change while the pass runs, then stream blocks as they
        # are read, at their own step or ahead of it.
        held: dict[tuple[int, int], bytes] = {}
        stream = []
        for src in order:
            page = io.peek_cache(*src)
            if page is None:
                stream.append(src)
            else:
                held[src] = page
        stats.real_reads, stats.dummy_reads = len(stream), len(held)
        # Vacated homes rejoin the pool only after the pass, so each step
        # past the pool's size reuses one.
        reuses = max(0, len(order) - fs.free_blocks)
        # Step i reads stream entry i at its pre-pass home; later steps pad.
        reads = [(src, maps[src[0]][src[1]]) for src in stream]
        reads += [(None, None)] * len(held)
        shuffle_round, draw_home = io.shuffle_round, fs.draw_home
        landing = None  # the previous step's (new home, block)
        for (fd, b), (src, phys) in zip(order, reads):
            data = shuffle_round(phys, landing)
            if src is not None:
                held[src] = data
            block_map = maps[fd]
            home = draw_home(vacated)
            vacated.append(block_map[b])
            block_map[b] = home
            landing = (home, held.pop((fd, b)))
        shuffle_round(None, landing)
        stats.swaps, stats.donor_reuses = len(order), reuses
    finally:
        fs.unlink_all(vacated)
    return stats
