"""Layout shuffle: re-randomize physical placement without revealing
which blocks the workload cares about.

The shuffle walks every block of the selected files in a uniformly
random order. Each step is one round of the batched cadence, so a pass
of *n* steps takes *n* rounds. The pass is a generator,
``shuffle_pass``: it yields each step's read and its ``land``:

* the read slot reads the step's own block at its pre-pass home, so a
  pass reads every block it walks exactly once, in shuffle order,
  whatever the page cache holds;
* after the round's read, ``land`` re-homes the block and gives the
  write slot the block, freshly re-encrypted, at its new home: the
  cache's copy if the block is resident there, so dirty bytes win, and
  otherwise the plaintext the read returned.

So the pass persists every resident page of the files it walks, with
the bytes the cache holds, dirty or not: no cache operation runs while
the pass does. No state passes from one step to the next but the list
of vacated homes. ``shuffle_pass`` is the one factory; the engine's
``_pass_round`` is the one place that steps a pass, a round per call,
and ends or cuts it.

The pass takes its shuffle order once, at its start, from
``fisher_yates``: one ``Rng.randbelow`` draw per swap. It resolves each
walked file's block map there, once: a step reads ``block_map[b]``, and
its ``land`` calls ``BlockFs.move_extent(block_map, b, vacated)``, which
checks no descriptor or index. That holds because no file op runs while
a pass does (``CachedIo`` and ``Engine.write_file`` finish a running
pass first) and a used inode keeps one block-map list for its whole
life. The new home is one ``BlockFs.draw_home`` draw, uniform over the
free pool, and the old home joins the pass's list of vacated homes
(``create_donors`` starts it empty, and refuses a pass with no free
block before any host call). The round calls ``land`` only once the
step's read has authenticated, so when a round raises, the homes drawn
so far are exactly those of the steps whose old homes were listed, each
block already written at its new home, and the step that raised keeps
its old home. ``unlink_all`` frees the list in one sweep when the pass
ends, in its ``finally``. A round that raises (the round budget, a block
that fails to authenticate) closes the pass at once, so a cut pass
returns every vacated block before anything else runs.

A step's read finds its block's latest bytes at its home: each earlier
step's write landed in its own round, and nothing else writes a file
block. Vacated homes wait for the end of the pass rather than rejoining
the pool at once. So while the pool lasts, the *k*-th step draws uniformly
from the pool as it stood at the start of the pass minus the *k* - 1
homes already drawn: the new homes are a uniform sample without
replacement from that pool, drawn one element at a time, independent of
where the blocks lived before, and no file block lives at any of them.
Only when the pool runs dry does a step take a uniformly random vacated
home instead (a donor reuse), one an earlier step read. So no write
lands on a home the pass has yet to read, and reuse is the fallback,
never the rule. The shuffle stream's draws do not depend on the homes,
so the slot sequence is the same either way.

The observable pattern is a function of (num_shuff_blk, free blocks)
only, never of file contents, of which file a block belongs to or of
what the cache holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from .blockfs import FLAG_REGULAR, BlockFs
from .rng import Rng


def fisher_yates(items, rng: Rng) -> list:
    """Uniform random permutation (swap-down construction): one
    ``rng.randbelow(i + 1)`` per swap, for i = n - 1 down to 1."""
    out = list(items)
    randbelow = rng.randbelow
    for i in range(len(out) - 1, 0, -1):
        j = randbelow(i + 1)
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
    donor_reuses: int = 0


def build_plan(fs: BlockFs, fds) -> ShufflePlan:
    fds = tuple(fd for fd in fds if fs.file_blocks(fd) > 0)
    return ShufflePlan(fds, sum(fs.file_blocks(fd) for fd in fds))


Land = Callable[[bytes | None], tuple[int, bytes]]
Step = tuple[int, Land]


def shuffle_pass(fs: BlockFs, peek_cache, rng: Rng,
                 fds=None) -> Generator[Step, None, ShuffleStats]:
    """The pass, one round per step: yields each round's (read, land),
    the block its read slot reads and the callable that, handed that
    read's plaintext, re-homes the step's block and returns the (new
    home, plaintext) its write slot lands. Returns the pass's
    stats. ``peek_cache(fd, lblk)`` gives a resident page or None; the
    cache does not change while the pass runs."""
    if fds is None:
        fds = fs.files_with_flag(FLAG_REGULAR)
    plan = build_plan(fs, fds)
    stats = ShuffleStats(plan)
    if plan.num_shuff_blk == 0:
        return stats
    vacated = fs.create_donors()
    try:
        order = fisher_yates([(fd, ino.block_map, b) for fd in plan.fds
                              for ino in (fs.inodes[fd],)
                              for b in range(ino.nblocks)], rng)
        # Each step past the pool's size reuses a vacated home.
        reuses = max(0, len(order) - fs.free_blocks)
        move_extent = fs.move_extent
        for fd, block_map, b in order:
            def land(data, fd=fd, block_map=block_map, b=b):
                page = peek_cache(fd, b)
                return move_extent(block_map, b, vacated), data if page is None else page
            yield block_map[b], land
        stats.swaps, stats.donor_reuses = len(order), reuses
    finally:
        fs.unlink_all(vacated)
    return stats


def oblivious_shuffle(pass_round) -> ShuffleStats:
    """Call ``pass_round`` (``Engine._pass_round``) until it returns the
    pass's stats. Kept only while ``benchmarks/`` names it (ROADMAP item
    1): its tracer wraps it to count each finished pass and its donor
    reuses. After that it folds into ``Engine.shuffle_now``."""
    while True:
        stats = pass_round()
        if stats is not None:
            return stats
