"""Layout shuffle: re-randomize physical placement without revealing
which blocks the workload cares about.

The shuffle walks every block of the selected files in a uniformly
random order. Each step is one round of the batched cadence. The pass
is a generator, ``shuffle_pass``: it yields each round's first read
slot and first write slot, and is sent the read's plaintext back:

* the read slot reads the step's own block at its pre-pass home, so a
  pass reads every block it walks exactly once, in shuffle order,
  whatever the page cache holds;
* the write slot lands the previous step's block, freshly re-encrypted,
  at its new home: the cache's copy if the block is resident there, so
  dirty bytes win, and otherwise the plaintext its step read. A last
  round pads its read slot and lands the last step's block, so a pass
  of *n* steps takes *n* + 1 rounds.

So the pass persists every resident page of the files it walks, with
the bytes the cache holds, dirty or not: no cache operation runs while
the pass does.

``shuffle_pass`` is the one factory and ``oblivious_shuffle`` the one
driver: it runs a pass from its start, or from any step it was stepped
to one round at a time, through to its end.

A step's read never needs the write queue. The engine drains it before
the pass starts, and every step's write lands in the round after it, so
the only write not yet on the host when a step reads is the one landing
in that same round, after the read. A step reads a home that has not
been stepped yet, so it is neither free nor vacated, and that write
lands on a fresh pool draw or a vacated home.

The pass does its bookkeeping once, at its start: it takes the files'
block maps from ``BlockFs.block_map`` and its shuffle order from
``fisher_yates``, one ``Rng.randbelow`` draw per swap.

Each step then re-homes its block through its map: the new home is one
``BlockFs.draw_home`` draw, the rule ``move_extent`` uses too, uniform
over the free pool, and the old home joins the pass's list of vacated
homes (``create_donors`` starts it empty, and refuses a pass with no
free block before any host call). The draw follows the step's round,
so when a round raises, the homes drawn so far are exactly those of
the steps whose old homes were listed. ``unlink_all`` frees the list
in one sweep when the pass ends, in its ``finally``. A round that
raises (the round budget, a block that fails to authenticate) closes
the pass at once, so a cut pass returns every vacated block before
anything else runs.

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

The observable pattern is a function of (num_shuff_blk, free blocks)
only, never of file contents, of which file a block belongs to or of
what the cache holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

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


Step = tuple[int | None, tuple[int, bytes] | None]


def shuffle_pass(fs: BlockFs, peek_cache, rng: Rng,
                 fds=None) -> Generator[Step, bytes | None, ShuffleStats]:
    """The pass, one round per step: yields each round's (read, write),
    the block its first read slot reads and the (block, plaintext) its
    first write slot lands, None for padding, and is sent the read's
    plaintext. Returns the pass's stats. ``peek_cache(fd, lblk)`` gives
    a resident page or None; the cache does not change while the pass
    runs."""
    if fds is None:
        fds = fs.files_with_flag(FLAG_REGULAR)
    plan = build_plan(fs, fds)
    stats = ShuffleStats(plan)
    if plan.num_shuff_blk == 0:
        return stats
    vacated = fs.create_donors()
    try:
        maps = {fd: fs.block_map(fd) for fd in plan.fds}
        order = fisher_yates([(fd, b) for fd in plan.fds
                              for b in range(fs.file_blocks(fd))], rng)
        # Vacated homes rejoin the pool only after the pass, so each step
        # past the pool's size reuses one.
        reuses = max(0, len(order) - fs.free_blocks)
        draw_home = fs.draw_home
        landing = None  # the previous step's (new home, block)
        for fd, b in order:
            block_map = maps[fd]
            old = block_map[b]
            data = yield old, landing
            page = peek_cache(fd, b)
            home = draw_home(vacated)
            vacated.append(old)
            block_map[b] = home
            landing = (home, data if page is None else page)
        yield None, landing
        stats.swaps, stats.donor_reuses = len(order), reuses
    finally:
        fs.unlink_all(vacated)
    return stats


def oblivious_shuffle(steps: Generator[Step, bytes | None, ShuffleStats],
                      shuffle_round, step: Step | None = None) -> ShuffleStats:
    """Run the rest of a pass, each step's round run by
    ``shuffle_round(read, write)``, which returns the read's plaintext:
    ``step`` is the one ``steps`` yielded last, None if it has not
    started. A round that raises closes the pass, which returns its
    vacated homes before the error goes on."""
    send = steps.send
    try:
        if step is None:
            step = next(steps)
        while True:
            step = send(shuffle_round(*step))
    except StopIteration as done:
        return done.value
    finally:
        steps.close()
