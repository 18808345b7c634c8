"""Batched, fixed-cadence disk scheduler.

All disk traffic is reshaped into rounds at a fixed interval, 0.1 ms
of simulated time. Every round is exactly one read followed by
one write. A read handed to the round takes the read, and the block its
``land`` gives, or else the oldest queued write, takes the write; a
slot left empty is padding traffic against a uniformly random block of
the padding domain, the allocated blocks no file maps
(``BlockFs.dummy_blocks``). An observer therefore sees the same call
sequence, lengths and timing no matter what the workload does.

A round carries no time: the engine moves the simulated clock to round
k's instant, k x 0.1 ms, and then runs the round, so both calls of the
round are stamped there and the recorded pattern is bit-reproducible.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, ClassVar

from .blockcrypto import BLOCK_SIZE, BlockStore
from .errors import ParameterError, SimError, SizeError
from .rng import Rng

DEFAULT_ROUND_INTERVAL_NS = 100_000  # 0.1 ms


@dataclass(frozen=True)
class RoundConfig:
    # One read, then one write, every 0.1 ms: constants, kept for the
    # trace metadata.
    interval_ns: ClassVar[int] = DEFAULT_ROUND_INTERVAL_NS
    reads_per_round: ClassVar[int] = 1
    writes_per_round: ClassVar[int] = 1


class RoundScheduler:
    def __init__(self, store: BlockStore, dummy_targets: list[int], rng: Rng):
        self.store = store
        self.dummy_targets = array("I", dummy_targets)  # 4 bytes of trusted memory each
        if not self.dummy_targets:
            raise ParameterError("padding needs at least one padding block")
        self.rng = rng
        # Queued write-backs, (phys, data); reads are handed to run_round.
        self._writes: deque[tuple[int, bytes]] = deque()
        self.rounds = 0
        self.real_reads = 0
        self.dummy_reads = 0
        self.real_writes = 0
        self.dummy_writes = 0

    # Submission ----------------------------------------------------------

    # Kept only while ``benchmarks/`` names them (ROADMAP item 1): the write
    # queue (``submit_write``, ``pending_writes``, ``pending_write_for``,
    # ``_writes`` and its drains, here and before a pass), whose one source
    # is ``PageCache.flush``, and ``submit_read`` and ``pending_reads``.
    pending_reads = 0

    def submit_read(self, phys: int) -> None:
        raise SimError("reads are not queued: hand the read to run_round")

    def pending_write_for(self, phys: int) -> bytes | None:
        """Newest queued write aimed at ``phys``, if any."""
        for target, data in reversed(self._writes):
            if target == phys:
                return data
        return None

    def submit_write(self, phys: int, data: bytes) -> None:
        """Queue one block write. No bound: each was held in memory already."""
        if len(data) != BLOCK_SIZE:
            raise SizeError("a queued write must be exactly one block")
        self._writes.append((phys, bytes(data)))

    @property
    def pending_writes(self) -> int:
        return len(self._writes)

    # Execution -----------------------------------------------------------

    def run_round(self, read: int | None = None,
                  land: Callable | None = None) -> bytes | None:
        """One round: its read, then its write. It takes no time and moves
        no clock; the engine has moved the clock to the round's instant,
        so both calls are stamped there.

        ``read`` (a block) takes the read, or else padding does.
        ``land``, called after the read with ``read``'s plaintext (None
        if no read), gives the (block, plaintext) the write lands; without
        it the oldest queued write, or else padding, takes the write.
        Returns ``read``'s plaintext, or None. A failed read (say, it does
        not authenticate) still runs the write and counts, so the cadence
        holds, and then raises; ``land`` is not called."""
        store = self.store
        error: SimError | None = None
        served = None
        if read is not None:
            try:
                served = store.read_block(read)
            except SimError as exc:
                error = exc
            self.real_reads += 1
        else:
            targets = self.dummy_targets
            store.dummy_read(targets[self.rng.randbelow(len(targets))])
            self.dummy_reads += 1
        if land is not None and error is None:
            store.write_block(*land(served))
            self.real_writes += 1
        elif self._writes:
            store.write_block(*self._writes.popleft())
            self.real_writes += 1
        else:
            targets = self.dummy_targets
            store.dummy_write(targets[self.rng.randbelow(len(targets))])
            self.dummy_writes += 1
        self.rounds += 1
        if error is not None:
            raise error
        return served
