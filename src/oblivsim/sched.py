"""Batched, fixed-cadence disk scheduler.

All disk traffic is reshaped into rounds at a fixed interval (default
0.1 ms of simulated time). Every round performs exactly the configured
number of reads followed by the configured number of writes; slots with
no real request queued are filled with padding traffic against
uniformly random blocks of the padding domain, the allocated blocks no
file maps (``BlockFs.dummy_blocks``). An observer therefore sees the
same call sequence, lengths and timing no matter what the workload
does.

Reads always run before writes within a round, and trace timestamps are
the scheduled round time, so the recorded pattern is bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .blockcrypto import BLOCK_SIZE, BlockStore
from .errors import ParameterError, SimError, SizeError
from .rng import Rng

DEFAULT_ROUND_INTERVAL_NS = 100_000  # 0.1 ms


@dataclass(frozen=True)
class RoundConfig:
    interval_ns: int = DEFAULT_ROUND_INTERVAL_NS
    reads_per_round: int = 1
    writes_per_round: int = 1

    def __post_init__(self):
        # Without a read or a write slot, that queue would never drain.
        if self.interval_ns <= 0 or self.reads_per_round < 1 \
                or self.writes_per_round < 1:
            raise ParameterError("invalid round configuration")


class RoundScheduler:
    def __init__(self, store: BlockStore, dummy_targets: list[int], rng: Rng,
                 config: RoundConfig | None = None):
        self.store = store
        self.dummy_targets = list(dummy_targets)
        if not self.dummy_targets:
            raise ParameterError("padding needs at least one padding block")
        self.rng = rng
        self.config = config = config if config is not None else RoundConfig()
        # Bound once: every round advances this clock over these slots.
        self._interval_ns = config.interval_ns
        self._advance = store.iface.host.clock.advance_to
        self._read_slots = range(config.reads_per_round)
        self._write_slots = range(config.writes_per_round)
        # Queued requests: phys reads, (phys, data) writes. A read's
        # plaintext comes back from the round that serves it.
        self._reads: deque[int] = deque()
        self._writes: deque[tuple[int, bytes]] = deque()
        self.last_round_ns: int | None = None
        self.rounds = 0
        self.real_reads = 0
        self.dummy_reads = 0
        self.real_writes = 0
        self.dummy_writes = 0

    # Submission ----------------------------------------------------------

    def submit_read(self, phys: int) -> None:
        """Never called from ``src/``; kept because ``benchmarks/tracing.py``
        wraps it and ``kv_mixed`` reads ``pending_reads``."""
        self._reads.append(phys)

    def submit_write(self, phys: int, data: bytes) -> None:
        """Queue one block write. No bound: each was held in memory already."""
        if len(data) != BLOCK_SIZE:
            raise SizeError("a queued write must be exactly one block")
        self._writes.append((phys, bytes(data)))

    def pending_write_for(self, phys: int) -> bytes | None:
        """Newest queued write aimed at ``phys``, if any. Readers must
        coalesce against this; a queued write has not reached the host
        image yet and rounds run reads before writes."""
        for target, data in reversed(self._writes):
            if target == phys:
                return data
        return None

    @property
    def pending_reads(self) -> int:
        return len(self._reads)

    @property
    def pending_writes(self) -> int:
        return len(self._writes)

    # Execution -----------------------------------------------------------

    def run_round(self, now_ns: int, read: int | None = None,
                  write: tuple[int, bytes] | None = None) -> list[bytes]:
        """One batch at now_ns: the simulated clock moves there, then
        reads run first and writes after, all stamped at now_ns.

        ``read`` (a block) and ``write`` (a block and its plaintext, one
        block long), when given, fill the round's first read and write
        slots, ahead of anything queued. Returns the plaintexts of the
        reads it served, in slot order, so a read handed over or queued
        alone comes back as element 0. A failed read (say, it does not
        authenticate) leaves the queue all the same; the round still runs
        every slot and counts, so the cadence holds, and then raises the
        first such error."""
        last = self.last_round_ns
        if last is not None and now_ns < last + self._interval_ns:
            raise ParameterError(
                f"round at {now_ns} before the interval elapsed")
        store, reads, writes = self.store, self._reads, self._writes
        targets, randbelow = self.dummy_targets, self.rng.randbelow
        self._advance(now_ns)
        if read is not None:
            reads.appendleft(read)
        if write is not None:
            writes.appendleft(write)
        error: SimError | None = None
        served = []
        for _ in self._read_slots:
            if reads:
                try:
                    served.append(store.read_block(reads.popleft()))
                except SimError as exc:
                    error = error or exc
                self.real_reads += 1
            else:
                store.dummy_read(targets[randbelow(len(targets))])
                self.dummy_reads += 1
        for _ in self._write_slots:
            if writes:
                phys, data = writes.popleft()
                store.write_block(phys, data)
                self.real_writes += 1
            else:
                store.dummy_write(targets[randbelow(len(targets))])
                self.dummy_writes += 1
        self.last_round_ns = now_ns
        self.rounds += 1
        if error is not None:
            raise error
        return served
