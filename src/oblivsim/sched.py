"""Batched, fixed-cadence disk scheduler.

All disk traffic is reshaped into rounds at a fixed interval (default
0.1 ms of simulated time). Every round performs exactly the configured
number of reads followed by the configured number of writes; slots with
no real request queued are filled with padding traffic against
uniformly random dummy-file blocks. An observer therefore sees the same
call sequence, lengths and timing no matter what the workload does.

Reads always run before writes within a round, and trace timestamps are
the scheduled round time, so the recorded pattern is bit-reproducible.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .blockcrypto import BlockStore
from .errors import BackpressureError, ParameterError, SimError
from .rng import Rng

DEFAULT_ROUND_INTERVAL_NS = 100_000  # 0.1 ms


@dataclass(frozen=True)
class RoundConfig:
    interval_ns: int = DEFAULT_ROUND_INTERVAL_NS
    reads_per_round: int = 1
    writes_per_round: int = 1
    queue_capacity: int = 1024

    def __post_init__(self):
        if self.interval_ns <= 0 or self.reads_per_round < 0 \
                or self.writes_per_round < 0 or self.queue_capacity < 1:
            raise ParameterError("invalid round configuration")


class IoKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass
class Completion:
    done: bool = False
    data: bytes | None = None


@dataclass
class IoRequest:
    kind: IoKind
    phys: int
    data: bytes | None = None
    completion: Completion | None = None


class RoundScheduler:
    def __init__(self, store: BlockStore, dummy_targets: list[int], rng: Rng,
                 config: RoundConfig | None = None):
        self.store = store
        self.dummy_targets = list(dummy_targets)
        if not self.dummy_targets:
            raise ParameterError("padding needs at least one dummy-file block")
        self.rng = rng
        self.config = config if config is not None else RoundConfig()
        self._reads: deque[IoRequest] = deque()
        self._writes: deque[IoRequest] = deque()
        self.last_round_ns: int | None = None
        self.rounds = 0
        self.real_reads = 0
        self.dummy_reads = 0
        self.real_writes = 0
        self.dummy_writes = 0

    # Submission ----------------------------------------------------------

    def submit_read(self, phys: int) -> Completion:
        if len(self._reads) >= self.config.queue_capacity:
            raise BackpressureError("read queue full")
        comp = Completion()
        self._reads.append(IoRequest(IoKind.READ, phys, completion=comp))
        return comp

    def submit_write(self, phys: int, data: bytes) -> Completion:
        if len(self._writes) >= self.config.queue_capacity:
            raise BackpressureError("write queue full")
        comp = Completion()
        self._writes.append(IoRequest(IoKind.WRITE, phys, bytes(data), comp))
        return comp

    def pending_write_for(self, phys: int) -> bytes | None:
        """Newest queued write aimed at ``phys``, if any. Readers must
        coalesce against this; a queued write has not reached the host
        image yet and rounds run reads before writes."""
        for req in reversed(self._writes):
            if req.phys == phys:
                return req.data
        return None

    @property
    def pending_reads(self) -> int:
        return len(self._reads)

    @property
    def pending_writes(self) -> int:
        return len(self._writes)

    # Execution -----------------------------------------------------------

    def _dummy_block(self) -> int:
        return self.dummy_targets[self.rng.randbelow(len(self.dummy_targets))]

    def run_round(self, now_ns: int) -> None:
        """One batch at now_ns: the simulated clock moves there, then
        reads run first and writes after, all stamped at now_ns.
        A failed read (say, it does not authenticate) leaves the queue
        uncompleted; the round still runs every slot and counts, so the
        cadence holds, and then raises the first such error."""
        if self.last_round_ns is not None \
                and now_ns < self.last_round_ns + self.config.interval_ns:
            raise ParameterError(
                f"round at {now_ns} before the interval elapsed")
        self.store.iface.host.clock.advance_to(now_ns)
        error: SimError | None = None
        for _ in range(self.config.reads_per_round):
            if self._reads:
                req = self._reads.popleft()
                try:
                    req.completion.data = self.store.read_block(req.phys)
                    req.completion.done = True
                except SimError as exc:
                    error = error or exc
                self.real_reads += 1
            else:
                self.store.dummy_read(self._dummy_block())
                self.dummy_reads += 1
        for _ in range(self.config.writes_per_round):
            if self._writes:
                req = self._writes.popleft()
                self.store.write_block(req.phys, req.data)
                req.completion.done = True
                self.real_writes += 1
            else:
                self.store.dummy_write(self._dummy_block())
                self.dummy_writes += 1
        self.last_round_ns = now_ns
        self.rounds += 1
        if error is not None:
            raise error
