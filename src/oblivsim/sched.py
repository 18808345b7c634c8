"""Batched, fixed-cadence disk scheduler.

All disk traffic is reshaped into rounds at a fixed interval (default
0.1 ms of simulated time). Every round performs exactly the configured
number of reads followed by the configured number of writes. A read
handed to the round and the writes handed or queued take their slots;
every other slot is padding traffic against uniformly random blocks of
the padding domain, the allocated blocks no file maps
(``BlockFs.dummy_blocks``). An observer therefore sees the same call
sequence, lengths and timing no matter what the workload does.

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
        # Without a read slot a handed read has nowhere to go, and
        # without a write slot the write queue would never drain.
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
        self._reads_per_round = config.reads_per_round
        self._write_slots = range(config.writes_per_round)
        # Queued write-backs, (phys, data); reads are handed to run_round.
        self._writes: deque[tuple[int, bytes]] = deque()
        self.last_round_ns: int | None = None
        self.rounds = 0
        self.real_reads = 0
        self.dummy_reads = 0
        self.real_writes = 0
        self.dummy_writes = 0

    # Submission ----------------------------------------------------------

    # Kept only while ``benchmarks/`` names them: ``tracing.TARGETS`` wraps
    # ``submit_read`` and the ``kv_mixed`` drain loop reads ``pending_reads``.
    pending_reads = 0

    def submit_read(self, phys: int) -> None:
        raise SimError("reads are not queued: hand the read to run_round")

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
    def pending_writes(self) -> int:
        return len(self._writes)

    # Execution -----------------------------------------------------------

    def run_round(self, now_ns: int, read: int | None = None,
                  write: tuple[int, bytes] | None = None) -> bytes | None:
        """One batch at now_ns: the simulated clock moves there, then
        reads run first and writes after, all stamped at now_ns.

        ``read`` (a block) takes the first read slot, and padding the
        rest. ``write`` (a block and its plaintext, one block long)
        takes the first write slot, ahead of the queued writes, which
        fill the next slots before padding does. Returns ``read``'s
        plaintext, or None. A failed read (say, it does not
        authenticate) still runs every slot and counts, so the cadence
        holds, and then raises."""
        last = self.last_round_ns
        if last is not None and now_ns < last + self._interval_ns:
            raise ParameterError(
                f"round at {now_ns} before the interval elapsed")
        store, writes = self.store, self._writes
        targets, randbelow = self.dummy_targets, self.rng.randbelow
        self._advance(now_ns)
        error: SimError | None = None
        served = None
        padding = self._reads_per_round
        if read is not None:
            padding -= 1
            try:
                served = store.read_block(read)
            except SimError as exc:
                error = exc
            self.real_reads += 1
        for _ in range(padding):
            store.dummy_read(targets[randbelow(len(targets))])
            self.dummy_reads += 1
        for _ in self._write_slots:
            if write is not None or writes:
                store.write_block(*(write or writes.popleft()))
                write = None
                self.real_writes += 1
            else:
                store.dummy_write(targets[randbelow(len(targets))])
                self.dummy_writes += 1
        self.last_round_ns = now_ns
        self.rounds += 1
        if error is not None:
            raise error
        return served
