"""Batched, fixed-cadence disk scheduler.

All disk traffic is reshaped into rounds at a fixed interval (default
0.1 ms of simulated time). Every round performs exactly the configured
number of reads followed by the configured number of writes. A read
handed to the round and the writes handed or queued take their slots;
every other slot is padding traffic against uniformly random blocks of
the padding domain, the allocated blocks no file maps
(``BlockFs.dummy_blocks``). An observer therefore sees the same call
sequence, lengths and timing no matter what the workload does.

Reads always run before writes within a round. A round carries no
time: the engine owns the interval, moves the simulated clock to round
k's instant, k x interval, and then runs the round, so every call of
the round is stamped there and the recorded pattern is bit-reproducible.
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
        self._reads_per_round = config.reads_per_round
        self._writes_per_round = config.writes_per_round
        # Queued write-backs, (phys, data); reads are handed to run_round.
        self._writes: deque[tuple[int, bytes]] = deque()
        self.rounds = 0
        self.real_reads = 0
        self.dummy_reads = 0
        self.real_writes = 0
        self.dummy_writes = 0

    # Submission ----------------------------------------------------------

    # Kept only while ``benchmarks/`` names them: ``tracing.TARGETS`` wraps
    # ``submit_read`` and ``pending_write_for``, and the ``kv_mixed`` drain
    # loop reads ``pending_reads``. Nothing in ``src/`` calls them.
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
                  write: tuple[int, bytes] | None = None) -> bytes | None:
        """One batch: reads run first and writes after. It takes no time
        and moves no clock; the engine has moved the clock to the round's
        instant, so every call is stamped there.

        ``read`` (a block) takes the first read slot, and padding the
        rest. ``write`` (a block and its plaintext, one block long)
        takes the first write slot, ahead of the queued writes, which
        fill the next slots before padding does. Returns ``read``'s
        plaintext, or None. A failed read (say, it does not
        authenticate) still runs every slot and counts, so the cadence
        holds, and then raises."""
        store, writes = self.store, self._writes
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
        while padding:
            targets = self.dummy_targets
            store.dummy_read(targets[self.rng.randbelow(len(targets))])
            self.dummy_reads += 1
            padding -= 1
        slots = self._writes_per_round
        if write is not None:
            store.write_block(write[0], write[1])
            self.real_writes += 1
            slots -= 1
        while slots:
            if writes:
                store.write_block(*writes.popleft())
                self.real_writes += 1
            else:
                targets = self.dummy_targets
                store.dummy_write(targets[self.rng.randbelow(len(targets))])
                self.dummy_writes += 1
            slots -= 1
        self.rounds += 1
        if error is not None:
            raise error
        return served
