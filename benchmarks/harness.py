"""One measured pass of a workload, its correctness gates and its metrics.

Host time is taken around each op (and around the final drain), so the
checks the benchmark makes between ops (output comparison, trace audit)
never count as simulator time. Simulated time is rounds x the round
interval.

Host speed is measured in the same process, by timing a fixed
calibration kernel that does not touch ``oblivsim`` before and after
each set-up and every ``SEGMENT_NS`` of op time. On a shared machine the
speed of the host drifts by up to 2x, within a run as well as between
runs, and it moves the kernel and the simulator much alike (the README
says where they part). Each host time is therefore divided by the
kernel time measured around it and reported in *reference* units: the
time it would take on a host where one run of the kernel takes
``CAL_REF_NS``. The raw figures and the kernel time are printed beside
them.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from array import array
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from oblivsim.errors import SimError
from oblivsim.trace import CallKind

from tracing import Tracer
from workloads import Mounted, Workload

MIN_OPS = 10_000  # ten samples beyond p99.9
# setup_s is the median of at least SETUP_REPEATS set-ups and of enough
# of them to take SETUP_MIN_S, so a cheap set-up is timed many times.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SEGMENT_NS = 10_000_000  # op time between two calibration points
CAL_REPEATS = 3  # kernel runs per calibration point; the median counts
CAL_REF_NS = 125_000  # kernel time on the reference host


_CAL_AEAD = AESGCM(bytes(range(32)))
_CAL_BLOCK = bytes(4096)


def calibration_kernel() -> int:
    """Fixed work: AES-GCM sealing of 4 KiB blocks, as the simulator seals
    its blocks. Of the kernels tried (small-object bookkeeping in pure
    Python, HMAC-SHA256 on short inputs, AES-GCM), this one tracked the
    simulator's speed best on every workload: pure-Python work adds
    allocator and collector noise of its own to each point."""
    acc = 0
    for i in range(64):
        acc += len(_CAL_AEAD.encrypt(i.to_bytes(12, "little"), _CAL_BLOCK, b""))
    return acc


def calibration_point() -> int:
    """Host speed now: median wall ns of ``CAL_REPEATS`` kernel runs."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(CAL_REPEATS):
        t0 = clock()
        calibration_kernel()
        samples.append(clock() - t0)
    return statistics.median(samples)


def scale(p0: float, p1: float) -> float:
    """Factor from host ns to reference ns for the time between two
    calibration points."""
    return 2 * CAL_REF_NS / (p0 + p1)


class TraceAudit:
    """Consumes the host-call trace as it grows (and empties it, so a long
    run holds no trace in memory).

    * Hashes every event as ``HostTrace.export`` writes it, so the digest
      equals the SHA-256 of the exported trace.
    * Checks the disk cadence: round k is exactly ``reads_per_round``
      reads then ``writes_per_round`` writes, all stamped k x interval.
    * Counts frames each way, for the link-rate gate.
    """

    def __init__(self, m: Mounted):
        self.trace = m.trace
        cfg = m.engine.config.round
        self.interval = cfg.interval_ns
        self.pattern = ([CallKind.DISK_READ] * cfg.reads_per_round
                        + [CallKind.DISK_WRITE] * cfg.writes_per_round)
        self.sha = hashlib.sha256()
        self.round = 0
        self.slot = 0
        self.violations: list[str] = []
        self.net_writes = 0
        self.net_reads = 0

    def _violation(self, text: str) -> None:
        if len(self.violations) < 10:
            self.violations.append(text)

    def consume(self) -> None:
        events = self.trace.events
        sha = self.sha
        for e in events:
            sha.update(f"{e.line()}\n".encode())
            kind = e.kind
            if kind is CallKind.DISK_READ or kind is CallKind.DISK_WRITE:
                want_ts = self.round * self.interval
                want_kind = self.pattern[self.slot]
                if e.ts != want_ts or kind is not want_kind:
                    self._violation(
                        f"cadence: round {self.round} slot {self.slot} wants "
                        f"{want_kind.value} at {want_ts} ns, got {kind.value} at {e.ts} ns")
                    self.round = e.ts // self.interval
                    self.slot = self.pattern.index(kind)
                self.slot += 1
                if self.slot == len(self.pattern):
                    self.round += 1
                    self.slot = 0
            elif kind is CallKind.NET_WRITE:
                self.net_writes += 1
            elif kind is CallKind.NET_READ:
                self.net_reads += 1
        events.clear()

    def close(self, rounds: int) -> None:
        self.consume()
        if self.slot != 0 or self.round != rounds:
            self._violation(f"cadence: trace holds {self.round} whole rounds "
                            f"(+{self.slot} slots), the scheduler ran {rounds}")


@dataclass
class PassResult:
    m: Mounted
    setup_s: list[float]
    setup_ref_s: list[float]
    op_ns: array
    op_ref_ns: array
    op_cpu_ns: array
    op_rounds: array
    finish_ns: int
    finish_ref_ns: float
    cal_points: list[float]
    attempted: int
    failed: int
    payload: int
    violations: list[str]
    sha256: str
    counters: dict
    interval_ns: int

    @property
    def wall_ns(self) -> int:
        """Host time of the workload itself: every op plus the drain."""
        return sum(self.op_ns) + self.finish_ns

    @property
    def pass_wall_ns(self) -> int:
        """Host time of the whole pass: set-up plus workload."""
        return int(sum(self.setup_s) * 1e9) + self.wall_ns

    @property
    def ref_ns(self) -> float:
        """``wall_ns`` in reference units."""
        return sum(self.op_ref_ns) + self.finish_ref_ns

    @property
    def pass_ref_ns(self) -> float:
        """Host time of the whole pass, set-up plus workload, in reference
        units."""
        return sum(self.setup_ref_s) * 1e9 + self.ref_ns

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.violations


def n_ops_for(workload: Workload, seconds: int) -> int:
    return max(MIN_OPS, seconds * workload.ops_per_s)


def run_pass(workload: Workload, n_ops: int, setups: int = 1,
             setup_min_s: float = 0.0) -> PassResult:
    calibration_kernel()  # the first run pays for cold caches
    points = [calibration_point()]
    setup_s, setup_ref_s = [], []
    while len(setup_s) < setups or sum(setup_s) < setup_min_s:
        m = None  # let the previous image go before building the next
        gc.collect()
        t0 = time.perf_counter()
        m = workload.mount(workload.build())
        took = time.perf_counter() - t0
        points.append(calibration_point())
        setup_s.append(took)
        setup_ref_s.append(took * scale(points[-2], points[-1]))

    gc.collect()  # set-up garbage is not the workload's to collect
    engine = m.engine
    audit = TraceAudit(m)
    op_ns = array("q")
    op_cpu_ns = array("q")
    op_rounds = array("q")
    first = len(points) - 1  # the point that opens the first segment
    cuts = [0]  # index of the first op of each segment
    segment_ns = 0
    failed = 0
    clock = time.perf_counter_ns
    cpu = time.thread_time_ns
    op = workload.op
    for item in workload.ops(n_ops):
        r0 = engine.rounds_done
        t0 = clock()
        c0 = cpu()
        try:
            ok = op(m, item)
        except SimError:
            ok = False
        c1 = cpu()
        t1 = clock()
        op_ns.append(t1 - t0)
        op_cpu_ns.append(c1 - c0)
        op_rounds.append(engine.rounds_done - r0)
        failed += not ok
        audit.consume()
        segment_ns += t1 - t0
        if segment_ns >= SEGMENT_NS:
            points.append(calibration_point())
            cuts.append(len(op_ns))
            segment_ns = 0

    t0 = clock()
    try:
        workload.finish(m)
    except SimError as exc:
        audit.violations.append(f"drain failed: {exc!r}")
    finish_ns = clock() - t0
    points.append(calibration_point())
    cuts.append(len(op_ns))
    audit.close(engine.rounds_done)

    op_ref_ns = array("d")
    for k in range(len(cuts) - 1):
        factor = scale(points[first + k], points[first + k + 1])
        op_ref_ns.extend(ns * factor for ns in op_ns[cuts[k]:cuts[k + 1]])

    problems, lost = workload.gate(m, audit)
    return PassResult(
        m=m, setup_s=setup_s, setup_ref_s=setup_ref_s,
        op_ns=op_ns, op_ref_ns=op_ref_ns, op_cpu_ns=op_cpu_ns, op_rounds=op_rounds,
        finish_ns=finish_ns, finish_ref_ns=finish_ns * scale(points[-2], points[-1]),
        cal_points=points,
        attempted=n_ops, failed=min(n_ops, failed + lost),
        payload=workload.payload_bytes(m), violations=audit.violations + problems,
        sha256=audit.sha.hexdigest(), counters=engine.counters(),
        interval_ns=engine.config.round.interval_ns)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: n - ceil(q * n) of the n samples lie
    above it (10 of 10 000 for p99.9)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(r: PassResult) -> dict:
    """The bounded metrics of the pass; host times in reference units."""
    rounds = r.counters["rounds"]
    return {
        "setup_s": statistics.median(r.setup_ref_s),
        "wall_us_per_round": r.ref_ns / 1e3 / rounds,
        "wall_ops_per_s": (r.attempted - r.failed) / (r.ref_ns / 1e9),
        "op_wall_us_p50": percentile(r.op_ref_ns, 0.5) / 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "sim_goodput_MBps": r.payload / 1e6 / simulated_s(r),
    }


def unbounded(r: PassResult) -> dict:
    """Host figures printed beside the bounded ones: the p99.9 tails,
    and every host time also raw, with the kernel time that scales it."""
    return {
        "op_wall_us_p999": (percentile(r.op_ref_ns, 0.999) / 1e3, "us", "ref"),
        "raw.setup_s": (statistics.median(r.setup_s), "s", "raw"),
        "raw.wall_us_per_round": (r.wall_ns / 1e3 / r.counters["rounds"], "us", "raw"),
        "raw.op_wall_us_p50": (percentile(r.op_ns, 0.5) / 1e3, "us", "raw"),
        "raw.op_wall_us_p999": (percentile(r.op_ns, 0.999) / 1e3, "us", "raw"),
        "raw.op_cpu_us_p999": (percentile(r.op_cpu_ns, 0.999) / 1e3, "us", "raw CPU"),
        "calibration_us": (statistics.median(r.cal_points) / 1e3, "us",
                           f"raw, {len(r.cal_points)} points, "
                           f"{min(r.cal_points) / 1e3:.0f}-{max(r.cal_points) / 1e3:.0f}"),
    }


def simulated_s(r: PassResult) -> float:
    return r.counters["rounds"] * r.interval_ns / 1e9


def simulated(r: PassResult) -> dict:
    """Deterministic for a seed: simulated latency and goodput, the
    engine's counters and the digest of the exported trace."""
    interval_us = r.interval_ns / 1e3
    return {
        "sim_op_us_p50": percentile(r.op_rounds, 0.5) * interval_us,
        "sim_op_us_p999": percentile(r.op_rounds, 0.999) * interval_us,
        "sim_goodput_MBps": r.payload / 1e6 / simulated_s(r),
        "payload_bytes": r.payload,
        **r.counters,
        "trace_sha256": r.sha256,
    }


def run_traced(workload: Workload, n_ops: int, spans_path):
    """An untraced pass, then the same pass with every layer wrapped; the
    traced pass's spans go to ``spans_path``. Returns (untraced, traced,
    per-layer metrics, spans written)."""
    untraced = run_pass(workload, n_ops)
    untraced.m = None  # drop the first image before the second is built
    tracer = Tracer()
    with tracer.installed(type(workload)):
        traced = run_pass(workload, n_ops)
    metrics = tracer.layer_metrics(traced.m, traced.pass_wall_ns,
                                   traced.pass_ref_ns / untraced.pass_ref_ns - 1)
    written = tracer.write_spans(spans_path)
    return untraced, traced, metrics, written
