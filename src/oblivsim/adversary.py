"""What an untrusted observer can and cannot learn from a trace.

Everything here reads only the four observable fields of each event
(timestamp, call kind, offset, payload length); the module imports
nothing from the package but the trace and its errors, so it has no
ground truth to lean on. Three checks:

* shape comparison: two runs under the same configuration should be
  indistinguishable event for event (timestamp, kind, length);
* target uniformity: a chi-square test that disk traffic inside a given
  set of offsets (the padding domain) hits it uniformly, refused below
  ``MIN_UNIFORMITY_SAMPLES`` (1000) samples;
* rate accounting: per-endpoint bytes per fixed 1 s window, up to the
  window of the last write, which should sit at the shaped rate
  regardless of workload.

Comparing traces recorded under different configurations is refused
outright; a shape difference between different configurations is
expected and means nothing.

scipy is needed only by the analyzer, which loads it on first use:
``uniformity_test`` imports it in its body, never at module level. The
package imports this module, and the runtime itself needs only
``cryptography``; a new statistical test here that needs scipy imports
it the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InsufficientDataError, ParameterError, TraceConfigMismatch
from .trace import CallKind, HostTrace

MIN_UNIFORMITY_SAMPLES = 1000
MIN_EXPECTED_PER_BIN = 5


# ---------------------------------------------------------------------------
# Shape comparison.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceVerdict:
    shape_equal: bool
    first_divergence: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.shape_equal


def compare_traces(a: HostTrace, b: HostTrace) -> TraceVerdict:
    """Event-for-event equality of the observable projections."""
    if a.meta != b.meta:
        raise TraceConfigMismatch(
            f"recording configurations differ: {a.meta!r} vs {b.meta!r}")
    sa, sb = a.shape(), b.shape()
    n = min(len(sa), len(sb))
    for i in range(n):
        if sa[i] != sb[i]:
            return TraceVerdict(
                False, i, f"event {i}: {sa[i]!r} vs {sb[i]!r}")
    if len(sa) != len(sb):
        return TraceVerdict(
            False, n, f"lengths differ: {len(sa)} vs {len(sb)} events")
    return TraceVerdict(True, None, f"{len(sa)} events, identical shape")


# ---------------------------------------------------------------------------
# Uniformity of padding targets.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformityResult:
    p_value: float
    n_samples: int
    n_bins: int


def uniformity_test(samples, domain) -> UniformityResult:
    """Chi-square goodness of fit of ``samples`` against the uniform
    distribution over ``domain``.

    Adjacent domain values are pooled into bins large enough that every
    bin expects at least five observations, the usual validity floor
    for the chi-square approximation.
    """
    from scipy import stats

    domain = sorted(set(domain))
    if len(domain) < 2:
        raise ParameterError("uniformity needs a domain of at least two values")
    samples = list(samples)
    if len(samples) < MIN_UNIFORMITY_SAMPLES:
        raise InsufficientDataError(
            f"{len(samples)} samples; need at least {MIN_UNIFORMITY_SAMPLES}")
    index = {v: i for i, v in enumerate(domain)}
    counts = [0] * len(domain)
    for s in samples:
        i = index.get(s)
        if i is None:
            raise ParameterError(f"sample {s!r} outside the stated domain")
        counts[i] += 1

    n, d = len(samples), len(domain)
    group = 1 if n >= MIN_EXPECTED_PER_BIN * d else math.ceil(
        MIN_EXPECTED_PER_BIN * d / n)
    observed = [sum(counts[i:i + group]) for i in range(0, d, group)]
    sizes = [min(group, d - i) for i in range(0, d, group)]
    # At MIN_UNIFORMITY_SAMPLES or more, pooling leaves over 100 bins (or
    # every value its own), so merging a short tail bin leaves at least two.
    if n * sizes[-1] / d < MIN_EXPECTED_PER_BIN:
        observed[-2] += observed[-1]
        sizes[-2] += sizes[-1]
        observed.pop()
        sizes.pop()
    expected = [n * s / d for s in sizes]
    _chi2, p = stats.chisquare(observed, expected)
    return UniformityResult(float(p), n, len(observed))


def disk_offsets_within(trace: HostTrace, offsets) -> list[int]:
    """Offsets of the disk reads and writes that land inside ``offsets``,
    in trace order."""
    inside = set(offsets)
    disk = (CallKind.DISK_READ, CallKind.DISK_WRITE)
    return [e.offset for e in trace.events if e.kind in disk and e.offset in inside]


# ---------------------------------------------------------------------------
# Rate accounting.
# ---------------------------------------------------------------------------

RATE_WINDOW_NS = 1_000_000_000


@dataclass(frozen=True)
class RateSeries:
    endpoint: int
    bytes_per_window: tuple[int, ...]
    mean_bps: float


def rate_report(trace: HostTrace) -> dict[int, RateSeries]:
    """Outbound bytes per endpoint per ``RATE_WINDOW_NS`` window, from 0
    to the end of the window holding the last write."""
    writes = trace.of_kind(CallKind.NET_WRITE)
    if not writes:
        return {}
    n_windows = max(e.ts for e in writes) // RATE_WINDOW_NS + 1
    per_ep: dict[int, list[int]] = {}
    for e in writes:
        buckets = per_ep.setdefault(e.offset, [0] * n_windows)
        buckets[e.ts // RATE_WINDOW_NS] += e.payload_len
    return {
        ep: RateSeries(ep, tuple(buckets), sum(buckets) * 8 / n_windows)
        for ep, buckets in sorted(per_ep.items())
    }
