"""Minor page faults and seconds of each benchmark set-up.

    python3 tools/setup_faults.py CHECKOUT WORKLOAD SEED [--seconds N] [--trace 0|1]

runs CHECKOUT's ``benchmarks/run.py`` in this process for one workload
and seed, with the workload's ``build`` and ``mount`` wrapped: a set-up
runs from the start of ``build`` to the end of the ``mount`` that
follows it, and its build from the start to the end of ``build``; the
mount's seconds are the rest. It prints one line per set-up, its
``ru_minflt`` count and its seconds, whole, building and mounting, then a
summary line (how many set-ups ran, how many after the first
``WARM_UP`` took fewer than ``FAST_FAULTS`` faults, the min, median and
max faults, and the median seconds, whole, building and mounting), then
the run's result line, and exits with the run's status.

Images are built in a prefaulted mapping of their own, so each set-up
of a workload takes a fixed fault count: the mapping's pages, faulted
in by the call that maps it. A checkout that builds images in a heap
buffer instead shows two glibc heap modes: a few hundred or no faults
per set-up when freed image buffers stay in the heap, several thousand
when the heap was trimmed and the next image is faulted in again. Its
mode can change with the length of the checkout's path, so compare
such checkouts at paths of equal length.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import resource
import statistics
import sys
import time
from pathlib import Path


WARM_UP = 4  # set-ups left out of the fast count: the heap is still settling
FAST_FAULTS = 1000  # below this a set-up reused memory it did not fault in


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def summary(setups: list[tuple[int, float, float]]) -> str:
    """One line over the (faults, build seconds, mount seconds) of every
    set-up."""
    if not setups:
        return "summary: no set-up ran"
    faults = [f for f, _b, _m in setups]
    late = faults[WARM_UP:]
    fast = sum(f < FAST_FAULTS for f in late)
    return (f"summary: {len(setups)} set-ups, {fast} of {len(late)} after the first "
            f"{WARM_UP} under {FAST_FAULTS} faults; faults min {min(faults)} median "
            f"{statistics.median(faults):.10g} max {max(faults)}; median "
            f"{statistics.median(b + m for _f, b, m in setups):.6f} s (build "
            f"{statistics.median(b for _f, b, _m in setups):.6f} s, mount "
            f"{statistics.median(m for _f, _b, m in setups):.6f} s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = args.checkout.resolve()
    bench = root / "benchmarks"
    if not (bench / "run.py").is_file():
        ap.error(f"no benchmarks/run.py under {root}")
    sys.path[:0] = [str(root / "src"), str(bench)]
    import run
    import workloads

    setups = []  # (faults, build seconds, mount seconds) per set-up
    started = []  # (faults, start, end of build) of set-ups not yet mounted

    def build(fn):
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            faults, t0 = _faults(), time.perf_counter()
            bundle = fn(*a, **kw)
            started.append((faults, t0, time.perf_counter()))
            return bundle
        return wrapped

    def mount(fn):
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            m = fn(*a, **kw)
            faults, t0, built = started.pop()
            setups.append((_faults() - faults, built - t0, time.perf_counter() - built))
            return m
        return wrapped

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        ap.error(f"workload must be one of {', '.join(workloads.WORKLOADS)}")
    cls.build, cls.mount = build(cls.build), mount(cls.mount)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)])
    for k, (faults, built, mounted) in enumerate(setups):
        print(f"setup {k}: {faults} minor faults, {built + mounted:.6f} s "
              f"(build {built:.6f} s, mount {mounted:.6f} s)")
    print(summary(setups))
    lines = out.getvalue().splitlines()
    print(lines[-1] if lines else "")
    return status


if __name__ == "__main__":
    sys.exit(main())
