"""Minor page faults and seconds of each benchmark set-up.

    python3 tools/setup_faults.py CHECKOUT WORKLOAD SEED [--seconds N] [--trace 0|1]

runs CHECKOUT's ``benchmarks/run.py`` in this process for one workload
and seed, with the workload's ``build`` and ``mount`` wrapped: a set-up
runs from the start of ``build`` to the end of the ``mount`` that
follows it, and its build from the start to the end of ``build``; the
mount's seconds and faults are the rest. The harness's ``calibration_point`` is
wrapped too, so each set-up also has the kernel time of the point taken
before it and of the one taken after it, and the scale that
``setup_s`` applies to it, ``harness.scale`` of the two. It prints one
line per set-up, its ``ru_minflt`` count and its seconds, each whole,
building and mounting, and its calibration, then a summary line (how
many set-ups ran, how many after the first ``WARM_UP`` took fewer than
``FAST_FAULTS`` faults, the min, median and max faults, the median
faults building and mounting, the median seconds, whole, building and
mounting, and the median kernel times and scale), then the run's result
line, and exits with the run's status.

If the host slows the kernel as much as the set-up, the scale falls as
the raw seconds rise and the set-up's reference seconds stay put.

Images are built in a mapping of their own, advised to use huge pages
and written once per 2 MiB before the build fills it, so each set-up of
a workload takes a fixed fault count: one per huge page the kernel
grants, and one per 4 KiB page of the rest. A checkout that builds
images in a heap buffer instead shows two glibc heap modes: a few hundred or no faults
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


def calibration_text(before_ns: float, after_ns: float, scale: float) -> str:
    return (f"kernel {before_ns / 1e3:.1f} us before, {after_ns / 1e3:.1f} us after, "
            f"scale {scale:.4f}")


def summary(setups: list[tuple[int, int, float, float]],
            calibration: list[tuple[float, float, float]] = ()) -> str:
    """One line over the (build faults, mount faults, build seconds,
    mount seconds) of every set-up, and the (kernel ns before, kernel ns
    after, scale) of every set-up that has both calibration points."""
    if not setups:
        return "summary: no set-up ran"
    faults = [fb + fm for fb, fm, _b, _m in setups]
    late = faults[WARM_UP:]
    fast = sum(f < FAST_FAULTS for f in late)

    def median(i):
        return statistics.median(s[i] for s in setups)

    line = (f"summary: {len(setups)} set-ups, {fast} of {len(late)} after the first "
            f"{WARM_UP} under {FAST_FAULTS} faults; faults min {min(faults)} median "
            f"{statistics.median(faults):.10g} max {max(faults)} (build median "
            f"{median(0):.10g}, mount median {median(1):.10g}); median "
            f"{statistics.median(b + m for _fb, _fm, b, m in setups):.6f} s (build "
            f"{median(2):.6f} s, mount {median(3):.6f} s)")
    if calibration:
        line += "; median " + calibration_text(
            *(statistics.median(c[i] for c in calibration) for i in range(3)))
    return line


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
    import harness
    import run
    import workloads

    setups = []  # (build faults, mount faults, build s, mount s) per set-up
    started = []  # (faults at start, at end of build, start, end of build) not yet mounted
    points = []  # every calibration point's kernel ns, in order
    before = []  # per set-up, the index in points of the last point before it

    def calibration_point(fn):
        @functools.wraps(fn)
        def wrapped():
            points.append(fn())
            return points[-1]
        return wrapped

    def build(fn):
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            before.append(len(points) - 1)
            faults, t0 = _faults(), time.perf_counter()
            bundle = fn(*a, **kw)
            started.append((faults, _faults(), t0, time.perf_counter()))
            return bundle
        return wrapped

    def mount(fn):
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            m = fn(*a, **kw)
            faults, faults_built, t0, built = started.pop()
            setups.append((faults_built - faults, _faults() - faults_built,
                           built - t0, time.perf_counter() - built))
            return m
        return wrapped

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        ap.error(f"workload must be one of {', '.join(workloads.WORKLOADS)}")
    cls.build, cls.mount = build(cls.build), mount(cls.mount)
    harness.calibration_point = calibration_point(harness.calibration_point)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)])
    # A set-up lies between the last point before its build and the next.
    calibration = [(points[i], points[i + 1], harness.scale(points[i], points[i + 1]))
                   if 0 <= i < len(points) - 1 else None for i in before]
    for k, (f_built, f_mounted, built, mounted) in enumerate(setups):
        cal = f"; {calibration_text(*calibration[k])}" if calibration[k] else ""
        print(f"setup {k}: {f_built + f_mounted} minor faults (build {f_built}, "
              f"mount {f_mounted}), {built + mounted:.6f} s "
              f"(build {built:.6f} s, mount {mounted:.6f} s){cal}")
    print(summary(setups, [c for c in calibration if c]))
    lines = out.getvalue().splitlines()
    print(lines[-1] if lines else "")
    return status


if __name__ == "__main__":
    sys.exit(main())
