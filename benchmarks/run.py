"""oblivsim benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload kv_mixed --seed 1 --seconds 10 --trace 0

builds the workload's image from the seed, mounts it, drives the
closed-loop client, checks every output and the round cadence, and
prints each metric by name with its unit. The last line of standard
output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload untraced and then traced, reports the per-layer split and
writes every span of the traced pass to ``benchmarks/spans/<workload>.spans``.
The program under test is imported from ``src/`` of the checkout this
file sits in; the run exits with status 2 when that is missing.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS = HERE / "spans"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; exit with status 2
    when the program is not there, whatever else is installed."""
    problem = None
    if not (SRC / "oblivsim" / "__init__.py").is_file():
        problem = f"no program to measure at {SRC / 'oblivsim'}"
    else:
        sys.path[:0] = [str(SRC), str(HERE)]
        import oblivsim

        if Path(oblivsim.__file__).resolve().parent != SRC / "oblivsim":
            problem = f"imported oblivsim from {oblivsim.__file__}, not from {SRC}"
    if problem:
        print(f"benchmark: {problem}", file=sys.stderr)
        sys.exit(2)


def _fmt(name: str, value, unit: str, kind: str = "") -> str:
    if isinstance(value, float):
        value = f"{value:.6g}"
    return f"  {name:34s} {value:>16} {unit:6s} {kind}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import harness
    import spec
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    workload = WORKLOADS[args.workload](args.seed)
    n_ops = harness.n_ops_for(workload, args.seconds)
    print(f"{workload.name}: seed {args.seed}, {n_ops} ops, closed loop, 1 client, "
          f"{'traced' if args.trace else 'untraced'}")

    if args.trace:
        spans_path = SPANS / f"{workload.name}.spans"
        spans_path.parent.mkdir(exist_ok=True)
        untraced, traced, metrics, written = harness.run_traced(workload, n_ops, spans_path)
        names = spec.PER_LAYER
        if untraced.counters != traced.counters or untraced.sha256 != traced.sha256:
            print("  note: traced and untraced passes simulated different runs")
        print(f"  {written} spans written to {spans_path.relative_to(ROOT)}")
        passes = [untraced, traced]
        for name in names:
            print(_fmt(name, metrics[name], spec.UNITS[name]))
    else:
        result = harness.run_pass(workload, n_ops, setups=harness.SETUP_REPEATS,
                                  setup_min_s=harness.SETUP_MIN_S)
        passes = [result]
        metrics = harness.end_to_end(result)
        names = spec.END_TO_END
        for name in names:
            kind = ("sim" if name.startswith("sim_") else
                    "host" if name == "peak_rss_mb" else "host, ref")
            print(_fmt(name, metrics[name], spec.UNITS[name],
                       f"{kind}, {spec.BETTER[name]} is better"))
        for name, (value, unit, kind) in harness.unbounded(result).items():
            print(_fmt(name, value, unit, f"host, {kind} (not bounded)"))
        sim = harness.simulated(result)
        for name in ("sim_op_us_p50", "sim_op_us_p999"):
            print(_fmt(name, sim[name], "us", "sim (not bounded)"))
        print(_fmt("ops_failed_frac", result.failed / result.attempted, "ratio",
                   "(result fields failed/attempted)"))
        print("  simulated record: " + json.dumps(sim, sort_keys=True))

    violations = [v for p in passes for v in p.violations]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = all(p.correct for p in passes)
    for v in violations:
        print(f"  VIOLATION {v}")
    print(f"  gates: {failed} of {attempted} ops failed, "
          f"{len(violations)} cadence/rate violations")

    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": spec.UNITS[n]} for n in names},
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
