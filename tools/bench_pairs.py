"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B [--seconds N] [--json OUT]

runs the benchmark's own command from PARENT's ``BENCHMARK.json``
(``python3 benchmarks/run.py``) once per seed in each checkout, with the
working directory set to that checkout. Odd seeds run the parent first,
even seeds the change. For each end-to-end metric it prints both
medians, the parent's interquartile range, how many pairs the change
won, and the change's relative move against the metric's bound. It also
prints every run's raw set-up seconds (``raw.setup_s``) and minor page
faults (the ``RUSAGE_CHILDREN`` ``ru_minflt`` delta around the run), so
that glibc's two heap modes show up as two clusters, says whether each pair
simulated the same trace, prints each run's simulated rounds and shuffle
passes from its "simulated record" line, and names every run that was incorrect,
failed operations or printed no result line; the exit status is 1 when
there was one. ``--json`` writes the summary too.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(stdout: str, returncode: int, minflt: int | None = None) -> dict:
    """One run of ``benchmarks/run.py``: its end-to-end metrics from the
    last line, its raw set-up seconds, its trace digest and simulated
    rounds and shuffles, its minor page faults ``minflt`` as measured
    around it, and ``problem``, which names what went wrong, or is None."""
    run = {"metrics": {}, "raw_setup_s": None, "trace_sha256": None,
           "rounds": None, "shuffles": None, "minflt": minflt, "problem": None}
    lines = stdout.strip().splitlines()
    for line in lines:
        words = line.split()
        if words[:1] == ["raw.setup_s"]:
            run["raw_setup_s"] = float(words[1])
        elif line.startswith("  simulated record: "):
            record = json.loads(line.split(": ", 1)[1])
            for key in ("trace_sha256", "rounds", "shuffles"):
                run[key] = record.get(key)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        run["problem"] = f"no result line (exit {returncode})"
        return run
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    if returncode != 0 or result.get("correct") is not True:
        run["problem"] = f"incorrect (exit {returncode})"
    elif result.get("failed"):
        run["problem"] = f"{result['failed']} of {result.get('attempted')} ops failed"
    return run


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def _relative(change: float, parent: float) -> float:
    if change == parent:
        return 0.0
    if parent == 0:
        return math.copysign(math.inf, change - parent)
    return (change - parent) / abs(parent)


def summarize(pairs: list[tuple[int, dict, dict]], end_to_end: list[dict]) -> dict:
    """The summary of ``(seed, parent run, change run)`` triples, runs as
    ``parse_run`` returns them, over ``BENCHMARK.json``'s ``end_to_end``
    list. A metric's figures use the pairs in which both runs are sound."""
    sound = [(p, c) for _, p, c in pairs if p["problem"] is None and c["problem"] is None]
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [(p["metrics"][name], c["metrics"][name]) for p, c in sound
                if name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        q1, parent_median, q3 = _quartiles([p for p, _ in both])
        change_median = statistics.median(c for _, c in both)
        move = _relative(change_median, parent_median)
        metrics[name] = {
            "parent_median": parent_median, "parent_q1": q1, "parent_q3": q3,
            "parent_iqr": q3 - q1, "change_median": change_median,
            "change_vs_parent": move,
            "change_wins": sum(c < p if lower else c > p for p, c in both),
            "ties": sum(c == p for p, c in both), "pairs": len(both),
            "bound": spec["bound"], "within": (move if lower else -move) <= spec["bound"],
            "parent_runs": [p for p, _ in both], "change_runs": [c for _, c in both],
        }
    return {
        "seeds": [seed for seed, _, _ in pairs],
        "metrics": metrics,
        "raw_setup_s": {"parent": [p["raw_setup_s"] for _, p, _ in pairs],
                        "change": [c["raw_setup_s"] for _, _, c in pairs]},
        "minflt": {"parent": [p["minflt"] for _, p, _ in pairs],
                   "change": [c["minflt"] for _, _, c in pairs]},
        "digests_equal": [p["trace_sha256"] is not None
                          and p["trace_sha256"] == c["trace_sha256"] for _, p, c in pairs],
        "simulated": {side: [(run["rounds"], run["shuffles"]) for run in runs]
                      for side, runs in (("parent", [p for _, p, _ in pairs]),
                                         ("change", [c for _, _, c in pairs]))},
        "problems": [f"seed {seed} {side}: {run['problem']}"
                     for seed, p, c in pairs
                     for side, run in (("parent", p), ("change", c)) if run["problem"]],
    }


def format_summary(workload: str, summary: dict) -> str:
    out = [f"{workload}: {len(summary['seeds'])} pairs, seeds "
           f"{summary['seeds'][0]}-{summary['seeds'][-1]}, odd seeds parent first",
           f"  {'metric':20s} {'parent med':>12s} {'parent IQR':>12s} "
           f"{'change med':>12s} {'change':>8s} {'wins':>6s} {'bound':>6s}  within"]
    for name, m in summary["metrics"].items():
        out.append(f"  {name:20s} {m['parent_median']:12.6g} {m['parent_iqr']:12.6g} "
                   f"{m['change_median']:12.6g} {m['change_vs_parent']:+8.2%} "
                   f"{m['change_wins']:>3d}/{m['pairs']:<2d} {m['bound']:6.0%}  "
                   f"{'yes' if m['within'] else 'NO'}")
    for side, values in summary["raw_setup_s"].items():
        out.append(f"  raw setup_s {side}: " + " ".join(
            "-" if v is None else f"{v:.4f}" for v in values))
        out.append(f"  minor faults {side}: " + " ".join(
            "-" if v is None else str(v) for v in summary["minflt"][side]))
    equal = summary["digests_equal"]
    out.append(f"  trace digests equal in {sum(equal)} of {len(equal)} pairs")
    for side, records in summary["simulated"].items():
        out.append(f"  rounds/shuffles {side}: " + " ".join(
            "-" if r is None else f"{r}/{'-' if n is None else n}" for r, n in records))
    out += [f"  PROBLEM {p}" for p in summary["problems"]] or ["  problems: none"]
    return "\n".join(out)


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return range(lo, hi + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    pairs = []
    for seed in args.seeds:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        runs = {}
        for side in order:
            cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds)]
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
            minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
            runs[side] = parse_run(proc.stdout, proc.returncode, minflt)
            print(f"seed {seed} {side}: {runs[side]['problem'] or 'ok'}", file=sys.stderr)
        pairs.append((seed, runs["parent"], runs["change"]))
    summary = summarize(pairs, bench["end_to_end"])
    print(format_summary(args.workload, summary))
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if summary["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
