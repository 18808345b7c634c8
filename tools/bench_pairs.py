"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B [--seconds N] [--json OUT]

runs the benchmark's own command from PARENT's ``BENCHMARK.json``
(``python3 benchmarks/run.py``) once per seed in each checkout, with the
working directory set to that checkout. Odd seeds run the parent first,
even seeds the change. For each end-to-end metric it prints both
medians, the parent's interquartile range, how many pairs the change
won, the change's relative move against the metric's bound, and one
verdict (see ``verdict``). It also
prints every run's raw set-up seconds (``raw.setup_s``) and minor page
faults (the ``RUSAGE_CHILDREN`` ``ru_minflt`` delta around the whole run,
set-ups and ops alike; ``tools/setup_faults.py`` counts them per set-up),
says whether each pair simulated the same trace, prints each run's
simulated rounds and shuffle passes from its "simulated record" line,
lists every other field of that record that differs between parent and
change in some pair (the digest aside), and names every run that was
incorrect, failed operations or printed no result line; the exit status
is 1 when there was one. ``--json`` writes the summary too.

It splits the yardstick, ``wall_us_per_round``, per side into the median
simulated rounds per op (the record's rounds over the ops attempted) and
the median µs per op (1e6 / ``wall_ops_per_s``, in reference units), so
that a move in µs per round shows whether the rounds got fewer or dearer.
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
    last line, its raw set-up seconds, its whole simulated record (empty
    if it printed none), its minor page faults ``minflt`` as measured
    around it, the ops it ``attempted``, and ``problem``, which names what
    went wrong, or is None."""
    run = {"metrics": {}, "raw_setup_s": None, "record": {},
           "minflt": minflt, "attempted": None, "problem": None}
    lines = stdout.strip().splitlines()
    for line in lines:
        words = line.split()
        if words[:1] == ["raw.setup_s"]:
            run["raw_setup_s"] = float(words[1])
        elif line.startswith("  simulated record: "):
            run["record"] = json.loads(line.split(": ", 1)[1])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        run["problem"] = f"no result line (exit {returncode})"
        return run
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    run["attempted"] = result.get("attempted")
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


def verdict(m: dict, pairs: int, lower: bool) -> str:
    """A metric's verdict from its ``summarize`` figures, over ``pairs``
    pairs run:

    * ``gain``: the change won at least nine tenths of the pairs, ties
      counting for neither side, and the medians differ, in the better
      direction, by more than the parent's interquartile range;
    * ``unresolved``: the parent's interquartile range is wider than the
      bound times its median, unless every change run reads better than
      every parent run;
    * ``within``: the change's median is worse than the parent's by no
      more than the bound;
    * ``NO`` otherwise."""
    # Positive when the change's median is better.
    better = (m["parent_median"] - m["change_median"]) * (1 if lower else -1)
    if 10 * m["change_wins"] >= 9 * pairs and better > m["parent_iqr"]:
        return "gain"
    parent, change = m["parent_runs"], m["change_runs"]
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if m["parent_iqr"] > m["bound"] * abs(m["parent_median"]) and not beats_all:
        return "unresolved"
    return "within" if -better <= m["bound"] * abs(m["parent_median"]) else "NO"


def record_moves(pairs: list[tuple[int, dict, dict]]) -> dict:
    """Each simulated-record field but the trace digest that differs
    between parent and change in a pair where both printed a record: the
    seed and both values of the first such pair."""
    moves = {}
    for seed, p, c in pairs:
        a, b = p["record"], c["record"]
        if not (a and b):
            continue
        for key in dict.fromkeys([*a, *b]):
            if key != "trace_sha256" and key not in moves and a.get(key) != b.get(key):
                moves[key] = {"seed": seed, "parent": a.get(key), "change": b.get(key)}
    return moves


def per_op(runs: list[dict]) -> dict:
    """Median simulated rounds and reference µs per op over the sound
    ``runs`` that report them; None where none does."""
    sound = [r for r in runs if r["problem"] is None]
    rounds = [r["record"]["rounds"] / r["attempted"] for r in sound
              if r["attempted"] and r["record"].get("rounds") is not None]
    us = [1e6 / r["metrics"]["wall_ops_per_s"] for r in sound
          if r["metrics"].get("wall_ops_per_s")]
    return {"rounds": statistics.median(rounds) if rounds else None,
            "us": statistics.median(us) if us else None}


def summarize(pairs: list[tuple[int, dict, dict]], end_to_end: list[dict]) -> dict:
    """The summary of ``(seed, parent run, change run)`` triples, runs as
    ``parse_run`` returns them, over ``BENCHMARK.json``'s ``end_to_end``
    list. A metric's figures use the pairs in which both runs are sound;
    its verdict counts the change's wins against every pair run."""
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
        metrics[name] = m = {
            "parent_median": parent_median, "parent_q1": q1, "parent_q3": q3,
            "parent_iqr": q3 - q1, "change_median": change_median,
            "change_vs_parent": _relative(change_median, parent_median),
            "change_wins": sum(c < p if lower else c > p for p, c in both),
            "ties": sum(c == p for p, c in both), "pairs": len(both),
            "bound": spec["bound"],
            "parent_runs": [p for p, _ in both], "change_runs": [c for _, c in both],
        }
        m["verdict"] = verdict(m, len(pairs), lower)
    return {
        "seeds": [seed for seed, _, _ in pairs],
        "metrics": metrics,
        "raw_setup_s": {"parent": [p["raw_setup_s"] for _, p, _ in pairs],
                        "change": [c["raw_setup_s"] for _, _, c in pairs]},
        "minflt": {"parent": [p["minflt"] for _, p, _ in pairs],
                   "change": [c["minflt"] for _, _, c in pairs]},
        "digests_equal": [p["record"].get("trace_sha256") is not None
                          and p["record"].get("trace_sha256") == c["record"].get("trace_sha256")
                          for _, p, c in pairs],
        "simulated": {side: [(run["record"].get("rounds"), run["record"].get("shuffles"))
                             for run in runs]
                      for side, runs in (("parent", [p for _, p, _ in pairs]),
                                         ("change", [c for _, _, c in pairs]))},
        "per_op": {"parent": per_op([p for _, p, _ in pairs]),
                   "change": per_op([c for _, _, c in pairs])},
        "record_moves": record_moves(pairs),
        "problems": [f"seed {seed} {side}: {run['problem']}"
                     for seed, p, c in pairs
                     for side, run in (("parent", p), ("change", c)) if run["problem"]],
    }


def format_summary(workload: str, summary: dict) -> str:
    out = [f"{workload}: {len(summary['seeds'])} pairs, seeds "
           f"{summary['seeds'][0]}-{summary['seeds'][-1]}, odd seeds parent first",
           f"  {'metric':20s} {'parent med':>12s} {'parent IQR':>12s} "
           f"{'change med':>12s} {'change':>8s} {'wins':>6s} {'bound':>6s}  verdict"]
    for name, m in summary["metrics"].items():
        out.append(f"  {name:20s} {m['parent_median']:12.6g} {m['parent_iqr']:12.6g} "
                   f"{m['change_median']:12.6g} {m['change_vs_parent']:+8.2%} "
                   f"{m['change_wins']:>3d}/{m['pairs']:<2d} {m['bound']:6.0%}  "
                   f"{m['verdict']}")
    for side, values in summary["raw_setup_s"].items():
        out.append(f"  raw setup_s {side}: " + " ".join(
            "-" if v is None else f"{v:.4f}" for v in values))
        out.append(f"  minor faults {side}: " + " ".join(
            "-" if v is None else str(v) for v in summary["minflt"][side])
            + "  (whole run; per set-up: tools/setup_faults.py)")
    equal = summary["digests_equal"]
    out.append(f"  trace digests equal in {sum(equal)} of {len(equal)} pairs")
    for side, records in summary["simulated"].items():
        out.append(f"  rounds/shuffles {side}: " + " ".join(
            "-" if r is None else f"{r}/{'-' if n is None else n}" for r, n in records))
    for side, m in summary["per_op"].items():
        out.append(f"  per op {side}: "
                   f"{'-' if m['rounds'] is None else format(m['rounds'], '.4g')} rounds, "
                   f"{'-' if m['us'] is None else format(m['us'], '.4g')} us (ref)")
    parent, change = summary["per_op"]["parent"], summary["per_op"]["change"]
    if None not in (*parent.values(), *change.values()):
        out.append(f"  per op change vs parent: rounds "
                   f"{_relative(change['rounds'], parent['rounds']):+.2%}, us "
                   f"{_relative(change['us'], parent['us']):+.2%}")
    out += [f"  record {key}: parent {m['parent']} change {m['change']} (seed {m['seed']})"
            for key, m in summary["record_moves"].items()] or ["  record moves: none"]
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
