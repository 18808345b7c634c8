"""The pair tool's parsing and summary, on canned result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "wall_ops_per_s", "better": "higher", "bound": 0.25}]


def stdout(setup_s, ops, raw, digest="aa", correct=True, failed=0, rounds=7, shuffles=0):
    """What ``benchmarks/run.py`` prints, trimmed to the lines the tool reads."""
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                          "wall_ops_per_s": {"value": ops, "unit": "1/s"}}}
    return "\n".join([
        "netecho: seed 1, 100 ops, closed loop, 1 client, untraced",
        f"  {'setup_s':34s} {setup_s:>16} s      host, ref, lower is better",
        f"  {'raw.setup_s':34s} {raw:>16} s      host, raw (not bounded)",
        "  simulated record: " + json.dumps({"rounds": rounds, "shuffles": shuffles,
                                             "trace_sha256": digest}),
        "  gates: 0 of 100 ops failed, 0 cadence/rate violations",
        json.dumps(result)])


def test_a_run_is_parsed_from_its_lines():
    run = bench_pairs.parse_run(stdout(0.03, 900.0, 0.0351), 0, minflt=4137)
    assert run == {"metrics": {"setup_s": 0.03, "wall_ops_per_s": 900.0},
                   "raw_setup_s": 0.0351, "trace_sha256": "aa", "rounds": 7,
                   "shuffles": 0, "minflt": 4137, "problem": None}
    assert bench_pairs.parse_run(stdout(0.03, 900.0, 0.0351), 0)["minflt"] is None


@pytest.mark.parametrize("text, code, problem", [
    (stdout(0.03, 900.0, 0.03, correct=False), 1, "incorrect (exit 1)"),
    (stdout(0.03, 900.0, 0.03), 1, "incorrect (exit 1)"),
    (stdout(0.03, 900.0, 0.03, failed=3), 0, "3 of 100 ops failed"),
    ("Traceback (most recent call last):\n  ...\nKeyError: 'x'", 1,
     "no result line (exit 1)"),
    ("", 2, "no result line (exit 2)"),
])
def test_a_broken_run_is_named(text, code, problem):
    assert bench_pairs.parse_run(text, code)["problem"] == problem


def test_the_summary_of_five_pairs():
    parent = [(0.030, 1000.0), (0.032, 1010.0), (0.034, 990.0), (0.036, 1000.0), (0.038, 1020.0)]
    # The change's set-up is in the slow heap mode: 60 % slower, beyond
    # the 25 % bound; its throughput wins three pairs and ties one.
    change = [(0.050, 1001.0), (0.052, 1010.0), (0.054, 995.0), (0.056, 1001.0), (0.058, 1000.0)]
    # The change's runs take ten times the parent's minor faults, as a
    # set-up in the slow heap mode does.
    # Canned records: the change's rounds and shuffles fall pair by pair.
    pairs = [(311 + i, bench_pairs.parse_run(stdout(*p, raw=p[0] + 0.001, rounds=1000,
                                                    shuffles=9), 0, minflt=900 + i),
              bench_pairs.parse_run(stdout(*c, raw=c[0] + 0.001, digest="aa" if i else "bb",
                                           rounds=1000 - 100 * i, shuffles=9 - 2 * i), 0,
                                    minflt=9300 + i))
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    setup, ops = summary["metrics"]["setup_s"], summary["metrics"]["wall_ops_per_s"]
    assert setup["parent_median"] == 0.034 and setup["change_median"] == 0.054
    assert (setup["parent_q1"], setup["parent_q3"]) == pytest.approx((0.031, 0.037))
    assert setup["parent_iqr"] == pytest.approx(0.006)
    assert setup["change_vs_parent"] == pytest.approx(0.02 / 0.034)
    assert (setup["change_wins"], setup["ties"], setup["pairs"]) == (0, 0, 5)
    assert setup["within"] is False
    assert ops["change_vs_parent"] == pytest.approx(0.001)
    assert (ops["change_wins"], ops["ties"], ops["within"]) == (3, 1, True)
    assert summary["raw_setup_s"]["change"] == pytest.approx([0.051, 0.053, 0.055, 0.057, 0.059])
    assert summary["minflt"] == {"parent": [900, 901, 902, 903, 904],
                                 "change": [9300, 9301, 9302, 9303, 9304]}
    assert summary["digests_equal"] == [False, True, True, True, True]
    assert summary["simulated"] == {
        "parent": [(1000, 9)] * 5,
        "change": [(1000, 9), (900, 7), (800, 5), (700, 3), (600, 1)]}
    assert summary["problems"] == []
    text = bench_pairs.format_summary("netecho", summary)
    assert "seeds 311-315" in text and "+58.82%" in text and " NO" in text
    assert "raw setup_s parent: 0.0310 0.0330 0.0350 0.0370 0.0390" in text
    assert ("raw setup_s change: 0.0510 0.0530 0.0550 0.0570 0.0590\n"
            "  minor faults change: 9300 9301 9302 9303 9304") in text
    assert ("trace digests equal in 4 of 5 pairs\n"
            "  rounds/shuffles parent: 1000/9 1000/9 1000/9 1000/9 1000/9\n"
            "  rounds/shuffles change: 1000/9 900/7 800/5 700/3 600/1") in text


def test_a_pair_with_a_broken_run_is_reported_and_left_out():
    good = bench_pairs.parse_run(stdout(0.03, 1000.0, 0.03), 0)
    slow = bench_pairs.parse_run(stdout(0.09, 100.0, 0.09), 0)
    broken = bench_pairs.parse_run("", 2)
    summary = bench_pairs.summarize([(1, good, good), (2, slow, broken)], END_TO_END)
    assert summary["metrics"]["setup_s"]["pairs"] == 1
    assert summary["metrics"]["setup_s"]["change_vs_parent"] == 0.0
    assert summary["problems"] == ["seed 2 change: no result line (exit 2)"]
    assert summary["raw_setup_s"]["change"] == [0.03, None]
    assert summary["minflt"]["change"] == [None, None]
    assert summary["simulated"]["change"] == [(7, 0), (None, None)]
    text = bench_pairs.format_summary("kv_mixed", summary)
    assert "minor faults change: - -" in text
    assert "rounds/shuffles change: 7/0 -" in text
    assert "PROBLEM seed 2 change" in bench_pairs.format_summary("kv_mixed", summary)
