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


def stdout(setup_s, ops, raw, digest="aa", correct=True, failed=0, rounds=7, shuffles=0,
           attempted=100, **record):
    """What ``benchmarks/run.py`` prints, trimmed to the lines the tool
    reads; ``record`` adds fields to the simulated record."""
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                          "wall_ops_per_s": {"value": ops, "unit": "1/s"}}}
    return "\n".join([
        "netecho: seed 1, 100 ops, closed loop, 1 client, untraced",
        f"  {'setup_s':34s} {setup_s:>16} s      host, ref, lower is better",
        f"  {'raw.setup_s':34s} {raw:>16} s      host, raw (not bounded)",
        "  simulated record: " + json.dumps({"rounds": rounds, "shuffles": shuffles,
                                             "trace_sha256": digest, **record},
                                            sort_keys=True),
        "  gates: 0 of 100 ops failed, 0 cadence/rate violations",
        json.dumps(result)])


def test_a_run_is_parsed_from_its_lines():
    run = bench_pairs.parse_run(stdout(0.03, 900.0, 0.0351), 0, minflt=4137)
    assert run == {"metrics": {"setup_s": 0.03, "wall_ops_per_s": 900.0},
                   "raw_setup_s": 0.0351,
                   "record": {"rounds": 7, "shuffles": 0, "trace_sha256": "aa"},
                   "minflt": 4137, "attempted": 100, "problem": None}
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
    assert setup["verdict"] == "NO"
    assert ops["change_vs_parent"] == pytest.approx(0.001)
    assert (ops["change_wins"], ops["ties"], ops["verdict"]) == (3, 1, "within")
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


_SPREAD = [0.030 + 0.001 * i for i in range(10)]  # IQR 0.0055, median 0.0345
_WIDE = [0.010, 0.011, 0.012, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09]  # IQR 0.061


@pytest.mark.parametrize("parent, change, verdict", [
    # Ten of ten pairs won, medians 0.01 apart: wider than the IQR.
    (_SPREAD, [x - 0.01 for x in _SPREAD], "gain"),
    # Nine won and one tied is still nine tenths.
    (_SPREAD, [x - 0.01 for x in _SPREAD[:9]] + _SPREAD[9:], "gain"),
    # Eight won and two tied is not: ties count for neither side.
    (_SPREAD, [x - 0.01 for x in _SPREAD[:8]] + _SPREAD[8:], "within"),
    # Ten won, but the medians are only 0.001 apart, inside the IQR.
    (_SPREAD, [x - 0.001 for x in _SPREAD], "within"),
    # 20 % slower: worse, but inside the 25 % bound.
    (_SPREAD, [x * 1.2 for x in _SPREAD], "within"),
    # 30 % slower: beyond the bound.
    (_SPREAD, [x * 1.3 for x in _SPREAD], "NO"),
    # The parent's IQR (0.061) is wider than 25 % of its median
    # (0.045): no move can be told, better or worse.
    (_WIDE, list(reversed(_WIDE)), "unresolved"),
    (_WIDE, [x * 2 for x in _WIDE], "unresolved"),
    # ... unless every change run beats every parent run; the medians
    # are still inside the IQR, so it is no gain.
    (_WIDE, [0.009] * 10, "within"),
])
def test_each_verdict_follows_from_the_runs(parent, change, verdict):
    pairs = [(i, bench_pairs.parse_run(stdout(p, 1000.0, p), 0),
              bench_pairs.parse_run(stdout(c, 1000.0, c), 0))
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["metrics"]["setup_s"]["verdict"] == verdict
    assert summary["metrics"]["wall_ops_per_s"]["verdict"] == "within"
    row = next(line for line in bench_pairs.format_summary("netecho", summary).splitlines()
               if line.startswith("  setup_s"))
    assert row.endswith(f"  {verdict}")


def test_a_broken_pair_counts_against_a_gain():
    # Nine pairs of ten won, but one pair broke: nine of ten pairs run
    # still is a gain, eight of ten is not.
    good = [(i, bench_pairs.parse_run(stdout(p, 1000.0, p), 0),
             bench_pairs.parse_run(stdout(p - 0.01, 1000.0, p), 0))
            for i, p in enumerate(_SPREAD)]
    broken = bench_pairs.parse_run("", 2)
    one = good[:9] + [(9, good[9][1], broken)]
    two = good[:8] + [(8, good[8][1], broken), (9, good[9][1], broken)]
    assert bench_pairs.summarize(one, END_TO_END)["metrics"]["setup_s"]["verdict"] == "gain"
    assert bench_pairs.summarize(two, END_TO_END)["metrics"]["setup_s"]["verdict"] == "within"


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
    assert summary["record_moves"] == {}
    text = bench_pairs.format_summary("kv_mixed", summary)
    assert "record moves: none" in text
    assert "minor faults change: - -" in text
    assert "rounds/shuffles change: 7/0 -" in text
    assert "PROBLEM seed 2 change" in bench_pairs.format_summary("kv_mixed", summary)


def test_record_fields_that_move_are_listed_with_their_first_pair():
    # Reads move from padding to real in the change while rounds and
    # shuffles stay; the digests differ in every pair and are not listed.
    def run(seed, side, real, dummy):
        return bench_pairs.parse_run(stdout(0.03, 900.0, 0.03, digest=f"{side}{seed}",
                                            rounds=1000, shuffles=9, real_reads=real,
                                            dummy_reads=dummy, cache_hits=40), 0)
    pairs = [(1, run(1, "p", 700, 300), run(1, "c", 700, 300)),
             (2, run(2, "p", 710, 290), run(2, "c", 966, 34)),
             (3, run(3, "p", 720, 280), run(3, "c", 976, 24)),
             (4, run(4, "p", 730, 270), bench_pairs.parse_run("", 2))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["record_moves"] == {
        "dummy_reads": {"seed": 2, "parent": 290, "change": 34},
        "real_reads": {"seed": 2, "parent": 710, "change": 966}}
    assert summary["digests_equal"] == [False] * 4
    text = bench_pairs.format_summary("randread_shuffle", summary)
    assert ("  record dummy_reads: parent 290 change 34 (seed 2)\n"
            "  record real_reads: parent 710 change 966 (seed 2)\n") in text
    assert "record rounds" not in text and "record trace_sha256" not in text


def test_each_runs_digest_is_kept_per_side_in_seed_order():
    # Whole in the summary and the JSON, 8 hex digits in the text, "-" for
    # a run that printed no record.
    p1, c1, p2 = "12345678" + "a" * 56, "9abcdef0" + "b" * 56, "0fedcba9" + "c" * 56
    pairs = [(1, bench_pairs.parse_run(stdout(0.03, 900.0, 0.03, digest=p1), 0),
              bench_pairs.parse_run(stdout(0.03, 900.0, 0.03, digest=c1), 0)),
             (2, bench_pairs.parse_run(stdout(0.03, 900.0, 0.03, digest=p2), 0),
              bench_pairs.parse_run("", 2))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["digests"] == {"parent": [p1, p2], "change": [c1, None]}
    assert json.loads(json.dumps(summary))["digests"] == summary["digests"]
    assert summary["digests_equal"] == [False, False]
    text = bench_pairs.format_summary("netecho", summary)
    assert ("  digests parent: 12345678 0fedcba9\n"
            "  digests change: 9abcdef0 -\n"
            "  trace digests equal in 0 of 2 pairs\n") in text


def test_each_side_splits_its_yardstick_into_rounds_and_us_per_op():
    # The change runs fewer rounds per op, each op a little cheaper: µs
    # per round rises because the rounds got fewer, not dearer. Medians
    # are over each side's sound runs; a broken run is left out.
    parent = [bench_pairs.parse_run(stdout(0.03, ops, 0.03, rounds=rounds, attempted=1000), 0)
              for ops, rounds in ((1000.0, 3400), (800.0, 3300), (1250.0, 3500))]
    change = [bench_pairs.parse_run(stdout(0.03, ops, 0.03, rounds=rounds, attempted=1000), 0)
              for ops, rounds in ((1250.0, 2100), (1000.0, 2200), (2000.0, 2000))]
    change[2]["problem"] = "incorrect (exit 1)"
    summary = bench_pairs.summarize(
        [(seed, p, c) for seed, p, c in zip((1, 2, 3), parent, change)], END_TO_END)
    assert summary["per_op"]["parent"] == pytest.approx({"rounds": 3.4, "us": 1000.0})
    assert summary["per_op"]["change"] == pytest.approx({"rounds": 2.15, "us": 900.0})
    assert json.loads(json.dumps(summary))["per_op"] == summary["per_op"]
    text = bench_pairs.format_summary("kv_mixed", summary)
    assert ("  per op parent: 3.4 rounds, 1000 us (ref)\n"
            "  per op change: 2.15 rounds, 900 us (ref)\n"
            "  per op change vs parent: rounds -36.76%, us -10.00%\n") in text


def test_a_side_with_no_sound_run_has_no_per_op_split():
    broken = bench_pairs.parse_run("", 2)
    good = bench_pairs.parse_run(stdout(0.03, 500.0, 0.03, rounds=900, attempted=300), 0)
    summary = bench_pairs.summarize([(1, good, broken)], END_TO_END)
    assert summary["per_op"] == {"parent": {"rounds": 3.0, "us": 2000.0},
                                 "change": {"rounds": None, "us": None}}
    text = bench_pairs.format_summary("kv_mixed", summary)
    assert "  per op change: - rounds, - us (ref)\n" in text
    assert "per op change vs parent" not in text


def test_the_fault_lines_say_they_count_the_whole_run():
    run = bench_pairs.parse_run(stdout(0.03, 900.0, 0.03), 0, minflt=250_000)
    text = bench_pairs.format_summary("kv_mixed", bench_pairs.summarize([(1, run, run)],
                                                                       END_TO_END))
    assert ("  minor faults parent: 250000  (whole run; per set-up: "
            "tools/setup_faults.py)") in text
