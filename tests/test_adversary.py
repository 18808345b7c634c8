from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oblivsim
from oblivsim import adversary
from oblivsim import (
    CallKind,
    HostCallEvent,
    HostTrace,
    InsufficientDataError,
    ParameterError,
    TraceConfigMismatch,
    compare_traces,
    disk_offsets_within,
    rate_report,
    uniformity_test,
)

META = {"interval_ns": 100_000, "mtu": 1500}


def trace_of(events, meta=META):
    t = HostTrace(meta=dict(meta))
    for e in events:
        t.record(e)
    return t


def ev(ts, kind, offset=0, length=4096):
    return HostCallEvent(ts, kind, offset, length)


# Uniformity -----------------------------------------------------------


def test_uniform_draws_pass_at_the_stated_alpha():
    # Calibration oracle: genuinely uniform data must pass the test at
    # alpha 0.01 nearly always; a miscalibrated statistic would not.
    rng = np.random.default_rng(1234)
    domain = range(512)
    passes = sum(
        uniformity_test(rng.integers(0, 512, 10_000).tolist(), domain).p_value > 0.01
        for _ in range(100))
    assert passes >= 95


def test_skewed_draws_fail_decisively():
    rng = np.random.default_rng(99)
    domain = range(512)
    samples = (rng.integers(0, 512, 5000).tolist()
               + rng.integers(0, 128, 5000).tolist())
    assert uniformity_test(samples, domain).p_value < 1e-9


def test_pooling_keeps_expected_counts_above_the_floor():
    rng = np.random.default_rng(7)
    # 1000 samples over 512 values: groups of 3, and the 2-wide tail
    # bin (expecting 3.9) is merged into its neighbor.
    result = uniformity_test(rng.integers(0, 512, 1000).tolist(), range(512))
    assert result.n_bins == 170
    assert result.n_samples == 1000
    # At 5 expected per value no pooling happens at all.
    result = uniformity_test(rng.integers(0, 512, 2560).tolist(), range(512))
    assert result.n_bins == 512


def test_uniformity_input_validation():
    with pytest.raises(ParameterError):
        uniformity_test([1] * 2000, [1])
    with pytest.raises(InsufficientDataError):
        uniformity_test([1, 2] * 400, [1, 2])
    with pytest.raises(ParameterError):
        uniformity_test([1, 2, 99] * 400, [1, 2])
    # The floor is inclusive: 1000 samples are enough, and leave every
    # value of a small domain its own bin.
    result = uniformity_test([1, 2, 3, 1] * 250, [1, 2, 3])
    assert (result.n_samples, result.n_bins) == (1000, 3)
    assert result.p_value < 0.01


# Shape comparison -----------------------------------------------------


def test_identical_shapes_compare_equal():
    a = trace_of([ev(0, CallKind.DISK_READ, offset=4096),
                  ev(0, CallKind.DISK_WRITE, offset=8192)])
    b = trace_of([ev(0, CallKind.DISK_READ, offset=12288),
                  ev(0, CallKind.DISK_WRITE, offset=4096)])
    verdict = compare_traces(a, b)
    assert verdict and verdict.shape_equal
    assert verdict.first_divergence is None
    # Offsets are not part of the shape projection, so they may differ
    # freely; the uniformity test judges them.


def test_shape_divergence_is_located():
    a = trace_of([ev(0, CallKind.DISK_READ), ev(100, CallKind.DISK_WRITE)])
    b = trace_of([ev(0, CallKind.DISK_READ), ev(200, CallKind.DISK_WRITE)])
    verdict = compare_traces(a, b)
    assert not verdict
    assert verdict.first_divergence == 1
    assert "event 1" in verdict.detail


def test_length_mismatch_is_reported():
    a = trace_of([ev(0, CallKind.DISK_READ)])
    b = trace_of([ev(0, CallKind.DISK_READ), ev(1, CallKind.DISK_READ)])
    verdict = compare_traces(a, b)
    assert not verdict
    assert verdict.first_divergence == 1
    assert "lengths differ" in verdict.detail


def test_different_configurations_refuse_to_compare():
    a = trace_of([], meta={"interval_ns": 100_000})
    b = trace_of([], meta={"interval_ns": 200_000})
    with pytest.raises(TraceConfigMismatch):
        compare_traces(a, b)


def test_disk_offsets_within_keeps_disk_events_in_the_set():
    t = trace_of([
        ev(0, CallKind.DISK_READ, offset=4096),
        ev(0, CallKind.DISK_READ, offset=8192),
        ev(0, CallKind.NET_WRITE, offset=0, length=1500),  # endpoint 0, not disk
        ev(100, CallKind.DISK_WRITE, offset=12288),
        ev(200, CallKind.DISK_READ, offset=4096),
    ])
    assert disk_offsets_within(t, [0, 4096, 12288]) == [4096, 12288, 4096]
    assert disk_offsets_within(t, []) == []


def test_the_analyzer_imports_only_the_trace_and_its_errors():
    # Blind by construction: the analyzer cannot reach trusted-side state
    # (scheduler counters, the filesystem's padding set) because it never
    # imports the modules that hold it.
    tree = ast.parse(inspect.getsource(adversary))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or 0) > 0:
            local.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) \
                else [node.module]
            assert not any(n.split(".")[0] == "oblivsim" for n in names)
    assert local == {"trace", "errors"}


_IMPORT_PROBE = """
import json, sys
import oblivsim, oblivsim.cli, oblivsim.engine
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy"))
oblivsim.uniformity_test(list(range(10)) * 100, range(10))
print(json.dumps([heavy, "scipy.stats" in sys.modules]))
"""


def test_the_runtime_imports_no_scipy_until_the_analyzer_runs():
    # The runtime needs only cryptography; scipy (and the numpy under it)
    # is the analyzer's, loaded by its first chi-square. A fresh
    # interpreter keeps modules loaded by this suite out of the count.
    src = str(Path(oblivsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    heavy, stats_loaded = json.loads(out)
    assert heavy == []
    assert stats_loaded


# Rate accounting ------------------------------------------------------


def test_rate_report_buckets_by_endpoint_and_window():
    t = trace_of([
        ev(0, CallKind.NET_WRITE, offset=0, length=1500),
        ev(100, CallKind.NET_WRITE, offset=0, length=1500),
        ev(1_000_000_005, CallKind.NET_WRITE, offset=0, length=1500),
        ev(2_200_000_000, CallKind.NET_WRITE, offset=1, length=1500),
        ev(50, CallKind.DISK_WRITE, offset=4096),  # not network traffic
    ])
    report = rate_report(t)
    assert sorted(report) == [0, 1]
    assert report[0].bytes_per_window == (3000, 1500, 0)
    assert report[1].bytes_per_window == (0, 0, 1500)
    assert report[0].mean_bps == pytest.approx(4500 * 8 / 3)


def test_rate_report_edge_cases():
    assert rate_report(trace_of([])) == {}
    # Windows run to the end of the one holding the last write.
    last = rate_report(trace_of([ev(999_999_999, CallKind.NET_WRITE, length=1500)]))
    assert last[0].bytes_per_window == (1500,)
    assert last[0].mean_bps == 1500 * 8
