"""The benchmark drives ``oblivsim`` through its constructors and calls
(``benchmarks/workloads.py``, ``benchmarks/harness.py``), but the
tier-1 suite does not collect ``benchmarks/``. A change in ``src/`` that
breaks a workload's set-up or its ops would otherwise show only when the
benchmark itself runs, so every workload runs here at the tiny sizes of
``benchmarks/test_benchmark.py``, untraced and traced, and each disk
workload once more at sizes that hold a shuffle pass."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from oblivsim.blockfs import FLAG_REGULAR

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
_MODULES = ("harness", "tracing", "workloads")
OPS = 50


@pytest.fixture(scope="module")
def bench():
    """``harness`` and ``workloads`` from this checkout's ``benchmarks/``;
    ``sys.path`` and the modules they replace are restored afterwards."""
    saved = {name: sys.modules.pop(name, None) for name in _MODULES}
    path = list(sys.path)
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield importlib.import_module("harness"), importlib.import_module("workloads")
    finally:
        sys.path[:] = path
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


TINY = {
    "randread_shuffle": lambda w, seed: w.RandReadShuffle(seed, n_blocks=256, file_blocks=64),
    "kv_mixed": lambda w, seed: w.KvMixed(seed, n_blocks=1024, file_blocks=128, n_keys=500),
    "netecho": lambda w, seed: w.NetEcho(seed, n_blocks=256, data_blocks=2),
}

# TINY's disk files fit their shelters, so no pass runs there. These
# files are larger than the 384-page shelter: each run holds a pass.
PASS_SIZES = {
    "randread_shuffle": (
        lambda w, seed: w.RandReadShuffle(seed, n_blocks=1024, file_blocks=512), 1000),
    "kv_mixed": (
        lambda w, seed: w.KvMixed(seed, n_blocks=1024, file_blocks=512, n_keys=20_000),
        1500),
}


def test_every_workload_is_sized_here(bench):
    assert list(TINY) == list(bench[1].WORKLOADS)


@pytest.mark.parametrize("name", TINY)
def test_each_workload_runs_correctly_traced_and_untraced(bench, name, tmp_path):
    harness, workloads = bench
    plain = harness.run_pass(TINY[name](workloads, 1), OPS)
    untraced, traced, _metrics, _written = harness.run_traced(
        TINY[name](workloads, 1), OPS, tmp_path / "spans")
    for r in (plain, untraced, traced):
        assert r.correct, r.violations
        assert (r.attempted, r.failed) == (OPS, 0)
    assert plain.counters == untraced.counters == traced.counters
    assert plain.sha256 == untraced.sha256 == traced.sha256


@pytest.mark.parametrize("name", PASS_SIZES)
def test_a_disk_workload_larger_than_its_shelter_runs_a_pass(bench, name, tmp_path):
    harness, workloads = bench
    make, ops = PASS_SIZES[name]
    untraced, traced, metrics, _written = harness.run_traced(
        make(workloads, 1), ops, tmp_path / "spans")
    for r in (untraced, traced):
        assert r.correct, r.violations
        assert (r.attempted, r.failed) == (ops, 0)
    fs = traced.m.engine.fs
    blocks = sum(fs.file_blocks(fd) for fd in fs.files_with_flag(FLAG_REGULAR))
    assert traced.m.engine.cache.capacity < blocks
    assert untraced.counters["shuffles"] > 0
    assert metrics["shuffle.count"] == traced.counters["shuffles"]
    assert untraced.counters == traced.counters
    assert untraced.sha256 == traced.sha256


def test_an_idle_disk_under_netecho_has_a_closed_form(bench):
    # netecho never touches the disk, so its rounds are epochs of C and
    # passes of L, one after the other: over at least three full cycles
    # of C + L rounds a run holds rounds // (C + L) passes, and each pass
    # reads and writes every file block once. A pass the run's end cuts
    # is not counted.
    harness, workloads = bench
    r = harness.run_pass(TINY["netecho"](workloads, 1), 520)
    assert r.correct, r.violations
    engine, fs = r.m.engine, r.m.engine.fs
    capacity = engine.cache.capacity
    blocks = sum(fs.file_blocks(fd) for fd in fs.files_with_flag(FLAG_REGULAR))
    rounds, shuffles = r.counters["rounds"], r.counters["shuffles"]
    assert rounds >= 3 * (capacity + blocks)
    assert shuffles == rounds // (capacity + blocks)
    assert r.counters["real_reads"] == r.counters["real_writes"] == shuffles * blocks
