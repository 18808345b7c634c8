"""Self-tests of the benchmark itself (not of the simulator):

    python3 -m pytest benchmarks -q

Tiny-size runs of every workload, untraced and traced; the printed
metric names against BENCHMARK.json; the gates on deliberately broken
runs; and a tampered image, whose bad block must come out as a counted
failed op rather than a crash.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import spec  # noqa: E402
from workloads import WORKLOADS, KvMixed, NetEcho, RandReadShuffle, mount_engine  # noqa: E402

from oblivsim.engine import ImageBundle  # noqa: E402

TINY = {
    "randread_shuffle": lambda seed: RandReadShuffle(seed, n_blocks=256, file_blocks=64),
    "kv_mixed": lambda seed: KvMixed(seed, n_blocks=1024, file_blocks=128, n_keys=500),
    "netecho": lambda seed: NetEcho(seed, n_blocks=256, data_blocks=2),
}
TINY_OPS = 300


@pytest.mark.parametrize("name", TINY)
def test_tiny_run_is_correct_and_reports_every_metric(name):
    r = harness.run_pass(TINY[name](1), TINY_OPS, setups=2)
    assert r.correct, r.violations
    assert r.attempted == TINY_OPS and r.failed == 0
    metrics = harness.end_to_end(r)
    assert list(metrics) == spec.END_TO_END
    assert all(v > 0 for v in metrics.values()), metrics
    if name == "netecho":
        assert r.counters["net_real"] == TINY_OPS
        assert r.counters["real_reads"] == r.counters["real_writes"] == 0
    else:
        assert r.counters["shuffles"] > 0


@pytest.mark.parametrize("name", TINY)
def test_one_seed_simulates_one_run(name):
    first = harness.simulated(harness.run_pass(TINY[name](5), TINY_OPS))
    again = harness.simulated(harness.run_pass(TINY[name](5), TINY_OPS))
    other = harness.simulated(harness.run_pass(TINY[name](6), TINY_OPS))
    assert first == again
    assert first["trace_sha256"] != other["trace_sha256"]


@pytest.mark.parametrize("name", TINY)
def test_traced_run_reports_every_layer(name, tmp_path):
    spans = tmp_path / "spans.bin"
    untraced, traced, metrics, written = harness.run_traced(TINY[name](2), TINY_OPS, spans)
    assert untraced.correct and traced.correct
    assert untraced.counters == traced.counters
    assert untraced.sha256 == traced.sha256
    assert set(metrics) == set(spec.PER_LAYER)
    assert metrics["sched.rounds"] == traced.counters["rounds"]
    assert metrics["hostiface.disk_calls"] == metrics["trace.events"] - metrics["hostiface.net_calls"]
    assert 0 <= metrics["unattributed_frac"] < 0.2
    assert metrics["setup.build_image_s"] > metrics["setup.persist_s"] > 0
    with open(spans, "rb") as fh:
        header = json.loads(fh.readline())
        assert header["count"] == written > metrics["trace.events"]
        arrays = {}
        for field, typecode in header["fields"]:
            arrays[field] = array(typecode)
            arrays[field].fromfile(fh, written)
        assert fh.read() == b""
    ends = [s + d for s, d in zip(arrays["start_ns"], arrays["dur_ns"])]
    assert ends == sorted(ends)
    assert {header["names"][i] for i in arrays["name"]} >= {"RoundScheduler.run_round"}
    if name == "netecho":
        assert metrics["channel.frames_sealed"] > 0 and metrics["shaper.ticks"] > 0
        assert metrics["pagecache.misses"] == metrics["shuffle.count"] == 0
    else:
        assert metrics["shuffle.count"] == traced.counters["shuffles"] > 0
        assert metrics["pagecache.misses"] > 0 and metrics["channel.frames_sealed"] == 0
        assert 0 < metrics["shuffle.round_share"] < 1


def test_workloads_are_the_ones_benchmark_json_declares():
    assert spec.WORKLOADS == list(TINY) == list(WORKLOADS)


def test_cli_prints_the_end_to_end_metrics_of_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "netecho", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_OPS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "netecho", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _TamperedRandRead(RandReadShuffle):
    """Flips one ciphertext byte of the block the first op reads."""

    def build(self):
        bundle = super().build()
        m = mount_engine(bundle, self.seed)
        lblk = next(self.ops(1))
        phys = m.engine.fs.phys_of(m.engine.regular_fd(0), lblk)
        image = bytearray(bundle.image)
        image[m.engine.store.layout.data_offset(phys)] ^= 0x01
        return ImageBundle(bytes(image), bundle.key, bundle.verity_root, bundle.data_fds)


def test_flipped_ciphertext_is_a_failed_op_not_a_crash():
    r = harness.run_pass(_TamperedRandRead(4, n_blocks=256, file_blocks=64), TINY_OPS)
    assert 1 <= r.failed < r.attempted
    assert not r.correct
    assert harness.end_to_end(r)["wall_ops_per_s"] > 0


def test_cadence_gate_catches_an_extra_disk_call():
    m = TINY["netecho"](1).mount(TINY["netecho"](1).build())
    audit = harness.TraceAudit(m)
    m.engine.run_rounds(3)
    m.engine.iface.disk_read(0)
    audit.close(m.engine.rounds_done)
    assert audit.violations and audit.violations[0].startswith("cadence")


def test_rate_gate_catches_a_missing_frame():
    wl = TINY["netecho"](1)
    r = harness.run_pass(wl, 50)
    assert r.correct

    class Short:
        net_writes = r.m.link.session.sent_real + r.m.link.session.sent_dummy - 2
        net_reads = net_writes + 2

    problems, lost = wl.gate(r.m, Short)
    assert lost == 0 and len(problems) == 1 and "sent" in problems[0]
