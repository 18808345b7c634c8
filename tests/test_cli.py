"""End-to-end runs of every subcommand through ``main``."""

from __future__ import annotations

import csv
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import DEFAULT_KEY, mount, retired_mode_header
from oblivsim import (
    BUDGET_PAGES,
    RECORD_SIZE,
    CallKind,
    ImageBundle,
    ProtectionMode,
    ProvisioningSecrets,
    StaticIdentity,
    layout_for,
    parse_trace,
)
from oblivsim.cli import SUMMARY_COLUMNS, main

KEY_HEX = DEFAULT_KEY.hex()
PAYLOAD = bytes(range(256)) * 50  # 12800 bytes, 4 blocks
BLANK_LEN = 8192


def cli(*argv) -> int:
    return main([str(a) for a in argv])


def open_image(path, key=None, root=None, seed=1):
    bundle = ImageBundle(Path(path).read_bytes(), key, root, ())
    return mount(bundle, seed=seed, oblivious=False)


@pytest.fixture(scope="module")
def image(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("images")
    src = d / "payload.bin"
    src.write_bytes(PAYLOAD)
    img = d / "disk.img"
    rc = cli("create-image", "--out", img, "--blocks", 64, "--key", KEY_HEX,
             "--seed", 1, "--add", src, "--blank", BLANK_LEN)
    assert rc == 0
    return img


# --- create-image ------------------------------------------------------------


def test_python_dash_m_runs_the_cli_from_a_source_checkout(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH="src")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "oblivsim", *argv], cwd=root,
                              env=env, capture_output=True, text=True)

    shown = run("--help")
    assert shown.returncode == 0 and "create-image" in shown.stdout
    # main()'s own return code comes back: 2 for an image it cannot open.
    failed = run("fsck", "--image", str(tmp_path / "missing.img"))
    assert failed.returncode == 2 and failed.stderr.startswith("error:")


def test_the_cache_k_help_names_the_budget(capsys):
    with pytest.raises(SystemExit):
        cli("run", "--help")
    shown = " ".join(capsys.readouterr().out.split())
    assert f"(default: the disk's block count, at most {BUDGET_PAGES})" in shown
    assert "--round-interval" not in shown  # every round is 0.1 ms


def test_create_image_reports_the_remounted_layout(tmp_path, capsys):
    src = tmp_path / "a.bin"
    src.write_bytes(b"hello" * 1000)
    img = tmp_path / "a.img"
    rc = cli("create-image", "--out", img, "--blocks", 32, "--key", KEY_HEX,
             "--add", src)
    out = capsys.readouterr().out
    assert rc == 0
    assert img.stat().st_size > 32 * 4096
    assert f"image: {img}" in out
    assert "mode: crypt-integrity" in out
    assert "\ndummy blocks: 3  free blocks: 24\nfiles: 1 data\n" in out
    assert f"data file 0: fd 0, 5000 bytes, from {src}" in out
    assert f"key: {KEY_HEX}" in out
    root = bytes.fromhex(out.split("verity root: ")[1].strip())
    m = open_image(img, key=DEFAULT_KEY, root=root)
    assert m.engine.read_file(m.engine.regular_fd(0), 0, 5000) == b"hello" * 1000


def test_create_image_plain_needs_no_secrets(tmp_path, capsys):
    img = tmp_path / "p.img"
    rc = cli("create-image", "--out", img, "--blocks", 16, "--mode", "plain")
    out = capsys.readouterr().out
    assert rc == 0
    assert "key: " not in out and "verity root" not in out


# --- run ----------------------------------------------------------------------


def test_run_writes_trace_and_summary(image, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli("run", "--image", image, "--key", KEY_HEX, "--seed", 1,
             "--workload", "seqread(0,0)", "--out", out)
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "workload: seqread(0,0)  (completed)" in stdout
    assert "goodput_sim_bytes_per_s: " in stdout

    lines = (out / "trace.log").read_text().splitlines()
    assert lines and all(len(l.split(",")) == 4 for l in lines)
    kinds = {l.split(",")[1] for l in lines}
    assert {"disk_read", "disk_write"} <= kinds

    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert list(rows[0]) == SUMMARY_COLUMNS
    assert int(rows[0]["real_reads"]) >= 4


def test_run_pads_to_the_requested_rounds(image, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli("run", "--image", image, "--key", KEY_HEX, "--seed", 1,
             "--workload", "idle(10)", "--rounds", 50, "--out", out)
    capsys.readouterr()
    assert rc == 0
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert int(row["rounds"]) == 50
    assert int(row["real_reads"]) + int(row["dummy_reads"]) == 50
    assert int(row["real_writes"]) + int(row["dummy_writes"]) == 50


def test_run_assert_oblivious_passes_on_the_protected_path(image, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli("run", "--image", image, "--key", KEY_HEX, "--seed", 3,
             "--workload", "randread(0,30)", "--rounds", 200,
             "--assert-oblivious", "--out", out)
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "PASS shape: " in stdout
    verdict = (out / "verdict.txt").read_text()
    assert verdict.startswith("PASS shape")
    assert "padding-target uniformity" in verdict
    baseline = (out / "baseline.log").read_text().splitlines()
    trace = (out / "trace.log").read_text().splitlines()
    assert len(baseline) == len(trace)


def test_assert_oblivious_on_a_one_block_padding_domain_skips_uniformity(tmp_path, capsys):
    # 16 blocks leave one padding block: uniformity has nothing to test,
    # and the shape verdict alone sets the exit status.
    src, img, out = tmp_path / "payload.bin", tmp_path / "disk.img", tmp_path / "run"
    src.write_bytes(PAYLOAD)
    assert cli("create-image", "--out", img, "--blocks", 16, "--key", KEY_HEX,
               "--seed", 1, "--add", src) == 0
    assert "dummy blocks: 1 " in capsys.readouterr().out
    rc = cli("run", "--image", img, "--key", KEY_HEX, "--seed", 3,
             "--workload", "randread(0,20)", "--rounds", 200,
             "--assert-oblivious", "--out", out)
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "PASS shape: " in stdout
    verdict = (out / "verdict.txt").read_text().splitlines()
    assert verdict[0].startswith("PASS shape")
    assert verdict[1] == ("INFO padding-target uniformity: skipped "
                          "(uniformity needs a domain of at least two values)")


def test_assert_oblivious_reports_the_padding_targets_p_value(tmp_path, capsys):
    # 256 blocks leave 25 padding blocks, and 1000 rounds give the test
    # every padding call of the run as a sample, one bin per block. The
    # p-value is information: the shape verdict alone sets the exit status.
    src, img, out = tmp_path / "payload.bin", tmp_path / "disk.img", tmp_path / "run"
    src.write_bytes(bytes(40_000))
    assert cli("create-image", "--out", img, "--blocks", 256, "--key", KEY_HEX,
               "--seed", 1, "--add", src) == 0
    assert "dummy blocks: 25 " in capsys.readouterr().out
    rc = cli("run", "--image", img, "--key", KEY_HEX, "--seed", 3,
             "--workload", "randread(0,200)", "--rounds", 1000,
             "--assert-oblivious", "--out", out)
    stdout = capsys.readouterr().out
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    padding = int(row["dummy_reads"]) + int(row["dummy_writes"])
    verdict = (out / "verdict.txt").read_text().splitlines()
    assert rc == 0 and verdict[0] == "PASS shape: 2000 events, identical shape"
    info = re.fullmatch(r"INFO padding-target uniformity: p=(\d\.\d{4}) "
                        rf"over {padding} samples, 25 bins", verdict[1])
    assert info is not None and 0 <= float(info[1]) <= 1
    assert stdout.endswith("".join(line + "\n" for line in verdict))


def test_assert_oblivious_flags_the_passthrough_path(image, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli("run", "--image", image, "--key", KEY_HEX, "--seed", 1,
             "--mode", "passthrough", "--workload", "seqread(0,0)",
             "--assert-oblivious", "--out", out)
    stdout = capsys.readouterr().out
    assert rc == 1
    assert "FAIL shape: " in stdout
    assert (out / "verdict.txt").read_text().startswith("FAIL shape")


@pytest.mark.parametrize("argv", [
    ("run", "--image", "{img}", "--workload", "idle(1)", "--ground-truth"),
    ("run", "--image", "{img}", "--workload", "idle(1)", "--eager-shuffle-at", 2),
    ("create-image", "--out", "{img}", "--blocks", 64, "--dummy-fraction", 0.2),
    ("bench", "--image", "{img}", "--round-interval", 200_000),
    ("run", "--image", "{img}", "--workload", "idle(1)", "--round-interval", 200_000),
])
def test_retired_options_are_refused(argv, tmp_path, capsys):
    img = tmp_path / "x.img"
    with pytest.raises(SystemExit) as exc:
        cli(*(str(a).format(img=img) for a in argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("run", "--workload", "idle(5)", "--rounds", -3, "--out", "{out}"),
    ("run", "--workload", "idle(5)", "--rounds", 0, "--out", "{out}"),
    ("bench", "--workload", "idle(5)", "--repeat", 0),
])
def test_counts_must_be_positive(argv, image, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli(*(str(a).format(out=tmp_path) for a in argv),
            "--image", image, "--key", KEY_HEX)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--blocks", -4), "at least 8 blocks"),
    (("--blocks", 0), "at least 8 blocks"),
    (("--blocks", 64, "--blank", -5), "not a negative number"),
    (("--blocks", 64, "--max-files", -2), "max_files -2,"),
    (("--blocks", 64, "--max-file-blocks", -3), "max_file_blocks -3:"),
    (("--blocks", 64, "--key", "abcd"), "32-byte key"),
    (("--blocks", 64, "--mode", "plain", "--key", KEY_HEX), "a plain image takes no key"),
])
def test_create_image_refuses_negative_sizes(argv, message, tmp_path, capsys):
    img = tmp_path / "x.img"
    rc = cli("create-image", "--out", img, *argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: " in captured.err and message in captured.err
    assert not img.exists()


@pytest.mark.parametrize("argv, option", [
    (("fsck", "--image", "{image}", "--key", "zz"), "--key"),
    (("create-image", "--out", "{out}", "--blocks", 64, "--key", "zz"), "--key"),
    (("run", "--image", "{image}", "--key", KEY_HEX, "--verity-root", "0g",
      "--workload", "idle(5)", "--out", "{out}"), "--verity-root"),
    (("provision", "--peer", "zz,addr"), "--peer"),
    (("provision", "--peer", "ab" * 32 + ",addr,fast"), "--peer"),
    (("provision", "--peer", "ab" * 32 + ",addr,-5"), "--peer"),
    (("provision", "--peer", "ab" * 32 + ",addr,0"), "--peer"),
    (("provision", "--peer", "ab" * 32 + f",addr,{2**64}"), "--peer"),
    (("provision", "--key", "abcd"), "--key"),
    (("provision", "--verity-root", "abcd"), "--verity-root"),
    (("provision", "--arg", "x" * 70_000), "exec arg length"),
    (("provision", "--exec-path", "x" * 70_000), "exec path length"),
    (("provision", *["--arg", "a"] * 65_536), "exec arg count is 65536"),
    (("run", "--image", "{image}", "--key", KEY_HEX, "--peer", 24_000_000_000_000,
      "--workload", "idle(5)", "--out", "{out}"), "rate_bps 24000000000000"),
    (("create-image", "--out", "{out}", "--blocks", 64, "--mode", "verity"), "--mode"),
    (("provision", "--arg", "\udcff"), "exec arg is not UTF-8"),
])
def test_malformed_option_is_a_usage_error(argv, option, image, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli(*(str(a).format(image=image, out=out) for a in argv))
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error: {option}" in captured.err
    assert "Traceback" not in captured.err


def test_an_arg_count_over_the_record_limit_is_refused_before_parsing(capsys):
    # argparse takes time quadratic in a repeated option's count: parsing
    # 65 536 --arg flags took over a minute before the record refused them.
    argv = ["provision", *["--arg=a"] * 3, *["--arg", "a"] * 65_533]
    started = time.perf_counter()
    rc = main(argv)
    took = time.perf_counter() - started
    assert rc == 2
    assert ("error: exec arg count is 65536, over the record's limit of 65535"
            in capsys.readouterr().err)
    assert took < 0.5


def test_negative_workload_argument_is_refused(image, tmp_path, capsys):
    rc = cli("run", "--image", image, "--key", KEY_HEX,
             "--workload", "seqread(0,-5)", "--out", tmp_path)
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: " in captured.err and "non-negative" in captured.err
    assert "completed" not in captured.out


def test_kv_trace_ops_file_that_is_not_utf8_is_refused(image, tmp_path, capsys):
    ops = tmp_path / "ops.bin"
    ops.write_bytes(b"\xff\xfe")
    rc = cli("run", "--image", image, "--key", KEY_HEX,
             "--workload", f"kvtrace({ops})", "--out", tmp_path / "run")
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error: ops file {ops} is not UTF-8 text" in captured.err
    assert "Traceback" not in captured.err


def test_smaller_cache_shuffles_more(image, tmp_path, capsys):
    shuffles = []
    for cache in ([], ["--cache-k", 2]):
        out = tmp_path / f"run{len(shuffles)}"
        rc = cli("run", "--image", image, "--key", KEY_HEX, "--seed", 1,
                 "--workload", "randread(0,40)", *cache, "--out", out)
        assert rc == 0
        with open(out / "summary.csv") as fh:
            shuffles.append(int(next(csv.DictReader(fh))["shuffles"]))
    capsys.readouterr()
    assert shuffles[0] < shuffles[1]


def test_run_oblivious_rejects_weaker_images(tmp_path, capsys):
    img = tmp_path / "p.img"
    cli("create-image", "--out", img, "--blocks", 32, "--mode", "plain",
        "--blank", 4096)
    capsys.readouterr()
    rc = cli("run", "--image", img,
             "--workload", "idle(5)", "--out", tmp_path / "o")
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: " in captured.err
    assert "crypt-integrity" in captured.err

    rc = cli("run", "--image", img, "--mode", "passthrough",
             "--workload", "seqread(0,0)", "--out", tmp_path / "o2")
    capsys.readouterr()
    assert rc == 0


@pytest.mark.parametrize("option", [("--rounds", 50), ("--cache-k", 4),
                                    ("--peer", 200_000_000)], ids=lambda o: o[0])
def test_passthrough_refuses_the_options_of_the_protected_path(image, tmp_path, option,
                                                               capsys):
    # It has no rounds, no cache and no net loop, so each option would
    # change nothing; given, even at its default value, it is refused.
    out = tmp_path / "run"
    rc = cli("run", "--image", image, "--key", KEY_HEX, "--mode", "passthrough",
             "--workload", "seqread(0,0)", *option, "--out", out)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"error: {option[0]} is refused with --mode passthrough, "
                            "which has no rounds, cache or net loop\n")
    assert not out.exists()


@pytest.mark.parametrize("workload", ["seqread(0,0)", "seqwrite(0,9000)"])
def test_a_passthrough_summary_counts_the_disk_calls_its_trace_holds(
        image, tmp_path, workload, capsys):
    out = tmp_path / "run"
    rc = cli("run", "--image", image, "--key", KEY_HEX, "--mode", "passthrough",
             "--workload", workload, "--out", out)
    stdout = capsys.readouterr().out
    assert rc == 0
    trace = parse_trace((out / "trace.log").read_text())
    reads = len(trace.of_kind(CallKind.DISK_READ))
    writes = len(trace.of_kind(CallKind.DISK_WRITE))
    assert reads + writes > 0
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert (row["real_reads"], row["real_writes"]) == (str(reads), str(writes))
    assert (row["dummy_reads"], row["dummy_writes"]) == ("0", "0")
    assert f"disk: {reads}r+0d reads, {writes}r+0d writes" in stdout


def test_run_with_echo_peer(image, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli("run", "--image", image, "--key", KEY_HEX, "--seed", 1,
             "--workload", "netecho(0,5000)", "--peer", 200_000_000,
             "--rounds", 100, "--out", out)
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "endpoint 0: mean " in stdout
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert int(row["net_real"]) == 4  # 5000 bytes / 1474 per frame
    assert int(row["net_dummy"]) > 100
    net_lines = [l.split(",") for l in (out / "trace.log").read_text().splitlines()
                 if l.split(",")[1] == "net_write"]
    assert net_lines
    assert all(int(l[3]) == 1500 for l in net_lines)
    assert all(int(l[0]) % 60_000 == 0 for l in net_lines)


def test_unknown_workload_is_a_usage_error(image, tmp_path, capsys):
    rc = cli("run", "--image", image, "--key", KEY_HEX,
             "--workload", "bogus(1)", "--out", tmp_path)
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: " in captured.err


def test_missing_image_is_a_clean_error(tmp_path, capsys):
    rc = cli("run", "--image", str(tmp_path / "nope.blk"), "--key", KEY_HEX,
             "--workload", "idle(5)", "--out", tmp_path)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# --- bench ---------------------------------------------------------------------


def test_bench_prints_both_paths_and_the_ratio(image, capsys):
    rc = cli("bench", "--image", image, "--key", KEY_HEX, "--repeat", 1,
             "--workload", "seqread(0,12800)")
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "passthrough_wall_bytes_per_s: " in stdout
    assert "oblivious_wall_bytes_per_s: " in stdout
    ratio = float(stdout.split("ratio_passthrough_over_oblivious: ")[1].split()[0])
    assert ratio > 0


# --- shuffle and fsck ------------------------------------------------------------


def test_shuffle_preserves_content_and_passes_fsck(image, tmp_path, capsys):
    shuffled = tmp_path / "shuffled.img"
    rc = cli("shuffle", "--image", image, "--key", KEY_HEX, "--seed", 1,
             "--out-image", shuffled)
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "moved: " in stdout

    m = open_image(shuffled, key=DEFAULT_KEY)
    assert m.engine.read_file(m.engine.regular_fd(0), 0, len(PAYLOAD)) == PAYLOAD
    assert m.engine.read_file(m.engine.regular_fd(1), 0, BLANK_LEN) == bytes(BLANK_LEN)

    before = open_image(image, key=DEFAULT_KEY)
    fd = before.engine.regular_fd(0)
    old = [before.fs.phys_of(fd, i) for i in range(4)]
    new = [m.fs.phys_of(m.engine.regular_fd(0), i) for i in range(4)]
    assert old != new

    rc = cli("fsck", "--image", shuffled, "--key", KEY_HEX, "--seed", 1, "--deep")
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "clean" in stdout


def test_a_full_disk_is_reported_and_checked_but_not_run(tmp_path, capsys):
    # One 54-block file fills a 64-block image. The passthrough mounts of
    # create-image's report and of fsck take it; a protected run, whose
    # passes each need a free block, refuses it.
    img = tmp_path / "full.img"
    rc = cli("create-image", "--out", img, "--blocks", 64, "--key", KEY_HEX,
             "--seed", 2, "--blank", 54 * 4096)
    assert rc == 0 and "free blocks: 0\n" in capsys.readouterr().out
    rc = cli("fsck", "--image", img, "--key", KEY_HEX, "--deep")
    assert rc == 0 and "clean" in capsys.readouterr().out
    rc = cli("run", "--image", img, "--key", KEY_HEX, "--workload", "idle(20)")
    assert rc == 2
    assert "0 free blocks; a protected mount keeps 1" in capsys.readouterr().err


def test_pre_shuffle_image_is_refused_under_the_new_root(image, tmp_path, capsys):
    shuffled = tmp_path / "shuffled.img"
    rc = cli("shuffle", "--image", image, "--key", KEY_HEX, "--seed", 1,
             "--out-image", shuffled)
    stdout = capsys.readouterr().out
    assert rc == 0
    root = stdout.split("verity root: ")[1].split()[0]

    rc = cli("fsck", "--image", shuffled, "--key", KEY_HEX, "--verity-root", root)
    assert rc == 0 and "clean" in capsys.readouterr().out

    # The host hands back the whole image as it was before the shuffle.
    rc = cli("fsck", "--image", image, "--key", KEY_HEX, "--verity-root", root)
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: " in err and "trusted root" in err
    rc = cli("run", "--image", image, "--key", KEY_HEX, "--verity-root", root,
             "--workload", "idle(5)", "--out", tmp_path / "run")
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: " in err and "trusted root" in err


def test_shuffle_of_a_superseded_image_is_refused_under_the_new_root(tmp_path, capsys):
    a, b = tmp_path / "a.img", tmp_path / "b.img"
    rc = cli("create-image", "--out", a, "--blocks", 64, "--key", KEY_HEX,
             "--seed", 1, "--blank", BLANK_LEN)
    root_a = capsys.readouterr().out.split("verity root: ")[1].split()[0]
    assert rc == 0
    rc = cli("shuffle", "--image", a, "--key", KEY_HEX, "--verity-root", root_a,
             "--out-image", b)
    root_b = capsys.readouterr().out.split("verity root: ")[1].split()[0]
    assert rc == 0 and root_b != root_a

    # The host hands back a.img, which b.img superseded.
    before = a.read_bytes()
    for argv in (("shuffle", "--image", a, "--key", KEY_HEX, "--verity-root", root_b),
                 ("bench", "--image", a, "--key", KEY_HEX, "--verity-root", root_b,
                  "--repeat", 1, "--workload", "idle(2)")):
        rc = cli(*argv)
        captured = capsys.readouterr()
        assert rc == 2, argv[0]
        assert "error: " in captured.err and "trusted root" in captured.err
        assert "verity root: " not in captured.out
    assert a.read_bytes() == before


def test_two_shuffles_of_one_image_end_with_different_roots(tmp_path, capsys):
    # Two forks of one image, at one seed, move every block alike; their
    # writes still take counters of their own, so neither fork's image
    # passes under the other's root.
    a = tmp_path / "a.img"
    rc = cli("create-image", "--out", a, "--blocks", 64, "--key", KEY_HEX,
             "--seed", 1, "--blank", BLANK_LEN)
    root_a = capsys.readouterr().out.split("verity root: ")[1].split()[0]
    assert rc == 0
    forks, roots = [tmp_path / "b1.img", tmp_path / "b2.img"], []
    for fork in forks:
        rc = cli("shuffle", "--image", a, "--key", KEY_HEX, "--verity-root", root_a,
                 "--seed", 1, "--out-image", fork)
        roots.append(capsys.readouterr().out.split("verity root: ")[1].split()[0])
        assert rc == 0
    assert roots[0] != roots[1]
    rc = cli("fsck", "--image", forks[1], "--key", KEY_HEX, "--verity-root", roots[0])
    assert rc == 2 and "trusted root" in capsys.readouterr().err


def test_shuffle_refuses_plain_images(tmp_path, capsys):
    img = tmp_path / "p.img"
    cli("create-image", "--out", img, "--blocks", 16, "--mode", "plain")
    capsys.readouterr()
    rc = cli("shuffle", "--image", img, "--key", "")
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: " in captured.err


def test_shuffle_without_a_key_is_refused_at_mount(image, tmp_path, capsys):
    rc = cli("shuffle", "--image", image, "--out-image", tmp_path / "s.img")
    captured = capsys.readouterr()
    assert rc == 2
    assert "requires a 32-byte key" in captured.err
    assert not (tmp_path / "s.img").exists()

    plain = tmp_path / "p.img"
    cli("create-image", "--out", plain, "--blocks", 16, "--mode", "plain")
    capsys.readouterr()
    rc = cli("shuffle", "--image", plain)
    captured = capsys.readouterr()
    assert rc == 2
    assert "must be crypt-integrity" in captured.err


@pytest.mark.parametrize("retired", [1, 2])
def test_fsck_refuses_an_image_of_a_retired_mode(retired, image, tmp_path, capsys):
    # Modes 1 (verity) and 2 (crypt) are reserved: an image whose header
    # carries one is refused at mount, as a usage error.
    old = bytearray(image.read_bytes())
    old[:RECORD_SIZE] = retired_mode_header(64, retired)
    target = tmp_path / "old.img"
    target.write_bytes(bytes(old))
    rc = cli("fsck", "--image", target, "--key", KEY_HEX)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: unknown protection mode {retired}\n"


def test_fsck_refuses_a_key_for_a_plain_image(tmp_path, capsys):
    plain = tmp_path / "plain.img"
    assert cli("create-image", "--out", plain, "--blocks", 16, "--mode", "plain") == 0
    capsys.readouterr()
    rc = cli("fsck", "--image", plain, "--key", "1234")
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: a plain image takes no key\n"
    assert cli("fsck", "--image", plain) == 0


def test_fsck_deep_catches_a_flipped_byte(image, tmp_path, capsys):
    m = open_image(image, key=DEFAULT_KEY)
    phys = m.fs.phys_of(m.engine.regular_fd(0), 0)
    offset = m.store.layout.data_offset(phys)

    broken = bytearray(image.read_bytes())
    broken[offset + 100] ^= 0xFF
    target = tmp_path / "broken.img"
    target.write_bytes(bytes(broken))

    rc = cli("fsck", "--image", target, "--key", KEY_HEX, "--seed", 1)
    assert rc == 0  # metadata is intact; only the data block is bad
    capsys.readouterr()
    rc = cli("fsck", "--image", target, "--key", KEY_HEX, "--seed", 1, "--deep")
    stdout = capsys.readouterr().out
    assert rc == 1
    assert "problem: " in stdout


def test_fsck_deep_reads_the_padding_blocks(image, tmp_path, capsys):
    # Padding blocks belong to no data file, but they are sealed like
    # data and a deep check opens them too.
    m = open_image(image, key=DEFAULT_KEY)
    offset = m.store.layout.data_offset(m.fs.dummy_blocks()[0])

    broken = bytearray(image.read_bytes())
    broken[offset + 100] ^= 0xFF
    target = tmp_path / "broken.img"
    target.write_bytes(bytes(broken))

    rc = cli("fsck", "--image", target, "--key", KEY_HEX, "--seed", 1, "--deep")
    stdout = capsys.readouterr().out
    assert rc == 1
    assert "problem: " in stdout


def test_fsck_deep_reads_the_free_blocks(image, tmp_path, capsys):
    # Free blocks are sealed like data, and a protected append opens the
    # free block it takes, so a deep check opens every one and names it.
    m = open_image(image, key=DEFAULT_KEY)
    free = [p for p in range(m.fs.n_blocks) if not m.fs.bitmap[p >> 3] >> (p & 7) & 1]
    broken = bytearray(image.read_bytes())
    for phys in free:
        broken[m.store.layout.data_offset(phys) + 100] ^= 0xFF
    target = tmp_path / "broken.img"
    target.write_bytes(bytes(broken))

    rc = cli("fsck", "--image", target, "--key", KEY_HEX, "--seed", 1, "--deep")
    problems = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("problem: ")]
    assert rc == 1
    assert problems == [f"problem: free block {p}: block {p}: tag check failed"
                        for p in free]


def test_metadata_marked_free_is_refused_by_fsck_and_run(tmp_path, capsys):
    img = tmp_path / "p.img"
    rc = cli("create-image", "--out", img, "--blocks", 64, "--mode", "plain",
             "--blank", BLANK_LEN)
    assert rc == 0
    capsys.readouterr()
    # The host marks the bitmap and inode-table blocks free and keeps the
    # superblock's free count in step; allocation would then hand them out.
    fs = open_image(img).fs
    layout = layout_for(64, ProtectionMode.PLAIN)
    sb, bitmap = layout.data_offset(0), layout.data_offset(1)
    image = bytearray(img.read_bytes())
    for phys in range(1, fs.metadata_blocks):
        image[bitmap + phys // 8] &= ~(1 << (phys % 8))
    struct.pack_into("<Q", image, sb + 37, fs.free_blocks + fs.metadata_blocks - 1)
    img.write_bytes(bytes(image))

    for argv in (("fsck", "--image", img),
                 ("run", "--image", img, "--mode", "passthrough",
                  "--workload", "idle(5)", "--out", tmp_path / "run")):
        rc = cli(*argv)
        err = capsys.readouterr().err
        assert rc == 2, argv[0]
        assert "error: bitmap marks free block 1" in err


# --- provision -------------------------------------------------------------------


def test_provision_builds_and_delivers_a_record(tmp_path, capsys):
    peer_pub = StaticIdentity.from_private_bytes(bytes(range(32))).public_bytes
    record = tmp_path / "rec.bin"
    rc = cli("provision", "--key", KEY_HEX, "--verity-root", "ab" * 32,
             "--peer", f"{peer_pub.hex()},hostA,100000000",
             "--exec-path", "/bin/svc", "--arg", "a", "--arg", "b",
             "--out-record", record)
    stdout = capsys.readouterr().out
    assert rc == 0
    assert f"record: {record}" in stdout
    assert "over the first session" in stdout
    assert "installed: disk key yes, verity root yes, 1 peer(s), exec /bin/svc" in stdout
    assert "attestation: unverified" in stdout

    got = ProvisioningSecrets.decode(record.read_bytes())
    assert got.disk_key == DEFAULT_KEY
    assert got.verity_root == bytes.fromhex("ab" * 32)
    assert got.peers[0].public_key == peer_pub
    assert got.peers[0].address == "hostA"
    assert got.exec_path == "/bin/svc"
    assert got.exec_args == ("a", "b")


def test_provision_splits_a_long_record_across_frames(capsys):
    # 40 peers make a record longer than one frame payload; delivery
    # splits it and the endpoint installs every peer.
    peers = [f"{(bytes([i]) * 32).hex()},host{i},100000000" for i in range(40)]
    rc = cli("provision", *[a for spec in peers for a in ("--peer", spec)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "delivered: 1925 bytes in 2 frame(s) over the first session" in stdout
    assert "installed: disk key no, verity root no, 40 peer(s), exec -" in stdout
