"""End-to-end runs of every subcommand through ``main``."""

from __future__ import annotations

import csv
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DEFAULT_KEY, mount
from oblivsim import (
    ImageBundle,
    ProtectionMode,
    ProvisioningSecrets,
    StaticIdentity,
    layout_for,
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


def test_create_image_verity_prints_the_root(tmp_path, capsys):
    img = tmp_path / "v.img"
    rc = cli("create-image", "--out", img, "--blocks", 32, "--mode", "verity",
             "--blank", 4096)
    out = capsys.readouterr().out
    assert rc == 0
    assert "verity root: " in out
    assert "key: " not in out
    root = out.split("verity root: ")[1].strip()
    m = open_image(img, root=bytes.fromhex(root))
    assert m.engine.read_file(m.engine.regular_fd(0), 0, 4096) == bytes(4096)


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
])
def test_malformed_option_is_a_usage_error(argv, option, image, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli(*(str(a).format(image=image, out=out) for a in argv))
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error: {option}" in captured.err
    assert "Traceback" not in captured.err


def test_negative_workload_argument_is_refused(image, tmp_path, capsys):
    rc = cli("run", "--image", image, "--key", KEY_HEX,
             "--workload", "seqread(0,-5)", "--out", tmp_path)
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: " in captured.err and "non-negative" in captured.err
    assert "completed" not in captured.out


def test_round_interval_scales_the_timestamps(image, tmp_path, capsys):
    stamps = []
    for interval in ([], ["--round-interval", 200_000]):
        out = tmp_path / f"run{len(stamps)}"
        rc = cli("run", "--image", image, "--key", KEY_HEX, "--seed", 1,
                 "--workload", "idle(20)", *interval, "--out", out)
        assert rc == 0
        stamps.append([int(l.split(",")[0])
                       for l in (out / "trace.log").read_text().splitlines()])
    capsys.readouterr()
    assert len(stamps[0]) == 40 and max(stamps[0]) > 0
    assert stamps[1] == [2 * ts for ts in stamps[0]]


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
    img = tmp_path / "c.img"
    cli("create-image", "--out", img, "--blocks", 32, "--mode", "crypt",
        "--key", KEY_HEX, "--blank", 4096)
    capsys.readouterr()
    rc = cli("run", "--image", img, "--key", KEY_HEX,
             "--workload", "idle(5)", "--out", tmp_path / "o")
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: " in captured.err
    assert "crypt-integrity" in captured.err

    rc = cli("run", "--image", img, "--key", KEY_HEX, "--mode", "passthrough",
             "--workload", "seqread(0,0)", "--out", tmp_path / "o2")
    capsys.readouterr()
    assert rc == 0


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
    assert "must be crypt or crypt-integrity" in captured.err


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
