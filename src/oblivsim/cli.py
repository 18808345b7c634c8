"""Command line front end.

Six subcommands cover the life of an image::

    create-image   build and populate an image file
    run            mount a copy in memory, drive a workload, write the trace
    bench          compare wall-clock throughput of both data paths
    shuffle        re-randomize the physical layout of an image file
    fsck           metadata consistency check
    provision      build a provisioning record and demo its delivery

``run`` never writes the image file back; each run works on an
in-memory copy so a given (image, seed, workload) is replayable
forever.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from pathlib import Path

from .adversary import (
    compare_traces,
    disk_offsets_within,
    rate_report,
    uniformity_test,
)
from .blockcrypto import ProtectionMode
from .blockfs import FLAG_REGULAR
from .channel import (
    Endpoint,
    PeerIdentity,
    ProvisioningSecrets,
    StaticIdentity,
    establish,
    max_payload,
    record_u16,
)
from .engine import (
    EchoPeer,
    Engine,
    EngineConfig,
    build_image,
    mount,
    run_workload,
)
from .errors import InsufficientDataError, ParameterError, SimError
from .pagecache import BUDGET_PAGES
from .sched import DEFAULT_ROUND_INTERVAL_NS, RoundConfig
from .shaper import ShapingClass
from .workload import parse_workload

MODE_BY_NAME = {
    "plain": ProtectionMode.PLAIN,
    "crypt-integrity": ProtectionMode.CRYPT_INTEGRITY,
}

SUMMARY_COLUMNS = [
    "rounds", "real_reads", "dummy_reads", "real_writes", "dummy_writes",
    "shuffles", "cache_hits", "net_real", "net_dummy", "bytes_per_sec",
]


def _hex_or_none(value: str | None, option: str) -> bytes | None:
    try:
        return bytes.fromhex(value) if value else None
    except ValueError:
        raise ParameterError(f"{option} takes hex, not {value!r}") from None


def _hex32_or_none(value: str | None, option: str) -> bytes | None:
    raw = _hex_or_none(value, option)
    if raw is not None and len(raw) != 32:
        raise ParameterError(f"{option} must be 32 bytes, not {len(raw)}")
    return raw


def _open(args, seed: int | None = None, **kw):
    """Mount an in-memory copy of ``--image`` under ``--key`` and
    ``--verity-root``, seeded by ``seed`` or else ``--seed``."""
    return mount(Path(args.image).read_bytes(),
                 key=_hex_or_none(args.key, "--key"),
                 verity_root=_hex_or_none(args.verity_root, "--verity-root"),
                 seed=args.seed if seed is None else seed, **kw)


# ---------------------------------------------------------------------------
# create-image
# ---------------------------------------------------------------------------

def cmd_create_image(args) -> int:
    mode = MODE_BY_NAME.get(args.mode)
    if mode is None:
        raise ParameterError(
            f"--mode takes {' or '.join(MODE_BY_NAME)}, not {args.mode!r}")
    if any(n < 0 for n in args.blank or []):
        raise ParameterError("--blank takes a byte count, not a negative number")
    sources = [(path, Path(path).read_bytes()) for path in args.add or []]
    sources += [("<blank>", b"\x00" * n) for n in args.blank or []]
    bundle = build_image(
        args.blocks, mode, [data for _, data in sources],
        seed=args.seed, key=_hex_or_none(args.key, "--key"),
        max_files=args.max_files, max_file_blocks=args.max_file_blocks)
    Path(args.out).write_bytes(bundle.image)

    # Report from a fresh mount, so every created image is proven
    # mountable before the command returns success.
    fs = mount(bundle.image, key=bundle.key, verity_root=bundle.verity_root,
               seed=args.seed, oblivious=False).fs
    print(f"image: {args.out}")
    print(f"mode: {args.mode}")
    print(f"blocks: {args.blocks} data, {len(bundle.image)} bytes on disk")
    print(f"dummy blocks: {len(fs.dummy_blocks())}  free blocks: {fs.free_blocks}")
    print(f"files: {len(fs.files_with_flag(FLAG_REGULAR))} data")
    for i, (fd, (origin, data)) in enumerate(zip(bundle.data_fds, sources)):
        print(f"  data file {i}: fd {fd}, {len(data)} bytes, from {origin}")
    if bundle.key is not None:
        print(f"key: {bundle.key.hex()}")
    if bundle.verity_root is not None:
        print(f"verity root: {bundle.verity_root.hex()}")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _run_once(args, workload_text: str, target: int | None, *, oblivious: bool,
              seed: int, config: EngineConfig | None = None, peers=()):
    m = _open(args, seed=seed, config=config, oblivious=oblivious)
    for i, rate in enumerate(peers):
        local, remote = StaticIdentity.generate(), StaticIdentity.generate()
        shaping = ShapingClass(rate_bps=rate)
        m.engine.add_link(i, establish(local, PeerIdentity(remote.public_bytes)), shaping)
        m.engine.add_external_pump(EchoPeer(
            m.host, i, establish(remote, PeerIdentity(local.public_bytes)), shaping))
    wl = parse_workload(workload_text)
    if target is None:
        target = wl.default_rounds()
    m.engine.start_observation()
    t0 = time.perf_counter()
    completed = run_workload(m.engine, wl, target)
    wall_s = time.perf_counter() - t0
    return m.engine, m.trace, completed, wall_s


def _summary_row(engine: Engine) -> dict:
    row = engine.counters()
    elapsed = engine.elapsed_ns
    row["bytes_per_sec"] = (
        round(engine.payload_bytes * 1_000_000_000 / elapsed, 1) if elapsed else 0.0)
    return row


def cmd_run(args) -> int:
    kw = dict(oblivious=args.mode == "oblivious", seed=args.seed,
              config=EngineConfig(round=RoundConfig(interval_ns=args.round_interval),
                                  cache_capacity=args.cache_k),
              peers=args.peer or ())
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    engine, trace, completed, wall_s = _run_once(args, args.workload, args.rounds, **kw)
    (outdir / "trace.log").write_text(trace.export())
    row = _summary_row(engine)
    with open(outdir / "summary.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        w.writeheader()
        w.writerow({k: row[k] for k in SUMMARY_COLUMNS})

    sim_s = engine.elapsed_ns / 1e9
    print(f"workload: {args.workload}  ({'completed' if completed else 'cut off'})")
    print(f"rounds: {row['rounds']}  shuffles: {row['shuffles']}  "
          f"cache hits: {row['cache_hits']}")
    print(f"disk: {row['real_reads']}r+{row['dummy_reads']}d reads, "
          f"{row['real_writes']}r+{row['dummy_writes']}d writes")
    print(f"net: {row['net_real']} real + {row['net_dummy']} padding frames")
    print(f"sim elapsed: {sim_s:.6f} s   wall: {wall_s:.3f} s")
    print(f"goodput_sim_bytes_per_s: {row['bytes_per_sec']}")
    wall_bps = engine.payload_bytes / wall_s if wall_s > 0 else 0.0
    print(f"goodput_wall_bytes_per_s: {wall_bps:.1f}")
    for ep, series in rate_report(trace).items():
        print(f"endpoint {ep}: mean {series.mean_bps / 1e6:.3f} Mbit/s "
              f"over {len(series.bytes_per_window)} window(s)")

    if not args.assert_oblivious:
        return 0

    # Baseline: same image, config and seed, but an idle workload of the
    # same length. Anything workload-dependent in the trace shows up here.
    base_target = engine.rounds_done
    base_engine, base_trace, _, _ = _run_once(
        args, f"idle({base_target})", base_target, **kw)
    (outdir / "baseline.log").write_text(base_trace.export())
    verdict = compare_traces(trace, base_trace)
    lines = [f"{'PASS' if verdict.shape_equal else 'FAIL'} shape: {verdict.detail}"]
    try:
        domain = [engine.store.layout.data_offset(p)
                  for p in engine.fs.dummy_blocks()]
        result = uniformity_test(disk_offsets_within(trace, domain), domain)
        lines.append(
            f"INFO padding-target uniformity: p={result.p_value:.4f} "
            f"over {result.n_samples} samples, {result.n_bins} bins")
    except InsufficientDataError as exc:
        lines.append(f"INFO padding-target uniformity: skipped ({exc})")
    (outdir / "verdict.txt").write_text("".join(l + "\n" for l in lines))
    for line in lines:
        print(line)
    return 0 if verdict.shape_equal else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    """Same workload down both paths; wall-clock throughput ratio."""
    medians = {}
    for mode in ("passthrough", "oblivious"):
        samples = []
        for i in range(args.repeat):
            engine, _trace, _done, wall_s = _run_once(
                args, args.workload, None, oblivious=mode == "oblivious",
                seed=args.seed + i)
            samples.append(engine.payload_bytes / wall_s if wall_s > 0 else 0.0)
        medians[mode] = statistics.median(samples)
        print(f"{mode}_wall_bytes_per_s: {medians[mode]:.1f} "
              f"(median of {args.repeat})")
    if medians["oblivious"] > 0:
        ratio = medians["passthrough"] / medians["oblivious"]
        print(f"ratio_passthrough_over_oblivious: {ratio:.2f}")
    return 0


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------

def cmd_shuffle(args) -> int:
    m = _open(args)
    stats = m.engine.shuffle_now()
    m.fs.persist(m.store)
    root = m.store.persist_metadata()
    out = args.out_image or args.image
    Path(out).write_bytes(m.host.image)
    print(f"image: {out}")
    print(f"verity root: {root.hex()}")
    print(f"moved: {stats.swaps} blocks")
    print(f"rounds: {m.engine.rounds_done}  vacated homes reused: {stats.donor_reuses}")
    return 0


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------

def cmd_fsck(args) -> int:
    m = _open(args, oblivious=False)
    # The mount has already refused metadata that breaks the filesystem's
    # consistency rule; what is left to find is a data block that fails
    # to open.
    store, fs = m.store, m.fs
    problems = []
    fds = fs.files_with_flag(FLAG_REGULAR)
    if args.deep:
        # Every file block, then the padding blocks, which no file maps.
        targets = [(f"fd {fd} block {lblk}", fs.phys_of(fd, lblk))
                   for fd in fds for lblk in range(fs.file_blocks(fd))]
        targets += [(f"padding block {p}", p) for p in fs.dummy_blocks()]
        for name, phys in targets:
            try:
                store.read_block(phys)
            except SimError as exc:
                problems.append(f"{name}: {exc}")
    print(f"files: {len(fds)} data; free blocks: {fs.free_blocks}")
    if problems:
        for p in problems:
            print(f"problem: {p}")
        return 1
    print("clean")
    return 0


# ---------------------------------------------------------------------------
# provision
# ---------------------------------------------------------------------------

def _parse_peer_spec(spec: str) -> PeerIdentity:
    parts = spec.split(",")
    try:
        if len(parts) in (2, 3):
            rate = int(parts[2]) if len(parts) == 3 else 200_000_000
            return PeerIdentity(bytes.fromhex(parts[0]), parts[1], rate)
    except (ValueError, ParameterError):
        pass
    raise ParameterError(
        f"--peer {spec!r}: want PUBHEX,ADDR[,RATE] with 1 <= RATE < 2**64")


def cmd_provision(args) -> int:
    secrets = ProvisioningSecrets(
        disk_key=_hex32_or_none(args.key, "--key"),
        verity_root=_hex32_or_none(args.verity_root, "--verity-root"),
        peers=tuple(_parse_peer_spec(s) for s in args.peer or []),
        exec_path=args.exec_path or "",
        exec_args=tuple(args.arg or []),
    )
    record = secrets.encode()
    if args.out_record:
        Path(args.out_record).write_bytes(record)
        print(f"record: {args.out_record} ({len(record)} bytes)")

    # Demo delivery over a fresh link: provider -> endpoint, first
    # session, record split across MTU-sized frames.
    provider = StaticIdentity.generate()
    endpoint = Endpoint(StaticIdentity.generate())
    enclave_session = endpoint.establish_with(
        PeerIdentity(provider.public_bytes, "provider"))
    provider_session = establish(
        provider, PeerIdentity(endpoint.identity.public_bytes))
    chunk = max_payload(provider_session.mtu)
    frames = [provider_session.seal_packet(record[i:i + chunk])
              for i in range(0, len(record), chunk)]
    received = b"".join(enclave_session.open_packet(f) for f in frames)
    endpoint.provision(enclave_session, ProvisioningSecrets.decode(received))
    got = endpoint.provisioned
    print(f"delivered: {len(record)} bytes in {len(frames)} frame(s) "
          "over the first session")
    print(f"installed: disk key {'yes' if got.disk_key else 'no'}, "
          f"verity root {'yes' if got.verity_root else 'no'}, "
          f"{len(got.peers)} peer(s), exec {got.exec_path or '-'}")
    print(f"attestation: {endpoint.attestation}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oblivsim",
        description="Deterministic simulator of an access-pattern-hiding "
                    "block stack: encrypted images, batched padded I/O, "
                    "layout shuffles and shaped network links.")
    sub = p.add_subparsers(dest="command", required=True)

    # The image arguments of every subcommand that opens an existing image.
    image = argparse.ArgumentParser(add_help=False)
    image.add_argument("--image", required=True)
    image.add_argument("--key", help="image key as hex")
    image.add_argument("--verity-root", help="trusted root hash as hex")
    image.add_argument("--seed", type=int, default=0)

    ci = sub.add_parser("create-image", help="build and populate an image file")
    ci.add_argument("--out", required=True, help="image file to write")
    ci.add_argument("--blocks", type=int, required=True,
                    help="number of data blocks")
    ci.add_argument("--mode", default="crypt-integrity",
                    help=f"{' or '.join(MODE_BY_NAME)} (default: crypt-integrity)")
    ci.add_argument("--key", help="32-byte key as hex (default: generated)")
    ci.add_argument("--seed", type=int, default=0, help="layout seed")
    ci.add_argument("--add", action="append", metavar="PATH",
                    help="store this file's contents (repeatable)")
    ci.add_argument("--blank", action="append", type=int, metavar="BYTES",
                    help="add a zero-filled data file (repeatable)")
    ci.add_argument("--max-files", type=int, default=None)
    ci.add_argument("--max-file-blocks", type=int, default=None)
    ci.set_defaults(func=cmd_create_image)

    rn = sub.add_parser("run", parents=[image],
                        help="drive a workload against an image copy")
    rn.add_argument("--mode", choices=["oblivious", "passthrough"],
                    default="oblivious")
    rn.add_argument("--workload", required=True,
                    help="e.g. 'seqread(0,0)', 'randread(0,500)', 'idle(1000)'")
    rn.add_argument("--rounds", type=_positive, default=None,
                    help="run exactly this many rounds (truncate or pad)")
    rn.add_argument("--round-interval", type=int,
                    default=DEFAULT_ROUND_INTERVAL_NS, metavar="NS")
    rn.add_argument("--cache-k", type=int, default=None,
                    help="page cache capacity, and rounds per epoch (default: "
                         "max(ceil(sqrt(blocks)), blocks / 16), at most "
                         f"{BUDGET_PAGES})")
    rn.add_argument("--peer", action="append", type=int, metavar="RATE_BPS",
                    help="attach a shaped echo peer at this rate (repeatable)")
    rn.add_argument("--out", default=".", help="output directory")
    rn.add_argument("--assert-oblivious", action="store_true",
                    help="also run an idle baseline and compare trace shapes")
    rn.set_defaults(func=cmd_run)

    be = sub.add_parser("bench", parents=[image],
                        help="compare wall-clock throughput of both paths")
    be.add_argument("--workload", default="seqread(0,0)")
    be.add_argument("--repeat", type=_positive, default=3)
    be.set_defaults(func=cmd_bench)

    sh = sub.add_parser("shuffle", parents=[image],
                        help="re-randomize an image's layout")
    sh.add_argument("--out-image", default=None,
                    help="write here instead of back to --image")
    sh.set_defaults(func=cmd_shuffle)

    fs = sub.add_parser("fsck", parents=[image], help="consistency-check an image")
    fs.add_argument("--deep", action="store_true",
                    help="also read and verify every mapped block")
    fs.set_defaults(func=cmd_fsck)

    pv = sub.add_parser("provision",
                        help="build a provisioning record and demo delivery")
    pv.add_argument("--key", help="disk key as hex")
    pv.add_argument("--verity-root", help="trusted root as hex")
    pv.add_argument("--peer", action="append", metavar="PUBHEX,ADDR[,RATE]")
    pv.add_argument("--exec-path", help="program to launch after provisioning")
    pv.add_argument("--arg", action="append", help="argument for it (repeatable)")
    pv.add_argument("--out-record", help="write the encoded record here")
    pv.set_defaults(func=cmd_provision)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse takes time quadratic in a repeated option's count, so
        # an arg count the record cannot hold is refused before parsing.
        record_u16(sum(a == "--arg" or a.startswith("--arg=") for a in argv),
                   "exec arg count")
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
