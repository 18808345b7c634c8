"""Acceptance gate: the nine core claims, each at its stated tolerance.

Every test records one ``ACCEPTANCE n name: PASS/FAIL`` line that the
conftest prints as its own section after the run.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from conftest import DEFAULT_KEY, mount, record_acceptance
from oblivsim import (
    BLOCK_SIZE,
    RECORD_SIZE,
    BackpressureError,
    CallKind,
    Endpoint,
    EngineConfig,
    IntegrityError,
    PeerIdentity,
    PeerShaper,
    PolicyError,
    ProtectionMode,
    ProvisioningSecrets,
    ReplayError,
    ShapingClass,
    StaleCounterError,
    StaticIdentity,
    build_image,
    establish,
    max_payload,
    parse_workload,
    run_workload,
)
from oblivsim.adversary import compare_traces, disk_offsets_within, uniformity_test
from oblivsim.cli import main as cli_main

MTU = 1500
RATE = 200_000_000
ALPHA = 0.01


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    record_acceptance(
        f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# --- 1: an observer of the disk trace cannot tell workloads apart -------------

WORKLOADS = [
    "seqread(0,0)", "seqread(1,0)", "seqwrite(0,98304)", "seqwrite(1,65536)",
    "randread(0,120)", "randread(1,120)", "reread(0,200)", "reread(5,200)",
]
SEEDS = range(5)
ROUNDS = 10_000
# A 16-page shelter on the 256-block image, smaller than its L = 40 file
# blocks, so every workload here misses often and each run holds about
# 10 000 / (16 + 40) passes for the comparison to see.
SHELTER = EngineConfig(cache_capacity=16)


def test_disk_traces_indistinguishable_across_workloads():
    t0 = time.perf_counter()
    bundle = build_image(
        256, ProtectionMode.CRYPT_INTEGRITY,
        [bytes(range(256)) * 16 * 24, b"\x5a" * BLOCK_SIZE * 16],
        seed=1, key=DEFAULT_KEY)

    traces = {}
    uniform_passes = {w: 0 for w in WORKLOADS}
    exact_counts = 0
    domain = None
    for spec in WORKLOADS:
        for seed in SEEDS:
            m = mount(bundle, seed=seed, config=SHELTER)
            m.engine.start_observation()
            run_workload(m.engine, parse_workload(spec), target_rounds=ROUNDS)
            traces[spec, seed] = m.trace
            if domain is None:
                domain = [m.store.layout.data_offset(p)
                          for p in m.fs.dummy_blocks()]
            # The observable accesses inside the padding domain must be
            # exactly the padding the scheduler issued: no real access
            # lands on a pad block and no padding lands outside.
            padding = disk_offsets_within(m.trace, domain)
            sched = m.engine.sched
            exact_counts += len(padding) == sched.dummy_reads + sched.dummy_writes
            p = uniformity_test(padding, domain).p_value
            uniform_passes[spec] += p > ALPHA

    rng = random.Random(20260819)
    equal_pairs = 0
    for _ in range(20):
        w1, w2 = rng.sample(WORKLOADS, 2)
        seed = rng.choice(list(SEEDS))
        equal_pairs += compare_traces(traces[w1, seed], traces[w2, seed]).shape_equal

    elapsed = time.perf_counter() - t0
    majorities = sum(1 for w in WORKLOADS if uniform_passes[w] >= 3)
    ok = (equal_pairs == 20 and majorities == len(WORKLOADS)
          and exact_counts == len(traces) and elapsed < 120)
    verdict(1, "disk-trace-indistinguishability", ok,
            f"{equal_pairs}/20 pairs shape-equal, uniformity majority in "
            f"{majorities}/{len(WORKLOADS)} workloads, padding count exact in "
            f"{exact_counts}/{len(traces)} runs, {elapsed:.1f}s")


# --- 2: the idle cadence is exact ----------------------------------------------


def test_round_cadence_exact(small_bundle):
    n = 1000
    m = mount(small_bundle)
    m.engine.start_observation()
    m.engine.run_rounds(n)
    disk = m.trace.of_kind(CallKind.DISK_READ, CallKind.DISK_WRITE)
    reads = [e for e in disk if e.kind is CallKind.DISK_READ]
    writes = [e for e in disk if e.kind is CallKind.DISK_WRITE]

    counts_ok = len(reads) == n and len(writes) == n
    order_ok = all(
        disk[2 * i].kind is CallKind.DISK_READ
        and disk[2 * i + 1].kind is CallKind.DISK_WRITE
        and disk[2 * i].ts == disk[2 * i + 1].ts == i * 100_000
        for i in range(n))
    grid_ok = all(e.ts % 100_000 == 0 for e in disk)
    verdict(2, "round-cadence", counts_ok and order_ok and grid_ok,
            f"{n} rounds: {len(reads)} reads + {len(writes)} writes, "
            "read-before-write, 0.1 ms grid")


# --- 3: re-reads are served without touching the host --------------------------


def test_repeated_reads_touch_disk_once(small_bundle):
    m = mount(small_bundle)
    m.engine.start_observation()
    run_workload(m.engine, parse_workload("reread(0,100)"))
    padding = {m.store.layout.data_offset(p) for p in m.fs.dummy_blocks()}
    real = [e for e in m.trace.of_kind(CallKind.DISK_READ)
            if e.offset not in padding]
    c = m.engine.counters()
    ok = len(real) == 1 and c["real_reads"] == 1 and c["cache_hits"] == 99
    verdict(3, "at-most-once-fetch", ok,
            f"100 re-reads: {len(real)} real disk read, "
            f"{c['cache_hits']} cache hits")


# --- 4: shuffles preserve data and forget the layout ----------------------------


def test_shuffle_preserves_and_randomizes():
    t0 = time.perf_counter()
    files = [b"A" * BLOCK_SIZE * 8, b"B" * BLOCK_SIZE * 5, b"C" * BLOCK_SIZE * 3]
    bundle = build_image(64, ProtectionMode.CRYPT_INTEGRITY, files,
                         seed=4, key=DEFAULT_KEY)
    m = mount(bundle, seed=4)
    fd = m.engine.regular_fd(0)
    free_before = m.fs.free_blocks

    landings = []
    for _ in range(1000):
        m.engine.shuffle_now()
        landings.append(m.fs.phys_of(fd, 0))

    intact = all(
        m.engine.read_file(m.engine.regular_fd(i), 0, len(data)) == data
        for i, data in enumerate(files))
    consistent = m.fs.fsck() == [] and m.fs.free_blocks == free_before

    dummies = set(m.fs.dummy_blocks())
    domain = [p for p in range(64)
              if p >= m.fs.metadata_blocks and p not in dummies]
    result = uniformity_test(landings, domain)

    elapsed = time.perf_counter() - t0
    ok = intact and consistent and result.p_value > ALPHA and elapsed < 60
    verdict(4, "shuffle-correct-and-uniform", ok,
            f"1000 shuffles: bytes intact={intact}, placement chi-square "
            f"p={result.p_value:.3f} over {result.n_bins} bins, {elapsed:.1f}s")


# --- 5: sealed blocks resist tampering and rollback ------------------------------


def test_sealing_detects_tampering_and_replay():
    bundle = build_image(16, ProtectionMode.CRYPT_INTEGRITY,
                         [b"s" * BLOCK_SIZE], seed=2, key=DEFAULT_KEY)
    m = mount(bundle, oblivious=False)
    phys = m.fs.phys_of(m.engine.regular_fd(0), 0)
    off = m.store.layout.data_offset(phys)

    # Flips land anywhere in the block's record, its tag and nonce
    # included. A flip in the nonce's counter reads as a replay, any
    # other as a tag failure; either way the read is refused.
    rng = random.Random(0xACCE55)
    detected = 0
    trials = 10_000
    for _ in range(trials):
        pos = off + rng.randrange(RECORD_SIZE)
        bit = 1 << rng.randrange(8)
        m.host.image[pos] ^= bit
        try:
            m.store.read_block(phys)
        except (IntegrityError, ReplayError):
            detected += 1
        finally:
            m.host.image[pos] ^= bit

    seals = set()
    for _ in range(trials):
        m.store.write_block(phys, b"s" * BLOCK_SIZE)
        seals.add(bytes(m.host.image[off:off + RECORD_SIZE]))

    old_record = bytes(m.host.image[off:off + RECORD_SIZE])
    m.store.write_block(phys, b"newer" * 16 + bytes(BLOCK_SIZE - 80))
    m.host.image[off:off + RECORD_SIZE] = old_record
    try:
        m.store.read_block(phys)
        replay_rejected = False
    except ReplayError:
        replay_rejected = True

    ok = detected == trials and len(seals) == trials and replay_rejected
    verdict(5, "seal-tamper-replay", ok,
            f"{detected}/{trials} bit flips detected, "
            f"{len(seals)}/{trials} seals distinct, rollback rejected="
            f"{replay_rejected}")


# --- 6: the link rate never varies with load -------------------------------------


def _shaped_run(offer_every_ns: int | None, horizon_ns: int):
    """(time, frame size) per emission up to the horizon, and how many of
    them were padding by the sending session's own count."""
    a = StaticIdentity.from_private_bytes(bytes(range(32)))
    b = StaticIdentity.from_private_bytes(bytes(range(32, 64)))
    shaper = PeerShaper(ShapingClass(rate_bps=RATE),
                        establish(a, PeerIdentity(b.public_bytes)))
    chunk = b"\xa5" * max_payload(MTU)
    emissions = []
    offer_t = 0
    while True:
        due = shaper.next_due_ns()
        if due > horizon_ns:
            return emissions, shaper.session.sent_dummy
        if offer_every_ns:
            while offer_t <= due:
                try:
                    shaper.enqueue(chunk)
                except BackpressureError:
                    pass
                offer_t += offer_every_ns
        emissions.append((due, len(shaper.tick(due))))


def test_shaper_rate_exact_under_all_loads():
    horizon = 10_000_000_000  # 10 s
    window = 1_000_000_000
    target = RATE // 8  # bytes per 1 s window
    offers = {"idle": None, "half": 120_000, "double": 30_000}

    windows_ok = True
    sizes_ok = True
    dummies_at_double = None
    details = []
    for label, every in offers.items():
        emissions, dummies = _shaped_run(every, horizon)
        sizes_ok &= all(size == MTU for _, size in emissions)
        per_window = [0] * (horizon // window)
        for ts, size in emissions:
            per_window[ts // window] += size
        windows_ok &= all(abs(w - target) <= MTU for w in per_window)
        if label == "double":
            dummies_at_double = dummies
        details.append(f"{label}: {sum(per_window)}B, {dummies} dummies")

    ok = windows_ok and sizes_ok and dummies_at_double == 0
    verdict(6, "shaped-rate-constant", ok,
            f"10s at 200 Mbps, windows within one frame of {target}B; "
            + "; ".join(details))


# --- 7: the channel rejects replays; provisioning is first-peer-only --------------


def test_channel_rejects_replays_and_limits_provisioning():
    a = StaticIdentity.from_private_bytes(bytes(range(32)))
    b = StaticIdentity.from_private_bytes(bytes(range(32, 64)))
    tx = establish(a, PeerIdentity(b.public_bytes))
    rx = establish(b, PeerIdentity(a.public_bytes))

    trials = 10_000
    frames = [tx.seal_packet(f"m{i}".encode()) for i in range(trials)]
    for f in frames:
        rx.open_packet(f)
    accepted = 0
    for f in frames:
        try:
            rx.open_packet(f)
            accepted += 1
        except (ReplayError, StaleCounterError):
            pass

    endpoint = Endpoint(StaticIdentity.generate())
    first = endpoint.establish_with(
        PeerIdentity(StaticIdentity.generate().public_bytes))
    second = endpoint.establish_with(
        PeerIdentity(StaticIdentity.generate().public_bytes))
    secrets = ProvisioningSecrets(disk_key=DEFAULT_KEY)
    with pytest.raises(PolicyError):
        endpoint.provision(second, secrets)
    endpoint.provision(first, secrets)
    with pytest.raises(PolicyError):
        endpoint.provision(first, secrets)
    policy_ok = endpoint.provisioned.disk_key == DEFAULT_KEY

    verdict(7, "channel-replay-and-provisioning", accepted == 0 and policy_ok,
            f"{accepted}/{trials} replays accepted, provisioning held to "
            "the first session")


# --- 8: a run is replayable bit for bit --------------------------------------------


def test_trace_log_bit_identical_across_runs(tmp_path, capsys):
    img = tmp_path / "det.img"
    rc = cli_main(["create-image", "--out", str(img), "--blocks", "64",
                   "--key", DEFAULT_KEY.hex(), "--seed", "9",
                   "--blank", "16384"])
    assert rc == 0

    logs = []
    summaries = []
    for i in range(3):
        out = tmp_path / f"run{i}"
        rc = cli_main(["run", "--image", str(img), "--key", DEFAULT_KEY.hex(),
                       "--seed", "5", "--workload", "netecho(0,30000)",
                       "--peer", str(RATE), "--rounds", "400",
                       "--out", str(out)])
        assert rc == 0
        logs.append((out / "trace.log").read_bytes())
        summaries.append((out / "summary.csv").read_bytes())
    capsys.readouterr()

    nontrivial = len(logs[0].splitlines()) > 800 and b"net_write" in logs[0]
    identical = logs[0] == logs[1] == logs[2]
    same_summary = summaries[0] == summaries[1] == summaries[2]
    verdict(8, "deterministic-replay", identical and same_summary and nontrivial,
            f"3 runs, {len(logs[0].splitlines())} trace lines each, "
            f"byte-identical={identical}, summaries identical={same_summary}")


# --- 9: protection costs what the bench says ----------------------------------------


def _passthrough_wall_bps(bundle, reps=3):
    samples = []
    for i in range(reps):
        eng = mount(bundle, seed=i, oblivious=False).engine
        fd = eng.regular_fd(0)
        size = eng.fs.file_size(fd)
        t0 = time.perf_counter()
        eng.read_file(fd, 0, size)
        samples.append(size / (time.perf_counter() - t0))
    return statistics.median(samples)


def test_crypto_cost_shows_in_throughput(tmp_path, capsys):
    payload = bytes(range(256)) * 8192  # 2 MiB
    kw = dict(seed=6, max_files=8, max_file_blocks=512)
    plain = build_image(640, ProtectionMode.PLAIN, [payload], **kw)
    sealed = build_image(640, ProtectionMode.CRYPT_INTEGRITY, [payload],
                         key=DEFAULT_KEY, **kw)

    img = tmp_path / "bench.img"
    img.write_bytes(sealed.image)
    rc = cli_main(["bench", "--image", str(img), "--key", DEFAULT_KEY.hex(),
                   "--repeat", "3", "--workload", "seqread(0,0)"])
    stdout = capsys.readouterr().out
    assert rc == 0
    ratio = float(
        stdout.split("ratio_passthrough_over_oblivious: ")[1].split()[0])

    plain_bps = _passthrough_wall_bps(plain)
    sealed_bps = _passthrough_wall_bps(sealed)
    ok = ratio > 0 and plain_bps > sealed_bps
    verdict(9, "informational-throughput", ok,
            f"bench ratio {ratio:.2f}; plain {plain_bps / 1e6:.0f} MB/s > "
            f"crypt-integrity {sealed_bps / 1e6:.0f} MB/s")
