"""Engine behavior: image building, the cached protected path, shuffle
triggers, the shaped net loop, and whole-run determinism."""

from __future__ import annotations

import hashlib

import pytest

from conftest import DEFAULT_KEY, mount
from oblivsim import (
    BLOCK_SIZE,
    CallKind,
    DescriptorError,
    EchoPeer,
    EngineConfig,
    ModeError,
    ParameterError,
    PeerIdentity,
    ProtectionMode,
    ShapingClass,
    StaticIdentity,
    build_image,
    establish,
    parse_workload,
    run_workload,
)
from oblivsim.blockcrypto import SLOT_SIZE

FILE_A = bytes(range(256)) * 16 * 8
FILE_B = b"\xab" * 4096 * 3


def net_pair(mtu=1500):
    """Enclave-side and remote-side sessions over the same link."""
    a = StaticIdentity.from_private_bytes(bytes(range(32)))
    b = StaticIdentity.from_private_bytes(bytes(range(32, 64)))
    enclave = establish(a, PeerIdentity(b.public_bytes), mtu)
    remote = establish(b, PeerIdentity(a.public_bytes), mtu)
    return enclave, remote


# --- build_image -----------------------------------------------------------


def test_files_read_back_on_the_protected_path(small_bundle):
    eng = mount(small_bundle).engine
    assert eng.read_file(eng.regular_fd(0), 0, len(FILE_A)) == FILE_A
    assert eng.read_file(eng.regular_fd(1), 0, len(FILE_B)) == FILE_B


def test_files_read_back_on_the_passthrough_path(small_bundle):
    eng = mount(small_bundle, oblivious=False).engine
    assert eng.read_file(eng.regular_fd(0), 0, len(FILE_A)) == FILE_A
    assert eng.read_file(eng.regular_fd(1), 0, len(FILE_B)) == FILE_B


def test_key_generated_when_encrypted_and_absent():
    bundle = build_image(32, ProtectionMode.CRYPT_INTEGRITY, [b"x" * 100])
    assert isinstance(bundle.key, bytes) and len(bundle.key) == 32
    eng = mount(bundle, oblivious=False).engine
    assert eng.read_file(eng.regular_fd(0), 0, 100) == b"x" * 100


def test_plain_image_has_no_key_and_builds_identically():
    kw = dict(files=[b"p" * 5000], seed=3)
    one = build_image(32, ProtectionMode.PLAIN, **kw)
    two = build_image(32, ProtectionMode.PLAIN, **kw)
    assert one.key is None and one.verity_root is None
    assert one.image == two.image


def test_verity_image_is_sealed_read_only():
    kw = dict(files=[b"v" * 4096], seed=1)
    one = build_image(32, ProtectionMode.VERITY, **kw)
    two = build_image(32, ProtectionMode.VERITY, **kw)
    assert one.verity_root is not None and one.verity_root == two.verity_root
    eng = mount(one, oblivious=False).engine
    assert eng.read_file(eng.regular_fd(0), 0, 4096) == b"v" * 4096
    with pytest.raises(ModeError):
        eng.write_file(eng.regular_fd(0), 0, b"!")


def test_encrypted_image_leaves_no_unsealed_blocks(small_bundle):
    # Blocks never touched by a file must look to the host like every
    # other block, not zeroes it could use to map the layout offline:
    # the raw image holds distinct ciphertext in every data block and a
    # set slot for each. Inside, the padding is sealed zeros.
    m = mount(small_bundle, oblivious=False)
    assert all(v is not None for v in m.store.slots)
    pages = [m.store.read_block(p) for p in range(64)]
    assert all(len(p) == BLOCK_SIZE for p in pages)

    image, layout = small_bundle.image, m.store.layout
    raw = [bytes(image[layout.data_offset(p):layout.data_offset(p) + BLOCK_SIZE])
           for p in range(64)]
    assert bytes(BLOCK_SIZE) not in raw
    assert len(set(raw)) == 64
    slots = image[layout.slot_region_offset():layout.data_offset(0)]
    assert all(slots[i * SLOT_SIZE:(i + 1) * SLOT_SIZE] != bytes(SLOT_SIZE)
               for i in range(64))

    used = set(range(m.fs.metadata_blocks))
    for fd in small_bundle.data_fds:
        used.update(m.fs.phys_of(fd, i) for i in range(m.fs.file_blocks(fd)))
    padding = set(range(64)) - used
    assert padding and all(pages[p] == bytes(BLOCK_SIZE) for p in padding)


def test_built_image_cannot_be_written_through(small_bundle):
    with pytest.raises(TypeError):
        small_bundle.image[0] = 0


def test_same_seed_same_layout_fresh_ciphertext():
    kw = dict(files=[b"d" * 9000], seed=11, key=DEFAULT_KEY)
    one = build_image(32, ProtectionMode.CRYPT_INTEGRITY, **kw)
    two = build_image(32, ProtectionMode.CRYPT_INTEGRITY, **kw)
    fs1, fs2 = mount(one).fs, mount(two).fs
    assert [fs1.phys_of(one.data_fds[0], i) for i in range(3)] == \
           [fs2.phys_of(two.data_fds[0], i) for i in range(3)]
    assert fs1.dummy_blocks() == fs2.dummy_blocks()
    assert one.image != two.image


def test_regular_fd_skips_internal_files(small_bundle):
    eng = mount(small_bundle).engine
    assert (eng.regular_fd(0), eng.regular_fd(1)) == small_bundle.data_fds
    with pytest.raises(DescriptorError):
        eng.regular_fd(2)
    with pytest.raises(DescriptorError):
        eng.regular_fd(-1)


# --- rounds and the cache --------------------------------------------------


def test_idle_rounds_sit_on_the_interval_grid(small_bundle):
    m = mount(small_bundle)
    m.engine.start_observation()
    m.engine.run_rounds(10)
    disk = m.trace.of_kind(CallKind.DISK_READ, CallKind.DISK_WRITE)
    assert len(disk) == 20
    assert all(e.dummy for e in disk)
    for i in range(10):
        read, write = disk[2 * i], disk[2 * i + 1]
        assert read.kind is CallKind.DISK_READ
        assert write.kind is CallKind.DISK_WRITE
        assert read.ts == write.ts == i * 100_000


def test_queued_write_serves_a_later_read(small_bundle):
    m = mount(small_bundle, config=EngineConfig(cache_capacity=1))
    eng = m.engine
    fd = eng.regular_fd(0)
    eng.write_file(fd, 0, b"Q" * BLOCK_SIZE)
    eng.write_file(fd, BLOCK_SIZE, b"R" * BLOCK_SIZE)  # evicts block 0
    assert eng.sched.pending_writes == 1

    # The freshest block 0 lives in the write queue; reading it back must
    # not touch the disk, which still holds the stale bytes.
    assert eng.read_file(fd, 0, 16) == b"Q" * 16
    assert eng.sched.real_reads == 0

    while eng.sched.pending_writes:
        eng.run_one_round()
    assert m.store.read_block(m.fs.phys_of(fd, 0)) == b"Q" * BLOCK_SIZE
    assert m.store.read_block(m.fs.phys_of(fd, 1)) == b"R" * BLOCK_SIZE


def test_refetch_after_evict_forces_a_shuffle(small_bundle):
    m = mount(small_bundle, config=EngineConfig(cache_capacity=1))
    eng = m.engine
    fd = eng.regular_fd(0)
    before = m.fs.phys_of(fd, 0)
    assert eng.read_file(fd, 0, 1) == b"\x00"
    eng.read_file(fd, BLOCK_SIZE, 1)  # evicts block 0 within the epoch
    assert eng.shuffles == 0
    assert eng.read_file(fd, 0, 1) == b"\x00"
    assert eng.shuffles == 1
    assert m.fs.phys_of(fd, 0) != before


def test_eager_shuffle_threshold(small_bundle):
    m = mount(small_bundle, config=EngineConfig(eager_shuffle_at=2))
    eng = m.engine
    fd = eng.regular_fd(0)
    eng.read_file(fd, 0, 1)
    assert eng.shuffles == 0
    eng.read_file(fd, BLOCK_SIZE, 1)
    assert eng.shuffles == 1
    assert len(eng.cache.epoch_fetched) == 0


def test_passthrough_refuses_protected_operations(small_bundle):
    eng = mount(small_bundle, oblivious=False).engine
    with pytest.raises(ModeError):
        eng.run_one_round()
    with pytest.raises(ModeError):
        eng.shuffle_now()


def test_passthrough_charges_fixed_latency(small_bundle):
    m = mount(small_bundle, oblivious=False)
    eng = m.engine
    eng.read_file(eng.regular_fd(0), 0, 1)
    assert eng.elapsed_ns == 10_000
    eng.write_file(eng.regular_fd(0), 0, b"y" * BLOCK_SIZE)
    assert eng.elapsed_ns == 20_000


def test_trace_records_every_boundary_mutation(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    m.engine.add_link(3, enclave)
    m.engine.add_external_pump(EchoPeer(m.host, 3, remote, ShapingClass()))

    m.engine.start_observation()
    fd = m.engine.regular_fd(0)
    m.engine.write_file(fd, 0, b"z" * BLOCK_SIZE)
    m.engine.net_send(3, b"hello")
    m.engine.read_file(fd, 2 * BLOCK_SIZE, 64)
    m.engine.run_rounds(4)
    m.engine.cache.flush()
    while m.engine.sched.pending_writes or m.engine.sched.pending_reads:
        m.engine.run_one_round()

    mutations = m.trace.of_kind(
        CallKind.DISK_WRITE, CallKind.NET_WRITE, CallKind.NET_READ)
    assert m.host.boundary_mutations == len(mutations) > 8


# --- net links ---------------------------------------------------------------


def test_echo_peer_roundtrip(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    link = m.engine.add_link(7, enclave)
    peer = EchoPeer(m.host, 7, remote, ShapingClass())
    m.engine.add_external_pump(peer)

    m.engine.net_send(7, b"ping")
    m.engine.run_rounds(2)

    assert peer.session.received_real == 1
    assert list(link.inbox) == [b"ping"]
    assert link.rx_payload_bytes == 4
    assert link.rx_errors == 0
    assert m.engine.counters()["net_real"] >= 1
    assert m.engine.counters()["net_dummy"] >= 1


def test_net_writes_stay_on_the_shaper_grid(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    m.engine.add_link(7, enclave)
    m.engine.add_external_pump(EchoPeer(m.host, 7, remote, ShapingClass()))
    m.engine.start_observation()
    m.engine.run_rounds(6)
    writes = m.trace.of_kind(CallKind.NET_WRITE)
    assert len(writes) >= 9  # 200 Mbps puts a frame every 60 us
    assert all(e.payload_len == m.host.mtu for e in writes)
    assert all(e.ts % 60_000 == 0 for e in writes)
    deltas = [b.ts - a.ts for a, b in zip(writes, writes[1:])]
    assert all(d == 60_000 for d in deltas)


# (endpoint, link rate, burst, peer rate): mixed rates, bursts and a peer
# slower or faster than its link.
MIXED_LINKS = [(0, 200_000_000, 1, 200_000_000), (1, 100_000_000, 1, 100_000_000),
               (2, 150_000_000, 2, 150_000_000), (3, 50_000_000, 1, 80_000_000),
               (4, 333_333_333, 1, 333_333_333), (5, 200_000_000, 3, 120_000_000),
               (6, 75_000_000, 1, 75_000_000)]
LATE_LINK = (7, 120_000_000, 1, 240_000_000)
# SHA-256 of the ground-truth export of ``_run_mixed_links`` and of its echo
# log, fixed when the net loop polled every actor at every instant; the
# event-driven loop must reproduce both byte for byte. The trace pins the
# order of the enclave's calls; the echo log pins when each payload came
# back, which moves if peers and links swap turns within an instant.
MIXED_LINKS_TRACE_SHA256 = \
    "05a886a9a9567926477af622c5d66889c782c0a907128437c61c95659bbab64a"
MIXED_LINKS_ECHO_SHA256 = \
    "04c085e935456cb27b064cfe6e604d5841297b772cb2b431f52b5e6008bb2bdd"


def _run_mixed_links(bundle):
    """Seven links, an eighth added at round 20 mid-interval, sends on a
    fixed schedule; 60 observed rounds. Returns the mount, the peers by
    endpoint and one ``round,endpoint,payload`` line per echo received."""
    m = mount(bundle, seed=3)
    peers = {}
    echoes = []

    def attach(spec, start_ns):
        ep, rate, burst, peer_rate = spec
        a = StaticIdentity.from_private_bytes(bytes([ep]) * 31 + b"\x01")
        b = StaticIdentity.from_private_bytes(bytes([ep]) * 31 + b"\x02")
        m.engine.add_link(ep, establish(a, PeerIdentity(b.public_bytes)),
                          ShapingClass(rate, burst), start_ns)
        peers[ep] = EchoPeer(m.host, ep, establish(b, PeerIdentity(a.public_bytes)),
                             ShapingClass(peer_rate, burst), start_ns)
        m.engine.add_external_pump(peers[ep])

    for spec in MIXED_LINKS:
        attach(spec, 0)
    m.engine.start_observation()
    for r in range(60):
        if r == 20:
            attach(LATE_LINK, m.engine.rounds_done * 100_000 + 12_345)
        for link in m.engine.links:
            if (r + link.endpoint) % 3 == 0:
                m.engine.net_send(link.endpoint,
                                  bytes([r, link.endpoint]) * (8 + link.endpoint))
        m.engine.run_one_round()
        for link in m.engine.links:
            while link.inbox:
                echoes.append(f"{r},{link.endpoint},{link.inbox.popleft().hex()}\n")
    return m, peers, echoes


def test_mixed_link_event_order_is_pinned(small_bundle):
    m, _peers, echoes = _run_mixed_links(small_bundle)
    text = m.trace.export(ground_truth=True)
    assert len(m.trace) == 2268
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_LINKS_TRACE_SHA256
    assert len(echoes) == 152
    assert hashlib.sha256("".join(echoes).encode()).hexdigest() == \
        MIXED_LINKS_ECHO_SHA256


def test_every_frame_sent_is_received_or_still_queued(small_bundle):
    m, peers, _echoes = _run_mixed_links(small_bundle)
    in_flight = {}
    for ep, _frame in m.host.ingress:
        in_flight[ep] = in_flight.get(ep, 0) + 1
    for link in m.engine.links:
        peer = peers[link.endpoint]
        out, back = link.session, peer.session
        assert out.sent_real + out.sent_dummy > 0
        # Enclave -> peer: opened by the peer, rejected, or on the wire.
        assert out.sent_real + out.sent_dummy == (
            back.received_real + back.received_dummy + peer.rx_errors
            + len(m.host.egress[link.endpoint]))
        # Peer -> enclave, the same.
        assert back.sent_real + back.sent_dummy == (
            out.received_real + out.received_dummy + link.rx_errors
            + in_flight.get(link.endpoint, 0))
        assert peer.rx_errors == link.rx_errors == peer.dropped == 0


def test_echo_peer_drops_a_burst_beyond_its_queue_and_keeps_echoing(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    link = m.engine.add_link(7, enclave, ShapingClass(burst_frames=4))
    peer = EchoPeer(m.host, 7, remote, ShapingClass(queue_frames=1))
    m.engine.add_external_pump(peer)
    for i in range(4):
        m.engine.net_send(7, b"burst %d" % i)
    m.engine.run_rounds(3)
    assert peer.session.received_real == 4
    assert peer.dropped == 3
    assert list(link.inbox) == [b"burst 0"]

    m.engine.net_send(7, b"after")
    m.engine.run_rounds(3)
    assert peer.dropped == 3
    assert list(link.inbox) == [b"burst 0", b"after"]


class _ScriptedPump:
    """Due at each time in ``dues`` in turn, then retired (None)."""

    def __init__(self, dues):
        self.dues = list(dues)
        self.ran = []
        self.reads = 0

    def next_due_ns(self):
        self.reads += 1
        return self.dues[0] if self.dues else None

    def pump(self, now_ns):
        self.ran.append(now_ns)
        self.dues.pop(0)


def test_pump_due_time_is_read_after_adding_and_after_each_pump(small_bundle):
    m = mount(small_bundle)
    pump = _ScriptedPump([0, 50_000, 150_000])
    m.engine.add_external_pump(pump)
    m.engine.run_rounds(5)
    assert pump.ran == [0, 50_000, 150_000]
    assert pump.reads == 1 + len(pump.ran)  # the last read returned None


def test_pump_that_does_not_move_forward_is_refused(small_bundle):
    m = mount(small_bundle)
    m.engine.add_external_pump(_ScriptedPump([0, 40_000, 40_000]))
    with pytest.raises(ParameterError):
        m.engine.run_rounds(2)


def test_link_added_after_rounds_starts_at_the_current_time(small_bundle):
    m = mount(small_bundle)
    m.engine.run_rounds(5)
    now = m.engine.clock.now()
    enclave, _remote = net_pair()
    link = m.engine.add_link(0, enclave)
    m.engine.run_rounds(2)
    assert m.engine.rounds_done == 7
    writes = m.trace.of_kind(CallKind.NET_WRITE)
    assert link.session.sent_real + link.session.sent_dummy == len(writes) > 0
    assert writes[0].ts == now


def test_link_starting_before_the_clock_is_refused(small_bundle):
    m = mount(small_bundle)
    m.engine.run_rounds(5)
    enclave, _remote = net_pair()
    with pytest.raises(ParameterError):
        m.engine.add_link(0, enclave, start_ns=m.engine.clock.now() - 1)
    assert m.engine.links == []
    m.engine.add_link(0, enclave, start_ns=m.engine.clock.now())
    m.engine.run_rounds(2)
    assert m.engine.rounds_done == 7


def test_pump_already_due_in_the_past_is_refused(small_bundle):
    m = mount(small_bundle)
    m.engine.run_rounds(5)
    _enclave, remote = net_pair()
    pump = _ScriptedPump([m.engine.clock.now() - 1])
    with pytest.raises(ParameterError):
        m.engine.add_external_pump(pump)
    with pytest.raises(ParameterError):
        m.engine.add_external_pump(EchoPeer(m.host, 0, remote, ShapingClass()))
    m.engine.run_rounds(2)
    assert m.engine.rounds_done == 7
    assert pump.ran == []


def test_duplicate_endpoint_rejected(small_bundle):
    m = mount(small_bundle)
    enclave, _remote = net_pair()
    m.engine.add_link(7, enclave)
    with pytest.raises(ParameterError):
        m.engine.add_link(7, enclave)


def test_send_to_unlinked_endpoint_rejected(small_bundle):
    m = mount(small_bundle)
    with pytest.raises(ParameterError):
        m.engine.net_send(9, b"lost")
    with pytest.raises(ParameterError):
        m.engine.link(9)


def test_frame_for_unknown_endpoint_is_counted_and_dropped(small_bundle):
    m = mount(small_bundle)
    enclave, _remote = net_pair()
    m.engine.add_link(7, enclave)
    m.host.deliver_frame(99, bytes(1500))
    m.engine.run_rounds(1)
    assert m.engine.unknown_frames == 1
    assert m.engine.link(7).rx_errors == 0


def test_undecryptable_frame_counts_as_rx_error(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    link = m.engine.add_link(7, enclave)
    frame = bytearray(remote.seal_packet(b"flip me"))
    frame[40] ^= 0x01
    m.host.deliver_frame(7, bytes(frame))
    m.engine.run_rounds(1)
    assert link.rx_errors == 1
    assert list(link.inbox) == []


# --- run_workload ------------------------------------------------------------


def test_round_budget_truncates_a_long_workload(small_bundle):
    eng = mount(small_bundle).engine
    done = run_workload(eng, parse_workload("seqread(0,0)"), target_rounds=3)
    assert done is False
    assert eng.rounds_done == 3
    assert eng.round_target is None


def test_short_workload_padded_to_the_target(small_bundle):
    eng = mount(small_bundle).engine
    done = run_workload(eng, parse_workload("idle(2)"), target_rounds=6)
    assert done is True
    assert eng.rounds_done == 6


def test_same_seed_same_trace(small_bundle):
    exports = []
    for _ in range(2):
        m = mount(small_bundle, seed=5)
        run_workload(m.engine, parse_workload("randread(0,40)"),
                     target_rounds=60)
        exports.append(m.trace.export(ground_truth=True))
    assert exports[0] == exports[1]


def test_counters_shape(small_bundle):
    keys = {"rounds", "real_reads", "dummy_reads", "real_writes",
            "dummy_writes", "shuffles", "cache_hits", "net_real", "net_dummy"}
    protected = mount(small_bundle).engine
    protected.run_rounds(2)
    c = protected.counters()
    assert set(c) == keys
    assert c["rounds"] == 2 and c["dummy_reads"] == 2

    plain = mount(small_bundle, oblivious=False).engine
    plain.read_file(plain.regular_fd(0), 0, 1)
    c = plain.counters()
    assert set(c) == keys
    assert c["rounds"] == 0 and c["real_reads"] == 0
