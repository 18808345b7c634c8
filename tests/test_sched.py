from __future__ import annotations

import dataclasses

import pytest

from conftest import mount
from oblivsim import (
    BLOCK_SIZE,
    DEFAULT_MTU,
    DEFAULT_ROUND_INTERVAL_NS,
    BlockStore,
    CallKind,
    EngineConfig,
    Host,
    HostInterface,
    HostTrace,
    IntegrityError,
    ParameterError,
    PeerIdentity,
    ProtectionMode,
    RngTree,
    RoundConfig,
    RoundScheduler,
    ShapingClass,
    SimClock,
    SimError,
    SizeError,
    StaticIdentity,
    establish,
    layout_for,
    new_image,
    trace_fingerprint,
)

KEY = bytes(range(32))
DUMMIES = [10, 11, 12, 13]


def make_sched(dummies=DUMMIES, n=16, seed=3):
    mode = ProtectionMode.CRYPT_INTEGRITY
    layout = layout_for(n, mode)
    host = Host(new_image(layout), SimClock())
    iface = HostInterface(host, HostTrace(meta={}))
    store = BlockStore(iface, layout, KEY)
    sched = RoundScheduler(store, dummies, RngTree(seed).stream("dummy"))
    return store, sched


def run_rounds(sched, count):
    for _ in range(count):
        sched.run_round()


def test_config_validation():
    with pytest.raises(ParameterError):
        RoundScheduler(*make_sched()[:1], [], RngTree(0).stream("dummy"))


def test_the_round_shape_is_fixed_and_the_trace_metadata_keeps_it():
    # One read, then one write, every 0.1 ms, is not a setting: the slot
    # counts and the interval are class constants, the engine's one
    # setting is its shelter size, and the trace metadata still records
    # the round.
    for kw in ({"reads_per_round": 2}, {"interval_ns": 200_000}):
        with pytest.raises(TypeError):
            RoundConfig(**kw)
    with pytest.raises(TypeError):
        EngineConfig(round=RoundConfig())
    assert [f.name for f in dataclasses.fields(EngineConfig)] == ["cache_capacity"]
    assert EngineConfig().round.interval_ns == DEFAULT_ROUND_INTERVAL_NS == 100_000
    assert RoundConfig.reads_per_round == RoundConfig.writes_per_round == 1
    assert trace_fingerprint(RoundConfig(), DEFAULT_MTU) == {
        "interval_ns": 100_000, "reads_per_round": 1, "writes_per_round": 1,
        "mtu": 1500}


def test_idle_rounds_emit_full_padding():
    store, sched = make_sched()
    run_rounds(sched, 20)
    trace = store.iface.trace
    reads = trace.of_kind(CallKind.DISK_READ)
    writes = trace.of_kind(CallKind.DISK_WRITE)
    assert len(reads) == 20 and len(writes) == 20
    assert sched.dummy_reads == 20 and sched.dummy_writes == 20
    assert sched.real_reads == 0 and sched.real_writes == 0
    domain = {store.layout.data_offset(p) for p in DUMMIES}
    assert {e.offset for e in trace.events} <= domain
    assert len({e.offset for e in trace.events}) > 1
    # A round takes no time: its calls are stamped where the clock stands.
    assert store.iface.host.clock.now() == 0
    assert {e.ts for e in trace.events} == {0}


def test_events_stamped_at_round_time():
    # The caller places each round; its calls are stamped at that instant,
    # the read before the write.
    store, sched = make_sched()
    clock = store.iface.host.clock
    interval = RoundConfig().interval_ns
    for i in range(5):
        clock.advance_to(i * interval)
        sched.run_round()
    assert clock.now() == 4 * interval
    by_ts = {}
    for e in store.iface.trace.events:
        by_ts.setdefault(e.ts, []).append(e.kind)
    assert sorted(by_ts) == [i * interval for i in range(5)]
    for kinds in by_ts.values():
        assert kinds == [CallKind.DISK_READ, CallKind.DISK_WRITE]


def test_real_requests_take_the_slots():
    store, sched = make_sched()
    store.write_block(5, b"\x42" * BLOCK_SIZE)
    store.iface.trace.reset()
    assert sched.submit_write(6, b"\x43" * BLOCK_SIZE) is None
    assert sched.pending_writes == 1
    assert sched.run_round(5) == b"\x42" * BLOCK_SIZE
    assert sched.pending_writes == 0
    assert sched.real_reads == 1 and sched.real_writes == 1
    assert sched.dummy_reads == 0 and sched.dummy_writes == 0
    events = store.iface.trace.events
    assert [(e.kind, e.offset) for e in events] == [
        (CallKind.DISK_READ, store.layout.data_offset(5)),
        (CallKind.DISK_WRITE, store.layout.data_offset(6))]
    assert store.read_block(6) == b"\x43" * BLOCK_SIZE


def _landing(store, phys, calls):
    """A ``land`` that logs what it is handed, and how many calls the
    host had seen by then, and lands its plaintext at ``phys``."""
    def land(data):
        calls.append((data, len(store.iface.trace.events)))
        return phys, data if data is not None else b"\x0e" * BLOCK_SIZE
    return land


def test_land_gets_its_rounds_read_after_every_read_slot():
    store, sched = make_sched()
    for phys in (5, 6):
        store.write_block(phys, bytes([phys]) * BLOCK_SIZE)
    sched.submit_write(7, b"\x07" * BLOCK_SIZE)
    store.iface.trace.reset()
    calls = []
    assert sched.run_round(5, _landing(store, 8, calls)) == b"\x05" * BLOCK_SIZE
    # Called once, after the read and before the write, with the
    # plaintext of the round's own read.
    assert calls == [(b"\x05" * BLOCK_SIZE, 1)]
    # The handed read, then the landed block; the queued write waits.
    assert [e.offset for e in store.iface.trace.events] == [
        store.layout.data_offset(p) for p in (5, 8)]
    assert sched.pending_writes == 1
    assert (sched.real_reads, sched.real_writes) == (1, 1)
    assert (sched.dummy_reads, sched.dummy_writes) == (0, 0)
    assert store.read_block(8) == b"\x05" * BLOCK_SIZE
    # The next round without a land writes the queued block.
    assert sched.run_round(6) == b"\x06" * BLOCK_SIZE
    assert store.iface.trace.events[-1].offset == store.layout.data_offset(7)
    assert sched.pending_writes == 0
    assert (sched.real_reads, sched.real_writes) == (2, 2)
    assert store.read_block(7) == b"\x07" * BLOCK_SIZE


def test_land_handed_without_a_read_gets_none():
    store, sched = make_sched()
    store.iface.trace.reset()
    calls = []
    assert sched.run_round(None, _landing(store, 8, calls)) is None
    assert calls == [(None, 1)]
    assert (sched.dummy_reads, sched.real_writes, sched.dummy_writes) == (1, 1, 0)
    assert store.iface.trace.events[1].offset == store.layout.data_offset(8)
    assert store.read_block(8) == b"\x0e" * BLOCK_SIZE


def test_land_is_not_called_after_a_failed_read():
    store, sched = make_sched()
    store.write_block(5, b"\x42" * BLOCK_SIZE)
    store.iface.host.image[store.layout.data_offset(5)] ^= 0x01
    store.iface.trace.reset()
    calls = []
    with pytest.raises(IntegrityError):
        sched.run_round(5, _landing(store, 8, calls))
    # The round still runs its write slot, as padding, and counts.
    assert calls == []
    assert sched.rounds == 1
    assert (sched.real_reads, sched.real_writes, sched.dummy_writes) == (1, 0, 1)
    write = store.iface.trace.events[1]
    assert write.kind is CallKind.DISK_WRITE
    assert write.offset in {store.layout.data_offset(p) for p in DUMMIES}


def test_busy_and_idle_rounds_share_a_shape():
    store_a, sched_a = make_sched(seed=9)
    store_b, sched_b = make_sched(seed=9)
    store_b.write_block(5, b"\x01" * BLOCK_SIZE)
    store_b.iface.trace.reset()
    sched_b.submit_write(5, b"\x02" * BLOCK_SIZE)
    run_rounds(sched_a, 3)
    assert sched_b.run_round(5) == b"\x01" * BLOCK_SIZE
    run_rounds(sched_b, 2)
    assert (sched_b.real_reads, sched_b.real_writes) == (1, 1)
    assert store_a.iface.trace.shape() == store_b.iface.trace.shape()


def test_pending_write_lookup_sees_newest():
    store, sched = make_sched()
    old, new = b"\x0a" * BLOCK_SIZE, b"\x0b" * BLOCK_SIZE
    sched.submit_write(5, old)
    sched.submit_write(5, new)
    assert sched.pending_write_for(5) == new
    assert sched.pending_write_for(6) is None
    assert sched.pending_writes == 2
    sched.run_round()
    assert sched.pending_write_for(5) == new
    sched.run_round()
    assert sched.pending_write_for(5) is None
    assert store.read_block(5) == new  # FIFO execution, newest lands last


def test_reads_are_handed_over_never_queued():
    store, sched = make_sched()
    store.iface.trace.reset()
    with pytest.raises(SimError, match="run_round"):
        sched.submit_read(5)
    assert sched.pending_reads == sched.pending_writes == 0
    assert len(store.iface.trace.events) == 0
    assert (sched.rounds, sched.real_reads, sched.dummy_reads,
            sched.real_writes, sched.dummy_writes) == (0, 0, 0, 0, 0)


def test_rounds_respect_the_interval(small_bundle):
    # The engine alone places rounds: round k at k x interval, with a
    # link's frames, on a 60 us grid the interval is no multiple of, sent
    # between rounds and none of them pulling a round early or pushing it
    # late.
    interval = DEFAULT_ROUND_INTERVAL_NS
    m = mount(small_bundle)
    m.engine.start_observation()
    a, b = StaticIdentity.generate(), StaticIdentity.generate()
    link = establish(a, PeerIdentity(b.public_bytes))
    m.engine.add_link(7, link, ShapingClass(rate_bps=200_000_000))
    m.engine.run_rounds(6)
    disk = m.trace.of_kind(CallKind.DISK_READ, CallKind.DISK_WRITE)
    assert [e.ts for e in disk] == [k * interval for k in range(6) for _ in "rw"]
    writes = m.trace.of_kind(CallKind.NET_WRITE)
    assert [e.ts for e in writes] == list(range(0, 5 * interval + 1, 60_000))
    assert m.engine.clock.now() == 5 * interval


def test_failed_read_still_completes_its_round():
    store, sched = make_sched()
    store.write_block(5, b"\x42" * BLOCK_SIZE)
    store.iface.host.image[store.layout.data_offset(5)] ^= 0x01
    store.iface.trace.reset()
    sched.submit_write(6, b"\x43" * BLOCK_SIZE)
    with pytest.raises(IntegrityError):
        sched.run_round(5)
    assert sched.pending_writes == 0
    assert sched.rounds == 1 and (sched.real_reads, sched.real_writes) == (1, 1)
    assert sched.run_round() is None
    run_rounds(sched, 2)
    assert [e.kind for e in store.iface.trace.events] == \
        [CallKind.DISK_READ, CallKind.DISK_WRITE] * 4
    assert sched.real_reads + sched.dummy_reads == 4
    assert sched.real_writes + sched.dummy_writes == 4
    assert store.read_block(6) == b"\x43" * BLOCK_SIZE  # padding never aims at 6


def test_write_that_is_not_one_block_is_refused_before_queueing():
    store, sched = make_sched()
    for payload in (b"short", b"\x00" * (BLOCK_SIZE + 1)):
        with pytest.raises(SizeError):
            sched.submit_write(5, payload)
    assert sched.pending_writes == 0
    store.iface.trace.reset()
    run_rounds(sched, 2)
    assert sched.rounds == 2
    assert [e.kind for e in store.iface.trace.events] == \
        [CallKind.DISK_READ, CallKind.DISK_WRITE] * 2
