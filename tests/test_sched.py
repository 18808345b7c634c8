from __future__ import annotations

import pytest

from oblivsim import (
    BLOCK_SIZE,
    BackpressureError,
    BlockStore,
    CallKind,
    Host,
    HostInterface,
    HostTrace,
    IntegrityError,
    ParameterError,
    ProtectionMode,
    RngTree,
    RoundConfig,
    RoundScheduler,
    SimClock,
    SizeError,
    layout_for,
    new_image,
)

KEY = bytes(range(32))
DUMMIES = [10, 11, 12, 13]


def make_sched(config=None, dummies=DUMMIES, n=16, seed=3):
    mode = ProtectionMode.CRYPT_INTEGRITY
    host = Host(new_image(n, mode), SimClock())
    iface = HostInterface(host, HostTrace(meta={}))
    store = BlockStore(iface, layout_for(n, mode), KEY)
    sched = RoundScheduler(store, dummies, RngTree(seed).stream("dummy"),
                           config)
    return store, sched


def run_rounds(sched, count, interval=None):
    interval = interval if interval is not None else sched.config.interval_ns
    start = sched.rounds
    for i in range(start, start + count):
        sched.run_round(i * interval)


def test_config_validation():
    with pytest.raises(ParameterError):
        RoundConfig(interval_ns=0)
    with pytest.raises(ParameterError):
        RoundConfig(reads_per_round=-1)
    with pytest.raises(ParameterError):
        RoundConfig(queue_capacity=0)
    with pytest.raises(ParameterError):
        RoundScheduler(*make_sched()[:1], [], RngTree(0).stream("dummy"))


@pytest.mark.parametrize("slots", [dict(reads_per_round=0), dict(writes_per_round=0)])
def test_a_round_without_a_read_or_a_write_slot_is_refused(slots):
    # A queued read needs a read slot to land, and the write queue a
    # write slot to drain.
    with pytest.raises(ParameterError):
        RoundConfig(**slots)


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


def test_events_stamped_at_round_time():
    store, sched = make_sched()
    run_rounds(sched, 5)
    assert store.iface.host.clock.now() == 4 * sched.config.interval_ns
    by_ts = {}
    for e in store.iface.trace.events:
        by_ts.setdefault(e.ts, []).append(e.kind)
    assert sorted(by_ts) == [i * sched.config.interval_ns for i in range(5)]
    for kinds in by_ts.values():
        assert kinds == [CallKind.DISK_READ, CallKind.DISK_WRITE]


def test_reads_run_before_writes_with_wider_rounds():
    cfg = RoundConfig(reads_per_round=3, writes_per_round=2)
    store, sched = make_sched(cfg)
    run_rounds(sched, 4)
    per_round = [e.kind for e in store.iface.trace.events[:5]]
    assert per_round == [CallKind.DISK_READ] * 3 + [CallKind.DISK_WRITE] * 2
    assert len(store.iface.trace.events) == 4 * 5


def test_real_requests_take_the_slots():
    store, sched = make_sched()
    store.write_block(5, b"\x42" * BLOCK_SIZE)
    store.iface.trace.reset()
    assert sched.submit_read(5) is None
    assert sched.submit_write(6, b"\x43" * BLOCK_SIZE) is None
    assert sched.pending_reads == 1 and sched.pending_writes == 1
    assert sched.run_round(0) == [b"\x42" * BLOCK_SIZE]
    assert sched.pending_reads == 0 and sched.pending_writes == 0
    assert sched.real_reads == 1 and sched.real_writes == 1
    assert sched.dummy_reads == 0 and sched.dummy_writes == 0
    events = store.iface.trace.events
    assert [(e.kind, e.offset) for e in events] == [
        (CallKind.DISK_READ, store.layout.data_offset(5)),
        (CallKind.DISK_WRITE, store.layout.data_offset(6))]
    assert store.read_block(6) == b"\x43" * BLOCK_SIZE


def test_a_round_returns_what_it_read_in_slot_order():
    store, sched = make_sched(RoundConfig(reads_per_round=2))
    for phys in (5, 6, 7):
        store.write_block(phys, bytes([phys]) * BLOCK_SIZE)
        sched.submit_read(phys)
    assert sched.run_round(0) == [b"\x05" * BLOCK_SIZE, b"\x06" * BLOCK_SIZE]
    assert sched.run_round(100_000) == [b"\x07" * BLOCK_SIZE]
    assert sched.run_round(200_000) == []
    assert sched.real_reads == 3 and sched.dummy_reads == 3


def test_a_handed_read_and_write_take_the_first_slots():
    store, sched = make_sched(RoundConfig(reads_per_round=2, writes_per_round=2))
    for phys in (5, 6):
        store.write_block(phys, bytes([phys]) * BLOCK_SIZE)
    sched.submit_read(6)
    sched.submit_write(7, b"\x07" * BLOCK_SIZE)
    store.iface.trace.reset()
    assert sched.run_round(0, 5, (8, b"\x08" * BLOCK_SIZE)) == [
        b"\x05" * BLOCK_SIZE, b"\x06" * BLOCK_SIZE]
    assert [e.offset for e in store.iface.trace.events] == [
        store.layout.data_offset(p) for p in (5, 6, 8, 7)]
    assert sched.pending_reads == sched.pending_writes == 0
    assert (sched.real_reads, sched.real_writes) == (2, 2)
    # Handed over alone, they leave the other slots to padding.
    assert sched.run_round(100_000, 6, (9, b"\x09" * BLOCK_SIZE)) == [b"\x06" * BLOCK_SIZE]
    assert (sched.dummy_reads, sched.dummy_writes) == (1, 1)
    assert store.read_block(9) == b"\x09" * BLOCK_SIZE


def test_busy_and_idle_rounds_share_a_shape():
    store_a, sched_a = make_sched(seed=9)
    store_b, sched_b = make_sched(seed=9)
    store_b.write_block(5, b"\x01" * BLOCK_SIZE)
    store_b.iface.trace.reset()
    sched_b.submit_read(5)
    sched_b.submit_write(5, b"\x02" * BLOCK_SIZE)
    run_rounds(sched_a, 3)
    run_rounds(sched_b, 3)
    assert store_a.iface.trace.shape() == store_b.iface.trace.shape()


def test_queue_capacity_pushes_back():
    store, sched = make_sched(RoundConfig(queue_capacity=2))
    sched.submit_read(5)
    sched.submit_read(5)
    with pytest.raises(BackpressureError):
        sched.submit_read(5)
    sched.submit_write(5, b"\x00" * BLOCK_SIZE)
    sched.submit_write(5, b"\x00" * BLOCK_SIZE)
    with pytest.raises(BackpressureError):
        sched.submit_write(5, b"\x00" * BLOCK_SIZE)


def test_pending_write_lookup_sees_newest():
    store, sched = make_sched(RoundConfig(writes_per_round=2))
    old, new = b"\x0a" * BLOCK_SIZE, b"\x0b" * BLOCK_SIZE
    sched.submit_write(5, old)
    sched.submit_write(5, new)
    assert sched.pending_write_for(5) == new
    assert sched.pending_write_for(6) is None
    assert sched.pending_writes == 2
    sched.run_round(0)
    assert sched.pending_write_for(5) is None
    assert store.read_block(5) == new  # FIFO execution, newest lands last


def test_rounds_respect_the_interval():
    store, sched = make_sched()
    sched.run_round(42)  # first round may start anywhere
    with pytest.raises(ParameterError):
        sched.run_round(42 + sched.config.interval_ns - 1)
    sched.run_round(42 + sched.config.interval_ns)
    assert sched.rounds == 2


def test_failed_read_still_completes_its_round():
    store, sched = make_sched()
    store.write_block(5, b"\x42" * BLOCK_SIZE)
    store.iface.host.image[store.layout.data_offset(5)] ^= 0x01
    store.iface.trace.reset()
    sched.submit_read(5)
    sched.submit_write(6, b"\x43" * BLOCK_SIZE)
    with pytest.raises(IntegrityError):
        run_rounds(sched, 1)
    assert sched.pending_writes == 0
    assert sched.rounds == 1 and sched.pending_reads == 0
    assert sched.run_round(sched.config.interval_ns) == []
    run_rounds(sched, 2)
    interval = sched.config.interval_ns
    assert [(e.ts, e.kind) for e in store.iface.trace.events] == [
        (i * interval, kind) for i in range(4)
        for kind in (CallKind.DISK_READ, CallKind.DISK_WRITE)]
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
    assert [e.ts for e in store.iface.trace.events] == [0, 0, 100_000, 100_000]
