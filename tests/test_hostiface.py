"""The seven calls: argument validation, trace completeness, clock
clamping and signal rules."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from oblivsim import (
    RECORD_SIZE,
    AlignmentError,
    BoundsError,
    CallKind,
    ClockId,
    Host,
    HostInterface,
    ParameterError,
    SignalInfo,
    SimClock,
    SizeError,
    WouldBlock,
)
from oblivsim.hostiface import ENCLAVE_RANGE, SignalDisposition, SignalOutcome


def make_iface(blocks: int = 4) -> HostInterface:
    return HostInterface(Host(bytearray(RECORD_SIZE * blocks), SimClock()))


def test_image_must_be_block_aligned():
    for length in (100, 4096, 2 * 4096):  # whole blocks are not whole records
        with pytest.raises(SizeError):
            Host(bytearray(length))


def test_disk_roundtrip_and_trace():
    iface = make_iface()
    record = bytes(range(256)) * 16 + b"\x5e" * (RECORD_SIZE - 4096)
    assert RECORD_SIZE == 4096 + 40
    iface.disk_write(RECORD_SIZE, record)
    assert iface.disk_read(RECORD_SIZE) == record
    kinds = [e.kind for e in iface.trace.events]
    assert kinds == [CallKind.DISK_WRITE, CallKind.DISK_READ]
    assert all(e.offset == RECORD_SIZE and e.payload_len == RECORD_SIZE
               for e in iface.trace.events)


def test_disk_rejections_leave_no_event():
    iface = make_iface(2)
    with pytest.raises(AlignmentError):
        iface.disk_read(17)
    with pytest.raises(AlignmentError):
        iface.disk_read(4096)  # block-aligned, not record-aligned
    with pytest.raises(BoundsError):
        iface.disk_read(2 * RECORD_SIZE)
    with pytest.raises(BoundsError):
        iface.disk_read(-RECORD_SIZE)
    with pytest.raises(SizeError):
        iface.disk_write(0, b"short")
    with pytest.raises(SizeError):
        iface.disk_write(0, bytes(4096))  # a bare block is not a record
    with pytest.raises(WouldBlock):
        iface.net_read()
    assert len(iface.trace) == 0
    assert iface.host.boundary_mutations == 0


def test_every_mutation_is_traced():
    iface = make_iface()
    iface.disk_write(0, b"\x00" * RECORD_SIZE)
    iface.net_write(2, b"\xaa" * iface.host.mtu)
    iface.host.deliver_frame(1, b"\xbb" * iface.host.mtu)
    iface.net_read()
    assert iface.host.boundary_mutations == 3
    assert len(iface.trace) == 3


def test_net_write_enforces_mtu():
    iface = make_iface()
    with pytest.raises(SizeError):
        iface.net_write(0, b"x" * (iface.host.mtu - 1))
    assert not iface.host.egress


def test_net_frames_queue_fifo():
    iface = make_iface()
    host = iface.host
    host.deliver_frame(4, b"\x01" * host.mtu)
    host.deliver_frame(9, b"\x02" * host.mtu)
    assert iface.net_read() == (4, b"\x01" * host.mtu)
    assert iface.net_read() == (9, b"\x02" * host.mtu)
    # Egress is FIFO per endpoint, and endpoints never see each other's frames.
    for i in range(3):
        iface.net_write(7, bytes([0x70 + i]) * host.mtu)
        iface.net_write(8, bytes([0x80 + i]) * host.mtu)
    assert sum(map(len, host.egress.values())) == 6
    assert sorted(host.egress) == [7, 8]
    assert host.egress[8].popleft() == b"\x80" * host.mtu
    assert list(host.egress[7]) == [bytes([0x70 + i]) * host.mtu for i in range(3)]
    assert list(host.egress[8]) == [bytes([0x80 + i]) * host.mtu for i in (1, 2)]
    host.egress[7].clear()
    host.egress[8].clear()
    assert not any(host.egress.values())


def test_deliver_frame_checks_size():
    host = make_iface().host
    with pytest.raises(SizeError):
        host.deliver_frame(0, b"tiny")


def test_net_poll_reflects_ingress_and_honors_script():
    iface = make_iface()
    assert iface.net_poll() == (False, True)
    iface.host.deliver_frame(0, b"\x00" * iface.host.mtu)
    assert iface.net_poll() == (True, True)
    iface.host.poll_script = [(False, False)]
    assert iface.net_poll() == (False, False)  # host may lie
    assert iface.net_poll() == (True, True)


def test_ingress_corrupter_is_normalized_to_mtu():
    iface = make_iface()
    iface.host.ingress_corrupter = lambda f: f[:10]
    iface.host.deliver_frame(0, b"\xff" * iface.host.mtu)
    _ep, frame = iface.net_read()
    assert len(frame) == iface.host.mtu
    assert frame[:10] == b"\xff" * 10


def test_time_read_realtime_offset_and_kind():
    iface = make_iface()
    iface.host.clock.advance_to(5_000)
    mono = iface.time_read(ClockId.MONOTONIC)
    real = iface.time_read(ClockId.REALTIME)
    assert mono == 5_000
    assert real == 5_000 + iface.host.realtime_epoch_ns
    assert [e.kind for e in iface.trace.events] == [CallKind.TIME_READ] * 2
    with pytest.raises(ParameterError):
        iface.time_read("monotonic")


@given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1,
                max_size=30))
def test_monotonic_never_runs_backwards(raw_times):
    iface = make_iface()
    iface.host.clock_script = {ClockId.MONOTONIC: list(raw_times)}
    seen = [iface.time_read(ClockId.MONOTONIC) for _ in raw_times]
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    # The clamp only ever lifts values, never invents new maxima.
    assert max(seen) == max(raw_times)


def test_sim_clock_rejects_backwards():
    clock = SimClock()
    assert clock.now() == 0
    clock.advance_to(10)
    with pytest.raises(ParameterError):
        clock.advance_to(9)
    clock.advance_to(10)
    assert clock.now() == 10


def test_signal_memory_fault_needs_plausible_address():
    iface = make_iface()
    lo, hi = ENCLAVE_RANGE
    inside = iface.forward_signal(SignalInfo(11, 1, lo + 8))
    outside = iface.forward_signal(SignalInfo(11, 1, hi + 8))
    assert inside.disposition is SignalDisposition.DELIVERED
    assert outside.disposition is SignalDisposition.REJECTED
    assert outside.info is None


def test_signal_instruction_fault_address_is_replaced():
    iface = make_iface()
    out = iface.forward_signal(SignalInfo(8, 0, 0xDEAD))
    assert out.disposition is SignalDisposition.DELIVERED
    assert out.info.addr == iface.host.current_instruction


def test_user_signals_are_delivered_as_sent():
    iface = make_iface()
    for number in (1, 2, 10, 12, 15):  # HUP, INT, USR1, USR2, TERM
        info = SignalInfo(number, 0, 0xDEAD)
        assert iface.forward_signal(info) == SignalOutcome(SignalDisposition.DELIVERED, info)


def test_signal_number_validated():
    iface = make_iface()
    with pytest.raises(ParameterError):
        iface.forward_signal(SignalInfo(0, 0, 0))
    with pytest.raises(ParameterError):
        iface.forward_signal(SignalInfo(65, 0, 0))


def test_disk_write_changes_exactly_its_record():
    iface = make_iface()
    iface.disk_write(RECORD_SIZE, b"\x42" * RECORD_SIZE)
    assert iface.host.image == (bytes(RECORD_SIZE) + b"\x42" * RECORD_SIZE
                                + bytes(2 * RECORD_SIZE))
