from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from oblivsim import CallKind, HostCallEvent, HostTrace, ParameterError, parse_trace

kinds = st.sampled_from(list(CallKind))
events = st.builds(
    HostCallEvent,
    ts=st.integers(min_value=0, max_value=10**15),
    kind=kinds,
    offset=st.integers(min_value=0, max_value=10**12),
    payload_len=st.integers(min_value=0, max_value=10**6),
)


def test_line_format():
    e = HostCallEvent(100_000, CallKind.DISK_READ, 8192, 4096)
    assert e.line() == "100000,disk_read,8192,4096"


def test_events_are_immutable_and_keep_their_line_format():
    e = HostCallEvent(7, CallKind.NET_WRITE, 2, 1500)
    with pytest.raises(AttributeError):
        e.ts = 8
    assert e.ts == 7
    assert e.line() == "7,net_write,2,1500"


def test_an_event_holds_only_the_observable_fields():
    # The record is the host's view: nothing else can ride along.
    assert HostCallEvent._fields == ("ts", "kind", "offset", "payload_len")
    with pytest.raises(TypeError):
        HostCallEvent(0, CallKind.DISK_READ, 0, 4096, True)


def test_record_respects_reset():
    t = HostTrace()
    t.record(HostCallEvent(0, CallKind.NET_POLL, 0, 0))
    t.record(HostCallEvent(1, CallKind.NET_POLL, 0, 0))
    assert len(t) == 2
    t.reset()
    assert len(t) == 0


def test_of_kind_filters():
    t = HostTrace()
    t.record(HostCallEvent(0, CallKind.DISK_READ, 0, 4096))
    t.record(HostCallEvent(0, CallKind.DISK_WRITE, 0, 4096))
    t.record(HostCallEvent(1, CallKind.NET_WRITE, 3, 1500))
    assert [e.kind for e in t.of_kind(CallKind.DISK_READ)] == [CallKind.DISK_READ]
    assert len(t.of_kind(CallKind.DISK_READ, CallKind.DISK_WRITE)) == 2


def test_shape_excludes_offset_and_dummy():
    # Offsets are judged statistically, not by equality; shape carries
    # only what must match event-for-event. A real read (a data block)
    # and a padding read (a pad block) differ in offset alone.
    real = HostCallEvent(5, CallKind.DISK_READ, 4096, 4096)
    padding = HostCallEvent(5, CallKind.DISK_READ, 8192, 4096)
    t = HostTrace(events=[real, padding])
    assert t.shape() == [(5, "disk_read", 4096), (5, "disk_read", 4096)]


@given(st.lists(events, max_size=50))
def test_export_parse_roundtrip_with_ground_truth(evs):
    # The one export form is lossless: every recorded event comes back
    # equal, so nothing the trusted side keeps needs a second format.
    t = HostTrace(events=list(evs))
    back = parse_trace(t.export())
    assert back.events == t.events


@given(st.lists(events, max_size=50))
def test_plain_export_drops_dummy_flag(evs):
    # No ground-truth column is written or read back: each line holds
    # the four observable fields and nothing else.
    t = HostTrace(events=list(evs))
    text = t.export()
    assert all(line.count(",") == 3 for line in text.splitlines())
    back = parse_trace(text)
    assert [
        (e.ts, e.kind, e.offset, e.payload_len) for e in back.events
    ] == [(e.ts, e.kind, e.offset, e.payload_len) for e in evs]
    assert all(not hasattr(e, "dummy") for e in back.events)


def test_parse_skips_blank_lines_and_keeps_meta():
    t = parse_trace("\n0,net_poll,0,0\n\n", meta={"mtu": 1500})
    assert len(t.events) == 1
    assert t.meta == {"mtu": 1500}


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParameterError):
        parse_trace("0,disk_read,0\n")
    with pytest.raises(ParameterError):
        parse_trace("0,disk_levitate,0,4096\n")
    with pytest.raises(ParameterError):
        parse_trace("0,disk_read,0,4096,1,9\n")


@pytest.mark.parametrize("flag", ["0", "1"])
def test_parse_refuses_a_fifth_field(flag):
    # The retired ground-truth column: a trace carries four fields only.
    with pytest.raises(ParameterError, match="expected 4 fields"):
        parse_trace(f"0,net_poll,0,0\n100000,disk_read,8192,4096,{flag}\n")


@pytest.mark.parametrize("line", [
    "x,disk_read,0,4096", "0,disk_read,0x10,4096", "0,disk_read,0,4.5",
    # Numbers export never writes: signed, with separators or leading zeros.
    "-5,disk_read,0,4096", "0,disk_read,-4096,4096", "0,disk_read,0,-1",
    "1_0,disk_write,0,4096", "0,disk_write,+8192,4096", "0,disk_write,08192,4096",
    "0,disk_read, 4096,4096", "0,disk_read,\u0664,4096", "0,net_poll,0,",
])
def test_parse_rejects_non_integer_fields(line):
    with pytest.raises(ParameterError, match="trace line 1: non-integer field"):
        parse_trace(line + "\n")
