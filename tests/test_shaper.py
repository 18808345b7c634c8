from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oblivsim import (
    BackpressureError,
    DEFAULT_MTU,
    ParameterError,
    PeerIdentity,
    PeerShaper,
    ShapingClass,
    SizeError,
    StaticIdentity,
    establish,
    max_payload,
)

RATE = 200_000_000


def sessions():
    a, b = StaticIdentity.generate(), StaticIdentity.generate()
    return (establish(a, PeerIdentity(b.public_bytes)),
            establish(b, PeerIdentity(a.public_bytes)))


def make_shaper(**kw):
    tx, rx = sessions()
    return PeerShaper(ShapingClass(**kw), tx), rx


def drain_due(shaper, count):
    """Tick exactly at due times; returns (time, frames) per emission."""
    out = []
    for _ in range(count):
        t = shaper.next_due_ns()
        out.append((t, shaper.tick(t)))
    return out


def test_shaping_class_validation():
    with pytest.raises(ParameterError):
        ShapingClass(rate_bps=0)
    with pytest.raises(ParameterError):
        ShapingClass(burst_frames=0)
    with pytest.raises(ParameterError):
        ShapingClass(queue_frames=0)


def test_200mbps_sits_on_a_60us_grid():
    shaper, _ = make_shaper(rate_bps=RATE)
    emissions = drain_due(shaper, 50)
    assert [t for t, _ in emissions] == [k * 60_000 for k in range(50)]
    assert all(len(frames) == 1 for _, frames in emissions)
    assert all(len(frames[0]) == DEFAULT_MTU for _, frames in emissions)
    assert shaper.session.sent_real + shaper.session.sent_dummy == 50


@settings(max_examples=40)
@given(st.integers(min_value=10_000, max_value=10**10), st.integers(1, 40))
def test_due_times_match_the_exact_rational_grid(rate, k):
    shaper, _ = make_shaper(rate_bps=rate)
    cost = DEFAULT_MTU * 8 * 1_000_000_000
    emissions = drain_due(shaper, k + 1)
    assert all(len(frames) == 1 for _, frames in emissions)
    assert emissions[k][0] == (k * cost + rate - 1) // rate


def test_queued_payloads_preempt_padding():
    shaper, rx = make_shaper(rate_bps=RATE)
    shaper.enqueue(b"first")
    shaper.enqueue(b"second")
    opened = []
    for _, frames in drain_due(shaper, 4):
        frame, = frames
        opened.append(rx.open_packet(frame))
    assert opened == [b"first", b"second", b"", b""]
    assert (shaper.session.sent_real, shaper.session.sent_dummy) == (2, 2)
    assert shaper.backlog == 0


def test_idle_gaps_never_turn_into_bursts():
    shaper, _ = make_shaper(rate_bps=RATE)
    assert len(shaper.tick(0)) == 1
    # Slots skipped during a stall are forfeited, not caught up.
    assert len(shaper.tick(1_000_000_000)) == 1
    assert shaper.tick(1_000_000_000) == []
    assert shaper.next_due_ns() == 1_000_000_000 + 60_000


def test_burst_depth_widens_the_window():
    shaper, _ = make_shaper(rate_bps=RATE, burst_frames=3)
    assert len(shaper.tick(0)) == 3
    assert len(shaper.tick(300_000)) == 3  # refill capped at 3 either way


def test_ticks_between_slots_emit_nothing():
    shaper, _ = make_shaper(rate_bps=RATE)
    shaper.tick(0)
    assert shaper.tick(59_999) == []
    assert len(shaper.tick(60_000)) == 1


def test_queue_limits_and_payload_size():
    shaper, _ = make_shaper(rate_bps=RATE, queue_frames=2)
    with pytest.raises(SizeError):
        shaper.enqueue(b"\x00" * (max_payload() + 1))
    with pytest.raises(SizeError):
        shaper.enqueue(b"")
    shaper.enqueue(b"a")
    shaper.enqueue(b"b")
    with pytest.raises(BackpressureError):
        shaper.enqueue(b"c")


def test_clock_must_not_move_backwards():
    shaper, _ = make_shaper(rate_bps=RATE)
    shaper.tick(500)
    with pytest.raises(ParameterError):
        shaper.tick(499)
