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
from oblivsim.shaper import SEND_QUEUE_FRAMES

RATE = 200_000_000


def sessions():
    a, b = StaticIdentity.generate(), StaticIdentity.generate()
    return (establish(a, PeerIdentity(b.public_bytes)),
            establish(b, PeerIdentity(a.public_bytes)))


def make_shaper(**kw):
    tx, rx = sessions()
    return PeerShaper(ShapingClass(**kw), tx), rx


def drain_due(shaper, count):
    """Tick exactly at due times; returns (time, frame) per emission."""
    out = []
    for _ in range(count):
        t = shaper.next_due_ns()
        out.append((t, shaper.tick(t)))
    return out


def test_shaping_class_validation():
    with pytest.raises(ParameterError):
        ShapingClass(rate_bps=0)


def test_200mbps_sits_on_a_60us_grid():
    shaper, _ = make_shaper(rate_bps=RATE)
    emissions = drain_due(shaper, 50)
    assert [t for t, _ in emissions] == [k * 60_000 for k in range(50)]
    assert all(len(frame) == DEFAULT_MTU for _, frame in emissions)
    assert shaper.session.sent_real + shaper.session.sent_dummy == 50


@settings(max_examples=40)
@given(st.integers(min_value=10_000, max_value=10**10), st.integers(1, 40))
def test_due_times_match_the_exact_rational_grid(rate, k):
    shaper, _ = make_shaper(rate_bps=rate)
    cost = DEFAULT_MTU * 8 * 1_000_000_000
    emissions = drain_due(shaper, k + 1)
    assert all(len(frame) == DEFAULT_MTU for _, frame in emissions)
    assert emissions[k][0] == (k * cost + rate - 1) // rate


def test_one_frame_per_nanosecond_is_the_rate_ceiling():
    ceiling = DEFAULT_MTU * 8 * 1_000_000_000  # 12 Tbit/s
    shaper, _ = make_shaper(rate_bps=ceiling)
    emissions = drain_due(shaper, 1000)
    assert all(len(frame) == DEFAULT_MTU for _, frame in emissions)
    assert [t for t, _ in emissions] == list(range(1000))
    # One bit/s more and two emissions would share a due nanosecond.
    with pytest.raises(ParameterError, match="per nanosecond"):
        make_shaper(rate_bps=ceiling + 1)


def test_queued_payloads_preempt_padding():
    shaper, rx = make_shaper(rate_bps=RATE)
    shaper.enqueue(b"first")
    shaper.enqueue(b"second")
    opened = []
    for _, frame in drain_due(shaper, 4):
        opened.append(rx.open_packet(frame))
    assert opened == [b"first", b"second", b"", b""]
    assert (shaper.session.sent_real, shaper.session.sent_dummy) == (2, 2)
    assert shaper.backlog == 0


def refused_tick(shaper, now_ns):
    """A tick off the due instant raises and changes nothing."""
    before = (shaper.session.sent_real, shaper.session.sent_dummy,
              shaper.next_due_ns(), shaper.backlog)
    with pytest.raises(ParameterError, match=f"due at {before[2]} ns"):
        shaper.tick(now_ns)
    assert (shaper.session.sent_real, shaper.session.sent_dummy,
            shaper.next_due_ns(), shaper.backlog) == before


def test_idle_gaps_never_turn_into_bursts():
    # The grid keeps no clock of its own to catch up or restart: a late
    # tick is refused, and the slots after a gap still open one at a time.
    shaper, rx = make_shaper(rate_bps=RATE)
    assert rx.open_packet(shaper.tick(0)) == b""
    shaper.enqueue(b"first")
    shaper.enqueue(b"second")
    for late in (60_001, 1_000_000_000):
        refused_tick(shaper, late)
    emissions = drain_due(shaper, 2)
    assert [t for t, _ in emissions] == [60_000, 120_000]
    assert [rx.open_packet(f) for _, f in emissions] == [b"first", b"second"]
    assert shaper.next_due_ns() == 180_000


def test_ticks_between_slots_emit_nothing():
    shaper, rx = make_shaper(rate_bps=RATE)
    shaper.tick(0)
    shaper.enqueue(b"payload")
    refused_tick(shaper, 59_999)
    assert rx.open_packet(shaper.tick(60_000)) == b"payload"
    assert shaper.next_due_ns() == 120_000


def test_queue_limits_and_payload_size():
    shaper, _ = make_shaper(rate_bps=RATE)
    with pytest.raises(SizeError):
        shaper.enqueue(b"\x00" * (max_payload() + 1))
    with pytest.raises(SizeError):
        shaper.enqueue(b"")
    for _ in range(SEND_QUEUE_FRAMES):
        shaper.enqueue(b"a")
    with pytest.raises(BackpressureError):
        shaper.enqueue(b"b")


def test_clock_must_not_move_backwards():
    # A repeated or earlier tick would send a slot twice; it is refused.
    shaper, _ = make_shaper(rate_bps=RATE)
    shaper.tick(0)
    shaper.tick(60_000)
    for now in (60_000, 0, 59_999):
        refused_tick(shaper, now)
    assert (shaper.session.sent_real, shaper.session.sent_dummy) == (0, 2)
