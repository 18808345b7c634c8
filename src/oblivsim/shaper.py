"""Constant-rate frame emission per peer.

Each peer link emits ``DEFAULT_MTU``-byte frames on a fixed grid, one
frame per slot: one frame costs FRAME_COST = 1500 * 8 * 1e9
bit-nanoseconds, and emission k opens at ceil(k * FRAME_COST /
rate_bps). All accounting is exact integer arithmetic, so the grid
never drifts, for any integer rate. A link's only setting is its rate,
at most one frame per nanosecond (FRAME_COST bit/s, 12 Tbit/s); so no
two frames ever share an instant, and the bit rate an observer sees is
constant.

The caller ticks a link exactly at ``next_due_ns()``, and each tick
sends one frame: the oldest queued payload if there is one, otherwise a
padding frame. Outside observers see the same cadence either way. A
tick at any other instant is refused, so the grid has one clock, the
caller's, and a slot is never skipped, repeated or caught up. Queued
payloads beyond ``SEND_QUEUE_FRAMES`` raise backpressure to the caller
rather than silently stretching memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .channel import PeerSession
from .errors import BackpressureError, ParameterError, SizeError
from .hostiface import DEFAULT_MTU

NS_PER_S = 1_000_000_000
FRAME_COST = DEFAULT_MTU * 8 * NS_PER_S
SEND_QUEUE_FRAMES = 4096


@dataclass(frozen=True)
class ShapingClass:
    rate_bps: int = 200_000_000

    def __post_init__(self):
        if self.rate_bps <= 0:
            raise ParameterError("rate_bps must be positive")


class PeerShaper:
    """Emission grid in bit-nanoseconds feeding one session."""

    def __init__(self, shaping: ShapingClass, session: PeerSession, start_ns: int = 0):
        self.session = session
        self._rate = shaping.rate_bps
        if self._rate > FRAME_COST:
            # Two emissions would share a due nanosecond, and the net
            # loop runs a link once per instant.
            raise ParameterError(
                f"rate_bps {self._rate} is above one {DEFAULT_MTU}-byte frame "
                f"per nanosecond ({FRAME_COST})")
        self._start_ns = start_ns
        self._next_k = 0
        self._due_ns = start_ns  # the first frame is due at the start
        self.queue: deque[bytes] = deque()

    def enqueue(self, payload: bytes) -> None:
        if not 0 < len(payload) <= self.session.payload_limit:
            raise SizeError("payload must be 1 byte to one frame")
        if len(self.queue) >= SEND_QUEUE_FRAMES:
            raise BackpressureError("send queue is full")
        self.queue.append(payload)

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def next_due_ns(self) -> int:
        """Time at which the next emission slot opens. ``tick`` keeps it
        current; it only moves forward."""
        return self._due_ns

    def tick(self, now_ns: int) -> bytes:
        """Seal and return the frame of the slot due at ``now_ns``, which
        must be ``next_due_ns()``. How many were real and how many padding
        is counted by the session (``sent_real``, ``sent_dummy``), not
        told per frame."""
        if now_ns != self._due_ns:
            raise ParameterError(
                f"tick at {now_ns} ns, but the next slot is due at {self._due_ns} ns")
        rate, k = self._rate, self._next_k + 1
        self._next_k = k
        self._due_ns = self._start_ns + (k * FRAME_COST + rate - 1) // rate
        # Oldest queued payload first; an empty queue sends padding.
        if self.queue:
            return self.session.seal_packet(self.queue.popleft())
        return self.session.seal_dummy()
