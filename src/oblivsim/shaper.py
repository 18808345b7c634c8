"""Constant-rate frame emission per peer.

Each peer link emits exactly MTU-sized frames on a fixed grid: one
frame costs mtu * 8 * 1e9 bit-nanoseconds, and with burst depth 1
emission k opens at ceil(k * frame_cost / rate_bps). All accounting is
exact integer arithmetic, so the grid never drifts, for any integer
rate. A wider burst lets that many frames share the front of the grid
(the bucket starts full).

When a slot opens the shaper sends the oldest queued payload if there
is one; otherwise it sends a padding frame. Outside observers see the
same cadence either way. Slots that pass while the caller never ticks
are forfeited, not banked: after a stall the grid restarts at the
stall's end rather than bursting to catch up. Queued payloads beyond
the queue cap raise backpressure to the caller rather than silently
stretching memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .channel import PeerSession
from .errors import BackpressureError, ParameterError, SizeError

NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class ShapingClass:
    rate_bps: int = 200_000_000
    burst_frames: int = 1
    queue_frames: int = 4096

    def __post_init__(self):
        if self.rate_bps <= 0:
            raise ParameterError("rate_bps must be positive")
        if self.burst_frames < 1:
            raise ParameterError("burst must allow at least one frame")
        if self.queue_frames < 1:
            raise ParameterError("queue must hold at least one frame")


class PeerShaper:
    """Emission grid in bit-nanoseconds feeding one session."""

    def __init__(self, shaping: ShapingClass, session: PeerSession, start_ns: int = 0):
        self.shaping = shaping
        self.session = session
        self._burst, self._rate = shaping.burst_frames, shaping.rate_bps
        self.frame_cost = session.mtu * 8 * NS_PER_S
        self.last_tick_ns = start_ns
        self._epoch_ns = start_ns
        self._next_k = 0
        self._due_ns = start_ns  # the first burst is due at the epoch
        self.queue: deque[bytes] = deque()

    def enqueue(self, payload: bytes) -> None:
        if not 0 < len(payload) <= self.session.payload_limit:
            raise SizeError("payload must be 1 byte to one frame")
        if len(self.queue) >= self.shaping.queue_frames:
            raise BackpressureError("send queue is full")
        self.queue.append(payload)

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def next_due_ns(self) -> int:
        """Time at which the next emission slot opens. ``tick`` keeps it
        current; it only moves forward."""
        return self._due_ns

    def tick(self, now_ns: int) -> list[bytes]:
        """Emit every slot due by ``now_ns`` and return the sealed frames.
        How many were real and how many padding is counted by the
        session (``sent_real``, ``sent_dummy``), not told per frame."""
        if now_ns < self.last_tick_ns:
            raise ParameterError("shaper clock moved backwards")
        self.last_tick_ns = now_ns
        burst, rate = self._burst, self._rate
        q = (now_ns - self._epoch_ns) * rate // self.frame_cost
        available = burst + q - self._next_k
        if available <= 0:
            return []
        if available > burst:
            # Slots were skipped while nobody ticked; forfeit them and
            # restart the grid here instead of bursting to catch up.
            self._epoch_ns = now_ns
            available = burst
            self._next_k = burst
        else:
            self._next_k += available
        # Emission k sits at epoch + ceil((k - burst + 1) * cost / rate);
        # the first ``burst`` are all due at the epoch, and after any
        # emission the next one lies past them.
        over = self._next_k - burst + 1
        self._due_ns = self._epoch_ns + (over * self.frame_cost + rate - 1) // rate
        # Oldest queued payload first; an empty queue sends padding.
        queue, session = self.queue, self.session
        out = []
        for _ in range(available):
            if queue:
                out.append(session.seal_packet(queue.popleft()))
            else:
                out.append(session.seal_dummy())
        return out
