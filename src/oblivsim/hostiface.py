"""The seven-call host boundary.

The trusted side may touch untrusted state through exactly seven calls:
disk_read, disk_write, net_read, net_write, net_poll, time_read and
forward_signal. ``Host`` holds the untrusted state (image bytes, frame
queues, raw clocks) plus fault-injection hooks for tests that play an
actively hostile host. ``HostInterface`` is the trusted shim: it
validates arguments, records one trace event per completed crossing,
and sanitizes what comes back (clock clamping, signal address rules).

Sizes on the boundary are wire-format constants, not settings: a disk
call moves one record of ``RECORD_SIZE`` bytes at a record-aligned
offset, a ``BLOCK_SIZE`` block and the 40 bytes of its seal (a 24-byte
nonce and a 16-byte tag), and a net call one ``DEFAULT_MTU`` frame,
1500 bytes. ``Host.mtu`` names that size for the trace
fingerprint, and a fault address is plausible inside ``ENCLAVE_RANGE``.

Signals have two dispositions. A memory fault (SIGBUS, SIGSEGV) is
delivered only with an address inside ``ENCLAVE_RANGE`` and is rejected
otherwise; an instruction fault (SIGILL, SIGFPE) is delivered with its
address replaced by the point of execution. Every other number from 1
to 64, user signals included, is delivered as the host sent it.

The network side has two environment actions, which model the wire and
cross no boundary: ``Host.deliver_frame`` queues a frame on ``ingress``
for the enclave, and the far end of a link takes what the enclave sent
it from ``Host.egress[endpoint]``.

Events record completed transfers only; a call rejected before any
host state changed (bad alignment, would-block) leaves no event, which
keeps the trace an exact record of backend mutations and observable
reads. A call carries nothing beyond what the host is handed: padding
and real traffic take the same call with the same arguments, so no
event can say which it was.
"""

from __future__ import annotations

import enum
import mmap
import struct
from collections import defaultdict, deque
from dataclasses import dataclass

from .errors import (
    AlignmentError,
    BoundsError,
    ParameterError,
    SizeError,
    WouldBlock,
)
from .trace import CallKind, HostCallEvent, HostTrace

BLOCK_SIZE = 4096
RECORD_SIZE = BLOCK_SIZE + 40  # a block and its seal, the unit of every disk call
DEFAULT_MTU = 1500
ENCLAVE_RANGE = (0x7000_0000_0000, 0x7100_0000_0000)

# Bound once for the disk and net paths: enum member lookups and the
# NamedTuple's own ``__new__`` (``tuple.__new__`` skips it) each cost a
# Python step.
_DISK_READ, _DISK_WRITE = CallKind.DISK_READ, CallKind.DISK_WRITE
_NET_WRITE, _NET_READ, _NET_POLL = CallKind.NET_WRITE, CallKind.NET_READ, CallKind.NET_POLL
_event = tuple.__new__
_copy_record = struct.Struct(f"{RECORD_SIZE}s").unpack_from

# Signal numbers follow the usual Linux layout.
SIG_MEMORY_FAULT = frozenset({7, 11})  # SIGBUS, SIGSEGV: address must be plausible
SIG_INSTRUCTION_FAULT = frozenset({4, 8})  # SIGILL, SIGFPE: address is replaced


class ClockId(enum.Enum):
    MONOTONIC = "monotonic"
    REALTIME = "realtime"


class SimClock:
    """Deterministic time base the engine advances explicitly; it starts at 0."""

    def __init__(self):
        self.now_ns = 0

    def now(self) -> int:
        return self.now_ns

    def advance_to(self, ts_ns: int) -> None:
        if ts_ns < self.now_ns:
            raise ParameterError("simulated clock cannot move backwards")
        self.now_ns = ts_ns


@dataclass(frozen=True)
class SignalInfo:
    number: int
    code: int
    addr: int


class SignalDisposition(enum.Enum):
    DELIVERED = "delivered"
    REJECTED = "rejected"


@dataclass(frozen=True)
class SignalOutcome:
    disposition: SignalDisposition
    info: SignalInfo | None = None
    reason: str = ""


class Host:
    """Untrusted host state. Mutated only through HostInterface calls
    and the environment helpers (frame arrival / wire pickup), which
    model the network itself rather than the enclave.

    ``image`` is any writable buffer of whole records, such as a mount's
    own ``bytearray`` copy.

    Frames arriving for the enclave share one FIFO ``ingress`` of
    (endpoint, frame) pairs, read in arrival order by ``net_read``.
    Frames the enclave writes go to one FIFO per endpoint in
    ``egress``, so the far end of a link takes its own frames from
    ``egress[endpoint]`` without walking anyone else's.
    """

    mtu = DEFAULT_MTU

    def __init__(self, image: bytearray | mmap.mmap, clock=None):
        if len(image) % RECORD_SIZE != 0:
            raise SizeError("image length must be a multiple of the record size")
        self.image = image
        self.clock = clock if clock is not None else SimClock()
        self.current_instruction = ENCLAVE_RANGE[0] + 0x1000
        self.realtime_epoch_ns = 1_700_000_000 * 1_000_000_000
        self.ingress: deque[tuple[int, bytes]] = deque()
        self.egress: defaultdict[int, deque[bytes]] = defaultdict(deque)
        self.boundary_mutations = 0
        # Fault injection knobs (an adversarial host):
        self.poll_script: list[tuple[bool, bool]] = []
        self.clock_script: dict[ClockId, list[int]] = {}
        self.ingress_corrupter = None  # callable bytes -> bytes

    # Environment actions (the network side, not the enclave):

    def deliver_frame(self, endpoint: int, frame: bytes) -> None:
        frame = bytes(frame)
        if len(frame) != DEFAULT_MTU:
            raise SizeError("delivered frame must be MTU-sized")
        self.ingress.append((endpoint, frame))

    def raw_time(self, clock_id: ClockId) -> int:
        script = self.clock_script.get(clock_id)
        if script:
            return script.pop(0)
        base = self.clock.now()
        if clock_id is ClockId.REALTIME:
            return base + self.realtime_epoch_ns
        return base


class HostInterface:
    """Trusted entry points. One method per host call, nothing else."""

    def __init__(self, host: Host, trace: HostTrace | None = None):
        self.host = host
        self.trace = trace if trace is not None else HostTrace()
        self._last_monotonic: int | None = None

    # Disk ------------------------------------------------------------

    def disk_read(self, offset: int) -> bytes:
        host = self.host
        if offset % RECORD_SIZE != 0:
            raise AlignmentError(f"read offset {offset} not record-aligned")
        if offset < 0 or offset + RECORD_SIZE > len(host.image):
            raise BoundsError(f"read offset {offset} outside image")
        data, = _copy_record(host.image, offset)  # one copy, not two
        self.trace.record(_event(HostCallEvent, (
            host.clock.now_ns, _DISK_READ, offset, RECORD_SIZE)))
        return data

    def disk_write(self, offset: int, record: bytes) -> None:
        host = self.host
        if offset % RECORD_SIZE != 0:
            raise AlignmentError(f"write offset {offset} not record-aligned")
        if offset < 0 or offset + RECORD_SIZE > len(host.image):
            raise BoundsError(f"write offset {offset} outside image")
        if len(record) != RECORD_SIZE:
            raise SizeError("disk writes must be exactly one record")
        host.image[offset:offset + RECORD_SIZE] = record
        host.boundary_mutations += 1
        self.trace.record(_event(HostCallEvent, (
            host.clock.now_ns, _DISK_WRITE, offset, RECORD_SIZE)))

    # Network ---------------------------------------------------------

    def net_write(self, endpoint: int, frame: bytes) -> None:
        host = self.host
        if len(frame) != DEFAULT_MTU:
            raise SizeError("frames on the wire are exactly MTU-sized")
        host.egress[endpoint].append(bytes(frame))
        host.boundary_mutations += 1
        self.trace.record(_event(HostCallEvent, (
            host.clock.now_ns, _NET_WRITE, endpoint, DEFAULT_MTU)))

    def net_read(self) -> tuple[int, bytes]:
        host = self.host
        if not host.ingress:
            raise WouldBlock("no frame queued")
        endpoint, frame = host.ingress.popleft()
        if host.ingress_corrupter is not None:
            frame = host.ingress_corrupter(frame)
            if len(frame) != DEFAULT_MTU:
                frame = (frame + bytes(DEFAULT_MTU))[:DEFAULT_MTU]
        host.boundary_mutations += 1
        self.trace.record(_event(HostCallEvent, (
            host.clock.now_ns, _NET_READ, endpoint, DEFAULT_MTU)))
        return endpoint, frame

    def net_poll(self) -> tuple[bool, bool]:
        host = self.host
        if host.poll_script:
            readable, writable = host.poll_script.pop(0)
        else:
            readable, writable = bool(host.ingress), True
        self.trace.record(_event(HostCallEvent, (host.clock.now_ns, _NET_POLL, 0, 0)))
        return readable, writable

    # Time ------------------------------------------------------------

    def time_read(self, clock_id: ClockId) -> int:
        if not isinstance(clock_id, ClockId):
            raise ParameterError(f"unknown clock {clock_id!r}")
        raw = self.host.raw_time(clock_id)
        self.trace.record(HostCallEvent(self.host.clock.now(), CallKind.TIME_READ, 0, 0))
        if clock_id is ClockId.MONOTONIC:
            # The host may lie; never let time run backwards.
            if self._last_monotonic is not None and raw < self._last_monotonic:
                raw = self._last_monotonic
            self._last_monotonic = raw
        return raw

    # Signals ---------------------------------------------------------

    def forward_signal(self, info: SignalInfo) -> SignalOutcome:
        if not (1 <= info.number <= 64):
            raise ParameterError(f"signal number {info.number} out of range")
        self.trace.record(
            HostCallEvent(self.host.clock.now(), CallKind.FORWARD_SIGNAL, 0, 0))
        lo, hi = ENCLAVE_RANGE
        if info.number in SIG_MEMORY_FAULT:
            if not (lo <= info.addr < hi):
                return SignalOutcome(
                    SignalDisposition.REJECTED, None,
                    "fault address outside enclave range")
            return SignalOutcome(SignalDisposition.DELIVERED, info)
        if info.number in SIG_INSTRUCTION_FAULT:
            # The host-supplied address is meaningless for these; use
            # the point of execution instead.
            fixed = SignalInfo(info.number, info.code, self.host.current_instruction)
            return SignalOutcome(SignalDisposition.DELIVERED, fixed)
        return SignalOutcome(SignalDisposition.DELIVERED, info)
