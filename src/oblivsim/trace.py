"""Host-call trace: the adversary's view of the enclave.

Every crossing of the host boundary appends one event, an immutable
``NamedTuple`` (cheaper to build than a frozen dataclass, and this runs
on every host call). An event carries only what an observer on the
untrusted side can see: when the call happened, which of the seven
calls it was, the disk offset (or peer endpoint index for network
calls), and the payload length, and nothing else. Whether a call was
padding is ground truth the trusted side keeps in its own counters
(``RoundScheduler``, ``PeerSession``) and layout (``BlockFs.dummy_blocks``),
never in the trace, so nothing that reads a trace can use it.

Export format (one event per line, fixed field order)::

    ts,kind,offset,len
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParameterError


class CallKind(enum.Enum):
    DISK_READ = "disk_read"
    DISK_WRITE = "disk_write"
    NET_READ = "net_read"
    NET_WRITE = "net_write"
    NET_POLL = "net_poll"
    TIME_READ = "time_read"
    FORWARD_SIGNAL = "forward_signal"


_KIND_BY_NAME = {k.value: k for k in CallKind}


class HostCallEvent(NamedTuple):
    ts: int  # simulated nanoseconds
    kind: CallKind
    offset: int  # disk byte offset; peer endpoint index for net calls
    payload_len: int

    def line(self) -> str:
        return f"{self.ts},{self.kind.value},{self.offset},{self.payload_len}"


@dataclass
class HostTrace:
    """Append-only event log with metadata describing the recording run.

    ``meta`` holds the run configuration fingerprint: the fixed round
    (0.1 ms, one read, one write), the MTU, and on the protected path
    the shelter size C, ``cache_capacity``. Comparing traces recorded
    under different configurations is refused by the analyzer.
    """

    meta: dict = field(default_factory=dict)
    events: list[HostCallEvent] = field(default_factory=list)

    def record(self, event: HostCallEvent) -> None:
        self.events.append(event)

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. after image setup)."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, *kinds: CallKind) -> list[HostCallEvent]:
        want = set(kinds)
        return [e for e in self.events if e.kind in want]

    def shape(self) -> list[tuple[int, str, int]]:
        """The observable projection compared for obliviousness."""
        return [(e.ts, e.kind.value, e.payload_len) for e in self.events]

    def export(self) -> str:
        return "".join(e.line() + "\n" for e in self.events)


_NUMBER = re.compile(r"0|[1-9][0-9]*")  # as ``export`` writes ts, offset and len


def _field(lineno: int, text: str) -> int:
    if not _NUMBER.fullmatch(text):
        raise ParameterError(f"trace line {lineno}: non-integer field {text!r}")
    return int(text)


def parse_trace(text: str, meta: dict | None = None) -> HostTrace:
    """Parse an exported trace back into a HostTrace. A malformed line
    raises ParameterError: one with a field past ``len``, or with a
    number ``export`` would not write (signed, with ``_`` or a leading
    zero). So every event exports back to the line it came from."""
    trace = HostTrace(meta=dict(meta or {}))
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParameterError(f"trace line {lineno}: expected 4 fields")
        kind = _KIND_BY_NAME.get(parts[1])
        if kind is None:
            raise ParameterError(
                f"trace line {lineno}: unknown call kind {parts[1]!r}")
        trace.events.append(HostCallEvent(
            _field(lineno, parts[0]), kind, _field(lineno, parts[2]),
            _field(lineno, parts[3])))
    return trace
