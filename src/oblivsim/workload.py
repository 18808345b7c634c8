"""Workload mini-language.

A workload is named by a single call-style expression::

    seqread(fd, length)     read length bytes sequentially (0 = whole file)
    randread(fd, count)     count single-block reads at random offsets
    reread(lblk, count)     hammer one block of file 0 (cache showcase)
    seqwrite(fd, length)    write length bytes sequentially
    kvtrace(opsfile)        replay "put k v" / "get k" lines against file 0
    netecho(endpoint, n)    bounce n payload bytes off a peer
    idle(rounds)            do nothing for that many rounds

Each form is a plain function ``form(engine, *args)`` in one table,
``FORMS``, which also gives the type of each argument; the parser reads
the table and refuses a negative integer. A form runs to its end unless
the engine's round budget is spent first, in which case
``run_one_round`` raises ``RoundBudgetExhausted`` out of it and
``run_workload`` stops there. Random choices draw from the engine's
seeded stream, so a given (seed, workload) replays identically.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from .errors import ModeError, ParameterError, RangeError
from .hostiface import BLOCK_SIZE

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*(.*?)\s*\)\s*$")

NET_BACKLOG_CAP = 32
ECHO_FILL = b"\xa5"


def seqread(engine, fd: int, length: int) -> None:
    fd = engine.regular_fd(fd)
    size = engine.fs.file_size(fd)
    length = size if length == 0 else min(length, size)
    for pos in range(0, length, BLOCK_SIZE):
        engine.read_file(fd, pos, min(BLOCK_SIZE, length - pos))


def seqwrite(engine, fd: int, length: int) -> None:
    fd = engine.regular_fd(fd)
    rng = engine.rng.stream("workload")
    for pos in range(0, length, BLOCK_SIZE):
        engine.write_file(fd, pos, rng.random_bytes(min(BLOCK_SIZE, length - pos)))


def randread(engine, fd: int, count: int) -> None:
    fd = engine.regular_fd(fd)
    rng = engine.rng.stream("workload")
    size = engine.fs.file_size(fd)
    nblocks = engine.fs.file_blocks(fd)
    if nblocks == 0:
        return
    for _ in range(count):
        lblk = rng.randbelow(nblocks)
        n = min(BLOCK_SIZE, size - lblk * BLOCK_SIZE)
        engine.read_file(fd, lblk * BLOCK_SIZE, n)


def reread(engine, lblk: int, count: int) -> None:
    fd = engine.regular_fd(0)
    size = engine.fs.file_size(fd)
    off = lblk * BLOCK_SIZE
    if off >= size:
        raise RangeError("block beyond end of file")
    n = min(BLOCK_SIZE, size - off)
    for _ in range(count):
        engine.read_file(fd, off, n)


# ---------------------------------------------------------------------------
# Tiny key-value store: fixed 64-byte slots, hash placement with linear
# probing. Exists to give the simulator a pointer-chasing access pattern.
# ---------------------------------------------------------------------------

KV_SLOT = 64
KV_MAX_KEY = 23
KV_MAX_VAL = 39
KV_PROBE_LIMIT = 64


class KvStore:
    """``fd`` here is a raw descriptor; workloads resolve data-file
    indices before constructing the store."""

    def __init__(self, engine, fd: int):
        self.engine = engine
        self.fd = fd
        self.capacity = engine.fs.file_size(fd) // KV_SLOT
        if self.capacity < 1:
            raise ParameterError("store file too small for even one slot")

    def _home(self, key: bytes) -> int:
        h = hashlib.sha256(key).digest()
        return int.from_bytes(h[:8], "big") % self.capacity

    def _probe(self, key: bytes):
        idx = self._home(key)
        for _ in range(min(KV_PROBE_LIMIT, self.capacity)):
            raw = self.engine.read_file(self.fd, idx * KV_SLOT, KV_SLOT)
            klen = raw[0]
            if klen == 0:
                yield idx, None, None
                return
            vlen = raw[1 + KV_MAX_KEY]
            yield idx, raw[1:1 + klen], raw[2 + KV_MAX_KEY:2 + KV_MAX_KEY + vlen]
            idx = (idx + 1) % self.capacity

    def get(self, key: bytes) -> bytes | None:
        for _idx, k, v in self._probe(key):
            if k is None:
                return None
            if k == key:
                return v
        return None

    def put(self, key: bytes, value: bytes) -> None:
        if not 0 < len(key) <= KV_MAX_KEY:
            raise ParameterError(f"keys are 1..{KV_MAX_KEY} bytes")
        if len(value) > KV_MAX_VAL:
            raise ParameterError(f"values are at most {KV_MAX_VAL} bytes")
        for idx, k, _v in self._probe(key):
            if k is None or k == key:
                slot = bytes([len(key)]) + key.ljust(KV_MAX_KEY, b"\x00") \
                    + bytes([len(value)]) + value.ljust(KV_MAX_VAL, b"\x00")
                self.engine.write_file(self.fd, idx * KV_SLOT, slot)
                return
        raise ParameterError("probe limit hit; store too full")


def parse_ops(text: str) -> list[tuple]:
    ops = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "put" and len(parts) == 3:
            ops.append(("put", parts[1].encode(), parts[2].encode()))
        elif parts[0] == "get" and len(parts) == 2:
            ops.append(("get", parts[1].encode()))
        else:
            raise ParameterError(f"ops line {lineno}: cannot parse {line!r}")
    return ops


def kvtrace(engine, ops_path: str) -> None:
    try:
        with open(ops_path, "r", encoding="utf-8") as fh:
            ops = parse_ops(fh.read())
    except UnicodeDecodeError as exc:
        raise ParameterError(f"ops file {ops_path} is not UTF-8 text") from exc
    store = KvStore(engine, engine.regular_fd(0))
    for op in ops:
        if op[0] == "put":
            store.put(op[1], op[2])
        else:
            store.get(op[1])


def netecho(engine, endpoint: int, nbytes: int) -> None:
    if not engine.oblivious:
        raise ModeError("echo traffic rides the round cadence; "
                        "run it on the protected path")
    link = engine.link(endpoint)
    chunk = link.session.payload_limit
    sent = 0
    received = 0
    while received < nbytes:
        while sent < nbytes and link.shaper.backlog < NET_BACKLOG_CAP:
            n = min(chunk, nbytes - sent)
            engine.net_send(endpoint, ECHO_FILL * n)
            sent += n
        while link.inbox:
            back = link.inbox.popleft()
            received += len(back)
            engine.payload_bytes += len(back)
        engine.run_one_round()


def idle(engine, rounds: int) -> None:
    if not engine.oblivious:
        return
    for _ in range(rounds):
        engine.run_one_round()


# ---------------------------------------------------------------------------
# The table and its parser.
# ---------------------------------------------------------------------------

FORMS = {
    "seqread": (seqread, (int, int)),
    "seqwrite": (seqwrite, (int, int)),
    "randread": (randread, (int, int)),
    "reread": (reread, (int, int)),
    "kvtrace": (kvtrace, (str,)),
    "netecho": (netecho, (int, int)),
    "idle": (idle, (int,)),
}


@dataclass(frozen=True)
class Workload:
    spec_text: str
    name: str
    args: tuple

    def run(self, engine) -> None:
        FORMS[self.name][0](engine, *self.args)

    def default_rounds(self) -> int | None:
        """Round budget implied by the workload itself, if any."""
        return self.args[0] if self.name == "idle" else None


def _int_arg(name: str, raw: str) -> int:
    try:
        value = int(raw, 0)
    except ValueError:
        raise ParameterError(f"{name}: expected an integer, got {raw!r}") from None
    if value < 0:
        raise ParameterError(f"{name}: expected a non-negative integer, got {raw!r}")
    return value


def parse_workload(text: str) -> Workload:
    m = _CALL_RE.match(text)
    if not m:
        raise ParameterError(f"cannot parse workload {text!r}")
    name, argstr = m.group(1), m.group(2)
    args = [a.strip() for a in argstr.split(",")] if argstr else []
    if name not in FORMS:
        raise ParameterError(f"unknown workload {name!r}")
    types = FORMS[name][1]
    if len(args) != len(types):
        raise ParameterError(f"{name} takes {len(types)} argument(s), got {len(args)}")
    values = tuple(raw if kind is str else _int_arg(name, raw)
                   for kind, raw in zip(types, args))
    return Workload(text, name, values)
