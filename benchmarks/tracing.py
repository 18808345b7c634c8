"""Per-layer timing from outside the program.

``Tracer.installed`` replaces public functions of the ``oblivsim``
modules (module attributes such as ``blockcrypto.seal_block``, methods
such as ``BlockStore.write_block``) with timing wrappers, and puts the
originals back on exit. Nothing in ``src/`` knows about it, and only the
traced process is patched.

A span is one call of a wrapped function. Its self time is its duration
minus the durations of the wrapped calls made inside it; the self time
of every span goes to the one layer metric its function is mapped to.
Self times, call counts and the few counts that need the caller (for
example writes a cache eviction queued) are kept in memory while the
run goes. Every span is kept as well, in compact arrays, and written
out only at the end (``Tracer.write_spans``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from oblivsim import (
    blockcrypto,
    blockfs,
    channel,
    engine,
    hostiface,
    pagecache,
    rng,
    sched,
    shaper,
    shuffle,
    trace,
    workload,
)
from oblivsim.pagecache import Outcome

# (owner, attributes, metric that receives their self time)
TARGETS = [
    (hostiface.HostInterface,
     ("disk_read", "disk_write", "net_write", "net_read", "net_poll", "time_read"),
     "hostiface.self_us"),
    (trace.HostTrace, ("record",), "trace.self_us"),
    (rng.Rng, ("randbelow", "random_bytes", "choice"), "rng.self_us"),
    (rng.HmacDrbg, ("random_bytes",), "rng.self_us"),
    (blockcrypto, ("seal_block",), "blockcrypto.seal_self_us"),
    (blockcrypto, ("open_block",), "blockcrypto.open_self_us"),
    (blockcrypto.BlockStore, ("dummy_write",), "blockcrypto.dummy_write_self_us"),
    (blockcrypto.BlockStore,
     ("read_block", "write_block", "dummy_read", "persist_metadata", "mount"),
     "blockcrypto.store_self_us"),
    (sched.RoundScheduler,
     ("run_round", "submit_read", "submit_write", "pending_write_for"),
     "sched.self_us"),
    (pagecache.PageCache, ("get_block", "put_block", "flush", "end_epoch", "peek"),
     "pagecache.self_us"),
    (engine.Engine, ("shuffle_now",), "shuffle.self_us"),
    (engine, ("oblivious_shuffle",), "shuffle.self_us"),
    (shuffle, ("fisher_yates", "build_plan"), "shuffle.self_us"),
    (blockfs.BlockFs,
     ("file_read", "file_write", "phys_of", "move_extent", "create_donors",
      "unlink_all", "unlink", "allocate_block", "free_block", "create_file",
      "file_size", "file_blocks", "files_with_flag", "dummy_blocks", "format",
      "load", "persist"),
     "blockfs.self_us"),
    (engine, ("build_image",), "setup.self_us"),
    (channel.PeerSession, ("seal_packet", "seal_dummy"), "channel.seal_self_us"),
    (channel.PeerSession, ("open_packet",), "channel.open_self_us"),
    (shaper.PeerShaper, ("tick", "enqueue", "next_due_ns"), "shaper.self_us"),
    (engine.Engine,
     ("run_one_round", "read_file", "write_file", "net_send", "link", "regular_fd"),
     "engine.self_us"),
    (engine.CachedIo, ("read_block", "write_block"), "engine.self_us"),
    (engine.EchoPeer, ("pump", "next_due_ns"), "engine.self_us"),
    (workload.KvStore, ("get", "put"), "workload.self_us"),
]

# Wrapped on the benchmark's own workload class.
WORKLOAD_TARGETS = [
    (("op", "finish"), "workload.self_us"),
    (("mount",), "setup.self_us"),
]


def _short(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]


# Hooks: counts that need a call's arguments, result or callers.

def _drbg_bytes(tracer, parent, args, result):
    tracer.counts["rng.bytes"] += args[1]


def _get_block(tracer, parent, args, result):
    if result[1] is Outcome.SHUFFLE_REQUIRED:
        tracer.counts["pagecache.shuffle_required"] += 1


def _submit_write(tracer, parent, args, result):
    if parent == "pagecache.self_us":
        tracer.counts["pagecache.writebacks"] += 1


def _run_round(tracer, parent, args, result):
    names = [frame[0] for frame in tracer.stack]
    if "PageCache.get_block" in names:
        tracer.counts["rounds_in_fetch"] += 1
    if "Engine.shuffle_now" in names:
        tracer.counts["shuffle_rounds"] += 1


def _shuffle_done(tracer, parent, args, result):
    tracer.counts["shuffle.donor_reuses"] += result.donor_reuses


def _enqueue(tracer, parent, args, result):
    backlog = args[0].backlog
    if backlog > tracer.counts["shaper.backlog_peak"]:
        tracer.counts["shaper.backlog_peak"] = backlog


HOOKS = {
    "HmacDrbg.random_bytes": _drbg_bytes,
    "PageCache.get_block": _get_block,
    "RoundScheduler.submit_write": _submit_write,
    "RoundScheduler.run_round": _run_round,
    "engine.oblivious_shuffle": _shuffle_done,
    "PeerShaper.enqueue": _enqueue,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, metric, child_ns] per open span
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.metric_of: dict[str, str] = {}
        self.covered_ns = 0  # summed duration of outermost spans
        self.mount_span = ""
        self.names: list[str] = []
        self.spans = {"start_ns": array("q"), "dur_ns": array("q"),
                      "depth": array("B"), "name": array("H")}

    # Patching ----------------------------------------------------------

    @contextmanager
    def installed(self, workload_cls):
        self.mount_span = f"{_short(workload_cls)}.mount"
        targets = list(TARGETS)
        targets += [(workload_cls, attrs, metric) for attrs, metric in WORKLOAD_TARGETS]
        saved = []
        try:
            for owner, attrs, metric in targets:
                for attr in attrs:
                    raw = inspect.getattr_static(owner, attr)
                    name = f"{_short(owner)}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(raw.__func__, name, metric))
                    else:
                        new = self._wrap(raw, name, metric)
                    saved.append((owner, attr, raw, attr in vars(owner)))
                    setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw, own in reversed(saved):
                if own:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)

    def _wrap(self, fn, name, metric):
        self.metric_of[name] = metric
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack, self_ns, total_ns = self.stack, self.self_ns, self.total_ns
        calls, errors = self.calls, self.errors
        starts, durs = self.spans["start_ns"].append, self.spans["dur_ns"].append
        depths, name_ids = self.spans["depth"].append, self.spans["name"].append
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [name, metric, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                self_ns[name] += dur - frame[2]
                total_ns[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer.covered_ns += dur
                starts(t0)
                durs(dur)
                depths(min(len(stack), 255))
                name_ids(name_id)
            if hook is not None:
                hook(tracer, parent, args, result)
            return result

        return traced

    # Results -----------------------------------------------------------

    def write_spans(self, path) -> int:
        """Every span, in the order the spans ended. The file is one JSON
        header line (span count, byte order, the name table and the
        fields with their ``array`` type codes), then each field's array
        of ``count`` items in turn."""
        fields = list(self.spans.items())
        count = len(self.spans["name"])
        header = {"count": count, "byteorder": sys.byteorder, "names": self.names,
                  "fields": [[field, values.typecode] for field, values in fields]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _field, values in fields:
                values.tofile(fh)
        return count

    def layer_metrics(self, m, traced_wall_ns: int, overhead_frac: float) -> dict:
        """Every per-layer metric of ``spec.PER_LAYER`` for one traced pass
        that ran on mount ``m`` and took ``traced_wall_ns``; the harness
        measures the overhead against an untraced pass."""
        calls, counts = self.calls, self.counts
        out = dict.fromkeys(self.metric_of.values(), 0.0)
        for name, ns in self.self_ns.items():
            out[self.metric_of[name]] += ns / 1e3

        def n(*names):
            return sum(calls[x] for x in names)

        def frac(a, b):
            return a / b if b else 0.0

        eng = m.engine
        sch, cache = eng.sched, eng.cache
        out["hostiface.disk_calls"] = n("HostInterface.disk_read", "HostInterface.disk_write")
        out["hostiface.net_calls"] = n("HostInterface.net_write", "HostInterface.net_read",
                                       "HostInterface.net_poll")
        out["trace.events"] = n("HostTrace.record")
        out["rng.draws"] = n("Rng.randbelow", "Rng.random_bytes")
        out["rng.bytes"] = counts["rng.bytes"]
        out["blockcrypto.seals"] = n("blockcrypto.seal_block")
        out["blockcrypto.opens"] = n("blockcrypto.open_block")
        out["blockcrypto.failures"] = self.errors["blockcrypto.open_block"]
        out["sched.rounds"] = n("RoundScheduler.run_round")
        out["sched.read_useful_frac"] = frac(sch.real_reads, sch.real_reads + sch.dummy_reads)
        out["sched.write_useful_frac"] = frac(sch.real_writes,
                                              sch.real_writes + sch.dummy_writes)
        out["pagecache.hit_ratio"] = frac(cache.hits, cache.hits + cache.fetches)
        out["pagecache.misses"] = cache.fetches
        out["pagecache.writebacks"] = counts["pagecache.writebacks"]
        out["pagecache.shuffle_required"] = counts["pagecache.shuffle_required"]
        out["pagecache.rounds_per_miss"] = frac(counts["rounds_in_fetch"], cache.fetches)
        shuffles = n("Engine.shuffle_now")
        out["shuffle.count"] = shuffles
        out["shuffle.round_share"] = frac(counts["shuffle_rounds"], sch.rounds)
        out["shuffle.rounds_per_shuffle"] = frac(counts["shuffle_rounds"], shuffles)
        out["shuffle.donor_reuses"] = counts["shuffle.donor_reuses"]
        out["setup.build_image_s"] = self.total_ns["engine.build_image"] / 1e9
        out["setup.persist_s"] = self.total_ns["BlockFs.persist"] / 1e9
        out["setup.mount_s"] = self.total_ns[self.mount_span] / 1e9
        sealed_real = n("PeerSession.seal_packet")
        sealed = sealed_real + n("PeerSession.seal_dummy")
        out["channel.frames_sealed"] = sealed
        out["channel.frames_opened"] = n("PeerSession.open_packet")
        out["channel.real_frac"] = frac(sealed_real, sealed)
        out["channel.rx_errors"] = sum(link.rx_errors for link in eng.links) + \
            (m.peer.rx_errors if m.peer is not None else 0)
        out["shaper.ticks"] = n("PeerShaper.tick")
        out["shaper.backlog_peak"] = counts["shaper.backlog_peak"]
        out["engine.peer_drops"] = m.peer.dropped if m.peer is not None else 0
        out["trace.overhead_frac"] = overhead_frac
        out["unattributed_frac"] = max(0.0, 1 - self.covered_ns / traced_wall_ns)
        return out
