"""The benchmark's per-layer tracer wraps ``oblivsim`` functions by name
(``benchmarks/tracing.py``). A rename in ``src/`` alone would break the
traced benchmark run while every other test stays green, so every name
it wraps is resolved here."""

from __future__ import annotations

import importlib.util
import inspect
import time
import types
from pathlib import Path

from conftest import mount
from oblivsim import (
    BLOCK_SIZE,
    EchoPeer,
    EngineConfig,
    PeerIdentity,
    ShapingClass,
    StaticIdentity,
    establish,
)

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("oblivsim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_wraps_exists():
    tracing = load_tracing()
    names = [(owner, attr) for owner, attrs, _metric in tracing.TARGETS for attr in attrs]
    assert names
    for owner, attr in names:
        raw = inspect.getattr_static(owner, attr)
        assert isinstance(raw, (types.FunctionType, classmethod, staticmethod)), \
            f"{owner.__name__}.{attr}"


def test_every_hook_names_a_wrapped_target():
    # A hook fires only from the wrapper of the name it is keyed by, so a
    # hook on a name nothing wraps would silently count nothing.
    tracing = load_tracing()
    wrapped = {f"{tracing._short(owner)}.{attr}"
               for owner, attrs, _metric in tracing.TARGETS for attr in attrs}
    assert set(tracing.HOOKS) <= wrapped, set(tracing.HOOKS) - wrapped


class _Client:
    """Stands in for the benchmark's workload class, whose ``op``,
    ``finish`` and ``mount`` the tracer wraps as well."""

    def op(self):
        pass

    def finish(self):
        pass

    def mount(self):
        pass


def test_the_tracer_hooks_read_live_attributes(small_bundle):
    # A mount that misses, runs passes on the cadence of a two-page
    # cache, grows a file until a pass runs its pool dry, sends
    # over a shaped link and runs rounds, all under the tracer. Each hook
    # and each attribute ``layer_metrics`` reads must see the live value.
    tracing = load_tracing()
    m = mount(small_bundle, seed=1, config=EngineConfig(cache_capacity=2))
    eng = m.engine
    a = StaticIdentity.from_private_bytes(bytes(range(32)))
    b = StaticIdentity.from_private_bytes(bytes(range(32, 64)))
    link = eng.add_link(3, establish(a, PeerIdentity(b.public_bytes)))
    peer = EchoPeer(m.host, 3, establish(b, PeerIdentity(a.public_bytes)),
                    ShapingClass())
    eng.add_external_pump(peer)
    tracer = tracing.Tracer()
    t0 = time.perf_counter_ns()
    with tracer.installed(_Client):
        fd_a, fd_b = eng.regular_fd(0), eng.regular_fd(1)
        for blk in (0, 1, 2, 0):
            eng.read_file(fd_a, blk * BLOCK_SIZE, 4)
        # File b grows from 3 to 22 blocks, leaving 24 free blocks for a
        # 30-block pass.
        eng.write_file(fd_b, 3 * BLOCK_SIZE, bytes(19 * BLOCK_SIZE))
        stats = eng.shuffle_now()
        for payload in (b"ping", b"pong", b"again"):
            eng.net_send(3, payload)
        m.host.deliver_frame(3, bytes(m.host.mtu))  # a forged frame
        eng.run_rounds(20)
    wall_ns = time.perf_counter_ns() - t0
    out = tracer.layer_metrics(types.SimpleNamespace(engine=eng, peer=peer), wall_ns, 0.0)
    counts, sched, cache = tracer.counts, eng.sched, eng.cache

    assert tracer.calls["engine.oblivious_shuffle"] >= 2
    # No call returns Outcome.SHUFFLE_REQUIRED now that passes run on a
    # cadence; the hook still reads every get_block result.
    assert counts["pagecache.shuffle_required"] == 0
    assert tracer.calls["PageCache.get_block"] >= 4
    assert stats.donor_reuses == 6
    assert out["shuffle.donor_reuses"] == counts["shuffle.donor_reuses"] >= 6
    assert out["shaper.backlog_peak"] >= 1  # PeerShaper.backlog
    assert 0 < out["sched.read_useful_frac"] < 1
    assert out["sched.read_useful_frac"] == (
        sched.real_reads / (sched.real_reads + sched.dummy_reads))
    assert 0 < out["sched.write_useful_frac"] < 1
    assert out["sched.write_useful_frac"] == (
        sched.real_writes / (sched.real_writes + sched.dummy_writes))
    assert out["pagecache.misses"] == cache.fetches > 0
    assert out["pagecache.hit_ratio"] == cache.hits / (cache.hits + cache.fetches)
    assert link.rx_errors == 1
    assert out["channel.rx_errors"] == link.rx_errors + peer.rx_errors
    assert out["engine.peer_drops"] == peer.dropped
    assert peer.session.received_real == 3


def test_a_pass_resumed_by_shuffle_now_is_counted(small_bundle):
    # Rounds step a pass part of the way and shuffle_now finishes it, all
    # under the tracer: the finish goes through oblivious_shuffle, whose
    # hook counts the pass's vacated homes reused.
    tracing = load_tracing()
    m = mount(small_bundle, seed=1, config=EngineConfig(cache_capacity=2))
    eng = m.engine
    tracer = tracing.Tracer()
    with tracer.installed(_Client):
        # File b grows from 3 to 22 blocks, leaving 24 free blocks for a
        # 30-block pass.
        eng.write_file(eng.regular_fd(1), 3 * BLOCK_SIZE, bytes(19 * BLOCK_SIZE))
        eng.run_rounds(max(0, eng.pass_due - eng.rounds_done) + 10)
        calls = tracer.calls["engine.oblivious_shuffle"]
        reuses = tracer.counts["shuffle.donor_reuses"]
        rounds = eng.rounds_done
        stats = eng.shuffle_now()
    assert (stats.swaps, stats.donor_reuses) == (30, 6)
    assert eng.rounds_done - rounds == 31 - 10  # the rest of the pass
    assert tracer.calls["engine.oblivious_shuffle"] == calls + 1
    assert tracer.counts["shuffle.donor_reuses"] == reuses + 6
