"""Workload parsing and the access patterns each workload drives."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from conftest import DEFAULT_KEY, mount
from oblivsim import (
    BLOCK_SIZE,
    EchoPeer,
    KvStore,
    ModeError,
    ParameterError,
    PeerIdentity,
    ProtectionMode,
    RangeError,
    ShapingClass,
    StaticIdentity,
    build_image,
    establish,
    max_payload,
    parse_workload,
    run_workload,
)
from oblivsim import workload
from oblivsim.workload import FORMS, KV_MAX_KEY, KV_MAX_VAL, KV_SLOT, parse_ops

FILE_A_LEN = 4096 * 8


def kv_mount(nbytes=8192, oblivious=False):
    bundle = build_image(32, ProtectionMode.CRYPT_INTEGRITY, [bytes(nbytes)],
                         seed=2, key=DEFAULT_KEY)
    return mount(bundle, seed=2, oblivious=oblivious)


def slot_home(key: bytes, capacity: int) -> int:
    h = hashlib.sha256(key).digest()
    return int.from_bytes(h[:8], "big") % capacity


# --- parsing -----------------------------------------------------------------


@pytest.mark.parametrize("text,name,args", [
    ("seqread(0, 100)", "seqread", (0, 100)),
    ("seqwrite(1,8192)", "seqwrite", (1, 8192)),
    ("randread(0, 7)", "randread", (0, 7)),
    ("reread(2, 50)", "reread", (2, 50)),
    ("kvtrace(ops.txt)", "kvtrace", ("ops.txt",)),
    ("netecho(4, 0x100)", "netecho", (4, 256)),
    (" idle( 12 ) ", "idle", (12,)),
])
def test_parse_workload(text, name, args):
    w = parse_workload(text)
    assert (w.name, w.args, w.spec_text) == (name, args, text)


@pytest.mark.parametrize("text", [
    "seqread(1)", "idle()", "netecho(1,2,3)", "reread(a,1)",
    "mystery(1,2)", "seqread", "idle(3", "", "idle(2.5)",
    "seqread(0,-5)", "randread(-1,3)", "reread(0,-1)", "netecho(0,-0x10)",
    "idle(-1)",
])
def test_parse_workload_rejects(text):
    with pytest.raises(ParameterError):
        parse_workload(text)


def test_only_idle_carries_a_default_budget():
    assert parse_workload("idle(9)").default_rounds() == 9
    assert parse_workload("seqread(0,0)").default_rounds() is None


def test_documented_forms_are_the_table():
    # README's CLI section and the module docstring each list every form once.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Workloads:(.*?)\.\s", readme, re.S).group(1)
    assert sorted(re.findall(r"`([a-z_]+)\(", sentence)) == sorted(FORMS)
    docstring = re.findall(r"^    ([a-z_]+)\(", workload.__doc__, re.M)
    assert sorted(docstring) == sorted(FORMS)


# --- file workloads ----------------------------------------------------------


def test_seqread_whole_file(small_bundle):
    eng = mount(small_bundle).engine
    assert run_workload(eng, parse_workload("seqread(0,0)"))
    assert eng.payload_bytes == FILE_A_LEN


def test_seqread_clamps_to_file_size(small_bundle):
    eng = mount(small_bundle).engine
    run_workload(eng, parse_workload("seqread(0,999999)"))
    assert eng.payload_bytes == FILE_A_LEN
    eng.payload_bytes = 0
    run_workload(eng, parse_workload("seqread(0,5000)"))
    assert eng.payload_bytes == 5000


def test_seqwrite_is_seeded(small_bundle):
    reads = []
    for _ in range(2):
        eng = mount(small_bundle, seed=3).engine
        run_workload(eng, parse_workload("seqwrite(1,8192)"))
        reads.append(eng.read_file(eng.regular_fd(1), 0, 8192))
    assert reads[0] == reads[1]
    assert reads[0] != b"\xab" * 8192
    assert len(set(reads[0][i:i + 16] for i in range(0, 8192, 16))) > 400


def test_randread_stays_in_bounds_and_replays(small_bundle):
    exports = []
    for _ in range(2):
        m = mount(small_bundle, seed=6)
        run_workload(m.engine, parse_workload("randread(0,25)"))
        assert m.engine.payload_bytes == 25 * BLOCK_SIZE
        exports.append((m.trace.export(), m.engine.counters()))
    assert exports[0] == exports[1]


def test_randread_on_empty_file_does_nothing():
    bundle = build_image(32, ProtectionMode.CRYPT_INTEGRITY, [b""],
                         seed=1, key=DEFAULT_KEY)
    eng = mount(bundle).engine
    assert run_workload(eng, parse_workload("randread(0,5)"))
    assert eng.payload_bytes == 0


def test_reread_hits_the_cache(small_bundle):
    eng = mount(small_bundle).engine
    run_workload(eng, parse_workload("reread(0,100)"))
    c = eng.counters()
    assert c["cache_hits"] >= 99
    assert c["real_reads"] == 1


def test_reread_beyond_eof(small_bundle):
    eng = mount(small_bundle).engine
    with pytest.raises(RangeError):
        run_workload(eng, parse_workload("reread(9,1)"))


# --- key-value store -----------------------------------------------------------


def test_kv_slot_layout():
    eng = kv_mount().engine
    store = KvStore(eng, eng.regular_fd(0))
    assert store.capacity == 8192 // KV_SLOT
    store.put(b"name", b"ada")
    idx = slot_home(b"name", store.capacity)
    raw = eng.read_file(eng.regular_fd(0), idx * KV_SLOT, KV_SLOT)
    expected = (bytes([4]) + b"name".ljust(KV_MAX_KEY, b"\x00")
                + bytes([3]) + b"ada".ljust(KV_MAX_VAL, b"\x00"))
    assert raw == expected


def test_kv_get_put_overwrite():
    eng = kv_mount().engine
    store = KvStore(eng, eng.regular_fd(0))
    assert store.get(b"k") is None
    store.put(b"k", b"v1")
    assert store.get(b"k") == b"v1"
    store.put(b"k", b"v2")
    assert store.get(b"k") == b"v2"
    assert store.get(b"other") is None


def test_kv_collisions_probe_linearly():
    eng = kv_mount(nbytes=4 * KV_SLOT).engine
    store = KvStore(eng, eng.regular_fd(0))
    keys = [f"key{i}".encode() for i in range(50)]
    home = slot_home(keys[0], store.capacity)
    twin = next(k for k in keys[1:] if slot_home(k, store.capacity) == home)
    store.put(keys[0], b"first")
    store.put(twin, b"second")
    assert store.get(keys[0]) == b"first"
    assert store.get(twin) == b"second"
    raw = eng.read_file(eng.regular_fd(0),
                        ((home + 1) % store.capacity) * KV_SLOT, KV_SLOT)
    assert raw[1:1 + len(twin)] == twin


def test_kv_full_store_rejects_new_keys():
    eng = kv_mount(nbytes=KV_SLOT).engine
    store = KvStore(eng, eng.regular_fd(0))
    store.put(b"only", b"x")
    store.put(b"only", b"y")  # replacing is still fine
    with pytest.raises(ParameterError):
        store.put(b"more", b"z")


def test_kv_limits():
    eng = kv_mount().engine
    store = KvStore(eng, eng.regular_fd(0))
    with pytest.raises(ParameterError):
        store.put(b"", b"v")
    with pytest.raises(ParameterError):
        store.put(b"k" * (KV_MAX_KEY + 1), b"v")
    with pytest.raises(ParameterError):
        store.put(b"k", b"v" * (KV_MAX_VAL + 1))


def test_kv_needs_room_for_one_slot():
    eng = kv_mount(nbytes=KV_SLOT - 1).engine
    with pytest.raises(ParameterError):
        KvStore(eng, eng.regular_fd(0))


def test_kv_trace_parse_ops():
    text = """
    # comment
    put alpha 1

    get alpha
    put beta two
    """
    assert parse_ops(text) == [
        ("put", b"alpha", b"1"), ("get", b"alpha"), ("put", b"beta", b"two")]
    for bad in ("del k", "put a", "get", "put a b c"):
        with pytest.raises(ParameterError):
            parse_ops(bad)


def test_kv_trace_replays_against_file_zero(tmp_path):
    ops = tmp_path / "ops.txt"
    ops.write_text("put k1 v1\nput k2 v2\nget k1\nput k1 v9\n")
    m = kv_mount(oblivious=True)
    assert run_workload(m.engine, parse_workload(f"kvtrace({ops})"))
    store = KvStore(m.engine, m.engine.regular_fd(0))
    assert store.get(b"k1") == b"v9"
    assert store.get(b"k2") == b"v2"


def test_kv_trace_refuses_an_ops_file_that_is_not_utf8(tmp_path):
    ops = tmp_path / "ops.bin"
    ops.write_bytes(b"\xff\xfe")
    m = kv_mount(oblivious=True)
    with pytest.raises(ParameterError, match=f"ops file {re.escape(str(ops))} is not UTF-8"):
        run_workload(m.engine, parse_workload(f"kvtrace({ops})"))


# --- net and idle --------------------------------------------------------------


def echo_setup(m, endpoint=4):
    a = StaticIdentity.from_private_bytes(bytes(range(32)))
    b = StaticIdentity.from_private_bytes(bytes(range(32, 64)))
    m.engine.add_link(endpoint, establish(a, PeerIdentity(b.public_bytes)))
    peer = EchoPeer(m.host, endpoint,
                    establish(b, PeerIdentity(a.public_bytes)), ShapingClass())
    m.engine.add_external_pump(peer)
    return peer


def test_netecho_bounces_the_requested_bytes(small_bundle):
    m = mount(small_bundle)
    echo_setup(m)
    assert run_workload(m.engine, parse_workload("netecho(4,3000)"))
    assert m.engine.payload_bytes == 3000  # every sent byte came back
    assert m.engine.counters()["net_real"] >= 3


def test_netecho_splits_at_frame_capacity(small_bundle):
    m = mount(small_bundle)
    peer = echo_setup(m)
    nbytes = max_payload(m.host.mtu) + 1
    run_workload(m.engine, parse_workload(f"netecho(4,{nbytes})"))
    assert peer.session.received_real == 2


def test_netecho_needs_the_protected_path(small_bundle):
    eng = mount(small_bundle, oblivious=False).engine
    with pytest.raises(ModeError):
        run_workload(eng, parse_workload("netecho(4,100)"))


def test_netecho_without_a_link(small_bundle):
    eng = mount(small_bundle).engine
    with pytest.raises(ParameterError):
        run_workload(eng, parse_workload("netecho(4,100)"))


def test_idle_is_a_noop_on_the_passthrough_path(small_bundle):
    eng = mount(small_bundle, oblivious=False).engine
    assert run_workload(eng, parse_workload("idle(5)"))
    assert eng.clock.now() == 0
