from __future__ import annotations

import struct

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings, strategies as st

from oblivsim import (
    DEFAULT_MTU,
    Endpoint,
    HandshakeError,
    IntegrityError,
    ParameterError,
    PeerIdentity,
    PeerSession,
    PolicyError,
    ProvisioningSecrets,
    ReplayError,
    ReplayWindow,
    SizeError,
    StaleCounterError,
    StaticIdentity,
    establish,
    max_payload,
)

A_PRIV = bytes(range(32))
B_PRIV = bytes(range(32, 64))


def identities():
    return (StaticIdentity.from_private_bytes(A_PRIV),
            StaticIdentity.from_private_bytes(B_PRIV))


def pair():
    a, b = identities()
    a2b = establish(a, PeerIdentity(b.public_bytes))
    b2a = establish(b, PeerIdentity(a.public_bytes))
    return a2b, b2a


def reference_keys():
    """Directional keys recomputed from primitives, bypassing the
    session machinery entirely."""
    a = X25519PrivateKey.from_private_bytes(A_PRIV)
    b = X25519PrivateKey.from_private_bytes(B_PRIV)
    a_pub = a.public_key().public_bytes_raw()
    b_pub = b.public_key().public_bytes_raw()
    secret = a.exchange(b.public_key())

    def kdf(info):
        return HKDF(algorithm=hashes.SHA256(), length=32,
                    salt=b"oblivsim-link-v1", info=info).derive(secret)

    return kdf(a_pub + b_pub), kdf(b_pub + a_pub)  # a->b, b->a


def test_wire_format_against_raw_primitives():
    a2b, _ = pair()
    ab_key, _ = reference_keys()
    frame = a2b.seal_packet(b"hello")
    assert len(frame) == DEFAULT_MTU
    counter = struct.unpack(">Q", frame[:8])[0]
    assert counter == 1
    nonce = b"\x00" * 4 + frame[:8]
    inner = AESGCM(ab_key).decrypt(nonce, frame[8:], frame[:8])
    assert struct.unpack(">H", inner[:2])[0] == 5
    assert inner[2:7] == b"hello"
    assert inner[7:] == b"\x00" * (max_payload() - 5)


def test_every_frame_is_mtu_sized():
    a2b, b2a = pair()
    limit = max_payload()
    assert limit == DEFAULT_MTU - 26
    for payload in (b"x", b"y" * 100, b"z" * limit):
        assert len(a2b.seal_packet(payload)) == DEFAULT_MTU
    assert len(a2b.seal_dummy()) == DEFAULT_MTU
    with pytest.raises(SizeError):
        a2b.seal_packet(b"w" * (limit + 1))
    # inner_len 0 marks padding, so a real frame carries at least a byte.
    with pytest.raises(SizeError):
        a2b.seal_packet(b"")
    assert a2b.sent_real == 3 and a2b.send_counter == 4


@settings(max_examples=40)
@given(st.binary(min_size=1, max_size=max_payload()))
def test_payload_roundtrip_strips_padding(payload):
    a2b, b2a = pair()
    assert b2a.open_packet(a2b.seal_packet(payload)) == payload


def test_dummy_frames_are_decrypted_and_dropped():
    a2b, b2a = pair()
    assert b2a.open_packet(a2b.seal_dummy()) == b""
    assert b2a.received_dummy == 1 and b2a.received_real == 0
    # Real and padding frames share one counter space.
    assert b2a.open_packet(a2b.seal_packet(b"data")) == b"data"
    assert a2b.send_counter == 2
    assert b2a.window.max_seen == 2


def test_dummy_frames_are_zero_padded_and_distinct_on_the_wire():
    a2b, b2a = pair()
    ab_key, _ = reference_keys()
    first, second = a2b.seal_dummy(), a2b.seal_dummy()
    assert first != second and first[8:] != second[8:]
    for frame in (first, second):
        inner = AESGCM(ab_key).decrypt(b"\x00" * 4 + frame[:8], frame[8:], frame[:8])
        assert inner == bytes(2 + max_payload())  # inner_len 0, zero pad
    assert b2a.open_packet(first) == b"" and b2a.open_packet(second) == b""


def test_replayed_frame_is_rejected():
    a2b, b2a = pair()
    frame = a2b.seal_packet(b"once")
    assert b2a.open_packet(frame) == b"once"
    with pytest.raises(ReplayError):
        b2a.open_packet(frame)


def test_out_of_order_within_window_is_fine():
    a2b, b2a = pair()
    frames = [a2b.seal_packet(bytes([i])) for i in range(1, 4)]
    assert b2a.open_packet(frames[2]) == b"\x03"
    assert b2a.open_packet(frames[0]) == b"\x01"
    assert b2a.open_packet(frames[1]) == b"\x02"


def test_frames_behind_the_window_go_stale():
    a2b, b2a = pair()
    old = a2b.seal_packet(b"old")  # counter 1
    for _ in range(64):
        b2a.open_packet(a2b.seal_packet(b"x"))  # counters 2..65
    with pytest.raises(StaleCounterError):
        b2a.open_packet(old)  # age 64 == window width


@settings(max_examples=80)
@given(st.lists(st.integers(min_value=-2, max_value=200), max_size=80))
def test_replay_window_matches_reference_model(counters):
    win = ReplayWindow()
    accepted: set[int] = set()
    max_seen = 0
    for c in counters:
        if c < 1 or c <= max_seen - 64:
            expect = StaleCounterError
        elif c in accepted:
            expect = ReplayError
        else:
            expect = None
        if expect is None:
            win.verify(c)
            win.accept(c)
            accepted.add(c)
            max_seen = max(max_seen, c)
        else:
            with pytest.raises(expect):
                win.verify(c)
        assert win.max_seen == max_seen


@settings(max_examples=40)
@given(st.integers(min_value=8, max_value=DEFAULT_MTU - 1),
       st.integers(min_value=0, max_value=7))
def test_bit_flips_never_pass_authentication(byte_pos, bit):
    a2b, b2a = pair()
    frame = bytearray(a2b.seal_packet(b"fragile"))
    frame[byte_pos] ^= 1 << bit
    with pytest.raises(IntegrityError):
        b2a.open_packet(bytes(frame))


def test_forged_counter_fails_authentication():
    a2b, b2a = pair()
    frame = bytearray(a2b.seal_packet(b"x"))
    frame[7] ^= 0x02  # counter 1 -> 3, still fresh for the window
    with pytest.raises(IntegrityError):
        b2a.open_packet(bytes(frame))


@pytest.mark.parametrize("counter", [1000, 2**63, 2**64 - 1])
def test_forged_far_counter_leaves_the_window_alone(counter):
    a2b, b2a = pair()
    assert b2a.open_packet(a2b.seal_packet(b"one")) == b"one"
    genuine = a2b.seal_packet(b"two")
    forged = counter.to_bytes(8, "big") + genuine[8:]
    with pytest.raises(IntegrityError):
        b2a.open_packet(forged)
    assert b2a.window.max_seen == 1
    assert b2a.open_packet(genuine) == b"two"


def test_window_jump_past_its_width_keeps_only_the_new_counter():
    win = ReplayWindow()
    for c in (5, 2**64 - 1):
        win.verify(c)
        win.accept(c)
    assert win.max_seen == 2**64 - 1
    with pytest.raises(ReplayError):
        win.verify(2**64 - 1)
    win.verify(2**64 - 2)
    win.accept(2**64 - 2)
    with pytest.raises(StaleCounterError):
        win.verify(5)


def test_frame_size_is_checked_before_anything_else():
    a2b, b2a = pair()
    frame = a2b.seal_packet(b"x")
    with pytest.raises(SizeError):
        b2a.open_packet(frame[:-1])
    with pytest.raises(SizeError):
        b2a.open_packet(frame + b"\x00")


def test_oversized_inner_length_is_rejected():
    _, b2a = pair()
    ab_key, _ = reference_keys()
    limit = max_payload()
    header = struct.pack(">Q", 1)
    inner = struct.pack(">H", limit + 1) + b"\x00" * limit
    sealed = AESGCM(ab_key).encrypt(b"\x00" * 4 + header, inner, header)
    with pytest.raises(SizeError):
        b2a.open_packet(header + sealed)


def test_sessions_are_directional():
    a2b, b2a = pair()
    frame = a2b.seal_packet(b"mine")
    with pytest.raises(IntegrityError):
        a2b.open_packet(frame)  # own send key is not the recv key
    outsider = StaticIdentity.generate()
    _, b_id = identities()
    spy = establish(outsider, PeerIdentity(b_id.public_bytes))
    with pytest.raises(IntegrityError):
        spy.open_packet(a2b.seal_packet(b"secret"))


def test_establish_validates_its_inputs():
    a, b = identities()
    with pytest.raises(HandshakeError):
        establish(a, PeerIdentity(b"short"))
    with pytest.raises(HandshakeError):
        establish(a, PeerIdentity(a.public_bytes))
    with pytest.raises(HandshakeError):
        StaticIdentity.from_private_bytes(b"\x01" * 31)


peer_st = st.builds(
    PeerIdentity,
    public_key=st.binary(min_size=32, max_size=32),
    address=st.text(max_size=20),
    rate_bps=st.integers(min_value=1, max_value=2**64 - 1),
)


@settings(max_examples=40)
@given(st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
       st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
       st.lists(peer_st, max_size=4),
       st.text(max_size=30),
       st.lists(st.text(max_size=10), max_size=4))
def test_provisioning_record_roundtrip(key, root, peers, path, args):
    record = ProvisioningSecrets(key, root, tuple(peers), path, tuple(args))
    assert ProvisioningSecrets.decode(record.encode()) == record


def test_provisioning_record_rejects_garbage():
    good = ProvisioningSecrets(disk_key=b"\x01" * 32).encode()
    with pytest.raises(ParameterError):
        ProvisioningSecrets.decode(b"XXXX" + good[4:])
    with pytest.raises(ParameterError):
        ProvisioningSecrets.decode(good[:4] + b"\x09" + good[5:])
    with pytest.raises(ParameterError):
        ProvisioningSecrets.decode(good[:-3])
    with pytest.raises(ParameterError):
        ProvisioningSecrets(peers=(PeerIdentity(b"tiny"),)).encode()


_PUB = b"\x01" * 32


@pytest.mark.parametrize("what, build", [
    ("disk key length", lambda n: ProvisioningSecrets(disk_key=b"k" * n)),
    ("verity root length", lambda n: ProvisioningSecrets(verity_root=b"r" * n)),
    ("peer count", lambda n: ProvisioningSecrets(peers=(PeerIdentity(_PUB),) * n)),
    ("peer address length",
     lambda n: ProvisioningSecrets(peers=(PeerIdentity(_PUB, "a" * n),))),
    ("exec path length", lambda n: ProvisioningSecrets(exec_path="p" * n)),
    ("exec arg count", lambda n: ProvisioningSecrets(exec_args=("a",) * n)),
    ("exec arg length", lambda n: ProvisioningSecrets(exec_args=("x" * n,))),
])
def test_provisioning_record_refuses_fields_over_16_bits(what, build):
    # Each length or count at 65535 still encodes; one more is refused.
    record = build(0xFFFF)
    assert ProvisioningSecrets.decode(record.encode()) == record
    with pytest.raises(ParameterError, match=f"{what} is 65536"):
        build(0x10000).encode()


def test_provisioning_record_cut_after_its_magic_is_rejected():
    with pytest.raises(ParameterError, match="truncated"):
        ProvisioningSecrets.decode(b"OBPV")


@pytest.mark.parametrize("field", ["address", "exec_path", "exec_args"])
def test_provisioning_record_rejects_text_that_is_not_utf8(field):
    text = {"address": "", "exec_path": "", "exec_args": ""}
    text[field] = "\u00e9"  # UTF-8 c3 a9, patched below to ff fe
    record = ProvisioningSecrets(
        peers=(PeerIdentity(b"\x01" * 32, text["address"]),),
        exec_path=text["exec_path"], exec_args=(text["exec_args"],)).encode()
    assert record.count(b"\xc3\xa9") == 1
    with pytest.raises(ParameterError, match="UTF-8"):
        ProvisioningSecrets.decode(record.replace(b"\xc3\xa9", b"\xff\xfe"))
    # Text that has no UTF-8 form (a lone surrogate) is refused on encode.
    text = {name: "\udcff" if name == field else "" for name in text}
    what = {"address": "peer address", "exec_path": "exec path", "exec_args": "exec arg"}
    with pytest.raises(ParameterError, match=f"{what[field]} is not UTF-8 text"):
        ProvisioningSecrets(
            peers=(PeerIdentity(b"\x01" * 32, text["address"]),),
            exec_path=text["exec_path"], exec_args=(text["exec_args"],)).encode()


def test_peer_rate_is_at_least_one_and_fits_64_bits():
    pub = b"\x01" * 32
    for rate in (1, 2**64 - 1):
        record = ProvisioningSecrets(peers=(PeerIdentity(pub, "", rate),))
        assert ProvisioningSecrets.decode(record.encode()) == record
    for rate in (0, 2**64):
        with pytest.raises(ParameterError, match=f"rate_bps {rate}: want 1 <= "):
            PeerIdentity(pub, "", rate)
    # A record whose rate field reads 0 is refused by the same check.
    record = ProvisioningSecrets(peers=(PeerIdentity(pub, "", 1),)).encode()
    field = (1).to_bytes(8, "big")
    assert record.count(field) == 1
    with pytest.raises(ParameterError, match="rate_bps 0: want 1 <= "):
        ProvisioningSecrets.decode(record.replace(field, bytes(8)))


def test_provisioning_only_from_the_first_peer():
    endpoint = Endpoint(StaticIdentity.generate())
    secrets = ProvisioningSecrets(disk_key=b"\x02" * 32)
    with pytest.raises(PolicyError):
        endpoint.provision(PeerSession(b"\x00" * 32, b"\x01" * 32), secrets)
    first = endpoint.establish_with(
        PeerIdentity(StaticIdentity.generate().public_bytes))
    second = endpoint.establish_with(
        PeerIdentity(StaticIdentity.generate().public_bytes))
    with pytest.raises(PolicyError):
        endpoint.provision(second, secrets)
    assert endpoint.provisioned is None
    endpoint.provision(first, secrets)
    assert endpoint.provisioned == secrets
    assert endpoint.attestation == "unverified"
    with pytest.raises(PolicyError):
        endpoint.provision(first, secrets)
