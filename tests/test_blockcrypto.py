"""Sealing, the trusted root and the image container, checked against
independently computed ciphertexts and digests."""

from __future__ import annotations

import hashlib
import os
import struct

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from oblivsim import (
    BLOCK_SIZE,
    BlockStore,
    CallKind,
    FreshnessTable,
    Host,
    HostInterface,
    IntegrityError,
    ModeError,
    ParameterError,
    ProtectionMode,
    ReplayError,
    SimClock,
    SizeError,
    layout_for,
    new_image,
    open_block,
    seal_block,
)
from oblivsim import blockcrypto
from oblivsim.blockcrypto import (
    NONCE_RANDOM,
    NONCE_SIZE,
    SLOT_SIZE,
    EncryptedBlock,
    parse_header,
)

KEY = bytes(range(32))
PLAIN = bytes(range(256)) * 16


def test_seal_open_roundtrip():
    fresh = FreshnessTable()
    enc = seal_block(KEY, 5, PLAIN, fresh)
    assert open_block(KEY, 5, enc, fresh) == PLAIN


def test_seal_matches_independent_aead_computation():
    # Recompute the decryption with the raw primitive: the counter must
    # sit in the nonce tail and (phys, counter) must be the AAD.
    fresh = FreshnessTable()
    enc = seal_block(KEY, 9, PLAIN, fresh)
    version = int.from_bytes(enc.nonce[NONCE_RANDOM:], "big")
    assert version == 1
    aad = struct.pack(">QQ", 9, version)
    out = AESGCM(KEY).decrypt(enc.nonce, enc.ciphertext + enc.tag, aad)
    assert out == PLAIN


def test_sealing_is_probabilistic():
    fresh = FreshnessTable()
    a = seal_block(KEY, 1, PLAIN, fresh)
    b = seal_block(KEY, 1, PLAIN, fresh)
    assert a.ciphertext != b.ciphertext
    assert a.nonce != b.nonce


def test_ciphertext_bound_to_physical_slot():
    fresh = FreshnessTable()
    enc = seal_block(KEY, 3, PLAIN, fresh)
    fresh2 = FreshnessTable()
    fresh2.restore(4, enc.version)
    with pytest.raises(IntegrityError):
        open_block(KEY, 4, enc, fresh2)


def test_version_mismatch_is_replay_not_integrity():
    fresh = FreshnessTable()
    old = seal_block(KEY, 2, PLAIN, fresh)
    seal_block(KEY, 2, b"\x00" * BLOCK_SIZE, fresh)
    with pytest.raises(ReplayError):
        open_block(KEY, 2, old, fresh)
    # Without freshness (confidentiality-only mode) the stale block
    # still opens; that is the documented weaker guarantee.
    assert open_block(KEY, 2, old, None) == PLAIN


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=SLOT_SIZE + BLOCK_SIZE - 1),
       st.integers(min_value=0, max_value=7))
def test_any_single_bit_flip_is_detected(byte_index, bit):
    fresh = FreshnessTable()
    enc = seal_block(KEY, 7, PLAIN, fresh)
    blob = bytearray(enc.slot() + enc.ciphertext)
    blob[byte_index] ^= 1 << bit
    mutated = EncryptedBlock(bytes(blob[:NONCE_SIZE]),
                             bytes(blob[SLOT_SIZE:]),
                             bytes(blob[NONCE_SIZE:SLOT_SIZE]))
    with pytest.raises((IntegrityError, ReplayError)):
        open_block(KEY, 7, mutated, fresh)


def test_seal_open_validate_arguments():
    fresh = FreshnessTable()
    with pytest.raises(ParameterError):
        seal_block(b"short", 0, PLAIN, fresh)
    with pytest.raises(SizeError):
        seal_block(KEY, 0, b"tiny", fresh)
    enc = seal_block(KEY, 0, PLAIN, fresh)
    with pytest.raises(ParameterError):
        open_block(b"short", 0, enc, fresh)
    bad = EncryptedBlock(b"\x00" * 5, enc.ciphertext, enc.tag)
    with pytest.raises(SizeError):
        open_block(KEY, 0, bad, fresh)


def test_freshness_restore_ignores_zero():
    fresh = FreshnessTable()
    fresh.restore(3, 0)
    assert fresh.version_of(3) == 0
    fresh.restore(3, 9)
    assert fresh.version_of(3) == 9
    assert fresh.bump(3) == 10


# ---------------------------------------------------------------------------
# Container layout.
# ---------------------------------------------------------------------------

def test_layout_regions_do_not_overlap():
    for n in (8, 103, 256, 1024):
        for mode in ProtectionMode:
            lay = layout_for(n, mode)
            assert lay.slot_region_offset() == BLOCK_SIZE
            assert lay.data_offset(0) >= lay.slot_region_offset() \
                + lay.slot_blocks * BLOCK_SIZE
            assert lay.data_offset(n - 1) + BLOCK_SIZE == lay.total_bytes
            assert lay.slot_blocks * BLOCK_SIZE >= n * SLOT_SIZE
    with pytest.raises(ParameterError):
        layout_for(8, ProtectionMode.PLAIN).data_offset(8)


def test_header_roundtrip_and_rejections():
    image = new_image(64, ProtectionMode.CRYPT)
    lay = parse_header(bytes(image[:BLOCK_SIZE]))
    assert lay == layout_for(64, ProtectionMode.CRYPT)

    bad_magic = bytearray(image[:BLOCK_SIZE])
    bad_magic[:5] = b"WRONG"
    with pytest.raises(ParameterError):
        parse_header(bytes(bad_magic))

    bad_mode = bytearray(image[:BLOCK_SIZE])
    bad_mode[17] = 9  # mode byte
    with pytest.raises(ParameterError):
        parse_header(bytes(bad_mode))

    bad_aead = bytearray(image[:BLOCK_SIZE])
    bad_aead[18] = 7
    with pytest.raises(ParameterError):
        parse_header(bytes(bad_aead))

    # Bytes past the fields are zero, so the root hashes one encoding.
    trailing = bytearray(image[:BLOCK_SIZE])
    trailing[BLOCK_SIZE - 1] = 1
    with pytest.raises(ParameterError):
        parse_header(bytes(trailing))


# ---------------------------------------------------------------------------
# Trusted root.
# ---------------------------------------------------------------------------

def _oracle_root(n: int, mode: ProtectionMode, slots: list[bytes]) -> bytes:
    """SHA-256 over the header block and the zero-padded slot region,
    written from FORMATS.md alone."""
    aead = 1 if mode.encrypted else 0
    hashid = 1 if mode is ProtectionMode.VERITY else 0
    header = struct.pack("<5sIQBBB", b"OBLV1", BLOCK_SIZE, n, mode.value, aead, hashid)
    region = b"".join(slots)
    region_blocks = -(-n * SLOT_SIZE // BLOCK_SIZE)
    return hashlib.sha256(
        header.ljust(BLOCK_SIZE, b"\0") + region.ljust(region_blocks * BLOCK_SIZE, b"\0")
    ).digest()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_verity_root_matches_oracle(n):
    store, _ = fresh_store(ProtectionMode.VERITY, n)
    blocks = [bytes([i]) * BLOCK_SIZE for i in range(n)]
    for phys, block in enumerate(blocks):
        store.write_block(phys, block)
    slots = [hashlib.sha256(b).digest() + bytes(8) for b in blocks]
    assert store.seal_readonly() == _oracle_root(n, ProtectionMode.VERITY, slots)


def test_crypt_integrity_root_matches_oracle():
    store, _ = fresh_store(ProtectionMode.CRYPT_INTEGRITY, 5)
    store.write_block(1, PLAIN)
    slots = [bytes(SLOT_SIZE), store.slots[1]] + [bytes(SLOT_SIZE)] * 3
    assert store.persist_metadata() == _oracle_root(
        5, ProtectionMode.CRYPT_INTEGRITY, slots)


# ---------------------------------------------------------------------------
# BlockStore.
# ---------------------------------------------------------------------------

def fresh_store(mode: ProtectionMode, n: int = 16):
    layout = layout_for(n, mode)
    host = Host(new_image(n, mode), SimClock())
    iface = HostInterface(host)
    key = KEY if mode.encrypted else None
    return BlockStore(iface, layout, key), host


@pytest.mark.parametrize("mode", [ProtectionMode.PLAIN, ProtectionMode.CRYPT,
                                  ProtectionMode.CRYPT_INTEGRITY])
def test_store_roundtrip(mode):
    store, _ = fresh_store(mode)
    store.write_block(4, PLAIN)
    assert store.read_block(4) == PLAIN


def test_encrypted_store_never_holds_plaintext_on_disk():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    store.write_block(1, PLAIN)
    assert PLAIN not in bytes(host.image)


def test_reading_unwritten_encrypted_block_fails_closed():
    store, _ = fresh_store(ProtectionMode.CRYPT)
    with pytest.raises(IntegrityError):
        store.read_block(0)


def test_mount_requires_key_for_encrypted_images():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    store.write_block(0, PLAIN)
    store.persist_metadata()
    iface = HostInterface(Host(bytearray(host.image), SimClock()))
    with pytest.raises(ParameterError):
        BlockStore.mount(iface)
    again = BlockStore.mount(iface, key=KEY)
    assert again.read_block(0) == PLAIN
    assert again.freshness.version_of(0) == 1


def test_data_rollback_without_slot_is_integrity_failure():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    off = store.layout.data_offset(2)
    store.write_block(2, PLAIN)
    old_ct = bytes(host.image[off:off + BLOCK_SIZE])
    store.write_block(2, b"\x99" * BLOCK_SIZE)
    host.image[off:off + BLOCK_SIZE] = old_ct
    with pytest.raises(IntegrityError):
        store.read_block(2)


def test_full_rollback_is_reported_as_replay():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    off = store.layout.data_offset(2)
    store.write_block(2, PLAIN)
    old_ct = bytes(host.image[off:off + BLOCK_SIZE])
    old_slot = store.slots[2]
    store.write_block(2, b"\x99" * BLOCK_SIZE)
    host.image[off:off + BLOCK_SIZE] = old_ct
    store.slots[2] = old_slot  # stale metadata presented alongside
    with pytest.raises(ReplayError):
        store.read_block(2)


def test_crypt_mode_accepts_full_rollback():
    # Same attack as above; CRYPT (no freshness) cannot see it.
    store, host = fresh_store(ProtectionMode.CRYPT)
    off = store.layout.data_offset(2)
    store.write_block(2, PLAIN)
    old_ct = bytes(host.image[off:off + BLOCK_SIZE])
    old_slot = store.slots[2]
    store.write_block(2, b"\x99" * BLOCK_SIZE)
    host.image[off:off + BLOCK_SIZE] = old_ct
    store.slots[2] = old_slot
    assert store.read_block(2) == PLAIN


def test_dummy_traffic_shape():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    before = bytes(host.image)
    store.dummy_read(3)
    assert bytes(host.image) == before
    store.dummy_write(3)
    assert bytes(host.image) != before
    assert all(e.dummy for e in store.iface.trace.events)
    assert len(store.iface.trace.of_kind(CallKind.DISK_READ)) == 1
    assert len(store.iface.trace.of_kind(CallKind.DISK_WRITE)) == 1


def test_dummy_writes_seal_zeros_under_fresh_nonces():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    off = store.layout.data_offset(3)
    seen = []
    for _ in range(2):
        store.dummy_write(3)
        seen.append((bytes(host.image[off:off + BLOCK_SIZE]), store.slots[3]))
    (first_ct, first_slot), (second_ct, second_slot) = seen
    assert first_ct != second_ct and first_slot != second_slot
    assert store.freshness.version_of(3) == 2
    assert store.read_block(3) == bytes(BLOCK_SIZE)


def test_nonce_prefixes_come_from_one_urandom_call_per_refill(monkeypatch):
    calls = []

    def counting(n, _real=os.urandom):
        calls.append(n)
        return _real(n)

    blockcrypto._prefix_pool.clear()  # start on a refill
    monkeypatch.setattr(blockcrypto.os, "urandom", counting)
    fresh = FreshnessTable()
    seals = 3 * blockcrypto._POOL_PREFIXES
    prefixes = {seal_block(KEY, 0, PLAIN, fresh).nonce[:NONCE_RANDOM]
                for _ in range(seals)}
    assert len(prefixes) == seals
    assert calls == [NONCE_RANDOM * blockcrypto._POOL_PREFIXES] * 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_never_uses_a_parent_prefix():
    seal_block(KEY, 0, PLAIN, FreshnessTable())
    pending = list(blockcrypto._prefix_pool)  # what the child inherits
    assert pending
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            os.write(w, seal_block(KEY, 0, PLAIN, FreshnessTable()).nonce[:NONCE_RANDOM])
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        child = pipe.read()
    os.waitpid(pid, 0)
    fresh = FreshnessTable()
    parent = {seal_block(KEY, 0, PLAIN, fresh).nonce[:NONCE_RANDOM]
              for _ in range(len(pending))}
    assert len(child) == NONCE_RANDOM
    assert child not in parent and child not in pending


def test_one_aead_object_per_key(monkeypatch):
    built = []

    def counting(key):
        built.append(key)
        return AESGCM(key)

    monkeypatch.setattr(blockcrypto, "AESGCM", counting)
    key = os.urandom(32)  # never used before, so nothing is cached for it
    fresh = FreshnessTable()
    for phys in range(50):
        assert open_block(key, phys, seal_block(key, phys, PLAIN, fresh), fresh) == PLAIN
    assert built == [key]


def test_verity_seal_and_verify_cycle():
    store, host = fresh_store(ProtectionMode.VERITY)
    store.write_block(0, PLAIN)
    store.write_block(1, b"\x11" * BLOCK_SIZE)
    root = store.seal_readonly()
    assert store.read_block(0) == PLAIN
    with pytest.raises(ModeError):
        store.write_block(0, PLAIN)

    # Remount from the persisted digests; then tamper with a data block.
    iface = HostInterface(Host(bytearray(host.image), SimClock()))
    again = BlockStore.mount(iface, trusted_root=root)
    assert again.read_block(1) == b"\x11" * BLOCK_SIZE
    off = again.layout.data_offset(1)
    iface.host.image[off] ^= 0x01
    with pytest.raises(IntegrityError):
        again.read_block(1)


def test_verity_mount_requires_root():
    store, host = fresh_store(ProtectionMode.VERITY)
    store.seal_readonly()
    iface = HostInterface(Host(bytearray(host.image), SimClock()))
    with pytest.raises(ParameterError):
        BlockStore.mount(iface)


def test_persist_metadata_survives_remount():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    for p in range(8):
        store.write_block(p, bytes([p]) * BLOCK_SIZE)
    store.persist_metadata()
    again = BlockStore.mount(
        HostInterface(Host(bytearray(host.image), SimClock())), key=KEY)
    for p in range(8):
        assert again.read_block(p) == bytes([p]) * BLOCK_SIZE
    assert again.slots[8:] == [None] * 8


def _remount(image, **kw) -> BlockStore:
    return BlockStore.mount(HostInterface(Host(bytearray(image), SimClock())), **kw)


def test_rollback_of_block_and_slot_is_refused_at_mount():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    off = store.layout.data_offset(2)
    slot_off = store.layout.slot_region_offset() + 2 * SLOT_SIZE
    store.write_block(2, b"AAAA" * 1024)
    store.persist_metadata()
    old_block = bytes(host.image[off:off + BLOCK_SIZE])
    old_slot = bytes(host.image[slot_off:slot_off + SLOT_SIZE])
    store.write_block(2, b"BBBB" * 1024)
    root = store.persist_metadata()
    host.image[off:off + BLOCK_SIZE] = old_block
    host.image[slot_off:slot_off + SLOT_SIZE] = old_slot
    with pytest.raises(ReplayError):
        _remount(host.image, key=KEY, trusted_root=root)
    # Without the root the stale pair is self-consistent and opens:
    # exactly what the root is there to stop.
    assert _remount(host.image, key=KEY).read_block(2) == b"AAAA" * 1024


def test_plain_image_mounted_with_a_verity_root_is_refused():
    verity, _ = fresh_store(ProtectionMode.VERITY)
    root = verity.seal_readonly()
    plain, host = fresh_store(ProtectionMode.PLAIN)
    plain.write_block(0, b"EVIL" * 1024)
    with pytest.raises(ReplayError):
        _remount(host.image, trusted_root=root)


def test_verity_slot_byte_flip_fails_at_mount():
    store, host = fresh_store(ProtectionMode.VERITY)
    store.write_block(3, PLAIN)
    root = store.seal_readonly()
    host.image[store.layout.slot_region_offset() + 3 * SLOT_SIZE] ^= 0x01
    with pytest.raises(ReplayError):
        _remount(host.image, trusted_root=root)


def test_root_tracks_every_persist():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    first = store.persist_metadata()
    store.write_block(0, PLAIN)
    second = store.persist_metadata()
    assert first != second
    with pytest.raises(ReplayError):
        _remount(host.image, key=KEY, trusted_root=first)
    assert _remount(host.image, key=KEY, trusted_root=second).read_block(0) == PLAIN
