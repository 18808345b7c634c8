"""Sealing, the hash tree and the image container, checked against
independently computed ciphertexts and roots."""

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
    VerityTree,
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
    verify_verity,
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
# Hash tree.
# ---------------------------------------------------------------------------

def _oracle_root(blocks: list[bytes]) -> bytes:
    """Pair-and-hash reduction written from scratch."""
    level = [hashlib.sha256(b).digest() for b in blocks]
    width = 1
    while width < max(len(level), 1):
        width *= 2
    level += [b"\x00" * 32] * (width - len(level))
    while len(level) > 1:
        level = [hashlib.sha256(level[i] + level[i + 1]).digest()
                 for i in range(0, len(level), 2)]
    return level[0]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_verity_root_matches_oracle(n):
    blocks = [bytes([i]) * BLOCK_SIZE for i in range(n)]
    tree = VerityTree.build(blocks)
    assert tree.root == _oracle_root(blocks)


def test_verity_paths_reach_root_and_reject_tampering():
    blocks = [bytes([i]) * BLOCK_SIZE for i in range(6)]
    tree = VerityTree.build(blocks)
    for i, b in enumerate(blocks):
        assert tree.path_root(i, b) == tree.root
    assert tree.path_root(2, b"\xff" * BLOCK_SIZE) != tree.root
    with pytest.raises(IntegrityError):
        verify_verity(tree, tree.root, 2, b"\xff" * BLOCK_SIZE)
    with pytest.raises(ParameterError):
        tree.path_root(99, blocks[0])


def test_verity_serialize_roundtrip():
    blocks = [bytes([i * 3]) * BLOCK_SIZE for i in range(5)]
    tree = VerityTree.build(blocks)
    back = VerityTree.deserialize(tree.serialize())
    assert back.root == tree.root
    assert back.n_blocks == tree.n_blocks
    assert back.levels == tree.levels
    assert len(tree.serialize()) == tree.serialized_size()


# ---------------------------------------------------------------------------
# Container layout.
# ---------------------------------------------------------------------------

def test_layout_regions_do_not_overlap():
    for n in (8, 103, 256, 1024):
        for mode in ProtectionMode:
            lay = layout_for(n, mode)
            assert lay.slot_region_offset() == BLOCK_SIZE
            assert lay.verity_region_offset() >= lay.slot_region_offset() \
                + lay.slot_blocks * BLOCK_SIZE
            assert lay.data_offset(0) >= lay.verity_region_offset() \
                + lay.verity_blocks * BLOCK_SIZE
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


# ---------------------------------------------------------------------------
# BlockStore.
# ---------------------------------------------------------------------------

def fresh_store(mode: ProtectionMode, n: int = 16):
    layout = layout_for(n, mode)
    host = Host(new_image(n, mode), SimClock())
    iface = HostInterface(host)
    key = KEY if mode.encrypted else None
    return BlockStore(iface, layout, key, [None] * n), host


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

    # Remount from the persisted tree; then tamper.
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
