"""Sealing, the trusted root and the image container, checked against
independently computed ciphertexts and digests."""

from __future__ import annotations

import hashlib
import os
import struct

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from conftest import retired_mode_header
from oblivsim import (
    BLOCK_SIZE,
    BlockStore,
    CallKind,
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
    parse_header,
)

KEY = bytes(range(32))
PLAIN = bytes(range(256)) * 16
CIPHER = AESGCM(KEY)


def test_seal_open_roundtrip():
    slot, ciphertext = seal_block(CIPHER, 5, 1, PLAIN)
    assert len(slot) == SLOT_SIZE and len(ciphertext) == BLOCK_SIZE
    assert open_block(CIPHER, 5, slot, ciphertext, 1) == PLAIN


def test_seal_matches_independent_aead_computation():
    # Recompute the decryption with the raw primitive: the slot is
    # nonce ‖ tag, the counter must sit in the nonce tail and
    # (phys, counter) must be the AAD.
    slot, ciphertext = seal_block(CIPHER, 9, 1, PLAIN)
    nonce, tag = slot[:NONCE_SIZE], slot[NONCE_SIZE:]
    version = int.from_bytes(nonce[NONCE_RANDOM:], "big")
    assert version == 1
    aad = struct.pack(">QQ", 9, version)
    out = AESGCM(KEY).decrypt(nonce, ciphertext + tag, aad)
    assert out == PLAIN


def test_sealing_is_probabilistic():
    a_slot, a_ct = seal_block(CIPHER, 1, 1, PLAIN)
    b_slot, b_ct = seal_block(CIPHER, 1, 1, PLAIN)
    assert a_ct != b_ct
    assert a_slot[:NONCE_SIZE] != b_slot[:NONCE_SIZE]


def test_ciphertext_bound_to_physical_slot():
    slot, ciphertext = seal_block(CIPHER, 3, 1, PLAIN)
    with pytest.raises(IntegrityError):
        open_block(CIPHER, 4, slot, ciphertext, 1)


def test_version_mismatch_is_replay_not_integrity():
    old = seal_block(CIPHER, 2, 1, PLAIN)
    with pytest.raises(ReplayError):
        open_block(CIPHER, 2, *old, 2)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=SLOT_SIZE + BLOCK_SIZE - 1),
       st.integers(min_value=0, max_value=7))
def test_any_single_bit_flip_is_detected(byte_index, bit):
    slot, ciphertext = seal_block(CIPHER, 7, 1, PLAIN)
    blob = bytearray(slot + ciphertext)
    blob[byte_index] ^= 1 << bit
    with pytest.raises((IntegrityError, ReplayError)):
        open_block(CIPHER, 7, bytes(blob[:SLOT_SIZE]), bytes(blob[SLOT_SIZE:]), 1)


def test_seal_open_validate_arguments():
    with pytest.raises(SizeError):
        seal_block(CIPHER, 0, 1, b"tiny")
    slot, ciphertext = seal_block(CIPHER, 0, 1, PLAIN)
    with pytest.raises(SizeError):
        open_block(CIPHER, 0, b"\x00" * 5, ciphertext, 1)
    with pytest.raises(SizeError):
        open_block(CIPHER, 0, slot + b"\x00", ciphertext, 1)


def test_store_refuses_a_key_that_is_not_32_bytes():
    mode = ProtectionMode.CRYPT_INTEGRITY
    iface = HostInterface(Host(new_image(16, mode), SimClock()))
    for key in (None, b"short", bytes(16), bytes(24)):
        with pytest.raises(ParameterError, match="requires a 32-byte key"):
            BlockStore(iface, layout_for(16, mode), key)


def test_plain_store_refuses_any_key():
    mode = ProtectionMode.PLAIN
    iface = HostInterface(Host(new_image(16, mode), SimClock()))
    for key in (KEY, b"\x12\x34"):
        with pytest.raises(ParameterError, match="a plain image takes no key"):
            BlockStore(iface, layout_for(16, mode), key)
    assert BlockStore(iface, layout_for(16, mode), None).mode is mode


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


@pytest.mark.parametrize("mode", list(ProtectionMode))
@pytest.mark.parametrize("n", [8, 640, 4096])
def test_new_image_is_its_layout_long_with_a_header_and_zeros(n, mode):
    # 8 blocks fit below one 2 MiB huge page, 640 cross into a second and
    # 4096 span several: the one write per huge page leaves only zeros.
    layout = layout_for(n, mode)
    image = new_image(n, mode)
    assert len(image) == layout.total_bytes
    assert image[:BLOCK_SIZE] == layout.header_block()
    view = memoryview(image)
    assert view[BLOCK_SIZE:] == bytes(layout.total_bytes - BLOCK_SIZE)
    view.release()


def test_header_roundtrip_and_rejections():
    image = new_image(64, ProtectionMode.CRYPT_INTEGRITY)
    lay = parse_header(bytes(image[:BLOCK_SIZE]))
    assert lay == layout_for(64, ProtectionMode.CRYPT_INTEGRITY)

    # Mode bytes 1 and 2 are reserved: the header, and so the mount, is refused.
    for retired in (1, 2):
        header = retired_mode_header(64, retired)
        with pytest.raises(ParameterError, match=f"unknown protection mode {retired}"):
            parse_header(header)
        old = bytearray(image)
        old[:BLOCK_SIZE] = header
        with pytest.raises(ParameterError, match=f"unknown protection mode {retired}"):
            BlockStore.mount(HostInterface(Host(old, SimClock())), key=KEY)

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
    header = struct.pack("<5sIQBBB", b"OBLV1", BLOCK_SIZE, n, mode.value, aead, 0)
    region = b"".join(slots)
    region_blocks = -(-n * SLOT_SIZE // BLOCK_SIZE)
    return hashlib.sha256(
        header.ljust(BLOCK_SIZE, b"\0") + region.ljust(region_blocks * BLOCK_SIZE, b"\0")
    ).digest()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_verity_root_matches_oracle(n):
    # The verity root of a crypt-integrity image, over sizes that make
    # full, partial and single-leaf Merkle levels.
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY, n)
    written = range(n // 2, n, 2)  # every other block of the upper half
    for phys in written:
        store.write_block(phys, bytes([phys]) * BLOCK_SIZE)
    slots = [bytes(SLOT_SIZE)] * n
    for phys in written:
        # The slot is nonce ‖ tag of the ciphertext on disk at counter 1.
        slot, at = store.slots[phys], store.layout.data_offset(phys)
        ciphertext = bytes(host.image[at:at + BLOCK_SIZE])
        assert CIPHER.decrypt(slot[:NONCE_SIZE], ciphertext + slot[NONCE_SIZE:],
                              struct.pack(">QQ", phys, 1)) == bytes([phys]) * BLOCK_SIZE
        slots[phys] = slot
    assert store.persist_metadata() == _oracle_root(
        n, ProtectionMode.CRYPT_INTEGRITY, slots)


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


@pytest.mark.parametrize("mode", [ProtectionMode.PLAIN, ProtectionMode.CRYPT_INTEGRITY])
def test_store_roundtrip(mode):
    store, _ = fresh_store(mode)
    store.write_block(4, PLAIN)
    assert store.read_block(4) == PLAIN


def test_encrypted_store_never_holds_plaintext_on_disk():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    store.write_block(1, PLAIN)
    assert PLAIN not in bytes(host.image)


def test_reading_unwritten_encrypted_block_fails_closed():
    store, _ = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
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
    assert again.versions[0] == 1


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


def test_dummy_traffic_shape():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    before = bytes(host.image)
    store.dummy_read(3)
    assert bytes(host.image) == before
    store.dummy_write(3)
    assert bytes(host.image) != before
    assert len(store.iface.trace.of_kind(CallKind.DISK_READ)) == 1
    assert len(store.iface.trace.of_kind(CallKind.DISK_WRITE)) == 1
    # The host sees padding exactly as it sees a real access of the block.
    padding = [e[1:] for e in store.iface.trace.events]
    store.iface.trace.reset()
    store.read_block(3)
    store.write_block(3, b"\x5a" * BLOCK_SIZE)
    assert [e[1:] for e in store.iface.trace.events] == padding


def test_dummy_writes_seal_zeros_under_fresh_nonces():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    off = store.layout.data_offset(3)
    seen = []
    for _ in range(2):
        store.dummy_write(3)
        seen.append((bytes(host.image[off:off + BLOCK_SIZE]), store.slots[3]))
    (first_ct, first_slot), (second_ct, second_slot) = seen
    assert first_ct != second_ct and first_slot != second_slot
    assert store.versions[3] == 2
    assert store.read_block(3) == bytes(BLOCK_SIZE)


def test_seal_unwritten_leaves_written_blocks_alone():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    store.write_block(2, PLAIN)
    store.write_block(5, PLAIN)
    store.dummy_write(5)
    store.iface.trace.reset()

    def state():
        return bytes(host.image), list(store.slots), list(store.versions)

    image, slots, versions = state()
    assert store.seal_unwritten(host.image) == 14
    assert len(store.iface.trace) == 0  # the sweep crosses no host call
    for phys in (2, 5):
        off = store.layout.data_offset(phys)
        assert host.image[off:off + BLOCK_SIZE] == image[off:off + BLOCK_SIZE]
        assert (store.slots[phys], store.versions[phys]) == (slots[phys], versions[phys])
    assert store.versions == [1, 1, 1, 1, 1, 2] + [1] * 10
    assert store.read_block(2) == PLAIN and store.read_block(5) == bytes(BLOCK_SIZE)
    assert store.read_block(9) == bytes(BLOCK_SIZE)

    sealed = state()
    assert store.seal_unwritten(host.image) == 0
    assert state() == sealed


@pytest.mark.parametrize("mode", [ProtectionMode.PLAIN, ProtectionMode.CRYPT_INTEGRITY])
def test_seal_first_stores_a_page_straight_into_the_image(mode):
    store, host = fresh_store(mode)
    store.iface.trace.reset()
    store.seal_first(host.image, 3, memoryview(PLAIN))
    assert len(store.iface.trace) == 0  # no host call
    off = store.layout.data_offset(3)
    raw = bytes(host.image[off:off + BLOCK_SIZE])
    if mode.encrypted:
        assert store.versions[3] == 1 and raw != PLAIN
        assert open_block(CIPHER, 3, store.slots[3], raw, 1) == PLAIN
    else:
        assert raw == PLAIN
    assert store.read_block(3) == PLAIN
    for phys in (-1, 16):
        with pytest.raises(ParameterError):
            store.seal_first(host.image, phys, PLAIN)
    with pytest.raises(SizeError):
        store.seal_first(host.image, 4, PLAIN[:-1])


def test_a_plain_store_has_nothing_to_seal():
    store, host = fresh_store(ProtectionMode.PLAIN)
    with pytest.raises(ModeError):
        store.seal_unwritten(host.image)


def test_nonce_prefixes_come_from_one_urandom_call_per_refill(monkeypatch):
    calls = []

    def counting(n, _real=os.urandom):
        calls.append(n)
        return _real(n)

    blockcrypto._prefix_pool.clear()  # start on a refill
    monkeypatch.setattr(blockcrypto.os, "urandom", counting)
    seals = 3 * blockcrypto._POOL_PREFIXES
    prefixes = {seal_block(CIPHER, 0, 1, PLAIN)[0][:NONCE_RANDOM]
                for _ in range(seals)}
    assert len(prefixes) == seals
    assert calls == [NONCE_RANDOM * blockcrypto._POOL_PREFIXES] * 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_never_uses_a_parent_prefix():
    seal_block(CIPHER, 0, 1, PLAIN)
    pending = list(blockcrypto._prefix_pool)  # what the child inherits
    assert pending
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            os.write(w, seal_block(CIPHER, 0, 1, PLAIN)[0][:NONCE_RANDOM])
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        child = pipe.read()
    os.waitpid(pid, 0)
    parent = {seal_block(CIPHER, 0, 1, PLAIN)[0][:NONCE_RANDOM]
              for _ in range(len(pending))}
    assert len(child) == NONCE_RANDOM
    assert child not in parent and child not in pending


def test_one_aead_object_per_key(monkeypatch):
    built = []

    def counting(key):
        built.append(key)
        return AESGCM(key)

    monkeypatch.setattr(blockcrypto, "AESGCM", counting)
    store, _ = fresh_store(ProtectionMode.CRYPT_INTEGRITY, 50)
    for phys in range(50):
        store.write_block(phys, PLAIN)
        assert store.read_block(phys) == PLAIN
    assert built == [KEY]


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
    sealed, _ = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    sealed.write_block(0, PLAIN)
    root = sealed.persist_metadata()
    plain, host = fresh_store(ProtectionMode.PLAIN)
    plain.write_block(0, b"EVIL" * 1024)
    with pytest.raises(ReplayError):
        _remount(host.image, trusted_root=root)


def test_slot_byte_flip_under_a_root_fails_at_mount():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    store.write_block(3, PLAIN)
    root = store.persist_metadata()
    host.image[store.layout.slot_region_offset() + 3 * SLOT_SIZE] ^= 0x01
    with pytest.raises(ReplayError):
        _remount(host.image, key=KEY, trusted_root=root)


def test_root_tracks_every_persist():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    first = store.persist_metadata()
    store.write_block(0, PLAIN)
    second = store.persist_metadata()
    assert first != second
    with pytest.raises(ReplayError):
        _remount(host.image, key=KEY, trusted_root=first)
    assert _remount(host.image, key=KEY, trusted_root=second).read_block(0) == PLAIN
