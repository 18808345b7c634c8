"""Sealing, the trusted root and the image container, checked against
independently computed ciphertexts and digests."""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
import sys

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from conftest import retired_mode_header
from oblivsim import (
    BLOCK_SIZE,
    RECORD_SIZE,
    BlockStore,
    CallKind,
    Host,
    HostInterface,
    IntegrityError,
    ParameterError,
    ProtectionMode,
    ReplayError,
    SimClock,
    SimError,
    SizeError,
    layout_for,
    new_image,
    open_block,
    seal_block,
)
from oblivsim import blockcrypto
from oblivsim.blockcrypto import (
    IMAGE_ID_SIZE,
    NONCE_RANDOM,
    NONCE_SIZE,
    SEALED_SIZE,
    parse_header,
    seal_new_image,
)

KEY = bytes(range(32))
PLAIN = bytes(range(256)) * 16
CIPHER = AESGCM(KEY)


def image_cipher(image_id: bytes) -> AESGCM:
    """The AEAD a store of image ``image_id`` seals under, from FORMATS.md:
    its key is HMAC-SHA256(KEY, "oblivsim image key" || image id)."""
    return AESGCM(hmac.digest(KEY, b"oblivsim image key" + image_id, "sha256"))


def test_seal_open_roundtrip():
    record = seal_block(CIPHER, 5, 1, PLAIN)
    assert len(record) == RECORD_SIZE == BLOCK_SIZE + 16 + NONCE_SIZE
    assert open_block(CIPHER, 5, record, 1) == PLAIN


def test_seal_matches_independent_aead_computation():
    # Recompute the decryption with the raw primitive: the record is
    # ciphertext ‖ tag ‖ nonce, the counter must sit in the nonce tail
    # and (phys, counter) must be the AAD.
    record = seal_block(CIPHER, 9, 1, PLAIN)
    sealed, nonce = record[:BLOCK_SIZE + 16], record[BLOCK_SIZE + 16:]
    assert len(nonce) == NONCE_SIZE
    version = int.from_bytes(nonce[NONCE_RANDOM:], "big")
    assert version == 1
    aad = struct.pack(">QQ", 9, version)
    out = AESGCM(KEY).decrypt(nonce, sealed, aad)
    assert out == PLAIN


def test_sealing_is_probabilistic():
    a = seal_block(CIPHER, 1, 1, PLAIN)
    b = seal_block(CIPHER, 1, 1, PLAIN)
    assert a[:BLOCK_SIZE] != b[:BLOCK_SIZE]
    assert a[SEALED_SIZE:] != b[SEALED_SIZE:]


def test_ciphertext_bound_to_physical_slot():
    record = seal_block(CIPHER, 3, 1, PLAIN)
    with pytest.raises(IntegrityError):
        open_block(CIPHER, 4, record, 1)


def test_version_mismatch_is_replay_not_integrity():
    old = seal_block(CIPHER, 2, 1, PLAIN)
    with pytest.raises(ReplayError):
        open_block(CIPHER, 2, old, 2)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=RECORD_SIZE - 1),
       st.integers(min_value=0, max_value=7))
def test_any_single_bit_flip_is_detected(byte_index, bit):
    record = bytearray(seal_block(CIPHER, 7, 1, PLAIN))
    record[byte_index] ^= 1 << bit
    with pytest.raises((IntegrityError, ReplayError)):
        open_block(CIPHER, 7, bytes(record), 1)


def test_seal_open_validate_arguments():
    with pytest.raises(SizeError):
        seal_block(CIPHER, 0, 1, b"tiny")
    record = seal_block(CIPHER, 0, 1, PLAIN)
    with pytest.raises(SizeError):
        open_block(CIPHER, 0, b"\x00" * 5, 1)
    with pytest.raises(SizeError):
        open_block(CIPHER, 0, record + b"\x00", 1)
    with pytest.raises(SizeError):
        open_block(CIPHER, 0, record[:-1], 1)


def test_store_refuses_a_key_that_is_not_32_bytes():
    layout = layout_for(16, ProtectionMode.CRYPT_INTEGRITY)
    iface = HostInterface(Host(new_image(layout), SimClock()))
    for key in (None, b"short", bytes(16), bytes(24)):
        with pytest.raises(ParameterError, match="requires a 32-byte key"):
            BlockStore(iface, layout, key)


def test_plain_store_refuses_any_key():
    layout = layout_for(16, ProtectionMode.PLAIN)
    iface = HostInterface(Host(new_image(layout), SimClock()))
    for key in (KEY, b"\x12\x34"):
        with pytest.raises(ParameterError, match="a plain image takes no key"):
            BlockStore(iface, layout, key)
    assert BlockStore(iface, layout, None).mode is ProtectionMode.PLAIN


# ---------------------------------------------------------------------------
# Container layout.
# ---------------------------------------------------------------------------

def test_layout_regions_do_not_overlap():
    for n in (8, 103, 256, 517, 518, 1024):
        for mode in ProtectionMode:
            lay = layout_for(n, mode)
            # Header record, then ceil(8n / RECORD_SIZE) counter records.
            assert lay.counter_records == -(-8 * n // RECORD_SIZE)
            assert lay.data_offset(0) == (1 + lay.counter_records) * RECORD_SIZE
            assert lay.data_offset(n - 1) + RECORD_SIZE == lay.total_bytes
            assert lay.counter_records * RECORD_SIZE >= 8 * n
    with pytest.raises(ParameterError):
        layout_for(8, ProtectionMode.PLAIN).data_offset(8)


@pytest.mark.parametrize("mode", list(ProtectionMode))
@pytest.mark.parametrize("n", [8, 640, 4096])
def test_new_image_is_its_layout_long_with_a_header_and_zeros(n, mode):
    # 8 blocks fit below one 2 MiB huge page, 640 cross into a second and
    # 4096 span several: the one write per huge page leaves only zeros.
    layout = layout_for(n, mode)
    image = new_image(layout)
    assert len(image) == layout.total_bytes
    assert image[:RECORD_SIZE] == layout.header_record()
    view = memoryview(image)
    assert view[RECORD_SIZE:] == bytes(layout.total_bytes - RECORD_SIZE)
    view.release()


def test_header_roundtrip_and_rejections():
    layout = layout_for(64, ProtectionMode.CRYPT_INTEGRITY)
    image = new_image(layout)
    assert parse_header(bytes(image[:RECORD_SIZE])) == layout
    # Each new layout names its image with fresh random bytes.
    assert len(layout.image_id) == IMAGE_ID_SIZE
    assert layout_for(64, ProtectionMode.CRYPT_INTEGRITY).image_id != layout.image_id

    # Mode bytes 1 and 2 are reserved: the header, and so the mount, is refused.
    for retired in (1, 2):
        header = retired_mode_header(64, retired)
        with pytest.raises(ParameterError, match=f"unknown protection mode {retired}"):
            parse_header(header)
        old = bytearray(image)
        old[:RECORD_SIZE] = header
        with pytest.raises(ParameterError, match=f"unknown protection mode {retired}"):
            BlockStore.mount(HostInterface(Host(old, SimClock())), key=KEY)

    bad_magic = bytearray(image[:RECORD_SIZE])
    bad_magic[:5] = b"WRONG"
    with pytest.raises(ParameterError):
        parse_header(bytes(bad_magic))

    bad_mode = bytearray(image[:RECORD_SIZE])
    bad_mode[17] = 9  # mode byte
    with pytest.raises(ParameterError):
        parse_header(bytes(bad_mode))

    bad_aead = bytearray(image[:RECORD_SIZE])
    bad_aead[18] = 7
    with pytest.raises(ParameterError):
        parse_header(bytes(bad_aead))

    # A plain image's id is zeros; any other id is refused.
    plain = bytearray(new_image(layout_for(64, ProtectionMode.PLAIN))[:RECORD_SIZE])
    assert parse_header(bytes(plain)).image_id == bytes(IMAGE_ID_SIZE)
    plain[20] = 1  # first byte of the image id
    with pytest.raises(ParameterError):
        parse_header(bytes(plain))

    # Bytes past the fields are zero, so the root hashes one encoding.
    trailing = bytearray(image[:RECORD_SIZE])
    trailing[RECORD_SIZE - 1] = 1
    with pytest.raises(ParameterError):
        parse_header(bytes(trailing))


@pytest.mark.parametrize("mode", list(ProtectionMode))
def test_an_image_of_the_block_layout_is_refused(mode):
    # The layout before records: an "OBLV1" header block, then a slot
    # region of 40 bytes per block, then 4096-byte data blocks.
    n = 1024
    aead = 1 if mode.encrypted else 0
    header = struct.pack("<5sIQBBB", b"OBLV1", BLOCK_SIZE, n, mode.value, aead, 0)
    old = header.ljust((1 + -(-n * 40 // BLOCK_SIZE) + n) * BLOCK_SIZE, b"\0")
    assert len(old) % RECORD_SIZE != 0
    with pytest.raises(SimError, match="multiple of the record size"):
        _remount(old, key=KEY if mode.encrypted else None)
    # Cut or padded to whole records, its magic is still the old one.
    whole = len(old) // RECORD_SIZE * RECORD_SIZE
    for length in (whole, whole + RECORD_SIZE):
        with pytest.raises(SimError, match="bad magic"):
            _remount(old.ljust(length, b"\0")[:length],
                     key=KEY if mode.encrypted else None)


# ---------------------------------------------------------------------------
# Trusted root.
# ---------------------------------------------------------------------------

def _record_counter(host, layout, phys: int) -> int:
    """Block ``phys``'s write counter as FORMATS.md places it: the low 8
    bytes (u64 BE) of the nonce that ends its record."""
    at = layout.data_offset(phys) + 4096 + 40
    return int.from_bytes(host.image[at - 8:at], "big")


def _oracle_root(n: int, mode: ProtectionMode, image_id: bytes,
                 counters: list[int]) -> bytes:
    """SHA-256 over the header record and the zero-padded counter region,
    written from FORMATS.md alone: records of 4096 + 40 bytes, a header
    that ends in the 16-byte image id, and one u64 LE counter per block
    in ceil(8n / 4136) records."""
    record = 4096 + 40
    aead = 1 if mode.encrypted else 0
    header = struct.pack("<5sIQBBB16s", b"OBLV2", 4096, n, mode.value, aead, 0, image_id)
    region = b"".join(struct.pack("<Q", c) for c in counters)
    region_records = -(-8 * n // record)
    return hashlib.sha256(
        header.ljust(record, b"\0") + region.ljust(region_records * record, b"\0")
    ).digest()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 517, 518, 1100])
def test_verity_root_matches_oracle(n):
    # The root of a crypt-integrity image, over sizes whose counter
    # region fills one record exactly (517), spills into a second (518)
    # and spans three (1100).
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY, n)
    written = range(n // 2, n, 2)  # every other block of the upper half
    for phys in written:
        store.write_block(phys, bytes([phys % 256]) * BLOCK_SIZE)
    store.write_block(n - 1, PLAIN)
    touched = {*written, n - 1}
    counters = [0] * n
    for phys in touched:
        counters[phys] = _record_counter(host, store.layout, phys)
    # Each block's last write took a counter of its own, none of them 0.
    assert 0 not in {counters[phys] for phys in touched}
    assert len({counters[phys] for phys in touched}) == len(touched)
    cipher = image_cipher(store.layout.image_id)
    for phys in written:
        # The record is ciphertext ‖ tag ‖ nonce, at its counter, under
        # the image's own key.
        at = store.layout.data_offset(phys)
        record = bytes(host.image[at:at + 4096 + 40])
        assert cipher.decrypt(record[4096 + 16:], record[:4096 + 16],
                              struct.pack(">QQ", phys, counters[phys])) == (
            PLAIN if phys == n - 1 else bytes([phys % 256]) * BLOCK_SIZE)
    assert store.persist_metadata() == _oracle_root(
        n, ProtectionMode.CRYPT_INTEGRITY, store.layout.image_id, counters)


def test_crypt_integrity_root_matches_oracle():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY, 5)
    store.write_block(1, PLAIN)
    store.dummy_write(3)
    store.dummy_write(3)
    root = store.persist_metadata()
    counters = [0, _record_counter(host, store.layout, 1), 0,
                _record_counter(host, store.layout, 3), 0]
    assert counters[1] != counters[3] and 0 not in counters[1::2]
    assert root == _oracle_root(5, ProtectionMode.CRYPT_INTEGRITY, store.layout.image_id,
                                counters)
    # The counter region on disk is exactly the counters, little endian.
    assert bytes(host.image[4136:4136 + 40]) == struct.pack("<5Q", *counters)


# ---------------------------------------------------------------------------
# BlockStore.
# ---------------------------------------------------------------------------

def fresh_store(mode: ProtectionMode, n: int = 16):
    layout = layout_for(n, mode)
    host = Host(new_image(layout), SimClock())
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
    assert again.versions[0] == store.versions[0] != 0


def test_data_rollback_without_slot_is_integrity_failure():
    # The old ciphertext under the new record's tag and nonce.
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
    old_record = bytes(host.image[off:off + RECORD_SIZE])
    store.write_block(2, b"\x99" * BLOCK_SIZE)
    host.image[off:off + RECORD_SIZE] = old_record  # its seal included
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


def test_a_dummy_read_out_of_range_is_refused_before_any_host_call():
    store, _ = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    for phys in (-1, 16):
        with pytest.raises(ParameterError, match="out of range"):
            store.dummy_read(phys)
    assert len(store.iface.trace) == 0


def test_dummy_writes_seal_zeros_under_fresh_nonces():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    off = store.layout.data_offset(3)
    seen = []
    for _ in range(2):
        store.dummy_write(3)
        record = bytes(host.image[off:off + RECORD_SIZE])
        seen.append((record[:BLOCK_SIZE], record[SEALED_SIZE:]))
    (first_ct, first_nonce), (second_ct, second_nonce) = seen
    assert first_ct != second_ct and first_nonce != second_nonce
    # Each write named by a counter of its own, carried in its nonce.
    assert first_nonce[NONCE_RANDOM:] != second_nonce[NONCE_RANDOM:]
    assert store.versions[3] == int.from_bytes(second_nonce[NONCE_RANDOM:], "big")
    assert store.read_block(3) == bytes(BLOCK_SIZE)


def test_the_sweep_seals_every_block_once_each_page_in_its_own_record():
    # A new image's every block is sealed at version 1 in one sweep: a
    # page in its own block and nowhere else, zeros in every other, each
    # under its own nonce, every counter 1, with no host anywhere.
    layout = layout_for(16, ProtectionMode.CRYPT_INTEGRITY)
    pages = [None] * 16
    pages[2], pages[5] = PLAIN, memoryview(b"\x5a" * BLOCK_SIZE)
    image, root = seal_new_image(layout, KEY, pages)
    cipher = image_cipher(layout.image_id)
    nonces = set()
    for phys in range(16):
        at = layout.data_offset(phys)
        record = bytes(image[at:at + RECORD_SIZE])
        nonces.add(record[SEALED_SIZE:])
        assert open_block(cipher, phys, record, 1) == (
            bytes(BLOCK_SIZE) if pages[phys] is None else pages[phys])
    assert len(nonces) == 16
    assert bytes(image[RECORD_SIZE:RECORD_SIZE + 16 * 8]) == struct.pack("<16Q", *[1] * 16)
    assert root == _oracle_root(16, ProtectionMode.CRYPT_INTEGRITY, layout.image_id, [1] * 16)
    store = BlockStore.mount(HostInterface(Host(image, SimClock())), key=KEY,
                             trusted_root=root)
    assert list(store.versions) == [1] * 16
    assert store.read_block(2) == PLAIN and store.read_block(5) == b"\x5a" * BLOCK_SIZE
    assert store.read_block(9) == bytes(BLOCK_SIZE)


@pytest.mark.parametrize("mode", [ProtectionMode.PLAIN, ProtectionMode.CRYPT_INTEGRITY])
def test_seal_first_stores_a_page_straight_into_the_image(mode):
    # A block's first seal, the build's sweep, stores its page straight
    # into the new image's record, with no copy through the host.
    layout = layout_for(16, mode)
    key = KEY if mode.encrypted else None
    pages = [None] * 16
    pages[3] = memoryview(PLAIN)
    image, root = seal_new_image(layout, key, pages)
    off = layout.data_offset(3)
    raw = bytes(image[off:off + RECORD_SIZE])
    if mode.encrypted:
        assert raw[:BLOCK_SIZE] != PLAIN
        assert open_block(image_cipher(layout.image_id), 3, raw, 1) == PLAIN
    else:
        # A plain image holds the page as it is, beside a zero seal, and
        # every other record and every counter stays zero.
        assert root is None and raw == PLAIN + bytes(40)
        assert bytes(image[RECORD_SIZE:off]) == bytes(off - RECORD_SIZE)
        assert bytes(image[off + RECORD_SIZE:]) == bytes(len(image) - off - RECORD_SIZE)
    store = BlockStore.mount(HostInterface(Host(image, SimClock())), key=key,
                             trusted_root=root)
    assert store.read_block(3) == PLAIN
    with pytest.raises(ParameterError):  # a page for block 16, past the last
        seal_new_image(layout, key, pages + [PLAIN])
    pages[4] = PLAIN[:-1]
    with pytest.raises(SizeError):
        seal_new_image(layout, key, pages)


def test_a_plain_store_has_nothing_to_seal():
    # The sweep over a plain image refuses a key, gives no root, and leaves
    # every seal beside its page and every counter zero.
    layout = layout_for(16, ProtectionMode.PLAIN)
    with pytest.raises(ParameterError, match="a plain image takes no key"):
        seal_new_image(layout, KEY, [None] * 16)
    image, root = seal_new_image(layout, None, [PLAIN] * 16)
    assert root is None
    start = layout.data_offset(0)
    assert bytes(image[RECORD_SIZE:start]) == bytes(start - RECORD_SIZE)
    for phys in range(16):
        at = layout.data_offset(phys)
        assert bytes(image[at:at + RECORD_SIZE]) == PLAIN + bytes(RECORD_SIZE - BLOCK_SIZE)


def test_nonce_prefixes_come_from_one_urandom_call_per_refill(monkeypatch):
    calls = []

    def counting(n, _real=os.urandom):
        calls.append(n)
        return _real(n)

    blockcrypto._prefix_pool.clear()  # start on a refill
    monkeypatch.setattr(blockcrypto.os, "urandom", counting)
    seals = 3 * blockcrypto._POOL_PREFIXES
    prefixes = {seal_block(CIPHER, 0, 1, PLAIN)[SEALED_SIZE:SEALED_SIZE + NONCE_RANDOM]
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
            os.write(w, seal_block(CIPHER, 0, 1, PLAIN)[SEALED_SIZE:SEALED_SIZE + NONCE_RANDOM])
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        child = pipe.read()
    os.waitpid(pid, 0)
    parent = {seal_block(CIPHER, 0, 1, PLAIN)[SEALED_SIZE:SEALED_SIZE + NONCE_RANDOM]
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
    assert built == [hmac.digest(KEY, b"oblivsim image key" + store.layout.image_id,
                                 "sha256")]


def test_persist_metadata_survives_remount():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    for p in range(8):
        store.write_block(p, bytes([p]) * BLOCK_SIZE)
    store.persist_metadata()
    again = BlockStore.mount(
        HostInterface(Host(bytearray(host.image), SimClock())), key=KEY)
    for p in range(8):
        assert again.read_block(p) == bytes([p]) * BLOCK_SIZE
    assert again.versions == store.versions
    assert len(set(again.versions[:8])) == 8 and list(again.versions[8:]) == [0] * 8
    with pytest.raises(IntegrityError):  # never written: its record fails its tag
        again.read_block(8)


def _remount(image, **kw) -> BlockStore:
    return BlockStore.mount(HostInterface(Host(bytearray(image), SimClock())), **kw)


def test_rollback_of_record_and_counter_is_refused_at_mount():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    off = store.layout.data_offset(2)
    counter_off = RECORD_SIZE + 2 * 8  # block 2's counter in the counter region
    store.write_block(2, b"AAAA" * 1024)
    store.persist_metadata()
    old_record = bytes(host.image[off:off + RECORD_SIZE])
    old_counter = bytes(host.image[counter_off:counter_off + 8])
    store.write_block(2, b"BBBB" * 1024)
    root = store.persist_metadata()
    assert bytes(host.image[counter_off:counter_off + 8]) != old_counter
    host.image[off:off + RECORD_SIZE] = old_record
    host.image[counter_off:counter_off + 8] = old_counter
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


def test_counter_region_byte_flip_under_a_root_fails_at_mount():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    store.write_block(3, PLAIN)
    root = store.persist_metadata()
    # A byte of block 3's counter, and a byte of the region's zero tail.
    for at in (RECORD_SIZE + 3 * 8, 2 * RECORD_SIZE - 1):
        host.image[at] ^= 0x01
        with pytest.raises(ReplayError):
            _remount(host.image, key=KEY, trusted_root=root)
        host.image[at] ^= 0x01
    assert _remount(host.image, key=KEY, trusted_root=root).read_block(3) == PLAIN


def test_root_tracks_every_persist():
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    first = store.persist_metadata()
    store.write_block(0, PLAIN)
    second = store.persist_metadata()
    assert first != second
    with pytest.raises(ReplayError):
        _remount(host.image, key=KEY, trusted_root=first)
    assert _remount(host.image, key=KEY, trusted_root=second).read_block(0) == PLAIN


def test_two_images_under_one_key_never_share_a_root_or_a_record():
    # Same key, same geometry, the same writes: only the image ids differ.
    a, a_host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    b, b_host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    for store in (a, b):
        store.write_block(2, PLAIN)
        store.write_block(4, b"\x33" * BLOCK_SIZE)
    # Let block 4's counters agree, as they would in two stores counting
    # from one start: only the image key keeps A's record out of B.
    b.versions[4] = a.versions[4]
    a_root, b_root = a.persist_metadata(), b.persist_metadata()
    assert a_root != b_root
    # B's whole image under A's root is refused at mount.
    with pytest.raises(ReplayError):
        _remount(b_host.image, key=KEY, trusted_root=a_root)
    # A record of A at the counter B expects fails B's tag.
    off = a.layout.data_offset(4)
    b_host.image[off:off + RECORD_SIZE] = a_host.image[off:off + RECORD_SIZE]
    with pytest.raises(IntegrityError):
        b.read_block(4)
    with pytest.raises(IntegrityError):
        _remount(b_host.image, key=KEY, trusted_root=b_root).read_block(4)
    assert b.read_block(2) == PLAIN


def test_two_forks_of_one_image_refuse_each_others_records():
    # Two stores mounted from one image under its root each rewrite block
    # 2. Each write names itself by a counter from its store's own random
    # start, so a host that serves one fork's record to the other is
    # caught as a replay, both ways.
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    store.write_block(2, PLAIN)
    root = store.persist_metadata()
    forks = [_remount(host.image, key=KEY, trusted_root=root) for _ in range(2)]
    for i, fork in enumerate(forks):
        fork.write_block(2, bytes([i]) * BLOCK_SIZE)
    assert forks[0].versions[2] != forks[1].versions[2]
    off = store.layout.data_offset(2)
    records = [bytes(fork.iface.host.image[off:off + RECORD_SIZE]) for fork in forks]
    for i, fork in enumerate(forks):
        fork.iface.host.image[off:off + RECORD_SIZE] = records[1 - i]
        with pytest.raises(ReplayError):
            fork.read_block(2)
        fork.iface.host.image[off:off + RECORD_SIZE] = records[i]
        assert fork.read_block(2) == bytes([i]) * BLOCK_SIZE


@pytest.mark.parametrize("big_endian", [False, True])
def test_counters_roundtrip_through_the_region_on_either_byte_order(monkeypatch, big_endian):
    # The region is u64 LE, so a big-endian host swaps on the way out and
    # in. Forcing the flag on this host swaps here too: the region then
    # holds the other byte order, and a mount reads the same counters back.
    monkeypatch.setattr(blockcrypto, "_BIG_ENDIAN", big_endian)
    store, host = fresh_store(ProtectionMode.CRYPT_INTEGRITY)
    store.versions[1], store.versions[2] = 2 ** 40 + 3, 2 ** 64 - 1
    counters = list(store.versions)
    store.persist_metadata()
    assert list(store.versions) == counters  # swapped in a copy, if at all
    order = "little" if big_endian == (sys.byteorder == "big") else "big"
    assert bytes(host.image[RECORD_SIZE:RECORD_SIZE + 8 * 16]) == b"".join(
        c.to_bytes(8, order) for c in counters)
    assert list(_remount(host.image, key=KEY).versions) == counters
