"""The seeded generator against an independent HMAC-DRBG transcript,
plus sampling-quality checks."""

from __future__ import annotations

import hashlib
import hmac
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from oblivsim import Rng, RngTree
from oblivsim.rng import _CHUNK, HmacDrbg


class _DrbgOracle:
    """Textbook HMAC_DRBG (SHA-256), written independently so a bug in
    the implementation cannot hide in the reference."""

    def __init__(self, seed: bytes):
        self.k = b"\x00" * 32
        self.v = b"\x01" * 32
        self._update(seed)

    def _mac(self, key, data):
        return hmac.new(key, data, hashlib.sha256).digest()

    def _update(self, provided=b""):
        self.k = self._mac(self.k, self.v + b"\x00" + provided)
        self.v = self._mac(self.k, self.v)
        if provided:
            self.k = self._mac(self.k, self.v + b"\x01" + provided)
            self.v = self._mac(self.k, self.v)

    def generate(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            self.v = self._mac(self.k, self.v)
            out += self.v
        self._update()
        return out[:n]


def test_drbg_matches_independent_transcript():
    seed = b"transcript check seed"
    drbg = HmacDrbg(seed)
    oracle = _DrbgOracle(seed)
    for n in (1, 32, 33, 100, 7):
        assert drbg.random_bytes(n) == oracle.generate(n)


@pytest.mark.parametrize("seed", [b"", b"s", b"x" * 32, b"y" * 65, bytes(range(200))],
                         ids=["empty", "1B", "32B", "65B", "200B"])
def test_precomputed_hmac_states_equal_hmac_new(seed):
    # The generator hashes its key's padded blocks once per key; every
    # MAC must still equal hmac.new under the key the textbook transcript
    # holds at that point, before and after each re-key by _update.
    drbg = HmacDrbg(seed)
    oracle = _DrbgOracle(seed)

    def check():
        for data in (b"", oracle.v, b"\x36" * 64, b"q" * 100):
            assert drbg._hmac(data) == hmac.new(oracle.k, data, hashlib.sha256).digest()

    for n in (1, 31, 32, 33, 64, 65, 97):
        check()
        assert drbg.random_bytes(n) == oracle.generate(n)
    for provided in (b"", b"reseed"):
        drbg._update(provided)
        oracle._update(provided)
        check()
        assert drbg.random_bytes(33) == oracle.generate(33)


def test_buffered_draws_read_the_chunked_generate_stream():
    # Rng serves draws from buffered generate(_CHUNK) calls: odd-sized
    # requests and randbelow draws that straddle a chunk boundary must
    # read the oracle's concatenated chunks byte for byte.
    seed = b"chunked stream seed"
    rng = Rng(seed)
    oracle = _DrbgOracle(seed)
    stream = bytearray()
    pos = 0

    def take(n):
        nonlocal pos
        while len(stream) < pos + n:
            stream.extend(oracle.generate(_CHUNK))
        pos += n
        return bytes(stream[pos - n:pos])

    for n in (1, 7, 333, 1000, 3, 511, 77, 13):
        assert rng.random_bytes(n) == take(n)
    # randbelow(n) with n just above 2**23 reads 3 bytes per try and
    # rejects about half of them; 3 does not divide _CHUNK, so tries
    # cross chunk boundaries mid-draw.
    n = 2**23 + 1
    limit = (256**3 // n) * n
    for _ in range(1500):
        while (x := int.from_bytes(take(3), "big")) >= limit:
            pass
        assert rng.randbelow(n) == x % n
    assert pos > 4 * _CHUNK
    # One- and two-byte tries are read by indexing the buffer; they read
    # the same bytes. Two-byte tries start at an odd offset, so every
    # chunk boundary they reach falls inside one.
    for n, nbytes in ((200, 1), (40000, 2)):
        if nbytes == 2 and pos % 2 == 0:
            assert rng.random_bytes(1) == take(1)
        limit = (256**nbytes // n) * n
        for _ in range(1500):
            while (x := int.from_bytes(take(nbytes), "big")) >= limit:
                pass
            assert rng.randbelow(n) == x % n
    # A request larger than a chunk drains the buffer, then gets one
    # generate of its own size; the chunked stream resumes after it.
    head = take(len(stream) - pos)
    big = len(head) + 2 * _CHUNK + 5
    assert rng.random_bytes(big) == head + oracle.generate(big - len(head))
    assert rng.random_bytes(9) == oracle.generate(_CHUNK)[:9]


def test_drbg_is_deterministic_and_seed_sensitive():
    a = HmacDrbg(b"seed-a")
    b = HmacDrbg(b"seed-a")
    c = HmacDrbg(b"seed-b")
    xs = a.random_bytes(64)
    assert xs == b.random_bytes(64)
    assert xs != c.random_bytes(64)


@given(st.integers(min_value=1, max_value=10_000), st.integers())
def test_randbelow_stays_in_range(n, seed):
    rng = Rng(seed.to_bytes(32, "big", signed=True))
    for _ in range(20):
        assert 0 <= rng.randbelow(n) < n


def test_randbelow_rejects_nonpositive():
    rng = Rng(b"x")
    for n in (0, -1):
        with pytest.raises(ValueError):
            rng.randbelow(n)


def test_randbelow_has_no_visible_modulo_bias():
    # n = 200 forces single-byte rejection sampling (limit 200); a
    # mod-256 implementation would overweight 0..55 by 2x.
    rng = Rng(b"bias probe")
    counts = Counter(rng.randbelow(200) for _ in range(40_000))
    assert set(counts) <= set(range(200))
    low = sum(counts[v] for v in range(56))
    # Unbiased: 56/200 of the mass (11200). Biased: 2/256-weighted,
    # about 17920. Split the difference generously.
    assert 9_500 < low < 13_000


def test_choice_draws_members_and_rejects_empty():
    rng = Rng(b"choice")
    seq = [10, 20, 30]
    assert all(rng.choice(seq) in seq for _ in range(50))
    with pytest.raises(IndexError):
        rng.choice([])


def test_tree_streams_are_independent():
    one = RngTree(42)
    two = RngTree(42)
    # Interleave draws on one tree; on the other, never touch beta.
    # Alpha must see the same sequence regardless.
    a1 = one.stream("alpha").random_bytes(8)
    one.stream("beta").random_bytes(1000)
    a2 = one.stream("alpha").random_bytes(8)
    assert two.stream("alpha").random_bytes(8) == a1
    assert two.stream("alpha").random_bytes(8) == a2


def test_tree_seeds_and_names_separate_streams():
    assert (RngTree(1).stream("s").random_bytes(8)
            != RngTree(2).stream("s").random_bytes(8))
    t = RngTree(1)
    assert t.stream("s").random_bytes(8) != t.stream("r").random_bytes(8)


def test_tree_negative_seed_is_valid():
    t = RngTree(-7)
    assert len(t.stream("s").random_bytes(4)) == 4
