"""Randomness sources.

Every stream is an HMAC-SHA256 deterministic bit generator keyed from
an integer seed. It is still a cryptographically strong construction;
what makes a run reproducible is the caller supplying the seed, not a
weaker algorithm.

Layout, dummy-target, and shuffle decisions draw from named substreams
so that adding draws to one subsystem never perturbs another. An ``Rng``
serves its draws from a byte buffer: when a request outruns it, the
rest of the buffer is followed by one ``generate`` of ``_CHUNK`` bytes
(or of what the request still lacks, if that is more). A stream of
requests no larger than ``_CHUNK`` thus reads the concatenated outputs
of ``generate(_CHUNK)``, and a draw costs a slice, not three HMACs.
``_CHUNK`` is 8192 bits, far below SP 800-90A's 2**19-bit limit per
request. Block AEAD nonces deliberately do NOT come from here; their
16-byte prefixes are always fresh OS randomness, drawn by
``blockcrypto`` in pools of ``_POOL_PREFIXES`` per ``os.urandom`` call
and each used once, so two runs with the same seed produce identical
traces but different ciphertexts.
"""

from __future__ import annotations

import hashlib

_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class HmacDrbg:
    """Deterministic byte generator (HMAC_DRBG style, SHA-256).

    HMAC (RFC 2104) is computed by hand: the key's two padded blocks are
    hashed once per key, and each MAC continues copies of those states.
    The bytes equal ``hmac.new(key, data, hashlib.sha256).digest()``.
    """

    def __init__(self, seed_material: bytes):
        self._set_key(b"\x00" * 32)
        self._v = b"\x01" * 32
        self._update(seed_material)

    def _set_key(self, key: bytes) -> None:
        key = key.ljust(64, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def _hmac(self, data: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def _update(self, provided: bytes = b"") -> None:
        self._set_key(self._hmac(self._v + b"\x00" + provided))
        self._v = self._hmac(self._v)
        if provided:
            self._set_key(self._hmac(self._v + b"\x01" + provided))
            self._v = self._hmac(self._v)

    def random_bytes(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            self._v = self._hmac(self._v)
            out += self._v
        self._update()
        return out[:n]


_CHUNK = 1024  # bytes per buffered generate


class Rng:
    """Uniform sampling helpers over one seeded generator."""

    def __init__(self, seed_material: bytes):
        self._drbg = HmacDrbg(seed_material)
        self._buf = b""
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._buf):
            head = self._buf[self._pos:]
            self._buf = head + self._drbg.random_bytes(max(n - len(head), _CHUNK))
            self._pos = 0
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def random_bytes(self, n: int) -> bytes:
        return self._take(n)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection sampling, no modulo bias.
        A try of one or two bytes is read by indexing the buffer, which
        costs less than ``int.from_bytes``."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        nbytes = (n.bit_length() + 7) >> 3
        limit = ((1 << (nbytes << 3)) // n) * n
        while True:
            buf, pos = self._buf, self._pos
            end = pos + nbytes
            if end > len(buf):
                x = int.from_bytes(self._take(nbytes), "big")
            else:
                self._pos = end
                if nbytes == 1:
                    x = buf[pos]
                elif nbytes == 2:
                    x = buf[pos] << 8 | buf[pos + 1]
                else:
                    x = int.from_bytes(buf[pos:end], "big")
            if x < limit:
                return x % n

    def choice(self, seq):
        if not seq:
            raise IndexError("choice from empty sequence")
        return seq[self.randbelow(len(seq))]


class RngTree:
    """Master seed fanned out into independent named streams."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, Rng] = {}

    def stream(self, name: str) -> Rng:
        if name not in self._streams:
            material = hashlib.sha256(
                self.seed.to_bytes(16, "big", signed=True) + b"/" + name.encode()
            ).digest()
            self._streams[name] = Rng(material)
        return self._streams[name]
