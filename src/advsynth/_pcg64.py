"""The draws ``trials`` makes from ``numpy.random.default_rng(seed)``,
computed in pure Python, bit for bit.

The first use of ``numpy.random`` imports it, and with it ``secrets``,
``hmac`` and ``_hashlib``: 10-18 ms a process on a 2-core Xeon VM, about
as long as a short ``trials`` command's whole synthesis.  The stream is
numpy's: the seed goes through ``SeedSequence``'s hash pool into four
64-bit words, those seed a PCG64 (XSL-RR 128/64), and ``uniform`` and
``integers`` turn its outputs into draws the way numpy's ``Generator``
does.  ``tests/test_pcg64.py`` checks it against numpy's own generator.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    words = [seed & _M32]  # the seed's 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if d != s:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for w in words[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(w))
    h = 0x8B51F9DD
    out = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]


class Generator:
    """``numpy.random.default_rng(seed)``'s ``uniform`` and ``integers``
    over vectors, for a seed >= 0."""

    def __init__(self, seed: int):
        u0, u1, u2, u3 = _seed_words(seed)
        self._inc = ((u2 << 64 | u3) << 1 | 1) & _M128
        self._state = ((self._inc + (u0 << 64 | u1)) * _PCG_MULT + self._inc) & _M128
        self._half = None  # the high half of a 64-bit output, kept for next32

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        word, turn = (s >> 64 ^ s) & _M64, s >> 122
        return (word >> turn | word << (64 - turn)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            v, self._half = self._half, None
            return v
        v = self._next64()
        self._half = v >> 32
        return v & _M32

    def uniform(self, low, high) -> list:
        """One float per coordinate pair, ``lo + (hi - lo) * U`` with U a
        53-bit fraction in [0, 1)."""
        return [float(lo) + (float(hi) - float(lo)) * ((self._next64() >> 11) * 2.0 ** -53)
                for lo, hi in zip(low, high)]

    def integers(self, high: int, size: int) -> list:
        """``size`` ints in [0, high), for 2 <= high < 2**32, by Lemire's
        multiply-and-reject on 32-bit outputs."""
        out = []
        for _ in range(size):
            m = self._next32() * high
            if m & _M32 < high:
                while m & _M32 < (-high & _M32) % high:
                    m = self._next32() * high
            out.append(m >> 32)
        return out
