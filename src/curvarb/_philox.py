"""numpy's Philox4x64-10 and the fast path of its ziggurat, on arrays of keys.

A fresh Philox stream has counter 0 and an empty buffer, so numpy increments
the counter and serves its first four 64-bit words from the Philox block at
counter (1, 0, 0, 0) (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  ``first_block`` computes that block for many keys at once
and applies numpy's float64 transforms to its words:

- ``random``: ``(w >> 11) * 2**-53``, never rejected;
- ``standard_exponential``: layer ``(w >> 3) & 0xff``, ``m = w >> 11``;
- ``standard_normal``: layer ``w & 0xff``, sign bit 8,
  ``m = (w >> 9) & (2**52 - 1)``.

A ziggurat draw is ``m * width[layer]`` when ``m < threshold[layer]``
(Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000).  Any other draw reads
further words, so its whole row is flagged for the caller to redraw on
numpy's own generator.  The 256-entry tables are read out of the installed
numpy on first use, by feeding chosen words through a Philox buffer.  The
keys come from the caller, which owns their layout.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)

# keys per Philox pass: the pass's arrays stay in cache
_KEY_BLOCK = 8192

# ziggurat word layout: (layer shift, mantissa shift, mantissa bits, sign bit)
_LAYOUT = {
    "standard_exponential": (3, 11, 53, 0),
    "standard_normal": (0, 9, 52, 1 << 8),
}

_SENTINEL = 0x0123456789ABCDEF


def _mulhi(a: int, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> np.uint64(32)
    u = a_hi * b_lo + ((a_lo * b_lo) >> np.uint64(32))
    v = a_lo * b_hi + (u & _LOW32)
    return a_hi * b_hi + (u >> np.uint64(32)) + (v >> np.uint64(32))


def _philox_words(k0: np.ndarray, k1: int) -> list[np.ndarray]:
    """The four words of Philox4x64-10 at counter (1, 0, 0, 0) under the
    keys (k0, k1)."""
    m0, m1 = np.uint64(_MUL[0]), np.uint64(_MUL[1])
    # round 1 on counter (1, 0, 0, 0): the products are M0 and 0
    c0, c1, c2, c3 = k0, 0, np.full(k0.shape, k1, np.uint64), np.full(k0.shape, m0)
    for _ in range(9):
        k0 = k0 + np.uint64(_BUMP[0])
        k1 = (k1 + _BUMP[1]) & _MASK64
        c0, c1, c2, c3 = (
            _mulhi(_MUL[1], c2) ^ c1 ^ k0,
            m1 * c2,
            _mulhi(_MUL[0], c0) ^ c3 ^ np.uint64(k1),
            m0 * c0,
        )
    return [c0, c1, c2, c3]


@cache
def _ziggurat(method: str) -> tuple[np.ndarray, np.ndarray]:
    """(width, threshold): the 256-entry ziggurat tables behind numpy's
    method, read out of the installed numpy.

    Each probe puts one word in a Philox buffer with a sentinel behind it;
    the draw took the fast path iff the next raw word is the sentinel.  A
    width is the draw at m = 1.  A threshold, the least m off the fast path,
    lies within 2 of floor(width[i - 1] / width[i] * 2**bits), so it is
    bisected in a window of 4 around that; layers 0 and 2 are bisected in
    full, and layer 1 is never on the fast path.
    """
    layer_shift, m_shift, bits, sign = _LAYOUT[method]
    bitgen = np.random.Philox(0)
    draw = getattr(np.random.Generator(bitgen), method)
    state = bitgen.state
    state["buffer_pos"] = 0

    def fast(word: int) -> float | None:
        state["buffer"] = [word, _SENTINEL, 0, 0]
        bitgen.state = state
        x = draw()
        return x if int(bitgen.random_raw()) == _SENTINEL else None

    def on_fast_path(i: int, m: int) -> bool:
        x = fast((m << m_shift) | (i << layer_shift))
        if x is not None and x != m * width[i]:
            raise RuntimeError(f"numpy's {method} is not m * width[{i}] at m = {m}")
        return x is not None

    width = np.zeros(256)
    threshold = np.zeros(256, dtype=np.uint64)
    top = (1 << bits) - 1
    for i in range(256):
        x = fast((1 << m_shift) | (i << layer_shift))
        if (x is None) != (i == 1):
            raise RuntimeError(f"numpy's {method} has an unexpected fast path at layer {i}")
        if i == 1:
            continue
        width[i] = x
        if i <= 2:
            lo, hi = 0, top
        else:
            guess = int(width[i - 1] / width[i] * 2.0**bits)
            lo, hi = guess - 4, guess + 4
        if not on_fast_path(i, lo) or on_fast_path(i, hi):
            raise RuntimeError(f"numpy's {method} threshold of layer {i} is not in [{lo}, {hi}]")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if on_fast_path(i, mid) else (lo, mid)
        threshold[i] = hi
    if sign and fast((1 << m_shift) | sign | (2 << layer_shift)) != -width[2]:
        raise RuntimeError(f"numpy's {method} does not read its sign from bit 8")
    width.flags.writeable = threshold.flags.writeable = False
    return width, threshold


def _draws(w: np.ndarray, method: str) -> tuple[np.ndarray, np.ndarray]:
    """(x, fast): numpy's float64 draws of method from the words w, and
    whether each took the fast path; x is garbage where fast is False."""
    if method == "random":
        return (w >> np.uint64(11)) * 2.0**-53, np.ones(w.shape, dtype=bool)
    width, threshold = _ziggurat(method)
    layer_shift, m_shift, bits, sign = _LAYOUT[method]
    layer = (w >> np.uint64(layer_shift)) & np.uint64(0xFF)
    m = (w >> np.uint64(m_shift)) & np.uint64((1 << bits) - 1)
    x = m * width[layer]
    if sign:
        np.negative(x, out=x, where=(w & np.uint64(sign)) != 0)
    return x, m < threshold[layer]


def first_block(key0: np.ndarray, key1: int, method: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(out, fast): out[i] holds the n <= 4 float64 draws of numpy's
    Generator method on the fresh stream keyed by (key0[i], key1) where
    fast[i]; a row with fast[i] False needs words past the first block."""
    out = np.empty((key0.size, n))
    fast = np.empty(key0.size, dtype=bool)
    for lo in range(0, key0.size, _KEY_BLOCK):
        block = slice(lo, lo + _KEY_BLOCK)
        words = _philox_words(key0[block], key1)[:n]
        out[block], on_fast = _draws(np.stack(words, axis=1), method)
        fast[block] = on_fast.all(axis=1)
    return out, fast
