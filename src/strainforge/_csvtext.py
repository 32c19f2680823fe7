"""CSV text for blocks of integer and float columns, built in numpy.

``format_rows(columns)`` returns the bytes of ``"".join(row_format % row +
"\\n" for row in zip(*columns))`` without a Python call per value, where
``row_format`` joins by commas a ``%d`` for each integer-dtype column and a
``%.17g`` for any other. A ``%d`` value below 2**53 in magnitude has the
text of its value as a float, so both kinds take the same path.

A finite x != 0 is |x| = D * 10**(k - 16), D the correctly rounded
17-digit integer. k starts as floor(log10|x|) and moves by one where the
unrounded D falls outside [10**16, 10**17). D is rounded from the
double-double product |x| * (hi + lo), hi + lo = 10**(16 - k) to 106 bits,
taken with Dekker's exact TwoProduct (Numer. Math. 18, 224, 1971); its
error is below 1e-14 of a unit. Values within 2**-30 of a tie, non-finite,
subnormal and out-of-table values are formatted by Python instead.

Each value fills a 32-byte slot of fixed positions: byte 0 the sign, 1-5
the "0.000" of -4 <= k < 0, 7-23 the digits, the point right after digit
q with the digits behind it one byte later, 25-29 the exponent, 30 the
separator. Masks picked by (notation, last nonzero digit) keep the bytes
of the text and zero the rest, and the NULs go once per block.
"""

from __future__ import annotations

import functools

import numpy as np

K_LO, K_HI = -290, 290  # decimal exponents on the fast path
_TIE = 2.0 ** -30
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)
_PREFIX = np.frombuffer(b"\0" b"0.000" b"\0\0", np.uint64)[0]  # slot bytes 0-7


def _split(v: float) -> tuple[float, float]:
    """Veltkamp split into 26-bit halves, scaled by 2**-100 against overflow."""
    s = v * 2.0 ** -100
    c = s * 134217729.0
    h = c - (c - s)
    return h * 2.0 ** 100, (s - h) * 2.0 ** 100


def _ascii(text: str, width: int) -> np.ndarray:
    return np.frombuffer(text.encode().ljust(width, b"\0"), np.uint8)


@functools.cache
def _tables():
    """Built on first use, so importing the package builds nothing."""
    from fractions import Fraction

    ks = np.arange(K_LO - 1, K_HI + 2)  # table index k - (K_LO - 1)
    powers = [Fraction(10) ** (16 - k) for k in ks.tolist()]
    hi = [float(p) for p in powers]
    hh, hl = np.array([_split(h) for h in hi]).T
    lo = np.array([float(p - Fraction(h)) for p, h in zip(powers, hi)])
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    dig4 = (digits + 48).astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    # last4[j][g]: index (0-16) of the last nonzero digit if group j + 1 is g
    nz = digits != 0
    pos = np.where(nz.any(1), 4 - np.argmax(nz[:, ::-1], axis=1), -99)
    last4 = np.maximum([pos + 4 * j for j in range(4)], 0).astype(np.int8)
    # notation class: 0-16 fixed with k >= 0, 17-20 "0.000ddd", 21-22 exponent
    cls = np.where((ks < -4) | (ks > 16), 21 + (np.abs(ks) >= 100),
                   np.where(ks >= 0, ks, 16 - ks))
    exp_word = np.array([_ascii(f"\0e{k:+03d}", 8) for k in ks.tolist()]).view(np.uint64).ravel()
    # per code 17 * class + last: bytes kept from the digits (keep), from
    # the digits one byte later (shift), and the point (dot)
    masks = np.zeros((3, 23 * 17, 32), np.uint8)
    for c in range(23):
        for last in range(17):
            keep, shift, dot = masks[:, c * 17 + last]
            keep[0] = keep[7] = 255  # sign, first digit
            if 17 <= c <= 20:
                keep[1:c - 14] = keep[7:8 + last] = 255
                continue
            q = c if c <= 16 else 0  # the point follows digit q
            keep[7:8 + q] = 255
            if last > q:
                dot[8 + q] = ord(".")
                shift[9 + q:9 + last] = 255
            if c >= 21:
                keep[25:29 + (c == 22)] = 255
    masks = masks.view(np.uint64).transpose(0, 2, 1).copy()  # (3, word, code)
    return hh, hl, lo, dig4, last4, cls * 17, exp_word, masks


def _scaled(a, i):
    """floor(a * 10**(16 - k)) as int64 and the fraction above it, for the
    table index ``i`` of k."""
    hh, hl, lo = (t[i] for t in _tables()[:3])
    p = a * (hh + hl)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    ip = np.floor(p)
    r = (p - ip) + t
    fl = np.floor(r)
    return ip.astype(np.int64) + fl.astype(np.int64), r - fl


def _slots(x):
    """The 32-byte slots of the values ``x`` as (n, 4) uint64, and a mask
    of the values left to Python."""
    *_, dig4, last4, cls17, exp_word, (keep, shift, dot) = _tables()
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(ax))
    fast = (k >= K_LO) & (k <= K_HI)
    i = np.where(fast, k - (K_LO - 1), 1 - K_LO).astype(np.int64)
    ax = np.where(fast, ax, 1.0)
    d, frac = _scaled(ax, i)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if off.size:  # log10 was one off at a decade edge
        i[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off], frac[off] = _scaled(ax[off], i[off])
    slow = ~fast | (np.abs(frac - 0.5) < _TIE) | (d < 10 ** 16) | (d >= 10 ** 17)
    d += frac > 0.5
    top = d == 10 ** 17  # rounded up to the next decade
    d[top], i[top] = 10 ** 16, i[top] + 1
    zero = x == 0
    d[zero], i[zero] = 0, 1 - K_LO
    slow &= ~zero

    d0 = d // 10 ** 16
    d -= d0 * 10 ** 16
    hi8 = d // 10 ** 8
    lo8 = d - hi8 * 10 ** 8
    g0, g2 = hi8 // 10 ** 4, lo8 // 10 ** 4
    g = (g0, hi8 - g0 * 10 ** 4, g2, lo8 - g2 * 10 ** 4)
    last = np.maximum(np.maximum(last4[0][g[0]], last4[1][g[1]]),
                      np.maximum(last4[2][g[2]], last4[3][g[3]]))
    code = cls17[i] + last

    u0 = ((d0.astype(np.uint64) + np.uint64(48)) << _U56) | _PREFIX
    u0 |= np.signbit(x) * np.uint64(ord("-"))
    u1 = dig4[g[0]] | (dig4[g[1]] << _U32)
    u2 = dig4[g[2]] | (dig4[g[3]] << _U32)
    u3 = exp_word[i]
    out = np.stack([
        u0 & keep[0].take(code),
        (u1 & keep[1].take(code)) | (((u1 << _U8) | (u0 >> _U56)) & shift[1].take(code))
        | dot[1].take(code),
        (u2 & keep[2].take(code)) | (((u2 << _U8) | (u1 >> _U56)) & shift[2].take(code))
        | dot[2].take(code),
        (u3 & keep[3].take(code)) | ((u2 >> _U56) & shift[3].take(code)),
    ], axis=1)
    return out, slow


def format_rows(columns) -> bytes:
    """Bytes of one CSV line per row of ``columns``, a sequence of
    equal-length 1-d arrays: ``%d`` text for an integer-dtype column,
    ``%.17g`` for any other."""
    columns = [np.asarray(c) for c in columns]
    kinds = ["%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns]
    slots, slow = _slots(np.column_stack([c.astype(np.float64) for c in columns]).ravel())
    slow = slow.reshape(-1, len(kinds))
    for j, c in enumerate(columns):
        if kinds[j] == "%d":  # inexact as floats
            slow[:, j] |= (c >= 2 ** 53) | (c <= -2 ** 53)
    text = slots.view(np.uint8).reshape(-1, len(kinds), 32)
    text[:, :, 30] = [ord(",")] * (len(kinds) - 1) + [ord("\n")]
    for row, j in zip(*np.nonzero(slow)):  # Python's own text, at most 24 bytes
        text[row, j, :30] = _ascii(kinds[j] % columns[j][row].item(), 30)
    return text.tobytes().translate(None, b"\0")
