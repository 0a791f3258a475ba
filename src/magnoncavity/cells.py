"""The numeric cells of `map`, `spectrum` and `modes`: ``b"%.17g" % v`` for every float64 ``v``, byte for byte.

:func:`cells` scales |v| by 10**(16 - X), X = floor(log10 |v|), in double-double arithmetic (Dekker, Numer. Math. 18,
224, 1971), rounds it to the 17-digit integer N, reads N's digits with integer arithmetic (as Ryu printf does: Adams,
Proc. ACM Program. Lang. 3, OOPSLA, 169, 2019) and lays them out by %g's rules, all in numpy ufuncs over the array. A
value whose X lies outside EXPONENTS, or whose scaled digits lie within TIE_MARGIN of a rounding tie, is formatted by
CPython instead, so every cell is CPython's.

``cli`` imports this module when `map`, `spectrum` or `modes` first formats a cell: the other commands, and every
start-up, do not compile it.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

EXPONENTS = range(-290, 291)
TIE_MARGIN = 1e-6


@functools.cache
def _tables():
    """The tables of :func:`cells`, built from Python ints on its first call: a tuple of

    * ``powers``: ``powers[:, X - EXPONENTS.start]`` is 10**(16 - X) as the double-double hi + lo, hi split
      into 26-bit halves h1 + h2 for Dekker's product (rows hi, h1, h2, lo). Python's int true division rounds
      correctly, so hi and lo are the correctly rounded head and tail.
    * ``low``, ``rest``, ``dots``: masks and text over the 3 little-endian uint64 words of a 24-byte cell, one
      column each. ``low[:, h]`` keeps bytes 0 to h - 1, ``rest[:, 18 * n + h]`` bytes h to n - 1, and
      ``dots[:, 18 * k + h]`` is "", ".", ".0", ".00" or ".000" (k = 0 ... 4) from byte h.
    * ``prefixes``: "", "0", "-" and "-0" as a uint64 word each.
    * ``suffixes``: %g's exponent, "e-290" ... "e+290", as a uint64 word per X of EXPONENTS.
    """
    powers = []
    for X in EXPONENTS:
        if X <= 16:
            exact = 10 ** (16 - X)
            hi = float(exact)
            lo = float(exact - int(hi))
        else:
            scale = 10 ** (X - 16)
            hi = 1 / scale
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)  # 10**(16 - X) - hi
        mantissa, exponent = math.frexp(hi)  # split the mantissa, so that (2**27 + 1) times it cannot overflow
        c = 134217729.0 * mantissa
        upper = c - (c - mantissa)
        powers.append((hi, math.ldexp(upper, exponent), math.ldexp(mantissa - upper, exponent), lo))

    def words(text: bytes, at: int = 0) -> list[int]:
        value = int.from_bytes(text, "little") << 8 * at
        return [(value >> 64 * k) & (2**64 - 1) for k in range(3)]

    def table(rows) -> np.ndarray:
        return np.array(rows, dtype=np.uint64).T.copy()

    return (
        np.array(powers).T.copy(),
        table([words(b"\xff" * h) for h in range(18)]),
        table([words(b"\xff" * max(n - h, 0), h) for n in range(18) for h in range(18)]),
        table([words((b"." + b"0" * 3)[:k], h) for k in range(5) for h in range(18)]),
        np.array([int.from_bytes(text, "little") for text in (b"", b"0", b"-", b"-0")], dtype=np.uint64),
        np.array([int.from_bytes(b"e%+03d" % X, "little") for X in EXPONENTS], dtype=np.uint64),
    )


def _scaled(x, k, powers):
    """x * 10**(16 - X) as the double-double p + q, X = EXPONENTS[k], with |error| < 1e-13 below 1e18.

    Dekker's exact product of x and hi, each split into 26-bit halves (separate ufunc calls, so no FMA enters), plus
    the rounded x * lo, renormalized by Fast2Sum.
    """
    hi, h1, h2, lo = (row.take(k) for row in powers)
    c = x * 134217729.0
    x1 = c - (c - x)
    x2 = x - x1
    p = x * hi
    e = x1 * h1 - p
    e += x1 * h2
    e += x2 * h1
    e += x2 * h2
    e += x * lo
    s = p + e
    return s, e - (s - p)


def significands(v):
    """(N, X, slow): each |v| rounded to 17 significant digits is N * 10**(X - 16), N a uint64 in [10**16, 10**17).

    X starts as floor(log10 |v|), corrected once where log10 rounded across a power of 10, and N is the rounded p + q
    of :func:`_scaled`, carried to the next power of 10 where it rounds up to 10**17. ``slow`` marks the values
    left to CPython: zero, subnormal or not finite, an estimated X not inside EXPONENTS (its correction must
    stay in the table), or p + q within TIE_MARGIN of a tie, whose rounding the product's error could flip.
    """
    powers = _tables()[0]
    x = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.log10(x)
    slow = ~((x >= sys.float_info.min) & (X >= EXPONENTS.start + 1) & (X < EXPONENTS.stop - 1))
    x[slow] = 1.0
    X[slow] = 0.0
    X = np.floor(X).astype(np.int64)
    p, q = _scaled(x, X - EXPONENTS.start, powers)
    above = (p > 1e17) | ((p == 1e17) & (q >= 0))
    off = np.flatnonzero(above | (p < 1e16) | ((p == 1e16) & (q < 0)))
    if off.size:
        X[off] += np.where(above[off], 1, -1)
        p[off], q[off] = _scaled(x[off], X[off] - EXPONENTS.start, powers)
    r = np.rint(q)
    slow |= np.abs(np.abs(q - r) - 0.5) < TIE_MARGIN
    N = (p.astype(np.int64) + r.astype(np.int64)).view(np.uint64)
    carry = np.flatnonzero(N == 10**17)
    N[carry] = 10**16
    X[carry] += 1
    return N, X, slow


def _digit_bytes(v):
    """The 8 decimal digits of each uint64 v < 10**8, one per byte, the most significant in the lowest byte.

    SWAR: v splits into 4-digit halves in 32-bit lanes, those into 2-digit quarters in 16-bit lanes, and those into
    digits, each division a multiply and shift that is exact in its lane.
    """
    upper = v // 10000
    x = upper | ((v - upper * 10000) << 32)
    q = ((x * 5243) >> 19) & 0x0000007F0000007F  # // 100, exact for lanes below 43699
    x = q | ((x - q * 100) << 16)
    q = ((x * 103) >> 10) & 0x000F000F000F000F  # // 10, exact for lanes below 179
    return q | ((x - q * 10) << 8)


def _top_byte(z):
    """The index of the highest nonzero byte of each nonzero uint64 ``z`` whose bytes are at most 9.

    float64(z) rounds to at most 2**(8k + 4) for a top byte k, so its binary exponent gives k.
    """
    return (np.frexp(z.astype(np.float64))[1] - 1) >> 3


def cells(values) -> list[bytes]:
    """``b"%.17g" % v`` for each float64 ``v`` of ``values``, flattened, byte for byte.

    The 17 digits d0 ... d16 of each N of :func:`significands` fill three uint64 words, one digit per byte, and are
    laid out as %g lays them out: fixed notation for -4 <= X < 17 (X + 1 digits, then "." and the rest, for X >= 0;
    "0.", -X - 1 zeros and the digits for X < 0), else exponent notation (d0, "." and the rest, then "e", the
    exponent's sign and at least two of its digits); trailing zeros and a bare "." stripped, "-" before a negative
    value. Each cell is 24 bytes with only trailing NULs, so the rows' ``S24`` view gives the bytes. The values that
    :func:`significands` marks slow are formatted by CPython, ``b"%.17g" % v``, as is every value on a big-endian
    machine.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if sys.byteorder != "little":
        return [b"%.17g" % x for x in v.tolist()]
    _, low, rest_masks, dots, prefixes, suffixes = _tables()
    N, X, slow = significands(v)
    n = v.size
    digits = np.empty((3, n), dtype=np.uint64)  # d0-d7, d8-d15 and d16
    tens = N // 10
    np.subtract(N, tens * 10, out=digits[2])
    np.floor_divide(tens, 10**8, out=digits[0])
    np.subtract(tens, digits[0] * 10**8, out=digits[1])
    digits[:2] = _digit_bytes(digits[:2])
    L = np.full(n, 17)  # the digits up to the last nonzero one
    short = np.flatnonzero(digits[2] == 0)
    if short.size:
        upper, lower = digits[:2, short]
        L[short] = np.where(lower != 0, 9 + _top_byte(lower), 1 + _top_byte(upper))
    digits |= int.from_bytes(b"0" * 8, "little")  # in ASCII

    fixed = (-4 <= X) & (X < 17)
    small = fixed & (X < 0)
    head = np.where(fixed, np.maximum(X + 1, 0), 1)  # the digits before the "."
    gap = np.where(small, -X, 1).astype(np.uint64) << 3  # the bits of the "." and the zeros before the next digit
    rest = digits & rest_masks.take(L * 18 + head, axis=1)  # the digits after the "."
    body = (digits & low.take(head, axis=1)) | (rest << gap)
    body[1:] |= rest[:-1] >> (64 - gap)
    body |= dots.take(np.where(small, -X, L > head) * 18 + head, axis=1)
    e = np.flatnonzero(~fixed)
    if e.size:
        at = (L[e] + (L[e] > 1)).astype(np.uint64) << 3  # the first bit after the mantissa
        suffix = suffixes.take(X[e] - EXPONENTS.start)
        word, bits = at >> 6, at & 63
        body[word, e] |= suffix << bits
        body[np.minimum(word + 1, 2), e] |= (suffix >> 1) >> (63 - bits)  # a suffix that starts in word 2 ends there
    sign = np.signbit(v)
    bits = (sign.astype(np.uint64) + small) << 3  # the prefix: "0", "-" or "-0"
    words = np.empty((n, 3), dtype=np.uint64)
    words[:, 0] = (body[0] << bits) | prefixes.take(2 * sign + small)
    words[:, 1:] = ((body[1:] << bits) | ((body[:-1] >> 1) >> (63 - bits))).T
    out = words.view("S24").ravel().tolist()
    for k in np.flatnonzero(slow).tolist():
        out[k] = b"%.17g" % v[k]
    return out
