"""Byte-exact bulk text of numbers: ``"%.17g" % v`` and ``"%d" % v`` for a
whole numpy array at once, for the command line's CSV, OBJ and JSON writers.

``texts(conv, values)`` lays out the text of each value in fixed slots of a
uint8 array, with zero bytes where nothing prints; ``joined`` interleaves
such arrays with literal text and drops the zeros with ``bytes.translate``.

A float v is its sign, the 17 digits D of round(|v| 10^(16-E)) with
E = floor(log10 |v|), and E.  |v| 10^(16-E) is taken as a double-double,
Dekker's exact product with 10^(16-E) held as two doubles (numpy has no
fma), within about 1e-14.  A remainder within _TIE = 1e-6 of a half (exact
ties among them, which "%.17g" rounds half to even), a non-finite value and
|E| beyond _E_FAST get their text from "%.17g" itself, one value at a time:
a fast path that checks its own certainty, as Grisu3 does (Loitsch,
"Printing Floating-Point Numbers Quickly and Accurately with Integers",
PLDI 2010).

The command line imports this module where it first writes array text, so
its tables are built then, and a set-up that writes none does not compile it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["joined", "texts"]

_E_FAST = 290   # |E| beyond this: 10^(16-E) or Dekker's split would leave float range
_TIE = 1e-6     # the error of the double-double is about 1e-14

# The text of a float in _SLOTS fixed slots; a zero byte is a slot that
# "%.17g" leaves out:
#   0 "-" | 1-2 "0." | 3-5 "000" | 6-39 d0 "." d1 "." ... d16 "." | 40 "e" |
#   41 exponent sign | 42-44 exponent digits | 45-47 unused
# Which slots print depends on the layout, the digit count after trailing
# zeros are stripped, and the sign.  Layouts 0-20 are fixed notation with
# E = layout - 4; 21 and 22 are exponential with a 2- and a 3-digit exponent.
# The slots are six uint64 words: a value's chars are its row of _LAYOUTS
# AND-ed with six _WORDS of its digits and exponent.
_SLOTS = 48


def _tables():
    """(_POW10, _QUADS, _ZEROS, _LAYOUTS, _WORDS), read-only, without large
    temporaries.  _POW10 column E + _E_FAST + 1 holds 10^(16-E) as hi, hi's
    two halves and lo: hi and lo are each rounded once from exact integer
    ratios, so hi + lo is within 2^-106 relative of 10^(16-E), and the halves
    are Dekker's split of hi's mantissa, so products with them are exact.
    _QUADS is the ASCII of "0000" ... "9999", 4 bytes to a uint32, and _ZEROS
    the trailing zeros of each.  _LAYOUTS row (17 layout + digits - 1) * 2 +
    sign holds the words of the fixed chars, with 0xff where a digit or an
    exponent char prints.  _WORDS holds the 10^4 groups of 4 digits as
    d "\\xff" d "\\xff" ..., then the 10 lead digits, then the exponents."""
    def split(x):
        m, ex = math.frexp(x)
        c = m * 134217729.0
        return math.ldexp(c - (c - m), ex), math.ldexp(m - (c - (c - m)), ex)

    rows = []
    for k in range(16 + _E_FAST + 1, 16 - _E_FAST - 2, -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        h_num, h_den = hi.as_integer_ratio()
        rows.append((hi, *split(hi), (num * h_den - h_num * den) / (den * h_den)))
    quads = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
             % 10 + 48).astype(np.uint8)
    shown = quads != 48
    zeros = np.where(shown.any(axis=1), np.argmax(shown[:, ::-1], axis=1), 4).astype(np.uint8)

    layout = np.arange(23)[:, None, None]
    digits = np.arange(1, 18)[:, None]
    slot = np.arange(_SLOTS)
    E, fixed = layout - 4, layout < 21
    point = np.where(fixed & (E >= 0), E, 0)          # the digit the point follows
    j, odd = np.divmod(slot - 6, 2)
    inner = (slot >= 6) & (slot <= 39)
    prints = ((inner & (odd == 0) & (j <= np.maximum(point, digits - 1)))
              | (inner & (odd == 1) & (j == point) & (digits - 1 > point) & ~(fixed & (E < 0)))
              | (fixed & (E < 0) & (slot >= 1) & (slot < 2 - E))
              | (~fixed & (slot >= 40) & (slot <= 44) & ((slot != 42) | (layout == 22))))
    chars = np.frombuffer(b"-0.000" + b"\xff." * 17 + b"e\xff\xff\xff\xff\0\0\0", np.uint8)
    layouts = np.stack([prints, prints | (slot == 0)], axis=2).reshape(-1, _SLOTS) * chars

    groups = np.full((10000, 8), 255, np.uint8)
    groups[:, ::2] = quads
    lead = np.full((10, 8), 255, np.uint8)
    lead[:, 6] = np.arange(48, 58)
    E = np.arange(-_E_FAST - 2, _E_FAST + 3)
    exponents = np.zeros((E.size, 8), np.uint8)
    exponents[:, 0] = 255
    exponents[:, 1] = np.where(E < 0, 45, 43)
    exponents[:, 2:5] = quads[np.abs(E), 1:]
    words = np.concatenate([groups, lead, exponents]).view(np.uint64).ravel()
    tables = (np.array(rows).T.copy(), quads.view(np.uint32).ravel(), zeros,
              layouts.view(np.uint64), words)
    for a in tables:
        a.flags.writeable = False
    return tables


_POW10, _QUADS, _ZEROS, _LAYOUTS, _WORDS = _tables()


def _scaled(a, E):
    """|v| 10^(16-E) for the finite positive float64 ``a`` and its integer
    ``E``, as a double-double (p, e) within about 1e-14 of the exact value:
    Dekker's exact product with hi, plus a times lo."""
    hi, hh, hl, lo = np.take(_POW10, E + _E_FAST + 1, axis=1)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    p0 = a * hi
    s = al * hl - (((p0 - ah * hh) - al * hh) - ah * hl) + a * lo
    p = p0 + s
    return p, s - (p - p0)


def _float_digits(v):
    """(negative, zero, E, D, fallback) of float64 values: D = round(|v|
    10^(16-E)) in [10^16, 10^17), E carried past a round-up to 10^17.  Zero
    reads D = 10^16, E = 0.  Non-finite values, |E| beyond _E_FAST and
    remainders within _TIE of a half (exact ties among them) are marked
    for the fallback."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.floor(np.log10(a))
    fast = np.abs(E) <= _E_FAST                        # false for 0, nan and inf
    a, E = np.where(fast, a, 1.0), np.where(fast, E, 0).astype(np.int64)
    p, e = _scaled(a, E)
    # log10 may round across a power of ten: move E so that 10^16 <= p + e < 10^17
    up = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(up | (p < 1e16) | ((p == 1e16) & (e < 0)))
    if fix.size:
        E[fix] += np.where(up[fix], 1, -1)
        p[fix], e[fix] = _scaled(a[fix], E[fix])
    whole = np.floor(e)
    frac = e - whole
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10**17
    D[carry] = 10**16
    E += carry
    zero = v == 0
    return np.signbit(v), zero, E, D, ~(fast | zero) | (np.abs(frac - 0.5) < _TIE)


def _int_texts(v) -> np.ndarray:
    """``texts`` of integers: the digits of |v|, 4 to a _QUADS word, in as
    many slots as the longest value and a sign need; leading zeros print
    nothing, and the slot before a negative value's first digit is "-"."""
    v = np.asarray(v, dtype=np.int64)
    mag = np.abs(v).astype(np.uint64)                 # int64's minimum too
    count = np.searchsorted(10 ** np.arange(1, 20, dtype=np.uint64), mag, side="right") + 1
    width = 4 * -(-(int(count.max(initial=1)) + 1) // 4)
    q = [mag // 10**k for k in range(width - 4, -1, -4)]   # the first is < 10^3
    groups = np.stack(q[:1] + [b - a * 10**4 for a, b in zip(q, q[1:])], axis=1)
    chars = _QUADS[groups.astype(np.intp)].view(np.uint8).reshape(len(v), width)
    chars *= np.arange(width) >= width - count[:, None]
    negative = np.flatnonzero(v < 0)
    chars[negative, width - count[negative] - 1] = 45
    return chars


def texts(conv: str, values) -> np.ndarray:
    """The text of ``conv % v`` ("%.17g" or "%d") for each value of a 1-D
    array, as an (n, w) uint8 array whose nonzero bytes, in order, are
    exactly the text: w = 48 slots for floats, fewer for integers.  The
    floats the kernel cannot vouch for get their text from "%.17g" itself,
    one at a time."""
    if conv == "%d":
        return _int_texts(values)
    values = np.asarray(values, dtype=np.float64)
    negative, zero, E, D, fallback = _float_digits(values)
    q = [D // 10**k for k in (16, 12, 8, 4)]
    lead, (g1, g2, g3, g4) = q[0], [b - a * 10**4 for a, b in zip(q, q[1:] + [D])]
    z = _ZEROS
    count = 17 - (z[g4] + (g4 == 0) * (z[g3] + (g3 == 0) * (z[g2] + (g2 == 0) * z[g1])))
    layout = np.where((E >= -4) & (E < 17), E + 4, np.where(np.abs(E) < 100, 21, 22))
    chars = np.take(_LAYOUTS, (layout * 17 + count - 1) * 2 + negative, axis=0)
    for k, word in enumerate((10000 + lead * ~zero, g1, g2, g3, g4, 10010 + _E_FAST + 2 + E)):
        chars[:, k] &= np.take(_WORDS, word)
    chars = chars.view(np.uint8)
    fallback = np.flatnonzero(fallback)
    chars[fallback] = np.array(["%.17g" % v for v in values[fallback].tolist()],
                               f"S{_SLOTS}").view(np.uint8).reshape(-1, _SLOTS)
    return chars


def joined(literals, cells) -> str:
    """The text of n rows, each the strings ``literals`` interleaved with the
    ``texts`` arrays ``cells``: literal, cell, literal, ..., (literal).  One
    ``bytes.translate`` pass over a copy of the rows drops their zero bytes."""
    n = len(cells[0])
    pieces = []
    for text, cell in itertools.zip_longest(literals, cells):
        if text:
            literal = np.frombuffer(text.encode(), np.uint8)
            pieces.append(np.broadcast_to(literal, (n, literal.size)))
        if cell is not None:
            pieces.append(cell)
    return np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0").decode("ascii")
