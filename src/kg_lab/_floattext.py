"""Exact '%.17g' text of float64 tables, formed in numpy.

`format_rows` appends to a bytearray, row by row, each value of the row
followed by its column's separator. A finite value is written exactly as
'%.17g' writes it; zeros keep their sign, and NaN (of either sign), inf
and -inf are spelled NaN, Infinity and -Infinity.

How a value v != 0 becomes its 17 significant digits D and decimal
exponent X (so that |v| rounds to D * 10^(X-16), 10^16 <= D < 10^17):

- X starts as floor(log10|v|), which is off by at most one, and is
  corrected once on the unrounded scaled value S = |v| * 10^(16-X).
- S is formed as a double-double p + q. 10^j is tabulated as
  (hi + lo) * 2^F with hi in [1, 2), exact to about 2^-106; |v| * 2^F is
  exact (np.ldexp), and its product with hi is split exactly into p and an
  error term by Veltkamp splitting and Dekker's product (numpy has no fma).
  The whole error of p + q is below 2^-104 * S, under 5e-15.
- p lies in [1e16, 1e17] and is an integer, so the rounding is decided by
  the fraction r of q alone. Where |r - 1/2| exceeds _MARGIN, far above
  that error, D is exactly the correctly rounded 17-digit integer that
  '%.17g' forms; a D of 10^17 is carried into the exponent.
- Any other value (an exact tie is one) is undecided, and '%.16e' % v
  gives its digits and exponent instead, one value at a time.

The text is then assembled in fixed byte slots per value: the sign,
"0.000", the 17 digits, ".", the 17 digits again, a left-justified
exponent ("e-05" up to "e+308") and the separator. A keep-mask per
value, taken from a table indexed by the separator's length, the sign, the
notation (fixed with its exponent, or scientific) and the count of
significant digits, selects the bytes '%.17g' writes: the digits before
the point come from the first copy, those after it from the second. One
np.compress per chunk of rows turns the slots into text.

The tables are built on first use, not at import.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

# |r - 1/2| must clear this for the vector path to decide the rounding; the
# double-double error is under 5e-15, and the fraction's own under 2^-53.
_MARGIN = 1e-9

# Byte offsets of a value's slots. Digit i of the first copy sits at
# _FIRST + i and digit i >= 1 of the second at _SECOND + i, where _SECOND
# holds the point; the digit groups and the exponent's first four bytes are
# 4-byte aligned so that each is written as one uint32. _BODY is where the
# separator starts; the bytes between slots are never kept.
_SIGN, _ZEROS, _FIRST, _POINT, _EXP, _BODY = 1, 2, 7, 27, 44, 49
_SECOND = _POINT

# Notation of a value, the middle index of a mask table: 0..20 fixed
# notation with exponent X = form - 4, then scientific notation with a two-
# or three-digit exponent, then the fixed spellings.
_SCI2, _SCI3, _ZERO, _INF, _NAN = 21, 22, 23, 24, 25
_FORMS = 26
_SPELLINGS = {_ZERO: b"0", _INF: b"Infinity", _NAN: b"NaN"}

# Values per chunk: a few hundred kB of slots and masks, which stay in cache.
_CHUNK_VALUES = 8192

_J_MIN, _J_MAX = -293, 341  # the 10^j that 16 - X reaches, X off by one included
_EXP_MIN, _EXP_MAX = -324, 308  # the decimal exponents of nonzero doubles


@lru_cache(maxsize=None)
def _powers() -> tuple[np.ndarray, ...]:
    """10^j = (hi + lo) * 2^F for j in [_J_MIN, _J_MAX], with hi split for Dekker."""
    from fractions import Fraction

    rows = []
    for j in range(_J_MIN, _J_MAX + 1):
        if j >= 0:
            exact, shift = Fraction(10**j), (10**j).bit_length() - 1
        else:  # 10^-j is no power of two, so 2^-bits < 10^j < 2^(1-bits)
            exact, shift = Fraction(1, 10**-j), -(10**-j).bit_length()
        m = exact / Fraction(2) ** shift
        hi = float(m)
        lo = float(m - Fraction(hi))
        c = 134217729.0 * hi
        hi_hi = c - (c - hi)
        rows.append((hi, hi_hi, hi - hi_hi, lo, shift))
    return tuple(_readonly(np.array(col)) for col in zip(*rows))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _masks(width: int) -> np.ndarray:
    """Keep-masks for every (separator length, sign, form, significant digits)."""
    masks = np.zeros((width - _BODY, 2, _FORMS, 17, width), dtype=bool)
    for sep in range(1, width - _BODY + 1):
        for neg in (0, 1):
            for form in range(_FORMS):
                for k in range(1, 18):
                    row = masks[sep - 1, neg, form, k - 1]
                    row[_BODY:_BODY + sep] = True
                    row[_SIGN] = neg and form != _NAN
                    if form in _SPELLINGS:
                        row[_FIRST:_FIRST + len(_SPELLINGS[form])] = True
                        continue
                    if form >= _SCI2:
                        point = 1
                        row[_EXP:_EXP + (4 if form == _SCI2 else 5)] = True
                    elif form < 4:  # 0.000ddd: X in -4..-1, no point among the digits
                        point = 17
                        row[_ZEROS:_ZEROS + 1 - (form - 4)] = True
                    else:
                        point = form - 3  # X + 1 digits before the point
                    row[_FIRST:_FIRST + (k if form < 4 else point)] = True
                    if k > point:
                        row[_POINT] = True
                        row[_SECOND + point:_SECOND + k] = True
    return _readonly(masks.reshape(-1, width))


@lru_cache(maxsize=None)
def _texts() -> dict[str, np.ndarray]:
    """Tables that depend on nothing: digit groups, their trailing zeros, exponent texts."""
    exps = [(b"e%+03d" % x).ljust(5) for x in range(_EXP_MIN, _EXP_MAX + 1)]
    return {
        "groups": np.frombuffer(b"".join(b"%04d" % g for g in range(10000)), dtype=np.uint32),
        "trailing": _readonly(np.array([4] + [len(s) - len(s.rstrip("0"))
                                              for s in ("%04d" % g for g in range(1, 10000))])),
        "exps": np.frombuffer(b"".join(e[:4] for e in exps), dtype=np.uint32),
        "exp_last": np.frombuffer(b"".join(e[4:] for e in exps), dtype=np.uint8),
    }


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|v| * 10^(16 - X) as the double-double p + q."""
    hi, hi_hi, hi_lo, lo, shift = _powers()
    j = 16 - _J_MIN - x
    vs = np.ldexp(a, shift[j])
    p = vs * hi[j]
    c = vs * 134217729.0
    vh = c - (c - vs)
    vl = vs - vh
    err = ((vh * hi_hi[j] - p) + vh * hi_lo[j] + vl * hi_hi[j]) + vl * hi_lo[j]
    return p, err + vs * lo[j]


def _undecided(values: np.ndarray) -> tuple[list[int], list[int]]:
    """Digits and exponents of values whose rounding the vector path leaves open."""
    texts = ["%.16e" % v for v in values.tolist()]
    return [int(s[0] + s[2:18]) for s in texts], [int(s[19:]) for s in texts]


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D and X of finite positive values: |v| rounds to D * 10^(X-16), 10^16 <= D < 10^17."""
    x = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, x)
    step = ((p - 1e17) + q >= 0).astype(np.int64) - ((p - 1e16) + q < 0)
    off = np.flatnonzero(step)
    if off.size:
        x[off] += step[off]
        p[off], q[off] = _scaled(a[off], x[off])
    whole = np.floor(q)
    frac = q - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    open_ = np.flatnonzero(np.abs(frac - 0.5) <= _MARGIN)
    if open_.size:
        d[open_], x[open_] = _undecided(a[open_])
    carry = d == 10**17
    d[carry] = 10**16
    x += carry
    return d, x


def format_rows(values: np.ndarray, seps: Sequence[bytes], out: bytearray) -> bytearray:
    """Append the text of a 2-D float64 table to out and return out.

    Each row is written as every value followed by the separator of its
    column (seps holds one non-empty bytes string per column).
    """
    texts = _texts()
    rows, cols = values.shape
    if rows * cols == 0:
        return out
    # A value's slots are padded to whole 4-byte words, so that every word
    # of a row stays aligned.
    sep_len = np.array([len(s) for s in seps], dtype=np.int64)
    width = -(-(_BODY + int(sep_len.max())) // 4) * 4
    masks = _masks(width)
    span = max(1, _CHUNK_VALUES // cols)

    # The constant bytes of every row.
    slots = np.zeros((min(span, rows), cols * width), dtype=np.uint8)
    cells = slots.reshape(-1, cols, width)
    cells[:, :, _SIGN] = ord("-")
    cells[:, :, _ZEROS:_FIRST] = np.frombuffer(b"0.000", dtype=np.uint8)
    cells[:, :, _POINT] = ord(".")
    for c, sep in enumerate(seps):
        cells[:, c, _BODY:_BODY + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    words = slots.view(np.uint32).reshape(-1, cols, width // 4)
    keep = np.zeros((min(span, rows), cols * width), dtype=bool)
    kept = keep.reshape(-1, cols, width)
    # A column's block of mask rows, by the length of its separator.
    sep_block = (sep_len - 1) * (2 * _FORMS * 17)

    for start in range(0, rows, span):
        v = values[start:start + span]
        n = v.shape[0]
        v = v.reshape(-1)
        a = np.abs(v)
        regular = (a > 0) & (a < math.inf)
        special = np.flatnonzero(~regular)
        if not special.size:
            d, x = _digits(a)
        else:  # zeros, infinities and NaN: D = 0 and X = 0, respelled below
            d, x = np.zeros(a.size, dtype=np.int64), np.zeros(a.size, dtype=np.int64)
            at = np.flatnonzero(regular)
            d[at], x[at] = _digits(a[at])
        form = np.where((x < -4) | (x > 16), np.where((x <= -100) | (x >= 100), _SCI3, _SCI2),
                        x + 4)

        # D as its first digit and four groups of four, and its count k of
        # significant digits (1 for D = 0).
        top, low = np.divmod(d, 10**8)
        first, high = np.divmod(top, 10**8)
        groups = [*np.divmod(high, 10**4), *np.divmod(low, 10**4)]
        trailing = texts["trailing"]
        tz = trailing[groups[3]]
        zero = groups[3] == 0
        for group in groups[2::-1]:
            tz += zero * trailing[group]
            zero &= group == 0
        k = 17 - tz

        cell, word = cells[:n], words[:n]
        cell[:, :, _FIRST] = (first + ord("0")).reshape(n, cols)
        for i, group in enumerate(groups):
            text = texts["groups"].take(group).reshape(n, cols)
            word[:, :, _FIRST // 4 + 1 + i] = text
            word[:, :, _SECOND // 4 + 1 + i] = text
        x_at = x - _EXP_MIN
        word[:, :, _EXP // 4] = texts["exps"].take(x_at).reshape(n, cols)
        cell[:, :, _EXP + 4] = texts["exp_last"].take(x_at).reshape(n, cols)

        if special.size:
            a_s = a[special]
            form[special] = np.where(a_s == 0, _ZERO, np.where(a_s == math.inf, _INF, _NAN))
            for f, spelled in _SPELLINGS.items():
                at = special[form[special] == f]
                cell[at // cols, at % cols, _FIRST:_FIRST + len(spelled)] = \
                    np.frombuffer(spelled, dtype=np.uint8)

        cls = (np.signbit(v) * _FORMS + form) * 17 + (k - 1)
        kept[:n] = masks.take(cls.reshape(n, cols) + sep_block, axis=0)
        out += np.compress(keep[:n].reshape(-1), slots[:n].reshape(-1)).data
    return out
