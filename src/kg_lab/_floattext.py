"""Exact '%.17g' text of float64 tables, formed in numpy.

`format_rows` hands the text of a table, chunk of rows by chunk of rows,
to a write callable (a file's write, or a bytearray's extend), each value
of a row followed by its column's separator: no more than one chunk's
text is held at a time. A finite value is written exactly as
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
Zeros, infinities and NaN take the digits of a stand-in 1.0 and are then
given their own notation.

The text is then assembled in a fixed slot of _WIDTH bytes per value, laid
out so that the bytes '%.17g' writes form as few runs as possible:

- a prefix word: the sign, the notation and the first digit of D,
  right-aligned ("-d.", "-0.00d", "d", "NaN", "-Infinit");
- the other 16 digits of D, as four 4-digit groups;
- a tail word: the exponent and the separator ("e-05,") in scientific
  notation, the separator alone in fixed notation ("y," after "Infinit");
  for fixed notation its last byte holds the point;
- a second copy of the 16 digits and a second separator, which only fixed
  notation with X >= 1 keeps: the digits before its point come from the
  first copy, those after it from the second.

A value of 17 significant digits is then one run of kept bytes, unless it
is fixed with X >= 1 and has digits after the point (three runs); one of
fewer digits ends in a run of its own for the separator. A keep-mask per
value, taken from a table indexed by the separator's length, the notation,
the sign and the count of significant digits, selects those bytes, and one
boolean index per chunk of rows copies them, run by run, into the text.

The tables are built on first use, not at import.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .foundation import _readonly

# |r - 1/2| must clear this for the vector path to decide the rounding; the
# double-double error is under 5e-15, and the fraction's own under 2^-53.
_MARGIN = 1e-9

# Byte offsets in a value's slot: the prefix word, the first digit copy,
# the tail word (its last byte, _POINT, is the point of fixed notation),
# the second digit copy and the second separator, each written as one item.
_PREFIX, _FIRST, _TAIL, _SECOND, _SEP2, _WIDTH = 0, 8, 24, 32, 48, 56
_POINT = _SECOND - 1
_SLOT = np.dtype({"names": ["prefix", "first", "tail", "second", "sep2"],
                  "formats": ["<u8", "V16", "<u8", "V16", "<u4"],
                  "offsets": [_PREFIX, _FIRST, _TAIL, _SECOND, _SEP2], "itemsize": _WIDTH})
# The tail word holds up to 5 exponent bytes ("e-308") and the separator.
_MAX_SEP = 3

_EXP_MIN, _EXP_MAX = -324, 308  # the decimal exponents of nonzero doubles
# A value's row in the tables indexed by exponent: X - _EXP_MIN, or one of
# the rows past the exponents for the values spelled out.
_ZERO, _INF, _NAN = (_EXP_MAX - _EXP_MIN + 1 + i for i in range(3))
_ROWS = _NAN + 1

# Notation of a value, the middle index of a mask table: 0..20 fixed
# notation with exponent X = form - 4, then scientific notation with a two-
# or three-digit exponent, then the spelled-out values.
_SCI2, _SCI3, _FORM_ZERO, _FORM_INF, _FORM_NAN = 21, 22, 23, 24, 25
_FORMS = 26

# Values per chunk: a few hundred kB of slots and masks, which stay in cache;
# one chunk's text is the most that format_rows holds at a time.
_CHUNK_VALUES = 8192

_J_MIN, _J_MAX = -293, 341  # the 10^j that 16 - X reaches, X off by one included


@lru_cache(maxsize=None)
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """10^j = (hi + lo) * 2^F for j in [_J_MIN, _J_MAX]: rows (hi, hi_hi, hi_lo, lo),
    hi split for Dekker, and the exponents F."""
    from fractions import Fraction

    rows, shifts = [], []
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
        rows.append((hi, hi_hi, hi - hi_hi, lo))
        shifts.append(shift)
    # One row per j, so that one take gathers all four; int32 exponents, for
    # which np.ldexp is several times faster than for int64.
    return _readonly(np.array(rows)), _readonly(np.array(shifts, dtype=np.int32))


def _form(row: int) -> int:
    """The notation of a value's row."""
    if row >= _ZERO:
        return _FORM_ZERO + row - _ZERO
    x = row + _EXP_MIN
    if -4 <= x <= 16:
        return x + 4
    return _SCI3 if abs(x) >= 100 else _SCI2


def _prefix(neg: int, form: int, first: int) -> bytes:
    """The prefix text, up to the point that follows a first digit in X = 0 and
    scientific notation (the masks drop that point where no digit follows)."""
    spelled = {_FORM_ZERO: b"0", _FORM_INF: b"Infinit", _FORM_NAN: b"NaN"}
    if form == _FORM_NAN:
        return spelled[form]
    sign = b"-" if neg else b""
    if form in spelled:
        return sign + spelled[form]
    digit = b"%d" % first
    if form < 4:  # 0.000d: X in -4..-1
        return sign + b"0." + b"0" * (3 - form) + digit
    return sign + digit + (b"" if 4 < form < _SCI2 else b".")


def _tail(form: int, x: int) -> bytes:
    """The tail word's text before the separator."""
    if form in (_SCI2, _SCI3):
        return b"e%+03d" % x
    return b"y" if form == _FORM_INF else b""


@lru_cache(maxsize=None)
def _masks() -> np.ndarray:
    """Keep-masks for every (separator length, form, sign, significant digits)."""
    masks = np.zeros((_MAX_SEP, _FORMS, 2, 17, _WIDTH), dtype=bool)
    for sep in range(1, _MAX_SEP + 1):
        for form in range(_FORMS):
            tail = len(_tail(form, 100 if form == _SCI3 else 10))
            for neg in (0, 1):
                prefix = len(_prefix(neg, form, 1))
                for k in range(1, 18):
                    row = masks[sep - 1, form, neg, k - 1]
                    # A point ends the prefix only where a digit follows it.
                    row[_FIRST - prefix:_FIRST - (k == 1 and form in (4, _SCI2, _SCI3))] = True
                    if form >= _FORM_ZERO:
                        digits = 0
                    elif 4 < form < _SCI2:  # X >= 1: the X digits before the point
                        digits = form - 4
                    else:
                        digits = k - 1
                    row[_FIRST:_FIRST + digits] = True
                    if 4 < form < _SCI2 and k > digits + 1:  # digits after the point
                        row[_POINT] = True
                        row[_SECOND + digits:_SECOND + k - 1] = True
                        row[_SEP2:_SEP2 + sep] = True
                    else:
                        row[_TAIL:_TAIL + tail + sep] = True
    return _readonly(masks.reshape(-1, _WIDTH))


@lru_cache(maxsize=None)
def _texts() -> dict[str, np.ndarray]:
    """Tables that depend on no separator: the text of a 4-digit group and, for
    each of the four groups of D, the place of its last nonzero digit among
    the 16 (0 for a zero group); the prefix words; and per row the notation,
    the tail word before the separator and the separator's shift in it."""
    forms = [_form(row) for row in range(_ROWS)]
    tails = [_tail(form, row + _EXP_MIN) for row, form in enumerate(forms)]
    points = [b"" if form in (_SCI2, _SCI3) else b"." for form in forms]
    return {
        "groups": np.frombuffer(b"".join(b"%04d" % g for g in range(10000)), dtype=np.uint32),
        "last": _readonly(np.array([[0] + [4 * i + len(("%04d" % g).rstrip("0"))
                                          for g in range(1, 10000)] for i in range(4)])),
        "prefixes": np.frombuffer(b"".join(
            _prefix(neg, form, first).rjust(8, b"\0")
            for form in range(_FORMS) for neg in (0, 1) for first in range(10)), dtype="<u8"),
        "forms": _readonly(np.array(forms)),
        "tails": np.frombuffer(b"".join((t.ljust(7, b"\0") + p).ljust(8, b"\0")
                                        for t, p in zip(tails, points)), dtype="<u8"),
        "shifts": _readonly(np.array([8 * len(t) for t in tails], dtype="<u8")),
    }


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|v| * 10^(16 - X) as the double-double p + q."""
    table, shifts = _powers()
    j = 16 - _J_MIN - x
    vs = np.ldexp(a, shifts.take(j))
    hi, hi_hi, hi_lo, lo = table.take(j, axis=0).T
    p = vs * hi
    c = vs * 134217729.0
    vh = c - (c - vs)
    vl = vs - vh
    err = ((vh * hi_hi - p) + vh * hi_lo + vl * hi_hi) + vl * hi_lo
    return p, err + vs * lo


def _undecided(values: np.ndarray) -> tuple[list[int], list[int]]:
    """Digits and exponents of values whose rounding the vector path leaves open."""
    texts = ["%.16e" % v for v in values.tolist()]
    return [int(s[0] + s[2:18]) for s in texts], [int(s[19:]) for s in texts]


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D and X of finite positive values: |v| rounds to D * 10^(X-16), 10^16 <= D < 10^17."""
    x = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, x)
    # Only where p lies within 64 of 10^16 or 10^17, or beyond, can S need
    # another X or carry to 10^17 (|q| is under 20).
    edge = np.flatnonzero(np.abs(p - 5.5e16) >= 4.5e16 - 64)
    if edge.size:
        p_e, q_e = p.take(edge), q.take(edge)
        x_e = x.take(edge) + ((p_e - 1e17) + q_e >= 0) - ((p_e - 1e16) + q_e < 0)
        x[edge] = x_e
        p[edge], q[edge] = _scaled(a.take(edge), x_e)
    whole = np.rint(q)
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    open_ = np.flatnonzero(np.abs(q - whole) >= 0.5 - _MARGIN)
    if open_.size:
        d[open_], x[open_] = _undecided(a.take(open_))
    if edge.size:
        carry = edge[d.take(edge) == 10**17]
        d[carry] = 10**16
        x[carry] += 1
    return d, x


def format_rows(values: np.ndarray, seps: Sequence[bytes],
                write: Callable[[memoryview], object]) -> None:
    """Write the text of a 2-D float64 table through write, one chunk of rows per call.

    Each row is written as every value followed by the separator of its
    column: seps holds one bytes string of 1 to 3 bytes per column.
    """
    rows, cols = values.shape
    if len(seps) != cols:
        raise ValueError(f"{len(seps)} separators for {cols} columns")
    if not all(1 <= len(sep) <= _MAX_SEP for sep in seps):
        raise ValueError(f"separators must be 1 to {_MAX_SEP} bytes: {list(seps)!r}")
    if rows * cols == 0:
        return
    texts = _texts()
    groups, last, forms = texts["groups"], texts["last"], texts["forms"]
    masks, prefixes = _masks(), texts["prefixes"]
    span = max(1, _CHUNK_VALUES // cols)

    # Each column's tail words, and its block of mask rows.
    sep_words = np.array([int.from_bytes(sep, "little") for sep in seps], dtype="<u8")
    tails = (texts["tails"] | (sep_words[:, None] << texts["shifts"])).reshape(-1)
    tail_at = np.arange(cols) * _ROWS
    sep_block = (np.array([len(sep) for sep in seps]) - 1) * (2 * _FORMS * 17)

    # The second separators are the only constant bytes of a slot.
    slots = np.zeros((min(span, rows), cols * _WIDTH), dtype=np.uint8)
    cells = slots.view(_SLOT).reshape(-1, cols)
    cells["sep2"] = sep_words
    digits = np.empty((min(span, rows) * cols, 4), dtype=np.uint32)
    keep = np.zeros((min(span, rows), cols * _WIDTH), dtype=bool)

    for start in range(0, rows, span):
        v = values[start:start + span]
        n = v.shape[0]
        v = v.reshape(-1)
        a = np.abs(v)
        special = np.flatnonzero(~((a > 0) & (a < np.inf)))
        if special.size:  # zeros, infinities and NaN: the digits of 1.0, respelled below
            a_s = a[special]
            a[special] = 1.0
        d, x = _digits(a)
        row = x - _EXP_MIN
        if special.size:
            row[special] = np.where(a_s == 0, _ZERO, np.where(a_s == np.inf, _INF, _NAN))

        # D as its first digit and four groups of four, and the count of its
        # significant digits after the first.
        top = d // 10**8
        low = d - top * 10**8
        first = top // 10**8
        high = top - first * 10**8
        g0, g2 = high // 10**4, low // 10**4
        text = digits[:n * cols]
        after = last[0].take(g0)
        for i, group in enumerate((g0, high - g0 * 10**4, g2, low - g2 * 10**4)):
            text[:, i] = groups.take(group)
            if i:
                np.maximum(after, last[i].take(group), out=after)

        cell = cells[:n]
        cls = forms.take(row) * 2 + np.signbit(v)
        cell["prefix"] = prefixes.take(cls * 10 + first).reshape(n, cols)
        cell["first"] = cell["second"] = text.view("V16").reshape(n, cols)
        cell["tail"] = tails.take(row.reshape(n, cols) + tail_at)

        cls *= 17
        cls += after
        # Every index is in range; mode "raise" would copy through a buffer.
        masks.take(cls.reshape(n, cols) + sep_block, axis=0,
                   out=keep[:n].reshape(n, cols, -1), mode="clip")
        write(slots[:n].reshape(-1)[keep[:n].reshape(-1)].data)
