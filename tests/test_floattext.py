"""format_rows writes the bytes '%.17g' writes, for every float64.

The reference formats one value at a time with '%.17g' and spells
non-finite values NaN, Infinity and -Infinity. Raw bit patterns reach every
exponent, sign and payload, under arbitrary separators; tables of several
chunks reuse the slot buffer from chunk to chunk, with every notation in
any cell; the sweep pins the places where the vector path changes course
(powers of ten and two, subnormals, the switch between fixed and scientific
notation, the carry to 10^17); the near ties are the values the vector path
must hand to '%'.
"""
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kg_lab import _floattext
from kg_lab._floattext import format_rows
from strategies import notation_tables


def _ref(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _check(values, cols=1, seps=(b", ",)):
    table = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    text = bytearray(b"head\n")
    format_rows(table, seps, text.extend)
    expected = b"head\n" + b"".join(
        b"".join(_ref(v).encode() + sep for v, sep in zip(row, seps)) for row in table.tolist())
    assert text == expected


def _around(values, ulps=1):
    """The values and their float neighbours up to ulps steps on each side."""
    out = [np.asarray(values, dtype=np.float64)]
    for _ in range(ulps):
        out = [np.nextafter(out[0], -np.inf), *out, np.nextafter(out[-1], np.inf)]
    return np.concatenate(out)


# Any separator format_rows accepts: 1 to 3 bytes, NUL included.
separators = st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=9)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), separators)
def test_raw_bit_patterns_match_percent_17g(bits, seps):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[:values.size - values.size % len(seps)]
    _check(values, len(seps), seps)


@st.composite
def long_tables(draw):
    """A table of at least three chunks, one more partial, and its separators."""
    seps = draw(separators)
    return draw(notation_tables(len(seps), 3 * _floattext._CHUNK_VALUES)), seps


@settings(max_examples=10, deadline=None)
@given(long_tables())
def test_tables_of_several_chunks_match_percent_17g(table):
    values, seps = table
    assert values.size >= 3 * _floattext._CHUNK_VALUES
    _check(values, len(seps), seps)


def test_separators_are_checked():
    table, text = np.ones((2, 2)), bytearray()
    with pytest.raises(ValueError):
        format_rows(table, [b","], text.extend)
    with pytest.raises(ValueError):
        format_rows(table, [b",", b",", b"\n"], text.extend)
    for bad in (b"", b",,,,"):
        with pytest.raises(ValueError):
            format_rows(table, [b",", bad], text.extend)
    format_rows(table, [b",", b"; \n"], text.extend)
    assert text == b"1,1; \n1,1; \n"


def _carried(x):
    """Whether x lies below a power of ten that its 17 digits round up to."""
    if not (math.isfinite(x) and x > 0):
        return False
    digits, exponent = ("%.16e" % x).split("e")
    return digits == "1.0000000000000000" and Fraction(x) < Fraction(10) ** int(exponent)


def test_sweep_of_the_vector_path_edges_matches_percent_17g():
    powers_of_ten = _around([float(f"1e{e}") for e in range(-323, 309)])
    powers_of_two = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    subnormals = _around([5e-324, 1e-320, 2.5e-310, sys.float_info.min]
                         + [math.ldexp(k, -1074) for k in (2, 3, 7, 2**52 - 1)])
    switches = _around([1e-5, 1e-4, 1e16, 1e17], ulps=3)
    specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, sys.float_info.max]
    values = np.concatenate([powers_of_ten, powers_of_two, subnormals, switches, specials])
    values = np.concatenate([values, -values])
    # The sweep reaches the carry: values whose 17 digits round up to 10^X.
    assert sum(_carried(x) for x in values.tolist()) >= 10
    _check(values)
    _check(values[:values.size - values.size % 3], 3, (b",", b",", b"\n"))


def _near_ties():
    """Doubles in [1, 2) whose 17th digit is rounded from within _MARGIN of a tie.

    For v = M 2^-52 the scaled value v 10^16 is M 5^16 / 2^36, so its
    fraction is (M 5^16 mod 2^36) / 2^36. The search walks offsets r from
    the tie, in steps of 2^-36, and returns two values for each: exact
    ties (r = 0) with both parities of the digit before the tie, and near
    ties on both sides, the farthest just inside the margin.
    """
    inverse = pow(5**16, -1, 2**36)
    found = []
    for r in (0, 1, -1, 68, -68):
        residue = (2**35 + r) * inverse % 2**36
        for m in (2**52 + residue, 2**52 + residue + 2**36):
            v = math.ldexp(m, -52)
            scaled = Fraction(v) * 10**16
            assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= _floattext._MARGIN
            found.append(v)
    return found


def test_near_ties_take_the_percent_fallback(monkeypatch):
    ties = _near_ties()
    assert len(ties) == 10
    taken = []
    undecided = _floattext._undecided

    def recording(values):
        taken.extend(values.tolist())
        return undecided(values)

    monkeypatch.setattr(_floattext, "_undecided", recording)
    values = [1.5, *ties, -ties[0], 0.1]
    _check(values)
    assert sorted(taken) == sorted(abs(v) for v in values[1:-1])
    # The exact ties round half to even, one down and one up.
    exact = [v for v in ties if (Fraction(v) * 10**16).denominator == 2]
    digits = [int(("%.16e" % v)[:18].replace(".", "")) for v in exact]
    assert [d % 2 for d in digits] == [0, 0]
    assert sorted(d - math.floor(Fraction(v) * 10**16) for d, v in zip(digits, exact)) == [0, 1]
