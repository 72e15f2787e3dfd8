"""Hypothesis strategies shared by the library-law tests: grid sizes and
lengths, unit systems, branches, times, random states and Gaussian packets."""
import math

import numpy as np
from hypothesis import settings, strategies as st

from kg_lab import (DispersionKind, PacketSpec, UnitSystem, from_coefficients, make_grid,
                    unphysical_negative_branch)
from kg_lab.states import SUPPORT_SIGMAS

KG = DispersionKind.KLEIN_GORDON_POSITIVE
NR = DispersionKind.SCHRODINGER
KINDS = (KG, unphysical_negative_branch(), NR)
# A law property runs 50 examples, half of hypothesis's default, to keep the suite fast.
laws = settings(max_examples=50)


def grids(sizes=tuple(2**p for p in range(3, 13)), lengths=st.floats(1.0, 1000.0)):
    return st.builds(make_grid, st.sampled_from(sizes), lengths)


kinds = st.sampled_from(KINDS)
units = st.builds(UnitSystem, hbar=st.floats(0.1, 10.0), c=st.floats(0.1, 10.0),
                  m=st.floats(0.1, 10.0))
seeds = st.integers(0, 2**32 - 1)
STATE_GRIDS = grids()
# Times stay within the scale of the hand-picked evolution cases that the
# properties replaced, which reached t = 211.
T_MAX = 250.0
times = st.floats(-T_MAX, T_MAX)


@st.composite
def states(draw, kinds=kinds, band=0.25):
    """A normalized state with standard normal coefficients on the modes
    |j| < max(2, band n/2); band=1 fills every mode but the Nyquist line."""
    grid = draw(STATE_GRIDS)
    rng = np.random.default_rng(draw(seeds))
    j = np.arange(grid.n)
    active = np.minimum(j, grid.n - j) < max(2, int(band * grid.n / 2))
    a = np.zeros(grid.n, dtype=complex)
    a[active] = rng.standard_normal(active.sum()) + 1j * rng.standard_normal(active.sum())
    a /= math.sqrt(grid.length * np.vdot(a, a).real)
    return from_coefficients(grid, draw(units), draw(kinds), a)


@st.composite
def packets(draw, sizes=tuple(2**p for p in range(8, 13))):
    """A packet and its grid: far inside a wide box, or at the support rule's edge."""
    n = draw(st.sampled_from(sizes))
    length = draw(st.floats(1.0, 1e4))
    dx = length / n
    if draw(st.booleans()):
        # The box is wider than 120 sigma, so the envelope underflows to 0.0
        # more than 55 sigma from the center.
        sigma = dx * draw(st.floats(2.0, n / 120.0))
        x0 = draw(st.floats(-1.0, 1.0)) * (0.5 * length - 1.01 * SUPPORT_SIGMAS * sigma)
    else:
        # |x0| + SUPPORT_SIGMAS sigma just inside L/2: the envelope is about
        # NYQUIST_TOLERANCE at the nearer end of the grid.
        reach = 0.5 * length * (1.0 - draw(st.floats(1e-12, 1e-3)))
        sigma = dx * draw(st.floats(2.0, reach / (SUPPORT_SIGMAS * dx)))
        x0 = draw(st.sampled_from([-1.0, 1.0])) * max(0.0, reach - SUPPORT_SIGMAS * sigma)
    # Five spectral widths inside the bandwidth keep the Nyquist mode empty.
    k0 = draw(st.floats(-1.0, 1.0)) * (math.pi / dx - 5.0 / sigma)
    return PacketSpec(x0, k0, sigma), make_grid(n, length)
