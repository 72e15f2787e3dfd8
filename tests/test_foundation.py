import numpy as np
import pytest
from hypothesis import given, strategies as st

from kg_lab import BandwidthError, UnitSystem, make_grid
from kg_lab.foundation import (
    LATTICE_TOLERANCE,
    check_bandwidth,
    forward_transform,
    inverse_transform,
    nyquist_fraction,
    spectral_derivative,
    spectral_norm_sq,
    state_norm,
)
from strategies import grids, laws, seeds

# The grid layout law draws the widest grids make_grid admits.
WIDE_GRIDS = grids(tuple(2**p for p in range(3, 17)), st.floats(1e-3, 1e6))


def _values(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)


def test_unit_system_basic():
    u = UnitSystem(hbar=1.0, c=1.0, m=4.0)
    assert u.rest_omega == 4.0
    assert u.compton_wavenumber == 4.0
    n = UnitSystem.natural()
    assert (n.hbar, n.c, n.m) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_unit_system_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        UnitSystem(hbar=bad, c=1.0, m=1.0)
    with pytest.raises(ValueError):
        UnitSystem(hbar=1.0, c=bad, m=1.0)
    with pytest.raises(ValueError):
        UnitSystem(hbar=1.0, c=1.0, m=bad)


def test_grid_layout_small_example():
    g = make_grid(8, 8.0)
    assert g.dx == 1.0
    np.testing.assert_array_equal(g.points, np.arange(-4.0, 4.0))
    # FFT ordering: j = 0..3 then -4..-1, scaled by 2*pi/L.
    expected = 2.0 * np.pi / 8.0 * np.array([0, 1, 2, 3, -4, -3, -2, -1], dtype=float)
    np.testing.assert_allclose(g.wavenumbers, expected, rtol=0, atol=1e-15)
    assert g.nyquist_index == 4


@given(WIDE_GRIDS)
def test_grid_wavenumber_symmetry(grid):
    # The layout: x_i = -L/2 + i L/n on [-L/2, L/2), the Nyquist mode at n/2.
    n, length, k = grid.n, grid.length, grid.wavenumbers
    half = n // 2
    assert grid.dx == length / n and grid.nyquist_index == half
    assert np.array_equal(grid.points, -0.5 * length + (length / n) * np.arange(n))
    assert grid.points[0] == -0.5 * length and grid.points[-1] < 0.5 * length
    # k_{n-j} = -k_j bit for bit, so every function even in k is mirrored exactly.
    assert np.array_equal(k[half + 1:].view(np.uint64), (-k[half - 1:0:-1]).view(np.uint64))
    assert k[0] == 0.0
    # The Nyquist mode -n/2 is the one without a +n/2 partner.
    assert k[half] == -(2.0 * np.pi / length) * half
    assert np.count_nonzero(np.abs(k) == np.abs(k[half])) == 1


@pytest.mark.parametrize("n", [7, 12, 1000, 4])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        make_grid(n, 10.0)


@pytest.mark.parametrize("length", [0.0, -5.0, float("nan")])
def test_grid_rejects_bad_length(length):
    with pytest.raises(ValueError):
        make_grid(16, length)


def test_grid_arrays_are_read_only():
    g = make_grid(16, 10.0)
    with pytest.raises(ValueError):
        g.points[0] = 0.0
    with pytest.raises(ValueError):
        g.wavenumbers[0] = 1.0


@laws
@given(grids(), st.floats(-1.0, 1.0))
def test_wavenumber_index_lookup(grid, fraction):
    # k_j maps back to position j mod n, also off the lattice by half the
    # tolerance; twice the tolerance off it, or at |j| >= n/2, k is rejected.
    # The Nyquist line -n/2 carries an ambiguous sign, so it is not addressable.
    half = grid.n // 2
    j = int(fraction * (half - 1)) % grid.n
    k = grid.wavenumbers[j]
    slack = LATTICE_TOLERANCE * (1.0 + abs(k))
    assert grid.wavenumber_index(k) == grid.wavenumber_index(k + 0.5 * slack) == j
    dk = 2.0 * np.pi / grid.length
    for off in (k + 2.0 * slack, k - 2.0 * slack, k + 0.5 * dk, half * dk, -half * dk):
        with pytest.raises(BandwidthError):
            grid.wavenumber_index(off)


@laws
@given(grids(), seeds)
def test_round_trip_identity(grid, seed):
    # The pair inverts itself and is a Parseval isometry: sum |psi|^2 dx = L sum |a|^2.
    v = _values(grid, seed)
    a = forward_transform(grid, v)
    assert np.max(np.abs(inverse_transform(grid, a) - v)) <= 1e-12 * np.max(np.abs(v))
    assert abs(state_norm(grid, v) - spectral_norm_sq(grid, a)) <= 1e-10 * state_norm(grid, v)


@pytest.mark.parametrize("j", [0, 1, 5, -3, -15])
def test_plane_wave_maps_to_single_coefficient(j):
    g = make_grid(32, 17.0)
    k = 2.0 * np.pi / 17.0 * j
    a = forward_transform(g, np.exp(1j * k * g.points))
    idx = j % 32
    assert abs(a[idx] - 1.0) <= 1e-14
    rest = np.abs(np.delete(a, idx))
    assert np.max(rest) <= 1e-14


scalars = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)


@laws
@given(grids(), seeds, scalars, scalars)
def test_transform_linearity(grid, seed, alpha, beta):
    v, w = _values(grid, seed), _values(grid, seed + 1)
    lhs = forward_transform(grid, alpha * v + beta * w)
    rhs = alpha * forward_transform(grid, v) + beta * forward_transform(grid, w)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13 * np.max(np.abs(rhs)))


def test_transform_length_mismatch():
    g = make_grid(16, 10.0)
    with pytest.raises(ValueError):
        forward_transform(g, np.zeros(8, dtype=complex))
    with pytest.raises(ValueError):
        inverse_transform(g, np.zeros(32, dtype=complex))


def test_spectral_derivative_of_sine():
    g = make_grid(128, 2.0 * np.pi)
    k = 3.0
    f = np.sin(k * g.points)
    df = spectral_derivative(g, f)
    assert df.dtype.kind == "f"
    np.testing.assert_allclose(df, k * np.cos(k * g.points), rtol=0, atol=1e-12)


def test_nyquist_fraction_and_check():
    g = make_grid(16, 10.0)
    a = np.zeros(16, dtype=complex)
    a[8] = 1.0
    assert nyquist_fraction(g, a) == 1.0
    with pytest.raises(BandwidthError):
        check_bandwidth(g, a)
    a[8] = 0.0
    a[1] = 1.0
    check_bandwidth(g, a)
