import numpy as np
import pytest
from hypothesis import given, strategies as st

from kg_lab import BandwidthError, UnitSystem, make_grid
from kg_lab.foundation import (
    check_bandwidth,
    forward_transform,
    inverse_transform,
    nyquist_fraction,
    spectral_derivative,
    spectral_norm_sq,
    state_norm,
)


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


@given(n=st.sampled_from([2**p for p in range(3, 17)]), length=st.floats(1e-3, 1e6))
def test_grid_wavenumber_symmetry(n, length):
    k = make_grid(n, length).wavenumbers
    half = n // 2
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


def test_grid_points_start_at_left_edge():
    g = make_grid(32, 13.0)
    assert g.points[0] == -6.5
    np.testing.assert_allclose(np.diff(g.points), g.dx, rtol=1e-15)


def test_grid_arrays_are_read_only():
    g = make_grid(16, 10.0)
    with pytest.raises(ValueError):
        g.points[0] = 0.0
    with pytest.raises(ValueError):
        g.wavenumbers[0] = 1.0


def test_wavenumber_index_lookup():
    g = make_grid(64, 100.0)
    dk = 2.0 * np.pi / 100.0
    assert g.wavenumber_index(0.0) == 0
    assert g.wavenumber_index(5 * dk) == 5
    assert g.wavenumber_index(-3 * dk) == 61
    with pytest.raises(BandwidthError):
        g.wavenumber_index(5.5 * dk)
    with pytest.raises(BandwidthError):
        g.wavenumber_index(40 * dk)
    # Nyquist line carries an ambiguous sign, so it is not addressable.
    with pytest.raises(BandwidthError):
        g.wavenumber_index(-32 * dk)


def test_round_trip_identity():
    rng = np.random.default_rng(11)
    for n in (16, 128, 1024):
        g = make_grid(n, 37.0)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = inverse_transform(g, forward_transform(g, v))
        err = np.max(np.abs(w - v)) / np.max(np.abs(v))
        assert err <= 1e-12


def test_forward_transform_normalization():
    g = make_grid(32, 20.0)
    a = forward_transform(g, np.ones(32, dtype=complex))
    assert abs(a[0] - 1.0) <= 1e-14
    assert np.max(np.abs(a[1:])) <= 1e-14


@pytest.mark.parametrize("j", [0, 1, 5, -3, -15])
def test_plane_wave_maps_to_single_coefficient(j):
    g = make_grid(32, 17.0)
    k = 2.0 * np.pi / 17.0 * j
    a = forward_transform(g, np.exp(1j * k * g.points))
    idx = j % 32
    assert abs(a[idx] - 1.0) <= 1e-13
    rest = np.abs(np.delete(a, idx))
    assert np.max(rest) <= 1e-13


def test_transform_linearity():
    rng = np.random.default_rng(5)
    g = make_grid(64, 9.0)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    lhs = forward_transform(g, 2.0 * v + (1.0 - 3.0j) * w)
    rhs = 2.0 * forward_transform(g, v) + (1.0 - 3.0j) * forward_transform(g, w)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13 * np.max(np.abs(rhs)))


def test_transform_length_mismatch():
    g = make_grid(16, 10.0)
    with pytest.raises(ValueError):
        forward_transform(g, np.zeros(8, dtype=complex))
    with pytest.raises(ValueError):
        inverse_transform(g, np.zeros(32, dtype=complex))


def test_norms_agree():
    rng = np.random.default_rng(42)
    g = make_grid(256, 55.0)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    a = forward_transform(g, v)
    assert abs(state_norm(g, v) - spectral_norm_sq(g, a)) <= 1e-10 * state_norm(g, v)


def test_spectral_derivative_of_sine():
    g = make_grid(128, 2.0 * np.pi)
    k = 3.0
    f = np.sin(k * g.points)
    df = spectral_derivative(g, f)
    assert df.dtype.kind == "f"
    np.testing.assert_allclose(df, k * np.cos(k * g.points), rtol=0, atol=1e-12)


def test_spectral_derivative_second_order():
    g = make_grid(128, 2.0 * np.pi)
    f = np.cos(2.0 * g.points)
    d2 = spectral_derivative(g, spectral_derivative(g, f))
    np.testing.assert_allclose(d2, -4.0 * f, rtol=0, atol=1e-11)


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
