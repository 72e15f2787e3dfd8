import numpy as np
import pytest

from kg_lab import (
    BranchError,
    DispersionKind,
    GammaStats,
    KindError,
    ModeSet,
    UnitSystem,
    gamma_of_omega,
    gamma_of_state,
    gaussian_packet,
    group_velocity,
    make_grid,
    omega,
    superposition,
    unphysical_negative_branch,
)
from kg_lab.states import PacketSpec

KG = DispersionKind.KLEIN_GORDON_POSITIVE
NR = DispersionKind.SCHRODINGER


def test_frozen_point_values(units_m4):
    # k = 3, m = 4 in hbar = c = 1 units sits on a 3-4-5 triangle.
    assert omega(KG, 3.0, units_m4) == pytest.approx(5.0, abs=1e-12)
    assert group_velocity(KG, 3.0, units_m4) == pytest.approx(0.6, abs=1e-12)
    assert gamma_of_omega(5.0, units_m4) == pytest.approx(1.25, abs=1e-12)
    assert omega(unphysical_negative_branch(), 3.0, units_m4) == pytest.approx(-5.0, abs=1e-12)


def test_schrodinger_branch(natural):
    assert omega(NR, 2.0, natural) == pytest.approx(2.0, abs=1e-12)
    assert group_velocity(NR, 2.0, natural) == pytest.approx(2.0, abs=1e-12)
    u = UnitSystem(hbar=2.0, c=1.0, m=4.0)
    assert omega(NR, 3.0, u) == pytest.approx(2.0 * 9.0 / 8.0, rel=1e-12)


def test_omega_parity(natural):
    ks = np.linspace(-8.0, 8.0, 33)
    w = omega(KG, ks, natural)
    np.testing.assert_allclose(w, w[::-1], rtol=1e-14)
    v = group_velocity(KG, ks, natural)
    np.testing.assert_allclose(v, -v[::-1], rtol=0, atol=1e-14)


def test_group_velocity_matches_finite_difference(natural):
    # Independent check: centered difference of the frequency curve.
    h = 1e-4
    for k in (0.3, 1.0, 4.0, 25.0):
        fd = (omega(KG, k + h, natural) - omega(KG, k - h, natural)) / (2.0 * h)
        vg = group_velocity(KG, k, natural)
        assert abs(vg - fd) <= 1e-6 * abs(vg)


def test_group_velocity_subluminal(natural):
    ks = np.linspace(0.0, 1000.0, 2001)
    v = group_velocity(KG, ks, natural)
    assert np.all(np.abs(v) < natural.c)
    assert natural.c - v[-1] <= 1e-6 * natural.c


def test_nonrelativistic_frequency_limit(natural):
    # Above the rest plateau the positive branch approaches hbar k^2 / 2m
    # from below, with relative deviation of order (hbar k / m c)^2 / 4.
    ks = np.linspace(1e-3, 0.1, 50)
    kg = omega(KG, ks, natural) - natural.rest_omega
    nr = omega(NR, ks, natural)
    rel = np.abs(kg - nr) / nr
    bound = 1.1 * (natural.hbar * ks / (natural.m * natural.c)) ** 2 / 4.0
    assert np.all(rel <= bound)


def test_negative_branch_has_no_group_velocity(natural):
    with pytest.raises(BranchError):
        group_velocity(unphysical_negative_branch(), 1.0, natural)


def test_gamma_rejects_below_rest_frequency(natural):
    with pytest.raises(ValueError):
        gamma_of_omega(0.5, natural)
    assert gamma_of_omega(natural.rest_omega, natural) == pytest.approx(1.0, abs=1e-12)


def test_gamma_monotone_in_wavenumber(natural):
    ks = np.linspace(0.0, 10.0, 64)
    g = gamma_of_omega(omega(KG, ks, natural), natural)
    assert np.all(np.diff(g) > 0)


def test_gamma_stats_two_modes():
    # Two equal-weight modes with Lorentz factors 1 and 1.5. The mass is
    # tuned so the second lattice line lands exactly on gamma = 1.5:
    # gamma = sqrt(1 + (k/mc)^2) = 1.5 when m = k / sqrt(1.25).
    grid = make_grid(64, 40.0)
    k2 = grid.wavenumbers[10]
    units = UnitSystem(hbar=1.0, c=1.0, m=k2 / np.sqrt(1.25))
    amp = np.sqrt(0.5)
    state = superposition(ModeSet([(amp, 0.0), (amp, k2)]), grid, units, KG)
    stats = gamma_of_state(state)
    assert isinstance(stats, GammaStats)
    assert stats.gamma_bar == pytest.approx(1.25, abs=1e-12)
    assert stats.gamma_spread == pytest.approx(0.25, abs=1e-12)
    assert stats.relative_spread == pytest.approx(0.2, abs=1e-12)


def test_gamma_of_packet_matches_weighted_sum(natural, grid400):
    state = gaussian_packet(PacketSpec(x0=0.0, k0=5.0, sigma=10.0), grid400, natural, KG)
    stats = gamma_of_state(state)
    # Narrow spectrum: the mean Lorentz factor sits at the carrier value.
    assert abs(stats.gamma_bar - np.sqrt(26.0)) <= 1e-4

    # Independent oracle: direct weighted sum over the coefficient table.
    w = np.abs(state.coefficients) ** 2
    g = np.sqrt(1.0 + grid400.wavenumbers**2)
    gbar = np.sum(w * g) / np.sum(w)
    spread = np.sqrt(np.sum(w * (g - gbar) ** 2) / np.sum(w))
    assert abs(stats.gamma_bar - gbar) <= 1e-12
    assert abs(stats.gamma_spread - spread) <= 1e-12
    assert stats.gamma_spread > 0


def test_gamma_of_slow_packet_near_unity(natural, grid400):
    state = gaussian_packet(PacketSpec(0.0, 0.0, 20.0), grid400, natural, KG)
    stats = gamma_of_state(state)
    assert 1.0 < stats.gamma_bar < 1.001


def test_gamma_of_state_rejects_other_kinds(natural, grid400):
    for kind in (NR, unphysical_negative_branch()):
        state = gaussian_packet(PacketSpec(0.0, 1.0, 15.0), grid400, natural, kind)
        with pytest.raises(KindError):
            gamma_of_state(state)
