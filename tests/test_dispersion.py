import numpy as np
import pytest
from hypothesis import given, strategies as st

from kg_lab import (
    BranchError,
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
from strategies import KG, NR, kinds, laws, packets, units

# Wavenumbers in units of the Compton wavenumber m c / hbar.
ratios = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16).map(np.array)


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


@laws
@given(kinds, units, ratios)
def test_omega_parity(kind, u, s):
    # omega is even and v_g odd in k, bit for bit.
    k = s * u.compton_wavenumber
    assert np.array_equal(omega(kind, -k, u), omega(kind, k, u))
    if kind is not unphysical_negative_branch():
        assert np.array_equal(group_velocity(kind, -k, u), -group_velocity(kind, k, u))


@laws
@given(st.sampled_from([KG, NR]), units, st.floats(1e-2, 1e2), st.sampled_from([-1.0, 1.0]))
def test_group_velocity_matches_finite_difference(kind, u, s, sign):
    # Independent check: centered difference of the frequency curve, with a
    # step of 1e-4 Compton wavenumbers.
    h = 1e-4 * u.compton_wavenumber
    k = sign * s * u.compton_wavenumber
    fd = (omega(kind, k + h, u) - omega(kind, k - h, u)) / (2.0 * h)
    vg = group_velocity(kind, k, u)
    assert abs(vg - fd) <= 1e-6 * abs(vg)


@laws
@given(units, ratios)
def test_group_velocity_subluminal(u, s):
    # c - |v_g| = c omega0^2 / (omega (omega + c|k|)), at most c (mc/hbar k)^2 / 2.
    v = np.abs(group_velocity(KG, s * u.compton_wavenumber, u))
    assert np.all(v < u.c)
    assert np.all((u.c - v) * 2.0 * s**2 <= u.c * (1.0 + 1e-9))


@laws
@given(units, st.lists(st.floats(1e-3, 0.1), min_size=1, max_size=16).map(np.array))
def test_nonrelativistic_frequency_limit(u, s):
    # Above the rest plateau the positive branch approaches hbar k^2 / 2m
    # from below, with relative deviation of order (hbar k / m c)^2 / 4.
    k = s * u.compton_wavenumber
    kg = omega(KG, k, u) - u.rest_omega
    nr = omega(NR, k, u)
    assert np.all(np.abs(kg - nr) / nr <= 1.1 * s**2 / 4.0)


def test_negative_branch_has_no_group_velocity(natural):
    with pytest.raises(BranchError):
        group_velocity(unphysical_negative_branch(), 1.0, natural)


def test_gamma_rejects_below_rest_frequency(natural):
    with pytest.raises(ValueError):
        gamma_of_omega(0.5, natural)


@laws
@given(units, st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=16))
def test_gamma_monotone_in_wavenumber(u, steps):
    # k grows from 0 in steps of at least 1e-3 Compton wavenumbers: gamma
    # starts at 1 and rises strictly (omega is even, so this covers |k|).
    k = np.cumsum([0.0] + steps) * u.compton_wavenumber
    g = gamma_of_omega(omega(KG, k, u), u)
    assert g[0] == pytest.approx(1.0, abs=1e-15)
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
    assert stats.gamma_spread / stats.gamma_bar == pytest.approx(0.2, abs=1e-12)


@laws
@given(packets(), units)
def test_gamma_of_packet_matches_weighted_sum(packet, u):
    spec, grid = packet
    state = gaussian_packet(spec, grid, u, KG)
    stats = gamma_of_state(state)
    # Independent oracle: direct weighted sum over the coefficient table.
    w = np.abs(state.coefficients) ** 2
    g = np.sqrt(1.0 + (grid.wavenumbers / u.compton_wavenumber) ** 2)
    gbar = np.sum(w * g) / np.sum(w)
    spread = np.sqrt(np.sum(w * (g - gbar) ** 2) / np.sum(w))
    assert abs(stats.gamma_bar - gbar) <= 1e-13 * gbar
    assert abs(stats.gamma_spread - spread) <= 1e-13 * gbar
    assert stats.gamma_spread > 0


def test_gamma_of_state_rejects_other_kinds(natural, grid400):
    for kind in (NR, unphysical_negative_branch()):
        state = gaussian_packet(PacketSpec(0.0, 1.0, 15.0), grid400, natural, kind)
        with pytest.raises(KindError):
            gamma_of_state(state)
