import dataclasses
import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kg_lab import (
    BandwidthError,
    DispersionKind,
    KindError,
    ModeSet,
    UnitSystem,
    evolve,
    from_coefficients,
    gaussian_packet,
    make_grid,
    moments,
    rest_phase_strip,
    superposition,
    unphysical_negative_branch,
)
from kg_lab.foundation import forward_transform, state_norm
from kg_lab.states import SUPPORT_SIGMAS, PacketSpec
from strategies import KG, grids, kinds, laws, packets, states, times, units

# The rule tests sit a relative margin inside (-1) or outside (+1) of the
# rule's boundary, on grids wide enough for a packet of sigma >= 2 dx.
margins = st.floats(1e-9, 1e-2)
sides = st.sampled_from([-1.0, 1.0])
RULE_GRIDS = grids(tuple(2**p for p in range(8, 13)))
NATURAL = UnitSystem.natural()


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(0.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        PacketSpec(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PacketSpec(float("nan"), 1.0, 1.0)
    for name in ("x0", "k0", "sigma"):  # an int too large for a float
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            PacketSpec(**{"x0": 0.0, "k0": 1.0, "sigma": 2.0, name: 10**400})


@laws
@given(RULE_GRIDS, st.floats(0.2, 1.0), margins, sides)
def test_packet_support_rule(grid, share, margin, side):
    # |x0| + 9.6 sigma must fit inside the half box. A packet that reaches a
    # margin short of the seam builds; one that reaches past it is rejected
    # before the band-limit check, which its seam tail would fail.
    assert SUPPORT_SIGMAS == pytest.approx(9.597, abs=1e-3)
    reach = 0.5 * grid.length * (1.0 + side * margin)
    sigma = share * reach / SUPPORT_SIGMAS
    spec = PacketSpec(-side * (reach - SUPPORT_SIGMAS * sigma), 0.0, sigma)
    with pytest.raises(BandwidthError, match="packet support") if side > 0 else nullcontext():
        gaussian_packet(spec, grid, NATURAL, KG)


@laws
@given(RULE_GRIDS, st.floats(0.1, 1.0), margins, sides)
def test_packet_bandwidth_rule(grid, share, margin, side):
    # |k0| + 2/sigma must stay below the grid bandwidth pi n / L.
    reach = np.pi * grid.n / grid.length * (1.0 + side * margin)
    sigma = 2.0 / (share * reach)
    spec = PacketSpec(0.0, side * (reach - 2.0 / sigma), sigma)
    with pytest.raises(BandwidthError, match="spectral support") if side > 0 else nullcontext():
        spec.validate_on(grid)


@laws
@given(packets())
def test_packet_norm_and_moments(packet):
    # Unit norm, also as moments reads it, centroid x0 and variance sigma^2;
    # spectral center k0 and spectral width 1 / (2 sigma).
    spec, grid = packet
    state = gaussian_packet(spec, grid, NATURAL, KG)
    assert abs(state_norm(grid, state.values) - 1.0) <= 1e-10
    m = moments(state.density_nonrel, grid)
    assert abs(m.norm - 1.0) <= 1e-12
    assert abs(m.centroid - spec.x0) <= grid.dx / 10.0
    assert abs(m.variance - spec.sigma**2) <= 1e-6 * spec.sigma**2
    w = np.abs(state.coefficients) ** 2
    k = grid.wavenumbers
    k_mean = np.sum(w * k) / np.sum(w)
    k_spread = np.sqrt(np.sum(w * (k - k_mean) ** 2) / np.sum(w))
    width = 0.5 / spec.sigma
    assert abs(k_mean - spec.k0) <= 1e-6 * max(abs(spec.k0), width)
    assert abs(k_spread - width) <= 0.01 * width


def test_state_arrays_immutable(natural, grid400):
    state = gaussian_packet(PacketSpec(0.0, 3.0, 10.0), grid400, natural, KG)
    assert state.values is state.values  # derived once, then kept
    with pytest.raises(ValueError):
        state.values[0] = 0.0
    with pytest.raises(ValueError):
        state.coefficients[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.time = 1.0


def test_state_rejects_unnormalized(natural):
    grid = make_grid(64, 20.0)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = 1.0  # norm L * |a|^2 = 20, not 1
    with pytest.raises(ValueError):
        from_coefficients(grid, natural, KG, coeffs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_rejects_non_finite_coefficients(natural, bad):
    # NaN compares False against every tolerance; the checks must still fail.
    grid = make_grid(64, 20.0)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = 1.0 / np.sqrt(20.0)
    coeffs[5] = bad
    with pytest.raises(ValueError, match="norm"):
        from_coefficients(grid, natural, KG, coeffs)
    coeffs[5] = 0.0
    coeffs[32] = np.nan  # NaN in the Nyquist mode itself
    with pytest.raises(ValueError, match="^state norm must be 1, got nan$"):
        from_coefficients(grid, natural, KG, coeffs)


def test_state_rejects_nyquist_weight(natural):
    grid = make_grid(64, 20.0)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[32] = 1.0 / np.sqrt(20.0)
    with pytest.raises(BandwidthError):
        from_coefficients(grid, natural, KG, coeffs)


def test_mode_set_validation():
    with pytest.raises(ValueError):
        ModeSet([])
    with pytest.raises(ValueError):
        ModeSet([(0.5, 1.0), (0.5, 2.0)])  # sum of squares 0.5
    with pytest.raises(ValueError):
        ModeSet([(np.sqrt(0.5), 1.0), (np.sqrt(0.5), 1.0)])  # duplicate k
    for amplitude in (1e300, 1e200j, complex(1e308, 1e308)):  # |a|^2 overflows to inf
        with pytest.raises(ValueError, match=r"\(unitarity\), got inf$"):
            ModeSet([(amplitude, 0.0)])
    for mode in ((1.0, 10**400), (10**400, 0.0)):  # an int too large for a float
        with pytest.raises(ValueError, match="must be finite$"):
            ModeSet([mode])
    assert ModeSet([(0.6, 0), (0.8j, 2.0)]).modes == ((0.6 + 0j, 0.0), (0.8j, 2.0))


@laws
@given(grids(), units, kinds, st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi))
def test_single_mode_superposition_is_uniform(grid, u, kind, fraction, phase):
    # A lattice mode a e^{i k_j x} is the one coefficient a / sqrt(L) at j mod n.
    j = int(fraction * (grid.n // 2 - 1)) % grid.n
    amp = complex(math.cos(phase), math.sin(phase))
    state = superposition(ModeSet([(amp, grid.wavenumbers[j])]), grid, u, kind)
    expected = np.zeros(grid.n, dtype=complex)
    expected[j] = amp / math.sqrt(grid.length)
    assert np.array_equal(state.coefficients, expected)
    np.testing.assert_allclose(state.density_nonrel, 1.0 / grid.length, rtol=1e-12)


def test_two_mode_superposition_beats(natural):
    grid = make_grid(256, 80.0)
    k1, k2 = grid.wavenumbers[3], grid.wavenumbers[8]
    amp = np.sqrt(0.5)
    state = superposition(ModeSet([(amp, k1), (amp, k2)]), grid, natural, KG)
    expected = (1.0 + np.cos((k2 - k1) * grid.points)) / 80.0
    np.testing.assert_allclose(state.density_nonrel, expected, rtol=0, atol=1e-14)


def test_superposition_rejects_off_lattice(natural):
    grid = make_grid(64, 20.0)
    with pytest.raises(BandwidthError):
        superposition(ModeSet([(1.0, 1.05)]), grid, natural, KG)


def test_superposition_rejects_nyquist(natural):
    grid = make_grid(64, 20.0)
    k_nyq = np.pi * 64 / 20.0
    with pytest.raises(BandwidthError):
        superposition(ModeSet([(1.0, k_nyq)]), grid, natural, KG)


@laws
@given(states(st.just(KG)), times)
def test_rest_phase_strip(state, t):
    # At t = 0 stripping is the identity.
    np.testing.assert_array_equal(rest_phase_strip(state).values, state.values)

    evolved = evolve(state, t).state
    stripped = rest_phase_strip(evolved)
    phase = np.exp(1j * state.units.rest_omega * t)
    np.testing.assert_allclose(stripped.values, evolved.values * phase, rtol=1e-14)
    assert stripped.time == evolved.time
    # Transform consistency survives the global phase.
    residual = np.linalg.norm(
        forward_transform(state.grid, stripped.values) - stripped.coefficients
    )
    assert residual <= 1e-12 * np.linalg.norm(stripped.coefficients)


def test_rest_phase_strip_rejects_other_kinds(natural, grid400):
    for kind in (DispersionKind.SCHRODINGER, unphysical_negative_branch()):
        state = gaussian_packet(PacketSpec(0.0, 1.0, 15.0), grid400, natural, kind)
        with pytest.raises(KindError):
            rest_phase_strip(state)
