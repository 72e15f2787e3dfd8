import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kg_lab import (
    DispersionKind,
    KindError,
    ModeSet,
    UnitSystem,
    evolve,
    from_coefficients,
    gaussian_packet,
    kg_residual,
    make_grid,
    moments,
    omega,
    superposition,
    superposition_density,
    unphysical_negative_branch,
)
from kg_lab.foundation import state_norm
from kg_lab.propagation import _phase, _spectral_residual
from kg_lab.states import PacketSpec
from strategies import KG, KINDS, NR, T_MAX, laws, states, times

KLEIN_GORDON = (KG, unphysical_negative_branch())
# Two evolves round omega t differently from one, by about omega |t| 2^-53
# per mode, so the composed state drifts with the phase reach. Composition
# draws its times within PHASE_REACH radians over the occupied band, about
# twice the largest reach of the hand-picked cases (omega t near 470), where
# the drift stays below 1e-11.
PHASE_REACH = 1e3


@given(states(), st.sampled_from([0.0, -0.0]))
def test_zero_time_is_identity(state, zero):
    out = evolve(state, zero).state
    np.testing.assert_allclose(out.values, state.values, rtol=0, atol=1e-14)
    assert out.time == state.time


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), t=times)
def test_norm_conserved(kind, data, t):
    state = data.draw(states(st.just(kind)))
    out = evolve(state, t).state
    assert abs(state_norm(state.grid, out.values) - 1.0) <= 1e-12


@given(states(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_composition(state, s1, s2):
    reach = float(np.max(np.abs(state.omegas[state.coefficients != 0])))
    t1, t2 = (s * min(T_MAX, PHASE_REACH / reach) for s in (s1, s2))
    a = evolve(evolve(state, t1).state, t2).state
    b = evolve(state, t1 + t2).state
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-11)
    # Time accumulates exactly, step by step.
    assert a.time == (state.time + t1) + t2 and b.time == state.time + (t1 + t2)


@given(states(), times)
def test_reversibility(state, t):
    back = evolve(evolve(state, t).state, -t).state
    np.testing.assert_allclose(back.values, state.values, rtol=0, atol=1e-11)
    assert back.time == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_plane_wave_carrier_phase(kind, natural):
    # Single lattice mode: evolution is exactly e^{i(kx - omega t)} / sqrt(L).
    grid = make_grid(128, 64.0)
    k = grid.wavenumbers[7]
    state = superposition(ModeSet([(1.0, k)]), grid, natural, kind)
    w = omega(kind, k, natural)
    for t in (0.0, 1.7, 40.0):
        out = evolve(state, t).state
        expected = np.exp(1j * (k * grid.points - w * t)) / np.sqrt(64.0)
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-12)


@laws
@given(states(), times)
def test_derivative_identities(state, t):
    # dpsi_dt at t against an independent centered difference of the exact
    # flow from the state at t, with a step of 1e-4 over the largest
    # occupied frequency.
    result = evolve(state, t)
    h = 1e-4 / float(np.max(np.abs(state.omegas[state.coefficients != 0])))
    plus = evolve(result.state, h).state.values
    minus = evolve(result.state, -h).state.values
    fd = (plus - minus) / (2.0 * h)
    scale = np.max(np.abs(result.dpsi_dt))
    assert np.max(np.abs(result.dpsi_dt - fd)) <= 1e-6 * scale


def test_dpsi_dx_of_a_gaussian(natural, grid400):
    # dpsi_dx against the analytic derivative of the sampled Gaussian.
    spec = PacketSpec(0.0, 3.0, 10.0)
    state = gaussian_packet(spec, grid400, natural, KG)
    at0 = evolve(state, 0.0)
    x = grid400.points
    analytic = (-(x - spec.x0) / (2.0 * spec.sigma**2) + 1j * spec.k0) * state.values
    assert np.max(np.abs(at0.dpsi_dx - analytic)) <= 1e-9 * np.max(np.abs(analytic))


def test_derivative_arrays_read_only(natural, grid_small):
    state = gaussian_packet(PacketSpec(0.0, 1.0, 5.0), grid_small, natural, KG)
    result = evolve(state, 1.0)
    with pytest.raises(ValueError):
        result.dpsi_dt[0] = 0.0
    with pytest.raises(ValueError):
        result.dpsi_dx[0] = 0.0


def test_schrodinger_packet_spreads(natural, grid400):
    state = gaussian_packet(PacketSpec(0.0, 1.0, 10.0), grid400, natural,
                            DispersionKind.SCHRODINGER)
    widths = []
    for t in (0.0, 20.0, 40.0):
        out = evolve(state, t).state
        widths.append(moments(out.density_nonrel, grid400).variance)
    assert widths[0] < widths[1] < widths[2]


@pytest.mark.parametrize("kind", KLEIN_GORDON)
@laws
@given(data=st.data(), t=times)
def test_mass_shell_residual_small(kind, data, t):
    # On the shell the residual is rounding; frequencies off it by a
    # relative 1e-6 read about 1e-6.
    state = data.draw(states(st.just(kind)))
    assert kg_residual(state, t) <= 1e-12
    skewed = _spectral_residual(state.coefficients, state.omegas * (1.0 + 1e-6),
                                state.grid.wavenumbers, state.units)
    assert skewed > 1e-7


def test_mass_shell_residual_rejects_schrodinger(natural, grid_small):
    state = gaussian_packet(PacketSpec(0.0, 1.0, 5.0), grid_small, natural,
                            DispersionKind.SCHRODINGER)
    with pytest.raises(KindError):
        kg_residual(state)


# 2 pi to 61 significant digits, truncated.
TWO_PI = Decimal("6.283185307179586476925286766559005768394338798750211641949889")


@pytest.mark.parametrize("call", [
    evolve,
    kg_residual,
    lambda state, t: superposition_density(ModeSet([(1.0, 0.0)]), t, state.grid, state.units),
    lambda state, t: from_coefficients(state.grid, state.units, KG, state.coefficients, time=t),
], ids=["evolve", "kg_residual", "superposition_density", "from_coefficients"])
def test_a_time_too_large_for_a_float_is_a_value_error(call, natural, grid_small):
    state = superposition(ModeSet([(1.0, 0.0)]), grid_small, natural, KG)
    with pytest.raises(ValueError, match="is an int too large for a float$"):
        call(state, 10**400)


def _exact_phase(w: float, t: float) -> complex:
    """exp(-i w t) for the doubles w and t: the product is exact as a
    Fraction, its reduction mod 2 pi into [-pi, pi] holds 60 digits, and
    only the reduced angle is rounded to a double."""
    product = Fraction(w) * Fraction(t)
    with localcontext() as ctx:
        ctx.prec = 60
        angle = Decimal(product.numerator) / Decimal(product.denominator)
        angle -= TWO_PI * (angle / TWO_PI).to_integral_value()
    reduced = float(angle)
    return complex(math.cos(reduced), -math.sin(reduced))


@pytest.mark.parametrize("kind", [KG, NR])
@pytest.mark.parametrize("t", [1.0, 1e3, 1e6, 1e9])
def test_the_phase_is_exact_to_the_rounding_of_omega_t(kind, t):
    # The default packet grid's 40 heaviest modes. The double omega * t is
    # off by up to |omega t| 2^-53, and exp adds rounding of its own.
    omegas = omega(kind, make_grid(4096, 400.0).wavenumbers, UnitSystem(1.0, 1.0, 4.0))
    heaviest = np.argsort(np.abs(omegas))[-40:]
    phase = _phase(omegas, t)
    for j in heaviest.tolist():
        w = float(omegas[j])
        error = abs(complex(phase[j]) - _exact_phase(w, t))
        assert error <= abs(w * t) * 2.0**-52 + 4 * 2.0**-53, (j, error)
