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
    unphysical_negative_branch,
)
from kg_lab.foundation import state_norm
from kg_lab.propagation import _spectral_residual
from kg_lab.states import PacketSpec

KG = DispersionKind.KLEIN_GORDON_POSITIVE
ALL_KINDS = (KG, unphysical_negative_branch(), DispersionKind.SCHRODINGER)


def _random_state(rng, grid, units, kind, band=0.25):
    """Band-limited random normalized state; active modes fill |j| <= band*n/2."""
    coeffs = np.zeros(grid.n, dtype=complex)
    top = max(2, int(band * grid.n / 2))
    idx = np.concatenate([np.arange(0, top), np.arange(grid.n - top, grid.n)])
    coeffs[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    coeffs /= np.sqrt(grid.length * np.sum(np.abs(coeffs) ** 2))
    return from_coefficients(grid, units, kind, coeffs)


# The draws of test_hot_path's in-place property: grid size and length,
# units, branch and seed. Times stay within the scale of the hand-picked
# cases these properties replace, which reached t = 211.
T_MAX = 250.0
times = st.floats(-T_MAX, T_MAX)
# Two evolves round omega t differently from one, by about omega |t| 2^-53
# per mode, so the composed state drifts with the phase reach. Composition
# draws its times within PHASE_REACH radians over the occupied band, about
# twice the largest reach of the hand-picked cases (omega t near 470), where
# the drift stays below 1e-11.
PHASE_REACH = 1e3


@st.composite
def _states(draw, kinds=st.sampled_from(ALL_KINDS)):
    grid = make_grid(draw(st.sampled_from([2**p for p in range(3, 13)])),
                     draw(st.floats(1.0, 1000.0)))
    units = UnitSystem(hbar=draw(st.floats(0.1, 10.0)), c=draw(st.floats(0.1, 10.0)),
                       m=draw(st.floats(0.1, 10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_state(rng, grid, units, draw(kinds))


@given(_states(), st.sampled_from([0.0, -0.0]))
def test_zero_time_is_identity(state, zero):
    out = evolve(state, zero).state
    np.testing.assert_allclose(out.values, state.values, rtol=0, atol=1e-14)
    assert out.time == state.time


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(data=st.data(), t=times)
def test_norm_conserved(kind, data, t):
    state = data.draw(_states(st.just(kind)))
    out = evolve(state, t).state
    assert abs(state_norm(state.grid, out.values) - 1.0) <= 1e-12


@given(_states(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_composition(state, s1, s2):
    reach = float(np.max(np.abs(state.omegas[state.coefficients != 0])))
    t1, t2 = (s * min(T_MAX, PHASE_REACH / reach) for s in (s1, s2))
    a = evolve(evolve(state, t1).state, t2).state
    b = evolve(state, t1 + t2).state
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-11)
    assert a.time == pytest.approx(b.time, abs=1e-12)


@given(_states(), times)
def test_reversibility(state, t):
    back = evolve(evolve(state, t).state, -t).state
    np.testing.assert_allclose(back.values, state.values, rtol=0, atol=1e-11)
    assert back.time == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
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


@given(_states(), times, times)
def test_time_accumulates(state, t1, t2):
    out = evolve(state, t1).state
    assert out.time == state.time + t1
    assert evolve(out, t2).state.time == out.time + t2


def test_derivative_identities(natural, grid400):
    # dpsi_dt against an independent centered difference of the exact flow,
    # dpsi_dx against the analytic derivative of the sampled Gaussian.
    spec = PacketSpec(0.0, 3.0, 10.0)
    state = gaussian_packet(spec, grid400, natural, KG)
    result = evolve(state, 5.0)

    h = 1e-4
    plus = evolve(state, 5.0 + h).state.values
    minus = evolve(state, 5.0 - h).state.values
    fd = (plus - minus) / (2.0 * h)
    scale = np.max(np.abs(result.dpsi_dt))
    assert np.max(np.abs(result.dpsi_dt - fd)) <= 1e-6 * scale

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


@pytest.mark.parametrize("kind", (KG, unphysical_negative_branch()))
def test_mass_shell_residual_small(kind, natural):
    rng = np.random.default_rng(5)
    for n in (16, 64, 256):
        grid = make_grid(n, 30.0)
        state = _random_state(rng, grid, natural, kind)
        assert kg_residual(state) <= 1e-12
        assert kg_residual(state, t=rng.uniform(0.0, 100.0)) <= 1e-12


def test_mass_shell_residual_nonzero_units(units_m4):
    rng = np.random.default_rng(6)
    units = UnitSystem(hbar=0.7, c=2.5, m=1.3)
    for u in (units_m4, units):
        grid = make_grid(64, 25.0)
        state = _random_state(rng, grid, u, KG)
        assert kg_residual(state, t=3.0) <= 1e-12


def test_mass_shell_residual_detects_off_shell(natural, grid_small):
    rng = np.random.default_rng(7)
    state = _random_state(rng, grid_small, natural, KG)
    omegas = omega(KG, grid_small.wavenumbers, natural)
    clean = _spectral_residual(state.coefficients, omegas, grid_small.wavenumbers, natural)
    skewed = _spectral_residual(
        state.coefficients, omegas * (1.0 + 1e-6), grid_small.wavenumbers, natural
    )
    assert clean <= 1e-12
    assert skewed > 1e-7


def test_mass_shell_residual_rejects_schrodinger(natural, grid_small):
    state = gaussian_packet(PacketSpec(0.0, 1.0, 5.0), grid_small, natural,
                            DispersionKind.SCHRODINGER)
    with pytest.raises(KindError):
        kg_residual(state)
