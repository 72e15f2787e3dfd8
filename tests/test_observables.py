import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from kg_lab import (
    BandwidthError,
    DispersionKind,
    ModeSet,
    TwoModeSpec,
    UnitSystem,
    compute_fields,
    continuity_exact,
    continuity_residual,
    density_kg,
    current_std,
    evolve,
    gamma_of_state,
    gaussian_packet,
    group_velocity,
    make_grid,
    moments,
    superposition,
    superposition_density,
    two_mode_density_of_phase,
    two_mode_min_density,
    unphysical_negative_branch,
)
from kg_lab.foundation import spectral_derivative
from kg_lab.states import SUPPORT_SIGMAS, PacketSpec
from strategies import grids, laws, seeds, states, times, units

KG = DispersionKind.KLEIN_GORDON_POSITIVE
NR = DispersionKind.SCHRODINGER


def _mode_grid():
    # Box tuned so k = 3 sits exactly on the lattice (index 64).
    return make_grid(512, 2.0 * np.pi * 64.0 / 3.0)


def _random_mode_set(rng, grid, n_modes):
    half = grid.n // 2
    pool = np.concatenate([np.arange(0, half), np.arange(half + 1, grid.n)])
    idx = rng.choice(pool, size=n_modes, replace=False)
    amps = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    amps /= np.linalg.norm(amps)
    return ModeSet(list(zip(amps, grid.wavenumbers[idx])))


def test_plane_wave_density_ratio(units_m4):
    grid = _mode_grid()
    state = superposition(ModeSet([(1.0, 3.0)]), grid, units_m4, KG)
    result = evolve(state, 0.0)
    rho = density_kg(state.values, result.dpsi_dt, units_m4)
    ratio = rho / state.density_nonrel
    np.testing.assert_allclose(ratio, 1.25, rtol=0, atol=1e-12)

    neg = superposition(ModeSet([(1.0, 3.0)]), grid, units_m4, unphysical_negative_branch())
    neg_result = evolve(neg, 0.0)
    neg_rho = density_kg(neg.values, neg_result.dpsi_dt, units_m4)
    np.testing.assert_allclose(neg_rho / neg.density_nonrel, -1.25, rtol=0, atol=1e-12)
    np.testing.assert_allclose(neg_rho, -rho, rtol=0, atol=1e-15)


def test_plane_wave_current(units_m4):
    grid = _mode_grid()
    state = superposition(ModeSet([(1.0, 3.0)]), grid, units_m4, KG)
    result = evolve(state, 2.0)
    j = current_std(result.state.values, result.dpsi_dx, units_m4)
    expected = (1.0 / grid.length) * (3.0 / 4.0)  # |psi|^2 hbar k / m
    np.testing.assert_allclose(j, expected, rtol=1e-12)
    rho = density_kg(result.state.values, result.dpsi_dt, units_m4)
    v = group_velocity(KG, 3.0, units_m4)
    np.testing.assert_allclose(j / rho, v, rtol=1e-12)


def test_negative_branch_density_negates_at_t0(natural):
    rng = np.random.default_rng(20)
    grid = make_grid(256, 100.0)
    ms = _random_mode_set(rng, grid, 5)
    pos = evolve(superposition(ms, grid, natural, KG), 0.0)
    neg = evolve(superposition(ms, grid, natural, unphysical_negative_branch()), 0.0)
    rho_pos = density_kg(pos.state.values, pos.dpsi_dt, natural)
    rho_neg = density_kg(neg.state.values, neg.dpsi_dt, natural)
    np.testing.assert_allclose(rho_neg, -rho_pos, rtol=0, atol=1e-13 * np.max(np.abs(rho_pos)))


def test_broad_packet_density_tracks_gamma(units_m4, grid400):
    state = gaussian_packet(PacketSpec(0.0, 3.0, 20.0), grid400, units_m4, KG)
    result = evolve(state, 0.0)
    fields = compute_fields(result)
    mask = fields.rho_nonrel >= 1e-3 * fields.rho_nonrel.max()
    rel = np.abs(fields.rho_kg[mask] / (fields.gamma_bar * fields.rho_nonrel[mask]) - 1.0)
    assert rel.max() <= 1e-3
    assert fields.gamma_spread <= 0.01 * fields.gamma_bar


def test_density_gamma_l2_bound(natural):
    # ||rho - gamma_bar psi*psi|| stays within a few relative gamma spreads.
    rng = np.random.default_rng(21)
    grid = make_grid(1024, 200.0)
    for _ in range(8):
        spec = PacketSpec(
            x0=float(rng.uniform(-20.0, 20.0)),
            k0=float(rng.uniform(0.0, 3.0)),
            sigma=float(rng.uniform(5.0, 8.0)),
        )
        state = gaussian_packet(spec, grid, natural, KG)
        result = evolve(state, float(rng.uniform(0.0, 5.0)))
        fields = compute_fields(result)
        stats = gamma_of_state(result.state)
        err = np.linalg.norm(fields.rho_kg - fields.gamma_bar * fields.rho_nonrel)
        scale = np.linalg.norm(fields.rho_nonrel)
        assert err / scale <= 3.0 * stats.relative_spread + 1e-12


def test_amended_plane_wave_restores_nonrel(units_m4):
    grid = _mode_grid()
    state = superposition(ModeSet([(1.0, 3.0)]), grid, units_m4, KG)
    fields = compute_fields(evolve(state, 1.0))
    np.testing.assert_allclose(fields.rho_amended, fields.rho_nonrel, rtol=0, atol=1e-12 / grid.length)
    np.testing.assert_allclose(fields.j_amended, fields.j_std / fields.gamma_bar, rtol=1e-14)
    assert fields.gamma_bar == pytest.approx(1.25, abs=1e-12)


def test_amended_packet_reduction(units_m4, grid400):
    state = gaussian_packet(PacketSpec(0.0, 3.0, 20.0), grid400, units_m4, KG)
    fields = compute_fields(evolve(state, 0.0))
    err = np.linalg.norm(fields.rho_amended - fields.rho_nonrel)
    assert err / np.linalg.norm(fields.rho_nonrel) <= 1e-3


FIELD_ATTRIBUTES = ("rho_nonrel", "rho_kg", "rho_amended", "j_std", "j_amended",
                    "gamma_bar", "gamma_spread")


@given(
    kind=st.sampled_from([KG, unphysical_negative_branch(), NR]),
    # x0 anywhere the support rule admits, |x0| + SUPPORT_SIGMAS sigma < L/2,
    # up to the rule's own edge.
    reach=st.floats(-1.0, 1.0),
    k0=st.floats(-3.0, 3.0),
    sigma=st.floats(2.0, 5.0),
    t=st.floats(0.0, 1e6),
    order=st.permutations(FIELD_ATTRIBUTES),
)
def test_lazy_fields_equal_the_eager_formulas(kind, reach, k0, sigma, t, order):
    # Whatever order the fields are read in, each is the formula applied to
    # an independent evolve of the same state, bit for bit, read-only and
    # computed once.
    natural, grid = UnitSystem.natural(), make_grid(256, 100.0)
    x0 = reach * (0.5 * grid.length - SUPPORT_SIGMAS * sigma)
    assume(abs(x0) + SUPPORT_SIGMAS * sigma < 0.5 * grid.length)
    state = gaussian_packet(PacketSpec(x0, k0, sigma), grid, natural, kind)
    fields = compute_fields(evolve(state, t))
    reads = {name: getattr(fields, name) for name in order}

    ref = evolve(state, t)
    rho_kg = density_kg(ref.state.values, ref.dpsi_dt, natural)
    j_std = current_std(ref.state.values, ref.dpsi_dx, natural)
    if kind is KG:
        stats = gamma_of_state(ref.state)
        gamma = (stats.gamma_bar, stats.gamma_spread)
        amended = (rho_kg / stats.gamma_bar, j_std / stats.gamma_bar)
    else:
        gamma = (np.nan, np.nan)
        amended = (np.full(grid.n, np.nan), np.full(grid.n, np.nan))
    expected = dict(zip(FIELD_ATTRIBUTES, (ref.state.density_nonrel, rho_kg, amended[0],
                                           j_std, amended[1], *gamma)))
    for name in FIELD_ATTRIBUTES:
        assert np.array_equal(reads[name], expected[name], equal_nan=True), name
        assert getattr(fields, name) is reads[name], name
        if isinstance(reads[name], np.ndarray):
            assert not reads[name].flags.writeable, name


def _complex_arrays(n):
    # Magnitudes over 330 decades, so that products reach the subnormals.
    return st.integers(-165, 165).flatmap(lambda e: hnp.arrays(
        np.complex128, n,
        elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    ).map(lambda a: a * 10.0 ** e))


def _complex_bilinear(p, psi, d):
    """p (conj(psi) d - psi conj(d)) in complex arithmetic, real part.

    Each product is formed in place, operands in this order: numpy rounds a
    lone complex product in place without FMA and out of place with it, so
    an out-of-place reference would differ from both forms at n = 1.
    """
    z = np.conj(psi)
    np.multiply(z, d, out=z)
    w = np.conj(d)
    np.multiply(psi, w, out=w)
    z -= w
    z *= p
    return z.real


@given(
    pair=st.integers(1, 64).flatmap(lambda n: st.tuples(_complex_arrays(n), _complex_arrays(n))),
    hbar=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3), m=st.floats(1e-3, 1e3),
)
def test_bilinears_are_the_full_complex_product_bit_for_bit(pair, hbar, c, m):
    # conj(psi) d - psi conj(d) rounds to (0, 2y) with y = Im(conj(psi) d),
    # so times the pure-imaginary prefactor p its real part is -2 Im(p) y:
    # the same bits, signed zeros and subnormals included. Where conj(psi) d
    # overflows, the complex form reads NaN and the bilinear +-inf.
    psi, d = pair
    with np.errstate(over="ignore", invalid="ignore"):
        assume(np.all(np.isfinite(np.conj(psi) * d)))
    units = UnitSystem(hbar=hbar, c=c, m=m)
    for bilinear, p in ((density_kg, -hbar / (2j * m * c**2)), (current_std, hbar / (2j * m))):
        with np.errstate(over="ignore", invalid="ignore"):
            full = _complex_bilinear(p, psi, d)
            fast = bilinear(psi, d, units)
        assert np.array_equal(fast.view(np.uint64), full.view(np.uint64))


def test_spread_flag_set_for_broad_spectrum(natural):
    grid = make_grid(256, 100.0)
    state = gaussian_packet(PacketSpec(0.0, 0.0, 0.8), grid, natural, KG)
    # A run of this state sets derived.gamma_spread_flag at the default tolerance.
    assert gamma_of_state(state).relative_spread > 0.01


def test_compute_fields_nonrelativistic_kind(natural, grid_small):
    state = gaussian_packet(PacketSpec(0.0, 1.0, 5.0), grid_small, natural, NR)
    fields = compute_fields(evolve(state, 1.0))
    assert np.all(np.isnan(fields.rho_amended))
    assert np.all(np.isnan(fields.j_amended))
    assert np.isnan(fields.gamma_bar) and np.isnan(fields.gamma_spread)
    assert np.all(np.isfinite(fields.rho_kg))
    assert np.all(fields.rho_nonrel >= 0.0)


@laws
@given(data=st.data(), t=times)
def test_exact_continuity_defect_is_rounding_within_half_the_band(data, t):
    # Modes within half the bandwidth keep the current's doubled band on the
    # grid, and the defect is rounding; a state that fills the band aliases
    # its current. The identity is the same for all three kinds: for a
    # Schrodinger state the bilinear of c^2 psi_xx is 2 Re(psi* psi_t).
    half, full = (data.draw(states(band=band)) for band in (0.5, 1.0))
    assert continuity_exact(compute_fields(evolve(half, t))) <= 1e-12
    assert continuity_exact(compute_fields(evolve(full, t))) > 1e-3


def test_continuity_residual_packet(units_m4, grid400):
    state = gaussian_packet(PacketSpec(0.0, 3.0, 10.0), grid400, units_m4, KG)
    base = evolve(state, 10.0)
    fields = compute_fields(base)
    dt = 1e-3
    rho_m = compute_fields(evolve(state, 10.0 - dt)).rho_kg
    rho_p = compute_fields(evolve(state, 10.0 + dt)).rho_kg
    res = continuity_residual(rho_m, rho_p, fields.j_std, dt, grid400)
    assert res <= 1e-6

    # Quadratic convergence: halving dt cuts the residual by about four.
    rho_m2 = compute_fields(evolve(state, 10.0 - dt / 2)).rho_kg
    rho_p2 = compute_fields(evolve(state, 10.0 + dt / 2)).rho_kg
    res2 = continuity_residual(rho_m2, rho_p2, fields.j_std, dt / 2, grid400)
    assert res / res2 >= 3.5


def test_continuity_residual_amended_pair_matches(units_m4, grid400):
    # The 1/gamma_bar rescaling cancels in the dimensionless residual and
    # scales the raw defect: both facts checked against the standard pair.
    # dt is large enough that the defect dominates the rounding noise of
    # the density snapshots, so the identities show up sharply.
    state = gaussian_packet(PacketSpec(0.0, 3.0, 10.0), grid400, units_m4, KG)
    dt = 1e-2
    fields = compute_fields(evolve(state, 10.0))
    m = compute_fields(evolve(state, 10.0 - dt))
    p = compute_fields(evolve(state, 10.0 + dt))
    res_std = continuity_residual(m.rho_kg, p.rho_kg, fields.j_std, dt, grid400)
    res_amd = continuity_residual(m.rho_amended, p.rho_amended, fields.j_amended, dt, grid400)
    assert res_amd == pytest.approx(res_std, rel=1e-5)

    defect_std = np.max(np.abs(
        (p.rho_kg - m.rho_kg) / (2 * dt) + spectral_derivative(grid400, fields.j_std)
    ))
    defect_amd = np.max(np.abs(
        (p.rho_amended - m.rho_amended) / (2 * dt)
        + spectral_derivative(grid400, fields.j_amended)
    ))
    assert defect_amd == pytest.approx(defect_std / fields.gamma_bar, rel=1e-5)


def test_continuity_residual_schrodinger_pair(units_m4, grid400):
    state = gaussian_packet(PacketSpec(0.0, 3.0, 10.0), grid400, units_m4, NR)
    dt = 1e-3
    fields = compute_fields(evolve(state, 10.0))
    rho_m = evolve(state, 10.0 - dt).state.density_nonrel
    rho_p = evolve(state, 10.0 + dt).state.density_nonrel
    res = continuity_residual(rho_m, rho_p, fields.j_std, dt, grid400)
    assert res <= 1e-6


def test_continuity_residual_plane_wave(units_m4):
    grid = _mode_grid()
    state = superposition(ModeSet([(1.0, 3.0)]), grid, units_m4, KG)
    dt = 1e-3
    fields = compute_fields(evolve(state, 1.0))
    rho_m = compute_fields(evolve(state, 1.0 - dt)).rho_kg
    rho_p = compute_fields(evolve(state, 1.0 + dt)).rho_kg
    # Stationary profile with uniform current: both terms vanish in exact
    # arithmetic; what is left is snapshot rounding divided by 2 dt.
    assert continuity_residual(rho_m, rho_p, fields.j_std, dt, grid) <= 1e-9


def test_continuity_residual_degenerate_cases(grid_small):
    zero = np.zeros(grid_small.n)
    assert continuity_residual(zero, zero, zero, 1e-3, grid_small) == 0.0
    bump = zero.copy()
    bump[3] = 1.0
    assert continuity_residual(zero, bump, zero, 1e-3, grid_small) == np.inf
    with pytest.raises(ValueError):
        continuity_residual(zero, zero, zero, 0.0, grid_small)


@st.composite
def lattice_mode_sets(draw, max_modes):
    """A grid and a unit-norm set of 1 to max_modes of its lattice modes."""
    grid = draw(grids())
    n_modes = draw(st.integers(1, min(max_modes, grid.n - 1)))
    return grid, _random_mode_set(np.random.default_rng(draw(seeds)), grid, n_modes)


@laws
@given(lattice_mode_sets(64), st.floats(0.0, 50.0), st.sampled_from([0.0, 5e-10, -5e-10]))
def test_superposition_density_matches_state_route(problem, t, offset):
    # A wavenumber 5e-10 off its lattice value passes the lattice check;
    # both routes must then take the lattice mode, not the raw k.
    grid, ms = problem
    ms = ModeSet([(a, k * (1.0 + offset)) for a, k in ms.modes])
    natural = UnitSystem.natural()
    sd = superposition_density(ms, t, grid, natural)
    result = evolve(superposition(ms, grid, natural, KG), t)
    rho_state = density_kg(result.state.values, result.dpsi_dt, natural)
    assert np.max(np.abs(sd.rho - rho_state)) <= 1e-10 * np.max(np.abs(rho_state))


@laws
@given(lattice_mode_sets(6), units, times, st.data())
def test_superposition_density_against_naive_double_sum(problem, u, t, data):
    grid, ms = problem
    sd = superposition_density(ms, t, grid, u)
    amps, ks = ms.amplitudes / math.sqrt(grid.length), ms.wavenumbers
    omegas = np.sqrt((u.c * ks) ** 2 + (u.m * u.c**2 / u.hbar) ** 2)
    prefactor = u.hbar / (u.m * u.c**2)
    # Rounding scale: the summed magnitudes of all double-sum terms, widened
    # by the rounding of the largest single-mode phase k x - omega t.
    mags = np.abs(amps)
    size = prefactor * float(np.sum(0.5 * np.add.outer(omegas, omegas) * np.outer(mags, mags)))
    phase = float(np.max(np.abs(ks) * 0.5 * grid.length + omegas * abs(t)))
    tol = size * (1e-12 + 1e-14 * phase)
    m = len(ks)
    for i in data.draw(st.lists(st.integers(0, grid.n - 1), min_size=1, max_size=4)):
        x = grid.points[i]
        # Full double sum: s = sum_{j,l} (omega_j + omega_l)/2 A_j A_l* e^{i phi};
        # the diagonal reproduces the j < l form plus the static term.
        s = 0.0
        for j in range(m):
            for l in range(m):
                phi = (ks[j] - ks[l]) * x - (omegas[j] - omegas[l]) * t
                s += 0.5 * (omegas[j] + omegas[l]) * (
                    amps[j] * np.conj(amps[l]) * np.exp(1j * phi)
                ).real
        assert abs(sd.rho[i] - prefactor * s) <= tol


def test_superposition_density_rejects_colliding_modes(natural):
    grid = make_grid(1024, 400.0)
    k = float(grid.wavenumbers[40])
    ms = ModeSet([(math.sqrt(0.5), k), (math.sqrt(0.5), k + 1e-11)])
    for build in (lambda: superposition(ms, grid, natural, KG),
                  lambda: superposition_density(ms, 0.0, grid, natural)):
        with pytest.raises(ValueError, match="collide on the lattice"):
            build()


def test_superposition_density_minimum_fields(natural):
    rng = np.random.default_rng(23)
    grid = make_grid(128, 60.0)
    ms = _random_mode_set(rng, grid, 3)
    sd = superposition_density(ms, 0.5, grid, natural)
    idx = int(np.argmin(sd.rho))
    assert sd.minimum == sd.rho[idx]
    assert sd.argmin_x == grid.points[idx]


def test_superposition_density_rejects_off_lattice(natural):
    grid = make_grid(64, 20.0)
    with pytest.raises(BandwidthError):
        superposition_density(ModeSet([(1.0, 0.1234)]), 0.0, grid, natural)


def test_two_mode_equal_amplitudes_touch_zero(natural):
    amp = np.sqrt(0.5)
    spec = TwoModeSpec(a1=amp, a2=amp, omega1=1.0, omega2=5.0)
    assert abs(two_mode_min_density(spec, natural)) <= 1e-15
    phases = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    scan = two_mode_density_of_phase(spec, natural, phases)
    assert scan.min() >= -1e-15


def test_two_mode_unequal_amplitudes_go_negative(natural):
    spec = TwoModeSpec(a1=np.sqrt(0.9), a2=np.sqrt(0.1), omega1=1.0, omega2=5.0)
    target = two_mode_min_density(spec, natural)
    assert target == pytest.approx(-0.4, abs=1e-12)
    phases = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    scan = two_mode_density_of_phase(spec, natural, phases)
    assert abs(scan.min() - target) <= 1e-9
    # The minimum sits at relative phase pi.
    assert two_mode_density_of_phase(spec, natural, np.array([np.pi]))[0] == pytest.approx(
        target, abs=1e-15
    )


@laws
@given(units=units, weight=st.floats(0.0, 1.0),
       phases=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       ratios=st.tuples(st.floats(1.0, 100.0), st.floats(1.0, 100.0)))
def test_two_mode_min_density_is_the_closed_form_bit_for_bit(units, weight, phases, ratios):
    # The density at phase pi is the closed-form minimum: cos(pi) is exactly
    # -1.0, and x + y * -1.0 rounds as x - y.
    a1 = math.sqrt(weight) * cmath.exp(1j * phases[0])
    a2 = math.sqrt(1.0 - weight) * cmath.exp(1j * phases[1])
    omega1, omega2 = (units.rest_omega * r for r in ratios)
    spec = TwoModeSpec(a1=a1, a2=a2, omega1=omega1, omega2=omega2)
    p1, p2 = abs(spec.a1) ** 2, abs(spec.a2) ** 2
    cross = abs(spec.a1) * abs(spec.a2)
    bracket = omega1 * p1 + omega2 * p2 - (omega1 + omega2) * cross
    closed_form = units.hbar / (units.m * units.c**2) * bracket
    minimum = two_mode_min_density(spec, units)
    assert type(minimum) is float
    assert minimum.hex() == closed_form.hex()


def test_two_mode_validation(natural):
    with pytest.raises(ValueError):
        TwoModeSpec(a1=0.5, a2=0.5, omega1=1.0, omega2=5.0)  # weights sum to 0.5
    with pytest.raises(ValueError, match="= 1, got inf$"):
        TwoModeSpec(a1=1e200, a2=0.0, omega1=1.0, omega2=5.0)  # |a1|^2 overflows
    spec = TwoModeSpec(a1=np.sqrt(0.9), a2=np.sqrt(0.1), omega1=0.2, omega2=5.0)
    with pytest.raises(ValueError):
        two_mode_min_density(spec, natural)  # omega1 below the rest frequency


def test_moments_gaussian(natural, grid400):
    state = gaussian_packet(PacketSpec(2.0, 0.0, 10.0), grid400, natural, KG)
    m = moments(state.density_nonrel, grid400)
    assert m.norm == pytest.approx(1.0, abs=1e-12)
    assert m.centroid == pytest.approx(2.0, abs=grid400.dx)
    assert m.variance == pytest.approx(100.0, rel=1e-6)


def test_moments_wraps_across_seam(natural, grid400):
    # Drift a packet across the periodic boundary; the circular centroid
    # must land at the wrapped position instead of averaging the two halves.
    state = gaussian_packet(PacketSpec(0.0, 1.0, 10.0), grid400, natural, KG)
    t = 300.0
    out = evolve(state, t).state
    m = moments(out.density_nonrel, grid400)
    v = group_velocity(KG, 1.0, natural)
    expected = (v * t + 200.0) % 400.0 - 200.0
    assert abs(m.centroid - expected) <= 1.0
    assert m.variance < 300.0  # far below the wrap-contaminated scale L^2/12


def test_moments_validation(grid_small):
    with pytest.raises(ValueError):
        moments(np.zeros(grid_small.n), grid_small)
    with pytest.raises(ValueError):
        moments(np.ones(grid_small.n + 1), grid_small)
