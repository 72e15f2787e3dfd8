import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kg_lab import (
    BandwidthError,
    ModeSet,
    TwoModeSpec,
    UnitSystem,
    compute_fields,
    continuity_exact,
    continuity_residual,
    density_kg,
    current_std,
    evolve,
    from_coefficients,
    gamma_of_state,
    gaussian_packet,
    group_velocity,
    make_grid,
    moments,
    omega,
    superposition,
    superposition_density,
    two_mode_density_of_phase,
    two_mode_min_density,
    unphysical_negative_branch,
)
from kg_lab.foundation import spectral_derivative
from kg_lab.states import SUPPORT_SIGMAS, PacketSpec
from strategies import KG, NR, grids, kinds, laws, seeds, states, times, units


def _within(field, value):
    # Relative to the exact value; a zero value must come out exactly zero.
    return np.all(np.abs(field - value) <= 1e-12 * abs(value))


@laws
@given(st.data(), grids(), units, kinds, st.floats(0.0, 2.0 * math.pi), times)
def test_plane_wave_law(data, grid, u, kind, phase, t):
    # A lattice mode e^{i(kx - wt)} / sqrt(L) on any branch: |psi|^2 = 1/L,
    # rho_kg weights it by gamma = hbar w / m c^2 (sign and all) and j_std by
    # hbar k / m. On KG+ the ratio j/rho is the group velocity, gamma_bar is
    # gamma with no spread, and the amended density is |psi|^2 again. Each
    # field is a few roundings of a one-coefficient transform, so 1e-12
    # follows from the arithmetic.
    half = grid.n // 2
    k = float(grid.wavenumbers[data.draw(st.integers(1 - half, half - 1))])
    mode = ModeSet([(complex(math.cos(phase), math.sin(phase)), k)])
    fields = compute_fields(evolve(superposition(mode, grid, u, kind), t))
    w = omega(NR, k, u) if kind is NR else omega(KG, k, u) * (1.0 if kind is KG else -1.0)
    gamma, nonrel = u.hbar * w / (u.m * u.c**2), 1.0 / grid.length
    assert _within(fields.rho_nonrel, nonrel)
    assert _within(fields.rho_kg, gamma * nonrel)
    assert _within(fields.j_std, u.hbar * k / u.m * nonrel)
    if kind is KG:
        assert _within(fields.j_std / fields.rho_kg, group_velocity(KG, k, u))
        assert fields.gamma_bar == gamma and fields.gamma_spread == 0.0
        assert _within(fields.rho_amended, nonrel)


@laws
@given(states(st.just(KG)), times)
def test_branch_twin_law(state, t):
    # The KG- state with the same coefficients, evolved to t, is the KG+
    # state at -t with its conserved density negated: omega changes sign,
    # and every rounding after it is symmetric in sign. Hence bit for bit.
    twin = compute_fields(evolve(from_coefficients(
        state.grid, state.units, unphysical_negative_branch(), state.coefficients), t))
    back = compute_fields(evolve(state, -t))
    assert np.array_equal(twin.result.state.values.view(np.uint64),
                          back.result.state.values.view(np.uint64))
    assert np.array_equal(twin.rho_kg, -back.rho_kg)
    assert np.array_equal(twin.j_std, back.j_std)


def test_density_gamma_l2_bound(natural):
    # In natural units, for k0 <= 3 and sigma 5-8, ||rho - gamma_bar psi*psi||
    # stays within three relative gamma spreads. That is this regime only: a
    # narrow packet with drawn units reaches 11.5 spreads (ROADMAP item 5).
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
        assert err / scale <= 3.0 * stats.gamma_spread / stats.gamma_bar + 1e-12


FIELD_ATTRIBUTES = ("rho_nonrel", "rho_kg", "rho_amended", "j_std", "j_amended",
                    "gamma_bar", "gamma_spread")


@given(
    kind=kinds,
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


def test_continuity_residual_plane_wave(units_m4):
    grid = make_grid(512, 2.0 * np.pi * 64.0 / 3.0)  # k = 3 sits on the lattice (index 64)
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
    rng = np.random.default_rng(draw(seeds))
    half = grid.n // 2
    pool = np.concatenate([np.arange(0, half), np.arange(half + 1, grid.n)])
    idx = rng.choice(pool, size=n_modes, replace=False)
    amps = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    amps /= np.linalg.norm(amps)
    return grid, ModeSet(list(zip(amps, grid.wavenumbers[idx])))


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
    idx = int(np.argmin(sd.rho))
    assert sd.minimum == sd.rho[idx] and sd.argmin_x == grid.points[idx]


@laws
@given(lattice_mode_sets(6), units, times, st.data())
def test_superposition_density_against_naive_double_sum(problem, u, t, data):
    grid, ms = problem
    sd = superposition_density(ms, t, grid, u)
    amps, ks = map(np.array, zip(*ms.modes))
    amps = amps / math.sqrt(grid.length)
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


@pytest.mark.parametrize("k", [1e308, -1e308])
def test_superposition_rejects_a_wavenumber_whose_lattice_position_overflows(natural, k):
    # k L / 2 pi is infinite, which round() cannot take.
    grid = make_grid(64, 20.0)
    ms = ModeSet([(1.0, k)])
    for build in (lambda: superposition(ms, grid, natural, KG),
                  lambda: superposition_density(ms, 0.0, grid, natural)):
        with pytest.raises(BandwidthError, match="lies outside the resolvable lattice"):
            build()


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
    with pytest.raises(ValueError, match="must be finite$"):
        TwoModeSpec(a1=10**400, a2=0.0, omega1=1.0, omega2=5.0)  # an int too large for a float
    spec = TwoModeSpec(a1=np.sqrt(0.9), a2=np.sqrt(0.1), omega1=0.2, omega2=5.0)
    with pytest.raises(ValueError):
        two_mode_min_density(spec, natural)  # omega1 below the rest frequency


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


@settings(max_examples=200)  # a shift near the seam shows a misplaced switch
@given(grids(sizes=tuple(2**p for p in range(8, 13)), lengths=st.floats(1.0, 1e4)),
       st.floats(20.0, 40.0), st.data())
def test_moments_are_translation_covariant(grid, width, data):
    # A packet as wide as the catalog's (L/sigma from 20 to 40), rolled by m
    # lattice points, onto or across the seam: its centroid moves by m dx
    # modulo L, and its variance stays. Rounding leaves about 1e-13 of the
    # variance; the switch to the circular mean, at an edge mass of 1e-9,
    # moved it by at most 5e-11 in 2000 random draws.
    length = grid.length
    spec = PacketSpec(0.0, 0.0, length / width)
    rho = gaussian_packet(spec, grid, UnitSystem.natural(), KG).density_nonrel
    m = data.draw(st.integers(0, grid.n - 1))
    before, after = moments(rho, grid), moments(np.roll(rho, m), grid)
    drift = (after.centroid - before.centroid - m * grid.dx + 0.5 * length) % length - 0.5 * length
    assert abs(drift) <= 1e-11 * length
    assert abs(after.variance - before.variance) <= 1e-9 * before.variance


def test_moments_validation(grid_small):
    with pytest.raises(ValueError):
        moments(np.zeros(grid_small.n), grid_small)
    with pytest.raises(ValueError):
        moments(np.ones(grid_small.n + 1), grid_small)
