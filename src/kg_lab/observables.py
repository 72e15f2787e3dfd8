"""Densities, currents, amended fields, continuity, and moments.

Two densities coexist for a relativistic state: the nonrelativistic
psi* psi and the conserved bilinear

    rho = (-hbar / 2 i m c^2) (psi* dpsi/dt - psi dpsi*/dt),

which weights each mode by hbar*omega/(m c^2) and is therefore not
positive definite for superpositions. The amended pair divides both the
density and the standard current by the spectral-mean Lorentz factor,
restoring psi* psi for narrow spectra while keeping the continuity
equation intact (the rescaling is a constant).

continuity_exact takes drho/dt exactly, by one identity for every kind; it
never reads omega or t, so its defect is the aliasing and rounding of the
current's derivative, not the dynamics, and NaN for the amended pair where
gamma_bar is. continuity_residual takes a centered difference: O(dt^2).

compute_fields computes nothing itself: each field of the returned
DensityCurrentFields is computed on first read, so a density-only
snapshot pays for psi and dpsi/dt and nothing else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dispersion import (DispersionKind, GammaStats, _below_rest_frequency, gamma_of_state,
                         omega)
from .foundation import (Grid1D, UnitSystem, _as_float, _finite, _readonly, inverse_transform,
                         spectral_derivative)
from .propagation import EvolutionResult
from .states import ModeSet, _lattice_modes


def _bilinear(prefactor: complex, psi: np.ndarray, d: np.ndarray) -> np.ndarray:
    """prefactor * (conj(psi) d - psi conj(d)) for a pure-imaginary prefactor:
    the bracket is exactly 2i Im(conj(psi) d). Adding 0.0 turns -0.0 into the
    +0.0 that the complex product gives."""
    z = np.conj(np.asarray(psi, dtype=np.complex128))
    z *= d
    out = z.imag * 2.0
    out *= -prefactor.imag
    out += 0.0
    return out


def density_kg(psi: np.ndarray, dpsi_dt: np.ndarray, units: UnitSystem) -> np.ndarray:
    """Conserved Klein-Gordon density; the formula is branch-agnostic."""
    return _bilinear(-units.hbar / (2j * units.m * units.c**2), psi, dpsi_dt)


def current_std(psi: np.ndarray, dpsi_dx: np.ndarray, units: UnitSystem) -> np.ndarray:
    """Standard probability current, shared by both wave equations."""
    return _bilinear(units.hbar / (2j * units.m), psi, dpsi_dx)


@dataclass(frozen=True, eq=False)
class DensityCurrentFields:
    """Every density/current variant for one evolved state, each on first read.

    Each field is computed when it is first read and then kept, read-only;
    a field nobody reads costs nothing. The amended pair is the conserved
    density and the standard current divided by gamma_bar. For states
    without a Lorentz factor (Schrodinger, negative branch) the gamma
    statistics, and with them the amended arrays, are NaN: the amended
    construction simply does not apply there.
    """

    result: EvolutionResult

    @cached_property
    def rho_nonrel(self) -> np.ndarray:
        return _readonly(self.result.state.density_nonrel)

    @cached_property
    def rho_kg(self) -> np.ndarray:
        state = self.result.state
        return _readonly(density_kg(state.values, self.result.dpsi_dt, state.units))

    @cached_property
    def j_std(self) -> np.ndarray:
        state = self.result.state
        return _readonly(current_std(state.values, self.result.dpsi_dx, state.units))

    @cached_property
    def rho_amended(self) -> np.ndarray:
        return _readonly(self.rho_kg / self.gamma_bar)

    @cached_property
    def j_amended(self) -> np.ndarray:
        return _readonly(self.j_std / self.gamma_bar)

    @cached_property
    def _psi_tt(self) -> np.ndarray:
        # c^2 psi_xx: a Klein-Gordon psi_tt less its rest term, which no bilinear sees.
        state = self.result.state
        spectrum = -(state.units.c * state.grid.wavenumbers) ** 2 * state.coefficients
        return _readonly(inverse_transform(state.grid, spectrum))

    @cached_property
    def _gamma_stats(self) -> GammaStats:
        state = self.result.state
        if state.kind is DispersionKind.KLEIN_GORDON_POSITIVE:
            return gamma_of_state(state)
        return GammaStats(gamma_bar=math.nan, gamma_spread=math.nan)

    @property
    def gamma_bar(self) -> float:
        return self._gamma_stats.gamma_bar

    @property
    def gamma_spread(self) -> float:
        return self._gamma_stats.gamma_spread


def compute_fields(result: EvolutionResult) -> DensityCurrentFields:
    """The density/current fields of an evolved state, each computed on first read."""
    return DensityCurrentFields(result=result)


def continuity_exact(fields: DensityCurrentFields, amended: bool = False) -> float:
    """Exact-in-time continuity defect of a state's conserved pair
    (rho_kg, j_std), or of its amended pair:

        max|drho/dt + dj/dx| / ((hbar / m) max|psi| max|psi_xx|)

    drho/dt is the density bilinear with c^2 psi_xx for dpsi/dt: for KG+ and
    KG- psi_tt's rest term drops out of it exactly; for Schrodinger it is
    exactly 2 Re(psi* psi_t). dj/dx is spectral. No omega or t is read, so
    the defect measures the aliasing and rounding of the current's
    derivative, not the dynamics; modes past half the bandwidth alias the
    current. The scale, the size of the terms that cancel, is 0 only for a
    constant psi. The amended pair divides rate, current and scale by
    gamma_bar, and is NaN wherever gamma_bar is.
    """
    state = fields.result.state
    gamma = fields.gamma_bar if amended else 1.0
    units, psi_tt = state.units, fields._psi_tt
    work = density_kg(state.values, psi_tt, units)
    work /= gamma
    work += spectral_derivative(state.grid, fields.j_amended if amended else fields.j_std)
    defect = float(np.max(np.abs(work, out=work)))
    scale = (units.hbar / (units.m * units.c**2) * float(np.max(np.abs(state.values)))
             * float(np.max(np.abs(psi_tt))) / gamma)
    if scale == 0.0:
        return 0.0 if defect == 0.0 else math.inf
    return defect / scale


def continuity_residual(rho_before: np.ndarray, rho_after: np.ndarray,
                        current: np.ndarray, dt: float, grid: Grid1D) -> float:
    """Dimensionless continuity defect max|drho/dt + dj/dx| * L / max|j|.

    The time derivative is a centered difference of two exactly evolved
    density snapshots at t -/+ dt (the only discretization anywhere, with
    quadratic dt convergence); the space derivative is spectral.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    current = np.asarray(current, dtype=np.float64)
    # drho/dt + dj/dx, then its magnitude, then |j|, all in one array.
    work = np.subtract(np.asarray(rho_after, dtype=np.float64),
                       np.asarray(rho_before, dtype=np.float64))
    work /= 2.0 * dt
    work += spectral_derivative(grid, current)
    defect = float(np.max(np.abs(work, out=work)))
    scale = float(np.max(np.abs(current, out=work)))
    if scale == 0.0:
        return 0.0 if defect == 0.0 else math.inf
    return defect * grid.length / scale


class SuperpositionDensity(NamedTuple):
    """Amplitude-space density profile with its grid minimum."""

    rho: np.ndarray
    minimum: float
    argmin_x: float


def superposition_density(modes: ModeSet, t: float, grid: Grid1D,
                          units: UnitSystem) -> SuperpositionDensity:
    """Density of a lattice superposition evaluated directly in amplitude space.

    psi = sum_j A_j e^{i(k_j x - omega_j t)} and dpsi/dt, the same sum with
    each term times -i omega_j, are summed mode by mode (A_j = a_j / sqrt(L)
    and k_j from superposition's lattice helper) and handed to density_kg.
    Expanded over mode pairs,

        rho(x) = (hbar / m c^2) [ sum_j omega_j |A_j|^2
                 + sum_{j<l} (omega_j + omega_l) Re(A_j A_l* e^{i phi_jl}) ]

    with phi_jl the phase difference of modes j and l at (x, t): the cross
    terms are what can drive rho negative. No transform is involved, so this
    cross-checks density_kg of the evolved state; the two agree to rounding.
    The positive branch supplies every omega.
    """
    index, amps = _lattice_modes(modes, grid)
    ks = grid.wavenumbers[index]
    omegas = omega(DispersionKind.KLEIN_GORDON_POSITIVE, ks, units)
    x, t = grid.points, _as_float(t, "t")
    psi, dpsi_dt = np.zeros((2, grid.n), dtype=np.complex128)
    wave = np.empty(grid.n, dtype=np.complex128)
    for a, k, w in zip(amps, ks.tolist(), omegas.tolist()):
        np.multiply(1j, k * x - w * t, out=wave)
        np.exp(wave, out=wave)
        wave *= a
        psi += wave
        wave *= -1j * w
        dpsi_dt += wave
    rho = density_kg(psi, dpsi_dt, units)
    idx = int(np.argmin(rho))
    return SuperpositionDensity(rho=rho, minimum=float(rho[idx]), argmin_x=float(grid.points[idx]))


@dataclass(frozen=True)
class TwoModeSpec:
    """Two-mode interference configuration in amplitude space."""

    a1: complex
    a2: complex
    omega1: float
    omega2: float

    def __post_init__(self) -> None:
        try:
            a1, a2 = complex(self.a1), complex(self.a2)
        except OverflowError:  # an int too large for a float is not finite either
            a1 = a2 = complex(math.inf)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        if not all(map(_finite, (a1.real, a1.imag, a2.real, a2.imag,
                                  self.omega1, self.omega2))):
            raise ValueError("two-mode parameters must be finite")
        total = a1.real * a1.real + a1.imag * a1.imag + a2.real * a2.real + a2.imag * a2.imag
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"amplitudes must satisfy |a1|^2 + |a2|^2 = 1, got {total}")


def two_mode_min_density(spec: TwoModeSpec, units: UnitSystem) -> float:
    """Closed-form minimum of the two-mode density over relative phase:

        (hbar / m c^2) [omega1 |a1|^2 + omega2 |a2|^2 - (omega1 + omega2)|a1 a2|]

    attained at cos(phase) = -1. With r = |a1| / |a2| the bracket factors as
    (r - 1)(omega1 r - omega2) |a2|^2, so the minimum is zero for equal
    magnitudes and strictly negative exactly when r lies between 1 and
    omega2 / omega1.
    """
    return float(two_mode_density_of_phase(spec, units, np.pi))


def two_mode_density_of_phase(spec: TwoModeSpec, units: UnitSystem,
                              phase: np.ndarray) -> np.ndarray:
    """Two-mode density as a function of the relative phase (amplitude space)."""
    if _below_rest_frequency((spec.omega1, spec.omega2), units):
        raise ValueError("two-mode frequencies must sit on or above the rest frequency")
    p1, p2 = abs(spec.a1) ** 2, abs(spec.a2) ** 2
    cross = abs(spec.a1) * abs(spec.a2)
    bracket = (spec.omega1 * p1 + spec.omega2 * p2
               + (spec.omega1 + spec.omega2) * cross * np.cos(np.asarray(phase)))
    return units.hbar / (units.m * units.c**2) * bracket


class Moments(NamedTuple):
    norm: float
    centroid: float
    variance: float


# When more than this fraction of the mass sits in the outer 5% of the box
# the plain first moment is wrap-biased and the circular mean takes over.
_EDGE_BAND = 0.05
_EDGE_MASS_SWITCH = 1e-9


def moments(rho: np.ndarray, grid: Grid1D) -> Moments:
    """Riemann-sum norm, centroid, and variance of a density profile.

    Near the periodic boundary the centroid switches to a circular mean
    (phase of the first Fourier moment) and displacements wrap to the
    minimal image, so a packet crossing the seam keeps a smooth track.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (grid.n,):
        raise ValueError(f"rho must have shape ({grid.n},), got {rho.shape}")
    mass = float(rho.sum())
    norm = mass * grid.dx
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"density must integrate to a positive value, got {norm}")
    weights = rho / mass
    x = grid.points
    edge = max(1, int(round(_EDGE_BAND * grid.n)))
    edge_mass = float(np.abs(weights[:edge]).sum() + np.abs(weights[-edge:]).sum())
    if edge_mass > _EDGE_MASS_SWITCH:
        z = complex(np.sum(weights * grid.circle_points))
        angle = math.atan2(z.imag, z.real) % (2.0 * math.pi)
        centroid = -0.5 * grid.length + grid.length * angle / (2.0 * math.pi)
        disp = np.mod(x - centroid + 0.5 * grid.length, grid.length) - 0.5 * grid.length
    else:
        centroid = float(np.sum(weights * x))
        disp = x - centroid
    variance = float(np.sum(weights * disp**2))
    return Moments(norm=norm, centroid=centroid, variance=variance)
