"""State construction: Gaussian packets, lattice-mode superpositions.

A SpectralState is one normalized wave function tied to a grid, a unit
system, and a dispersion branch. Its spectral coefficients are the state:
evolution is a phase on them. The sampled values psi(x) are derived from
them on first read. Construction checks the shape, unit norm by Parseval
(L sum |a|^2 = 1, equivalently sum |psi|^2 dx = 1) and an empty Nyquist
mode. States are immutable; evolution returns new ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .dispersion import DispersionKind, omega
from .errors import BandwidthError, KindError
from .foundation import (
    NYQUIST_TOLERANCE,
    Grid1D,
    UnitSystem,
    _readonly,
    check_bandwidth,
    forward_transform,
    inverse_transform,
    spectral_norm_sq,
    state_norm,
)

_NORM_TOL = 1e-10
_UNITARITY_TOL = 1e-10
# Distance from a packet's center, in sigma, at which its envelope
# e^{-d^2/4 sigma^2} falls to NYQUIST_TOLERANCE: 2 sqrt(ln 1e10) ≈ 9.6.
SUPPORT_SIGMAS = 2.0 * math.sqrt(-math.log(NYQUIST_TOLERANCE))


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Normalized wave function held as its spectral coefficients."""

    grid: Grid1D
    units: UnitSystem
    kind: DispersionKind
    coefficients: np.ndarray
    time: float

    def __post_init__(self) -> None:
        coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if coefficients.shape != (self.grid.n,):
            raise ValueError("coefficients must match the grid size")
        norm = spectral_norm_sq(self.grid, coefficients)
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm must be 1, got {norm}")
        check_bandwidth(self.grid, coefficients)
        object.__setattr__(self, "coefficients", _readonly(coefficients))
        object.__setattr__(self, "time", float(self.time))

    @cached_property
    def values(self) -> np.ndarray:
        """The sampled wave function psi(x), read-only."""
        return _readonly(inverse_transform(self.grid, self.coefficients))

    @cached_property
    def omegas(self) -> np.ndarray:
        """The branch's angular frequency at each lattice wavenumber, read-only.

        evolve hands this array on to the state it returns, so a state
        lineage computes it once.
        """
        return _readonly(omega(self.kind, self.grid.wavenumbers, self.units))

    @property
    def density_nonrel(self) -> np.ndarray:
        """The nonrelativistic density psi* psi."""
        return (self.values.real**2 + self.values.imag**2)


def from_coefficients(grid: Grid1D, units: UnitSystem, kind: DispersionKind,
                      coefficients: np.ndarray, time: float = 0.0) -> SpectralState:
    """Build a state from spectral coefficients."""
    return SpectralState(grid=grid, units=units, kind=kind,
                         coefficients=coefficients, time=time)


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian packet parameters: center x0, carrier k0, width sigma."""

    x0: float
    k0: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("x0", "k0", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def validate_on(self, grid: Grid1D) -> None:
        """Support and bandwidth preconditions against a concrete grid.

        The envelope e^{-d^2/4 sigma^2} at distance d from the center must
        fall below NYQUIST_TOLERANCE before the periodic seam, or the cut
        tail reaches the Nyquist line: |x0| + SUPPORT_SIGMAS sigma < L/2.
        """
        reach = abs(self.x0) + SUPPORT_SIGMAS * self.sigma
        if reach >= 0.5 * grid.length:
            raise BandwidthError(
                f"packet support |x0| + {SUPPORT_SIGMAS:.2f} sigma = {reach} "
                f"does not fit inside the half box {0.5 * grid.length}: the envelope "
                f"must fall below {NYQUIST_TOLERANCE:.0e} before the periodic seam"
            )
        k_max = math.pi * grid.n / grid.length
        if abs(self.k0) + 2.0 / self.sigma >= k_max:
            raise BandwidthError(
                f"spectral support |k0| + 2/sigma = {abs(self.k0) + 2 / self.sigma} "
                f"reaches the grid bandwidth {k_max}"
            )


def _envelope(spec: PacketSpec, x: np.ndarray) -> tuple[slice, np.ndarray]:
    """The slice of the sorted points x where the packet's Gaussian envelope
    is nonzero, and the envelope's samples there.

    exp is evaluated only within 2 sigma sqrt(746) of x0: beyond it the
    exponent -(x-x0)^2/4 sigma^2 is -746 or less, to rounding, and exp
    underflows to exactly 0.0 below about -745.13, so the samples there
    are zero.
    """
    reach = 2.0 * spec.sigma * math.sqrt(746.0)
    start = int(np.searchsorted(x, spec.x0 - reach))
    near = x[start:int(np.searchsorted(x, spec.x0 + reach, side="right"))]
    envelope = (2.0 * math.pi * spec.sigma**2) ** -0.25 \
        * np.exp(-((near - spec.x0) ** 2) / (4.0 * spec.sigma**2))
    support = np.flatnonzero(envelope)
    return (slice(start + support[0], start + support[-1] + 1),
            envelope[support[0]:support[-1] + 1])


def gaussian_packet(spec: PacketSpec, grid: Grid1D, units: UnitSystem,
                    kind: DispersionKind) -> SpectralState:
    """Sampled Gaussian (1/(sqrt(2 pi) sigma))^{1/2} e^{-(x-x0)^2/4 sigma^2} e^{i k0 x}.

    The sampled profile is renormalized so the Riemann-sum norm is exactly
    one; for packets that satisfy the support rule the correction is at
    the rounding level. The envelope is evaluated only within
    2 sigma sqrt(746) of x0 and the carrier e^{i k0 x} only on the window
    between the first and last samples where the envelope is nonzero;
    outside it the envelope has underflowed to 0.0 and the samples are zero.
    """
    spec.validate_on(grid)
    window, envelope = _envelope(spec, grid.points)
    values = np.zeros(grid.n, dtype=np.complex128)
    values[window] = envelope * np.exp(1j * spec.k0 * grid.points[window])
    values = values / math.sqrt(state_norm(grid, values))
    return from_coefficients(grid, units, kind, forward_transform(grid, values))


@dataclass(frozen=True)
class ModeSet:
    """Discrete plane-wave superposition: (amplitude, wavenumber) pairs.

    Amplitudes obey sum |a_j|^2 = 1 (unitarity) and wavenumbers must be
    distinct; whether each k sits on a concrete grid's lattice is checked
    at superposition time.
    """

    modes: Tuple[Tuple[complex, float], ...]

    def __init__(self, modes: Sequence[Tuple[complex, float]]) -> None:
        cleaned = []
        for amp, k in modes:
            amp = complex(amp)
            k = float(k)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag) and math.isfinite(k)):
                raise ValueError("mode amplitudes and wavenumbers must be finite")
            cleaned.append((amp, k))
        if not cleaned:
            raise ValueError("a mode set needs at least one mode")
        ks = [k for _, k in cleaned]
        if len(set(ks)) != len(ks):
            raise ValueError("mode wavenumbers must be distinct")
        total = sum(abs(a) ** 2 for a, _ in cleaned)
        if abs(total - 1.0) > _UNITARITY_TOL:
            raise ValueError(
                f"mode amplitudes must satisfy sum |a|^2 = 1 (unitarity), got {total}"
            )
        object.__setattr__(self, "modes", tuple(cleaned))

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.modes], dtype=np.complex128)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.array([k for _, k in self.modes], dtype=np.float64)


def _lattice_index(modes: ModeSet, grid: Grid1D) -> list[int]:
    """Lattice position of each mode; ValueError when two modes share one."""
    index = [grid.wavenumber_index(k) for _, k in modes.modes]
    if len(set(index)) != len(index):
        raise ValueError("mode wavenumbers collide on the lattice")
    return index


def superposition(modes: ModeSet, grid: Grid1D, units: UnitSystem,
                  kind: DispersionKind) -> SpectralState:
    """State from lattice modes; box-normalized so a_j maps to a_j / sqrt(L).

    Every wavenumber must sit exactly on the grid lattice (BandwidthError
    otherwise), so the spectral array has one nonzero entry per mode.
    """
    coefficients = np.zeros(grid.n, dtype=np.complex128)
    root_l = math.sqrt(grid.length)
    for idx, (amp, _) in zip(_lattice_index(modes, grid), modes.modes):
        coefficients[idx] = amp / root_l
    return from_coefficients(grid, units, kind, coefficients, time=0.0)


def rest_phase_strip(state: SpectralState) -> SpectralState:
    """Remove the global rest phase e^{-i (m c^2/hbar) t} from a KG+ state.

    Returns a same-time snapshot suitable for direct comparison with a
    Schrodinger-evolved twin; do not evolve the result further (evolution
    would accumulate the rest phase again).
    """
    if state.kind is not DispersionKind.KLEIN_GORDON_POSITIVE:
        raise KindError("rest-phase stripping applies to positive-branch states only")
    phase = np.exp(1j * state.units.rest_omega * state.time)
    stripped = from_coefficients(state.grid, state.units, state.kind,
                                 state.coefficients * phase, time=state.time)
    # psi * phase sample by sample, not the inverse transform of the phased
    # coefficients, which differs from it by rounding.
    object.__setattr__(stripped, "values", _readonly(state.values * phase))
    return stripped
