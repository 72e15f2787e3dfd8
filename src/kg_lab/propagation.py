"""Exact spectral evolution and the dispersion-identity residual.

Free evolution is a pure phase in spectral space, a_j -> a_j e^{-i omega_j t},
so there is no time-stepping error anywhere in this module: states at any
time are exact up to rounding, and time derivatives come from the same
spectral data via -i omega_j. An evolve transforms nothing; each derivative
costs one inverse transform when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionKind
from .errors import KindError
from .states import SpectralState, from_coefficients
from .foundation import UnitSystem, _as_float, _readonly, inverse_transform


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Evolved state, with its exact spectral derivatives computed on read.

    Each read of dpsi_dt or dpsi_dx is one inverse transform; the arrays are
    not kept, so a result held for later costs no more than its state.
    """

    state: SpectralState

    @property
    def dpsi_dt(self) -> np.ndarray:
        """The time derivative of psi(x), read-only."""
        state = self.state
        spectrum = -1j * state.omegas
        np.multiply(spectrum, state.coefficients, out=spectrum)
        return _readonly(inverse_transform(state.grid, spectrum))

    @property
    def dpsi_dx(self) -> np.ndarray:
        """The space derivative of psi(x), read-only."""
        grid = self.state.grid
        spectrum = 1j * grid.wavenumbers
        np.multiply(spectrum, self.state.coefficients, out=spectrum)
        return _readonly(inverse_transform(grid, spectrum))


def _phase(omegas: np.ndarray, t: float) -> np.ndarray:
    """The evolution phase exp(-i omega_j t) at every lattice mode, as a new array.

    omega is even in k and make_grid's lattice is exactly antisymmetric, so
    omega_{n-j} equals omega_j bit for bit. Modes 0..n/2 are exponentiated;
    the rest copy their mirror image, in the same array.
    """
    half = omegas.shape[0] // 2
    phase = -1j * omegas
    head = phase[:half + 1]
    head *= t
    np.exp(head, out=head)
    np.copyto(phase[half + 1:], phase[half - 1:0:-1])
    return phase


def evolve(state: SpectralState, t: float) -> EvolutionResult:
    """Advance the state by time t (exact, reversible via -t).

    The phase is exponentiated on modes 0..n/2 and mirrored onto the
    rest, in the array that becomes the new coefficients; the new state
    shares the frequencies of this one.
    """
    t = _as_float(t, "t")
    coefficients = _phase(state.omegas, t)
    np.multiply(state.coefficients, coefficients, out=coefficients)
    new_state = from_coefficients(
        state.grid, state.units, state.kind, coefficients, time=state.time + t
    )
    # Same grid, units and branch: the frequencies carry over unchanged.
    object.__setattr__(new_state, "omegas", state.omegas)
    return EvolutionResult(state=new_state)


def _spectral_residual(coefficients: np.ndarray, omegas: np.ndarray,
                       wavenumbers: np.ndarray, units: UnitSystem) -> float:
    hbar, c, m = units.hbar, units.c, units.m
    mismatch = (hbar * omegas) ** 2 - (hbar * c * wavenumbers) ** 2 - (m * c**2) ** 2
    scale = (hbar * omegas) ** 2 + (hbar * c * wavenumbers) ** 2 + (m * c**2) ** 2
    num = np.linalg.norm(mismatch * coefficients)
    den = np.linalg.norm(scale * coefficients)
    if den == 0.0:
        raise ValueError("state carries no spectral weight")
    return float(num / den)


def kg_residual(state: SpectralState, t: float = 0.0) -> float:
    """Relative L2 mismatch of the mass-shell identity over the state's modes.

    For either Klein-Gordon branch the per-mode factor
    (hbar omega)^2 - (hbar c k)^2 - (m c^2)^2 vanishes identically, so the
    residual measures rounding only; Schrodinger states are off-shell by
    construction and are rejected.
    """
    if state.kind is DispersionKind.SCHRODINGER:
        raise KindError("the mass-shell residual is defined for Klein-Gordon states")
    omegas = state.omegas
    coefficients = state.coefficients * _phase(omegas, _as_float(t, "t"))
    return _spectral_residual(coefficients, omegas, state.grid.wavenumbers, state.units)
