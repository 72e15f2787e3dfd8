"""Dispersion relations and Lorentz-factor statistics.

Three branches are supported: the positive Klein-Gordon branch
omega = +sqrt(c^2 k^2 + (m c^2/hbar)^2), its sign-flipped negative twin,
and the Schrodinger relation omega = hbar k^2 / 2m. The negative branch
exists only so its pathologies can be demonstrated; every API that treats
a state as physical rejects it, and the one sanctioned way to request it
is `unphysical_negative_branch()`.
"""
from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, NamedTuple, Union

import numpy as np

from .errors import BranchError, KindError
from .foundation import UnitSystem

if TYPE_CHECKING:  # pragma: no cover
    from .states import SpectralState

ArrayOrFloat = Union[float, np.ndarray]


class DispersionKind(enum.Enum):
    KLEIN_GORDON_POSITIVE = "kg+"
    KLEIN_GORDON_NEGATIVE = "kg-"
    SCHRODINGER = "schrodinger"


def unphysical_negative_branch() -> DispersionKind:
    """Explicit gateway to the negative-frequency branch.

    The branch is fine for demonstrating sign pathologies of the density
    but carries no physical states; request it only through this function
    so the intent is visible at the call site.
    """
    return DispersionKind.KLEIN_GORDON_NEGATIVE


def omega(kind: DispersionKind, k: ArrayOrFloat, units: UnitSystem) -> ArrayOrFloat:
    """Angular frequency of mode k under the given dispersion branch."""
    karr = np.asarray(k, dtype=np.float64)
    if kind is DispersionKind.SCHRODINGER:
        out = units.hbar * karr**2 / (2.0 * units.m)
    else:
        out = np.sqrt((units.c * karr) ** 2 + units.rest_omega**2)
        if kind is DispersionKind.KLEIN_GORDON_NEGATIVE:
            out = -out
    return float(out) if np.isscalar(k) else out


def group_velocity(kind: DispersionKind, k: ArrayOrFloat, units: UnitSystem) -> ArrayOrFloat:
    """d omega / d k. Rejects the negative branch: it has no physical packets."""
    if kind is DispersionKind.KLEIN_GORDON_NEGATIVE:
        raise BranchError("group velocity is defined only on the physical branches")
    karr = np.asarray(k, dtype=np.float64)
    if kind is DispersionKind.SCHRODINGER:
        out = units.hbar * karr / units.m
    else:
        out = units.c**2 * karr / omega(DispersionKind.KLEIN_GORDON_POSITIVE, karr, units)
    return float(out) if np.isscalar(k) else out


def _below_rest_frequency(w: ArrayOrFloat, units: UnitSystem) -> bool:
    """Whether any w lies below the rest frequency, less the hair of rounding
    slack that lets omega(k=0) itself pass."""
    return bool(np.any(np.asarray(w) < units.rest_omega * (1.0 - 1e-12)))


def gamma_of_omega(omega_value: ArrayOrFloat, units: UnitSystem) -> ArrayOrFloat:
    """Lorentz factor hbar*omega / (m c^2) of a positive-branch frequency.

    Frequencies below the rest frequency have no Lorentz factor; they are
    rejected rather than clamped.
    """
    w = np.asarray(omega_value, dtype=np.float64)
    if _below_rest_frequency(w, units):
        raise ValueError(
            f"omega {float(np.min(w))} is below the rest frequency {units.rest_omega}; "
            "the Lorentz factor is defined on the positive branch only"
        )
    out = units.hbar * w / (units.m * units.c**2)
    return float(out) if np.isscalar(omega_value) else out


class GammaStats(NamedTuple):
    """Spectral-weighted Lorentz factor and its spread over a state."""

    gamma_bar: float
    gamma_spread: float

    @property
    def relative_spread(self) -> float:
        return self.gamma_spread / self.gamma_bar


def gamma_of_state(state: "SpectralState") -> GammaStats:
    """Weighted mean and standard deviation of gamma over |a_j|^2 weights.

    Only positive-branch Klein-Gordon states carry a Lorentz factor. The
    frequencies are the state's own, computed once per state lineage.
    """
    if state.kind is not DispersionKind.KLEIN_GORDON_POSITIVE:
        raise KindError("gamma statistics require a positive-branch Klein-Gordon state")
    weights = np.abs(state.coefficients) ** 2
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("state carries no spectral weight")
    weights = weights / total
    gam = gamma_of_omega(state.omegas, state.units)
    gamma_bar = float(np.sum(weights * gam))
    gamma_spread = float(math.sqrt(max(0.0, float(np.sum(weights * (gam - gamma_bar) ** 2)))))
    return GammaStats(gamma_bar=gamma_bar, gamma_spread=gamma_spread)
