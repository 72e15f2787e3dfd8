"""kg-lab: a spectral laboratory for free relativistic wave packets.

Exact Fourier-space evolution of Klein-Gordon (positive branch) and
Schrodinger states on periodic grids, with the conserved density, the
standard current, Lorentz-factor statistics, amended (gamma-rescaled)
observables, continuity diagnostics, and interference studies where the
conserved density turns negative.
"""
from .foundation import (
    Grid1D,
    UnitSystem,
    forward_transform,
    inverse_transform,
    make_grid,
    spectral_derivative,
    state_norm,
)
from .dispersion import (
    DispersionKind,
    GammaStats,
    gamma_of_omega,
    gamma_of_state,
    group_velocity,
    omega,
    unphysical_negative_branch,
)
from .states import (
    ModeSet,
    PacketSpec,
    SpectralState,
    from_coefficients,
    gaussian_packet,
    rest_phase_strip,
    superposition,
)
from .propagation import EvolutionResult, evolve, kg_residual
from .observables import (
    DensityCurrentFields,
    Moments,
    SuperpositionDensity,
    TwoModeSpec,
    compute_fields,
    continuity_exact,
    continuity_residual,
    current_std,
    density_kg,
    moments,
    superposition_density,
    two_mode_density_of_phase,
    two_mode_min_density,
)
from .errors import BandwidthError, BranchError, ConfigError, KindError

__version__ = "0.1.0"

__all__ = [
    "Grid1D", "UnitSystem", "forward_transform", "inverse_transform", "make_grid",
    "spectral_derivative", "state_norm",
    "DispersionKind", "GammaStats", "gamma_of_omega", "gamma_of_state", "group_velocity",
    "omega", "unphysical_negative_branch",
    "ModeSet", "PacketSpec", "SpectralState", "from_coefficients", "gaussian_packet",
    "rest_phase_strip", "superposition",
    "EvolutionResult", "evolve", "kg_residual",
    "DensityCurrentFields", "Moments", "SuperpositionDensity", "TwoModeSpec", "compute_fields",
    "continuity_exact", "continuity_residual", "current_std", "density_kg", "moments",
    "superposition_density", "two_mode_density_of_phase", "two_mode_min_density",
    "BandwidthError", "BranchError", "ConfigError", "KindError",
    "__version__",
]
