"""Units, periodic grids, the spectral transform pair and a real field's d/dx.

The grid is a uniform periodic sampling of [-L/2, L/2) and the transform
convention is fixed once here: the forward transform carries the 1/n
factor and coefficients are amplitudes of plane waves e^{i k_j x} on the
*centered* grid,

    a_j = (1/n) sum_i psi(x_i) exp(-i k_j x_i),    x_0 = -L/2,

so a pure mode e^{i k_j x} transforms to a unit coefficient at index j.
Relative to raw FFT indexing this folds in an exact (-1)^j twist, which
squares to one and keeps the round trip bit-reproducible.

A state's norm and Nyquist checks read one sum of |a|^2 (_parseval),
taken with einsum rather than BLAS: a BLAS dot product at n >= 16384
wakes OpenBLAS's thread pool, whose spinning worker holds a second core.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any

import numpy as np

from .errors import BandwidthError

# Valid states must keep the unmatched -n/2 mode empty to this fraction
# of the spectral norm; above it the state is not band-limited on this grid.
NYQUIST_TOLERANCE = 1e-10
# Grid1D.wavenumber_index takes k within LATTICE_TOLERANCE * (1 + |k|) of 2 pi j / L.
LATTICE_TOLERANCE = 1e-9


def _finite(value: float) -> bool:
    """math.isfinite, False for an int too large for a float instead of OverflowError."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _as_float(value: Any, name: str, *, array: bool = False) -> Any:
    """float(value), or np.asarray(value, dtype=np.float64) with array=True;
    ValueError instead of OverflowError for an int too large for a float."""
    try:
        return np.asarray(value, dtype=np.float64) if array else float(value)
    except OverflowError:
        raise ValueError(f"{name} is an int too large for a float") from None


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants for one run: hbar, light speed c, and mass m."""

    hbar: float = 1.0
    c: float = 1.0
    m: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "c", "m"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and _finite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        # Finite, positive constants can still over- or underflow in the
        # products the physics forms from them (m c^2, rest_omega^2).
        c2 = self.c * self.c
        rest = self.m * c2 / self.hbar
        for label, value in (("c*c", c2), ("m*c*c", self.m * c2),
                             ("rest_omega", rest), ("rest_omega**2", rest * rest)):
            if not (math.isfinite(value) and value != 0.0):
                raise ValueError(f"{label} is {value!r} for hbar={self.hbar!r}, c={self.c!r}, "
                                 f"m={self.m!r}; it must be finite and nonzero")

    @property
    def rest_omega(self) -> float:
        """Rest angular frequency m c^2 / hbar, the positive-branch cutoff."""
        return self.m * self.c**2 / self.hbar

    @property
    def compton_wavenumber(self) -> float:
        """m c / hbar, the scale separating non- and ultra-relativistic k."""
        return self.m * self.c / self.hbar

    @classmethod
    def natural(cls, m: float = 1.0) -> "UnitSystem":
        return cls(hbar=1.0, c=1.0, m=m)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform periodic grid and its DFT-conjugate wavenumber lattice."""

    n: int
    length: float
    points: np.ndarray = field(repr=False)
    wavenumbers: np.ndarray = field(repr=False)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def nyquist_index(self) -> int:
        """Array position of the unmatched -n/2 mode."""
        return self.n // 2

    @cached_property
    def circle_points(self) -> np.ndarray:
        """The points mapped onto the unit circle, exp(i 2 pi (x + L/2) / L).

        Read-only and computed once per grid: the complex exp costs about
        as much as an FFT, and every circular mean reads it.
        """
        angles = 2.0 * math.pi * (self.points + 0.5 * self.length) / self.length
        return _readonly(np.exp(1j * angles))

    def wavenumber_index(self, k: float) -> int:
        """Array position of lattice wavenumber k; BandwidthError off-lattice.

        k must sit on 2*pi*j/L to within LATTICE_TOLERANCE*(1 + |k|); the Nyquist
        mode itself is rejected because valid states must leave it empty.
        """
        k = _as_float(k, "k")
        position = k * self.length / (2.0 * math.pi)
        # round() raises OverflowError on an infinite position; j = n fails the range check.
        j = int(round(position)) if abs(position) <= self.n else self.n
        if not -self.n // 2 <= j <= self.n // 2 - 1:
            raise BandwidthError(f"wavenumber {k} lies outside the resolvable lattice")
        snapped = 2.0 * math.pi * j / self.length
        if abs(k - snapped) > LATTICE_TOLERANCE * (1.0 + abs(k)):
            raise BandwidthError(
                f"wavenumber {k} is off-lattice (nearest lattice value {snapped!r}); "
                "address modes by integer index for exact placement"
            )
        if j == -self.n // 2:
            raise BandwidthError("the Nyquist mode -n/2 must stay empty in valid states")
        return j % self.n


def make_grid(n: int, length: float) -> Grid1D:
    """Build the n-point periodic grid on [-L/2, L/2).

    n must be a power of two, at least 8; length must be positive finite.
    The wavenumber lattice is exactly antisymmetric: k[n-j] == -k[j] bit
    for bit for j = 1..n/2-1, and k[n/2] = -(n/2) 2 pi/L is the one mode
    without a partner. Anything even in k is therefore mirrored exactly.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 8 or n & (n - 1) != 0:
        raise ValueError(f"n must be a power of two >= 8, got {n}")
    if not (isinstance(length, (int, float)) and _finite(length) and length > 0):
        raise ValueError(f"length must be positive and finite, got {length!r}")
    # The largest |k|, at the Nyquist line, must be finite.
    if not math.isfinite(math.pi * _as_float(n, "n") / length):
        raise ValueError(f"the Nyquist wavenumber pi*n/L overflows for n={n}, length={length!r}")
    length = float(length)
    dx = length / n
    points = -0.5 * length + dx * np.arange(n)
    # Signed DFT index order [0 .. n/2-1, -n/2 .. -1]; k_j = 2*pi*j/L exactly.
    signed = np.concatenate([np.arange(0, n // 2), np.arange(-(n // 2), 0)])
    wavenumbers = (2.0 * math.pi / length) * signed
    return Grid1D(n=n, length=length, points=_readonly(points), wavenumbers=_readonly(wavenumbers))


def _check_length(grid: Grid1D, arr: np.ndarray, name: str,
                  dtype: type = np.complex128) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.shape != (grid.n,):
        raise ValueError(f"{name} must have shape ({grid.n},), got {arr.shape}")
    return arr.astype(dtype, copy=False)


@lru_cache(maxsize=None)
def _twist(n: int) -> np.ndarray:
    # exp(-i k_j x_0) with x_0 = -L/2 is exactly (-1)^j, alternating in
    # array order because index parity matches signed-j parity for even n.
    t = np.ones(n)
    t[1::2] = -1.0
    return _readonly(t)


# norm="forward" puts the whole 1/n on the forward transform and none on
# the inverse. make_grid admits only powers of two, so the scaling is exact.
# Each transform works in the one array it returns (np.fft's out= needs
# numpy >= 2.0): a complex input costs one n-sized allocation, not two.

def forward_transform(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """Spatial samples -> centered-grid plane-wave coefficients (1/n norm)."""
    values = _check_length(grid, values, "values")
    out = np.fft.fft(values, norm="forward")
    return np.multiply(_twist(grid.n), out, out=out)


def inverse_transform(grid: Grid1D, coefficients: np.ndarray) -> np.ndarray:
    """Centered-grid plane-wave coefficients -> spatial samples."""
    coefficients = _check_length(grid, coefficients, "coefficients")
    out = _twist(grid.n) * coefficients
    return np.fft.ifft(out, norm="forward", out=out)


def spectral_derivative(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """d/dx of a real field via ik multiplication on the half spectrum.

    rfft/irfft: the pair's +-1 twists cancel exactly and irfft drops the
    imaginary Nyquist product, as taking the real part would. A complex
    field raises ValueError; a float64 cast would drop its imaginary part.
    """
    if np.iscomplexobj(values):
        raise ValueError("spectral_derivative takes a real field, got a complex one")
    half = np.fft.rfft(_check_length(grid, values, "values", np.float64), norm="forward")
    np.multiply(1j * grid.wavenumbers[:grid.n // 2 + 1], half, out=half)
    return np.fft.irfft(half, grid.n, norm="forward")


def state_norm(grid: Grid1D, values: np.ndarray) -> float:
    """Riemann-sum L2 norm squared of psi: sum |psi|^2 dx."""
    values = np.asarray(values)
    return float(np.sum(np.abs(values) ** 2).real * grid.dx)


def _parseval(grid: Grid1D, coefficients: np.ndarray) -> tuple[float, float]:
    """L sum |a|^2, the Parseval partner of state_norm, and the Nyquist mode's
    amplitude fraction |a_{-n/2}| / ||a||_2 (NaN when the norm is not finite)
    from one einsum pass over the float64 view, which starts no BLAS threads
    (see the module docstring)."""
    c = np.ascontiguousarray(coefficients, dtype=np.complex128).ravel()
    v = c.view(np.float64)
    sum_sq = float(np.einsum("i,i->", v, v))
    total = math.sqrt(sum_sq)
    frac = math.nan if not math.isfinite(total) else (
        0.0 if total == 0.0 else float(abs(c[grid.nyquist_index]) / total))
    return grid.length * sum_sq, frac
