"""Hot numeric kernels: direct mode summation and pair-wise density.

Both kernels are plain sums over spectral modes, O(n_x * n_modes) and
O(n_x * n_modes^2), and dominate runtime whenever the mode count is not
tiny. Each ships in two equivalent implementations: a numba @njit version
and a pure-numpy one. The numba path is used when numba imports cleanly
and the environment variable KG_LAB_NO_NUMBA is unset/empty/"0"; setting
KG_LAB_NO_NUMBA=1 forces the numpy path. The `mode-scan` workload of
`kgbench/run.py` times `pair_density` inside `superposition_density`.

Everything here is convention-free: coefficients are plane-wave amplitudes
A_j of sum_j A_j exp(i(k_j x - omega_j t)); normalization and physical
prefactors belong to the callers.
"""
from __future__ import annotations

import os

import numpy as np

_ENV_FLAG = "KG_LAB_NO_NUMBA"

# Chunk rows so the numpy outer-product path stays cache- and memory-sane
# for full spectral arrays (n_modes == n_x == 8192 would otherwise build
# a 1 GiB phase matrix in one piece).
_CHUNK = 512


def mode_sum_numpy(coefficients: np.ndarray, wavenumbers: np.ndarray,
                   omegas: np.ndarray, positions: np.ndarray, t: float) -> np.ndarray:
    """psi(x_i, t) = sum_j A_j exp(i (k_j x_i - omega_j t)), vectorized."""
    phased = coefficients * np.exp(-1j * omegas * t)
    out = np.empty(positions.shape[0], dtype=np.complex128)
    for start in range(0, positions.shape[0], _CHUNK):
        block = positions[start:start + _CHUNK, None] * wavenumbers[None, :]
        out[start:start + _CHUNK] = np.exp(1j * block) @ phased
    return out


def pair_density_numpy(coefficients: np.ndarray, wavenumbers: np.ndarray,
                       omegas: np.ndarray, positions: np.ndarray, t: float) -> np.ndarray:
    """Pair-wise density sum (no physical prefactor):

        s(x) = sum_j omega_j |A_j|^2
             + sum_{j<k} (omega_j + omega_k) Re[A_j A_k* e^{i phi_jk(x,t)}]

    with phi_jk = (k_j - k_k) x - (omega_j - omega_k) t. Loops over the
    mode pairs and vectorizes over x; mode counts are small in practice.
    """
    m = coefficients.shape[0]
    out = np.full(positions.shape[0], float(np.sum(omegas * np.abs(coefficients) ** 2)))
    for j in range(m):
        for l in range(j + 1, m):
            z = coefficients[j] * np.conj(coefficients[l])
            phase = (wavenumbers[j] - wavenumbers[l]) * positions - (omegas[j] - omegas[l]) * t
            out += (omegas[j] + omegas[l]) * (z.real * np.cos(phase) - z.imag * np.sin(phase))
    return out


def _numba_requested() -> bool:
    return os.environ.get(_ENV_FLAG, "0") not in ("1", "true", "yes")


NUMBA_ENABLED = False
mode_sum_jit = None
pair_density_jit = None

if _numba_requested():
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        pass
    else:
        @njit(cache=True)
        def _mode_sum(coefficients, wavenumbers, omegas, positions, t):  # pragma: no cover
            nx = positions.shape[0]
            m = coefficients.shape[0]
            phased = coefficients * np.exp(-1j * omegas * t)
            pr = phased.real.copy()
            pi = phased.imag.copy()
            out = np.empty(nx, dtype=np.complex128)
            for i in range(nx):
                x = positions[i]
                acc_r = 0.0
                acc_i = 0.0
                for j in range(m):
                    ph = wavenumbers[j] * x
                    c = np.cos(ph)
                    s = np.sin(ph)
                    acc_r += pr[j] * c - pi[j] * s
                    acc_i += pr[j] * s + pi[j] * c
                out[i] = complex(acc_r, acc_i)
            return out

        @njit(cache=True)
        def _pair_density(coefficients, wavenumbers, omegas, positions, t):  # pragma: no cover
            nx = positions.shape[0]
            m = coefficients.shape[0]
            diag = 0.0
            for j in range(m):
                diag += omegas[j] * (coefficients[j].real ** 2 + coefficients[j].imag ** 2)
            # Pair-constant tables, hoisted out of the position loop.  The time
            # phase folds into the pair amplitude: w = a_j conj(a_l) e^{-i dw t}.
            npairs = m * (m - 1) // 2
            wr = np.empty(npairs, dtype=np.float64)
            wi = np.empty(npairs, dtype=np.float64)
            wsum = np.empty(npairs, dtype=np.float64)
            jdx = np.empty(npairs, dtype=np.int64)
            ldx = np.empty(npairs, dtype=np.int64)
            p = 0
            for j in range(m):
                for l in range(j + 1, m):
                    z = coefficients[j] * np.conj(coefficients[l])
                    dwt = (omegas[j] - omegas[l]) * t
                    c = np.cos(dwt)
                    s = np.sin(dwt)
                    wr[p] = z.real * c + z.imag * s
                    wi[p] = z.imag * c - z.real * s
                    wsum[p] = omegas[j] + omegas[l]
                    jdx[p] = j
                    ldx[p] = l
                    p += 1
            # One sincos per mode per point; each pair phase e^{i(k_j-k_l)x} is a
            # product of mode phases, so the inner loop is trig free.
            ur = np.empty(m, dtype=np.float64)
            ui = np.empty(m, dtype=np.float64)
            out = np.empty(nx, dtype=np.float64)
            for i in range(nx):
                x = positions[i]
                for j in range(m):
                    ph = wavenumbers[j] * x
                    ur[j] = np.cos(ph)
                    ui[j] = np.sin(ph)
                acc = diag
                for q in range(npairs):
                    a = jdx[q]
                    b = ldx[q]
                    vr = ur[a] * ur[b] + ui[a] * ui[b]
                    vi = ui[a] * ur[b] - ur[a] * ui[b]
                    acc += wsum[q] * (wr[q] * vr - wi[q] * vi)
                out[i] = acc
            return out

        mode_sum_jit = _mode_sum
        pair_density_jit = _pair_density
        NUMBA_ENABLED = True


def _as_kernel_args(coefficients, wavenumbers, omegas, positions, t):
    return (
        np.ascontiguousarray(coefficients, dtype=np.complex128),
        np.ascontiguousarray(wavenumbers, dtype=np.float64),
        np.ascontiguousarray(omegas, dtype=np.float64),
        np.ascontiguousarray(positions, dtype=np.float64),
        float(t),
    )


def mode_sum(coefficients, wavenumbers, omegas, positions, t):
    """Dispatching wrapper around the active mode-summation kernel."""
    args = _as_kernel_args(coefficients, wavenumbers, omegas, positions, t)
    if NUMBA_ENABLED:
        return mode_sum_jit(*args)
    return mode_sum_numpy(*args)


def pair_density(coefficients, wavenumbers, omegas, positions, t):
    """Dispatching wrapper around the active pair-density kernel."""
    args = _as_kernel_args(coefficients, wavenumbers, omegas, positions, t)
    if NUMBA_ENABLED:
        return pair_density_jit(*args)
    return pair_density_numpy(*args)


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"
