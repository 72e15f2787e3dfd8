"""The pair-wise density kernel behind `observables.superposition_density`.

One numpy function, O(n_x * n_modes^2): it loops over the mode pairs and
vectorizes over positions. Mode counts are small in practice (2 to a few
dozen), and the explicit cross-term form is the one the interference study
writes down. The `mode-scan` workload of `kgbench/run.py` times it inside
`superposition_density`.

Everything here is convention-free: coefficients are plane-wave amplitudes
A_j of sum_j A_j exp(i(k_j x - omega_j t)); normalization and physical
prefactors belong to the caller, which passes complex128/float64 arrays
and a float t.
"""
from __future__ import annotations

import numpy as np


def pair_density(coefficients: np.ndarray, wavenumbers: np.ndarray,
                 omegas: np.ndarray, positions: np.ndarray, t: float) -> np.ndarray:
    """Pair-wise density sum (no physical prefactor):

        s(x) = sum_j omega_j |A_j|^2
             + sum_{j<k} (omega_j + omega_k) Re[A_j A_k* e^{i phi_jk(x,t)}]

    with phi_jk = (k_j - k_k) x - (omega_j - omega_k) t.
    """
    m = coefficients.shape[0]
    out = np.full(positions.shape[0], float(np.sum(omegas * np.abs(coefficients) ** 2)))
    for j in range(m):
        for l in range(j + 1, m):
            z = coefficients[j] * np.conj(coefficients[l])
            phase = (wavenumbers[j] - wavenumbers[l]) * positions - (omegas[j] - omegas[l]) * t
            out += (omegas[j] + omegas[l]) * (z.real * np.cos(phase) - z.imag * np.sin(phase))
    return out
