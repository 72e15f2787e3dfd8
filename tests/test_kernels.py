import numpy as np
from hypothesis import given, strategies as st

from kg_lab import _kernels

amplitudes = st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0,
                                allow_nan=False, allow_infinity=False)


@st.composite
def pair_problems(draw):
    ks = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6, unique=True)))
    coeffs = np.array(draw(st.lists(amplitudes, min_size=len(ks), max_size=len(ks))),
                      dtype=np.complex128)
    x = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=4)))
    t = draw(st.floats(0.0, 1e3))
    return coeffs, ks, np.sqrt(1.0 + ks**2), x, t


@given(pair_problems())
def test_pair_density_against_naive_python(problem):
    coeffs, ks, omegas, x, t = problem
    out = _kernels.pair_density(coeffs, ks, omegas, x, t)
    # Rounding scale: the summed magnitudes of all double-sum terms.
    mags = np.abs(coeffs)
    tol = 1e-12 * float(np.sum(0.5 * np.add.outer(omegas, omegas) * np.outer(mags, mags)))
    m = len(ks)
    for i in range(len(x)):
        # Full double sum: s = sum_{j,l} (omega_j + omega_l)/2 A_j A_l* e^{i phi};
        # the diagonal reproduces the j < l form plus the static term.
        s = 0.0
        for j in range(m):
            for l in range(m):
                phase = (ks[j] - ks[l]) * x[i] - (omegas[j] - omegas[l]) * t
                s += 0.5 * (omegas[j] + omegas[l]) * (
                    coeffs[j] * np.conj(coeffs[l]) * np.exp(1j * phase)
                ).real
        assert abs(out[i] - s) <= tol
