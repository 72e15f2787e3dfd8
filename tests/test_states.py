import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from kg_lab import (
    BandwidthError,
    DispersionKind,
    KindError,
    ModeSet,
    UnitSystem,
    evolve,
    from_coefficients,
    gaussian_packet,
    make_grid,
    moments,
    rest_phase_strip,
    superposition,
    unphysical_negative_branch,
)
from kg_lab.foundation import check_bandwidth, forward_transform, state_norm
from kg_lab.states import SUPPORT_SIGMAS, PacketSpec

KG = DispersionKind.KLEIN_GORDON_POSITIVE


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(0.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        PacketSpec(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PacketSpec(float("nan"), 1.0, 1.0)


def test_packet_support_rule(natural, grid400):
    # |x0| + 9.6 sigma must fit inside the half box.
    assert SUPPORT_SIGMAS == pytest.approx(9.597, abs=1e-3)
    with pytest.raises(BandwidthError):
        gaussian_packet(PacketSpec(150.0, 0.0, 10.0), grid400, natural, KG)
    with pytest.raises(BandwidthError):
        gaussian_packet(PacketSpec(0.0, 0.0, 21.0), grid400, natural, KG)
    gaussian_packet(PacketSpec(100.0, 0.0, 10.0), grid400, natural, KG)


def test_packet_seam_tail_still_gated(natural, grid400):
    # A packet hugging the seam leaves a wrap discontinuity whose spectral
    # tail reaches the Nyquist line. Under the old |x0| + 6 sigma rule this
    # one was admitted and failed the band-limit check; the envelope rule
    # now rejects it first.
    with pytest.raises(BandwidthError, match="packet support"):
        gaussian_packet(PacketSpec(100.0, 0.0, 16.0), grid400, natural, KG)


def test_packet_bandwidth_rule(natural):
    grid = make_grid(256, 100.0)
    k_max = np.pi * 256 / 100.0
    with pytest.raises(BandwidthError):
        gaussian_packet(PacketSpec(0.0, k_max, 5.0), grid, natural, KG)
    gaussian_packet(PacketSpec(0.0, 0.5 * k_max, 5.0), grid, natural, KG)


def test_packet_norm_and_moments(natural, grid400):
    state = gaussian_packet(PacketSpec(0.0, 5.0, 10.0), grid400, natural, KG)
    assert abs(state_norm(grid400, state.values) - 1.0) <= 1e-10
    m = moments(state.density_nonrel, grid400)
    assert abs(m.centroid) <= grid400.dx / 10.0
    assert abs(m.variance - 100.0) <= 1e-6 * 100.0


def test_packet_off_grid_center(natural, grid400):
    state = gaussian_packet(PacketSpec(1.237, 2.0, 8.0), grid400, natural, KG)
    m = moments(state.density_nonrel, grid400)
    assert abs(m.centroid - 1.237) <= grid400.dx


def test_packet_spectrum_centered_on_carrier(natural, grid400):
    state = gaussian_packet(PacketSpec(0.0, 5.0, 10.0), grid400, natural, KG)
    w = np.abs(state.coefficients) ** 2
    k = grid400.wavenumbers
    k_mean = np.sum(w * k) / np.sum(w)
    k_spread = np.sqrt(np.sum(w * (k - k_mean) ** 2) / np.sum(w))
    assert abs(k_mean - 5.0) <= 1e-6 * 5.0
    # Position width sigma maps to spectral width 1 / (2 sigma).
    assert abs(k_spread - 0.05) <= 0.01 * 0.05


def test_state_arrays_immutable(natural, grid400):
    state = gaussian_packet(PacketSpec(0.0, 3.0, 10.0), grid400, natural, KG)
    with pytest.raises(ValueError):
        state.values[0] = 0.0
    with pytest.raises(ValueError):
        state.coefficients[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.time = 1.0


def test_state_rejects_unnormalized(natural):
    grid = make_grid(64, 20.0)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = 1.0  # norm L * |a|^2 = 20, not 1
    with pytest.raises(ValueError):
        from_coefficients(grid, natural, KG, coeffs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_rejects_non_finite_coefficients(natural, bad):
    # NaN compares False against every tolerance; the checks must still fail.
    grid = make_grid(64, 20.0)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = 1.0 / np.sqrt(20.0)
    coeffs[5] = bad
    with pytest.raises(ValueError, match="norm"):
        from_coefficients(grid, natural, KG, coeffs)
    coeffs[5] = 0.0
    coeffs[32] = np.nan  # NaN in the Nyquist mode itself
    with pytest.raises(BandwidthError):
        check_bandwidth(grid, coeffs)


@st.composite
def band_limited_coefficients(draw):
    n = draw(st.sampled_from([8, 16, 64, 256]))
    length = draw(st.floats(0.5, 1e3))
    parts = hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0))
    coeffs = draw(parts) + 1j * draw(parts)
    coeffs[n // 2] = 0.0  # the Nyquist mode stays empty
    total = np.sqrt(length * np.sum(np.abs(coeffs) ** 2))
    assume(total > 1e-100)
    return make_grid(n, length), coeffs / total


@given(band_limited_coefficients())
def test_values_transform_back_to_coefficients(problem):
    grid, coeffs = problem
    state = from_coefficients(grid, UnitSystem.natural(), KG, coeffs)
    residual = np.linalg.norm(forward_transform(grid, state.values) - state.coefficients)
    assert residual <= 1e-12 * np.linalg.norm(state.coefficients)
    assert state.values is state.values
    assert not state.values.flags.writeable


def test_state_rejects_nyquist_weight(natural):
    grid = make_grid(64, 20.0)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[32] = 1.0 / np.sqrt(20.0)
    with pytest.raises(BandwidthError):
        from_coefficients(grid, natural, KG, coeffs)


def test_mode_set_validation():
    with pytest.raises(ValueError):
        ModeSet([])
    with pytest.raises(ValueError):
        ModeSet([(0.5, 1.0), (0.5, 2.0)])  # sum of squares 0.5
    with pytest.raises(ValueError):
        ModeSet([(np.sqrt(0.5), 1.0), (np.sqrt(0.5), 1.0)])  # duplicate k
    ms = ModeSet([(0.6, 0.0), (0.8j, 2.0)])
    np.testing.assert_allclose(ms.amplitudes, [0.6, 0.8j])
    np.testing.assert_allclose(ms.wavenumbers, [0.0, 2.0])


def test_single_mode_superposition_is_uniform(natural):
    grid = make_grid(128, 50.0)
    k = grid.wavenumbers[5]
    state = superposition(ModeSet([(1.0, k)]), grid, natural, KG)
    np.testing.assert_allclose(state.density_nonrel, 1.0 / 50.0, rtol=1e-12)
    assert abs(state.coefficients[5] - 1.0 / np.sqrt(50.0)) <= 1e-14
    assert np.count_nonzero(np.abs(state.coefficients) > 1e-15) == 1


def test_two_mode_superposition_beats(natural):
    grid = make_grid(256, 80.0)
    k1, k2 = grid.wavenumbers[3], grid.wavenumbers[8]
    amp = np.sqrt(0.5)
    state = superposition(ModeSet([(amp, k1), (amp, k2)]), grid, natural, KG)
    expected = (1.0 + np.cos((k2 - k1) * grid.points)) / 80.0
    np.testing.assert_allclose(state.density_nonrel, expected, rtol=0, atol=1e-14)


def test_superposition_rejects_off_lattice(natural):
    grid = make_grid(64, 20.0)
    with pytest.raises(BandwidthError):
        superposition(ModeSet([(1.0, 1.05)]), grid, natural, KG)


def test_superposition_rejects_nyquist(natural):
    grid = make_grid(64, 20.0)
    k_nyq = np.pi * 64 / 20.0
    with pytest.raises(BandwidthError):
        superposition(ModeSet([(1.0, k_nyq)]), grid, natural, KG)


def test_rest_phase_strip(natural, grid400):
    state = gaussian_packet(PacketSpec(0.0, 1.0, 15.0), grid400, natural, KG)
    # At t = 0 stripping is the identity.
    same = rest_phase_strip(state)
    np.testing.assert_array_equal(same.values, state.values)

    evolved = evolve(state, 3.0).state
    stripped = rest_phase_strip(evolved)
    phase = np.exp(1j * natural.rest_omega * 3.0)
    np.testing.assert_allclose(stripped.values, evolved.values * phase, rtol=1e-14)
    assert stripped.time == evolved.time
    # Transform consistency survives the global phase.
    residual = np.linalg.norm(
        forward_transform(grid400, stripped.values) - stripped.coefficients
    )
    assert residual <= 1e-12


def test_rest_phase_strip_rejects_other_kinds(natural, grid400):
    for kind in (DispersionKind.SCHRODINGER, unphysical_negative_branch()):
        state = gaussian_packet(PacketSpec(0.0, 1.0, 15.0), grid400, natural, kind)
        with pytest.raises(KindError):
            rest_phase_strip(state)
