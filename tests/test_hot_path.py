"""The allocation-lean hot path equals the plain expressions, bit for bit.

Transforms, evolve, the derivatives and the bilinears work in the one array
each returns, and each state lineage computes its frequencies once. The
evolution phase is exponentiated on half the lattice and mirrored, and a
packet's carrier is evaluated only where its envelope is nonzero, and a
real field's derivative takes the half spectrum. These tests write the
plain numpy expressions out (one fresh array per operation, over the whole
grid) and require the lean steps to reproduce them exactly, without
touching any input array.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import kg_lab
from kg_lab import (
    DispersionKind,
    PacketSpec,
    UnitSystem,
    compute_fields,
    continuity_residual,
    current_std,
    density_kg,
    evolve,
    forward_transform,
    gaussian_packet,
    inverse_transform,
    kg_residual,
    make_grid,
    moments,
    omega,
    spectral_derivative,
    state_norm,
)
from kg_lab import observables, propagation
from kg_lab.foundation import _twist
from kg_lab.scenarios import run_scenario, validate_config
from kg_lab.states import _envelope
from strategies import KG, KINDS, NR, packets, states


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64
                                ).view(np.uint64)


def _same(a, b):
    return np.array_equal(_bits(a), _bits(b))


# The parent's expressions, one fresh array per operation.

def _plain_forward(n, values):
    return _twist(n) * np.fft.fft(values, norm="forward")


def _plain_inverse(n, coefficients):
    return np.fft.ifft(_twist(n) * coefficients, norm="forward")


# A real field's derivative on the half spectrum: the +-1 twists cancel.
def _plain_real_derivative(grid, values):
    n = grid.n
    half = 1j * grid.wavenumbers[:n // 2 + 1] * np.fft.rfft(values, norm="forward")
    return np.fft.irfft(half, n, norm="forward")


def _plain_bilinear(prefactor, psi, d):
    return (prefactor * (np.conj(psi) * d - psi * np.conj(d))).real


def _plain_continuity(rho_before, rho_after, current, dt, grid):
    drho_dt = (rho_after - rho_before) / (2.0 * dt)
    dj_dx = _plain_real_derivative(grid, current)
    defect = float(np.max(np.abs(drho_dt + dj_dx)))
    return defect * grid.length / float(np.max(np.abs(current)))


def _plain_edge_moments(rho, grid):
    mass = float(rho.sum())
    weights = rho / mass
    x = grid.points
    angles = 2.0 * math.pi * (x + 0.5 * grid.length) / grid.length
    z = complex(np.sum(weights * np.exp(1j * angles)))
    angle = math.atan2(z.imag, z.real) % (2.0 * math.pi)
    centroid = -0.5 * grid.length + grid.length * angle / (2.0 * math.pi)
    disp = np.mod(x - centroid + 0.5 * grid.length, grid.length) - 0.5 * grid.length
    return mass * grid.dx, centroid, float(np.sum(weights * disp**2))


@given(state=states(band=1.0), t=st.floats(-1e6, 1e6))
def test_in_place_steps_equal_the_plain_expressions(state, t):
    grid, units, kind, n = state.grid, state.units, state.kind, state.grid.n
    coefficients = np.array(state.coefficients)  # a writable copy to pass in
    psi = _plain_inverse(n, coefficients)
    real = np.ascontiguousarray(psi.real)
    inputs = [coefficients, psi, real]
    kept = [a.copy() for a in inputs]

    assert _same(inverse_transform(grid, coefficients), psi)
    assert _same(forward_transform(grid, psi), _plain_forward(n, psi))
    assert _same(forward_transform(grid, real), _plain_forward(n, real))
    assert _same(spectral_derivative(grid, real), _plain_real_derivative(grid, real))
    assert _same(state.values, psi)
    assert _same(state.density_nonrel, psi.real**2 + psi.imag**2)

    omegas = omega(kind, grid.wavenumbers, units)
    # The phase is exponentiated on modes 0..n/2 and mirrored onto the rest.
    assert _same(propagation._phase(omegas, float(t)), np.exp(-1j * omegas * float(t)))
    result = evolve(state, t)
    evolved = coefficients * np.exp(-1j * omegas * float(t))
    if kind is not DispersionKind.SCHRODINGER:
        assert kg_residual(state, t) == propagation._spectral_residual(
            evolved, omegas, grid.wavenumbers, units)
    assert _same(result.state.coefficients, evolved)
    assert _same(result.state.omegas, omegas)
    dpsi_dt = _plain_inverse(n, -1j * omegas * evolved)
    dpsi_dx = _plain_inverse(n, 1j * grid.wavenumbers * evolved)
    assert _same(result.dpsi_dt, dpsi_dt)
    assert _same(result.dpsi_dx, dpsi_dx)

    psi_t = _plain_inverse(n, evolved)
    inputs += [psi_t, dpsi_dt, dpsi_dx]
    kept += [a.copy() for a in inputs[3:]]
    assert _same(density_kg(psi_t, dpsi_dt, units),
                 _plain_bilinear(-units.hbar / (2j * units.m * units.c**2), psi_t, dpsi_dt))
    j = current_std(psi_t, dpsi_dx, units)
    assert _same(j, _plain_bilinear(units.hbar / (2j * units.m), psi_t, dpsi_dx))

    rho_before = np.array(evolve(result.state, -1e-3).state.density_nonrel)
    rho_after = np.array(evolve(result.state, 1e-3).state.density_nonrel)
    inputs += [rho_before, rho_after, j]
    kept += [a.copy() for a in inputs[6:]]
    residual = continuity_residual(rho_before, rho_after, j, 1e-3, grid)
    assert residual == _plain_continuity(rho_before, rho_after, j, 1e-3, grid)

    # A random spectrum fills the box, so moments takes the circular mean.
    rho = np.array(result.state.density_nonrel)
    edge = max(1, round(observables._EDGE_BAND * n))
    assert (rho[:edge].sum() + rho[-edge:].sum()) / rho.sum() > observables._EDGE_MASS_SWITCH
    inputs.append(rho)
    kept.append(rho.copy())
    assert _same(np.array(moments(rho, grid)), np.array(_plain_edge_moments(rho, grid)))

    for before, after in zip(kept, inputs):
        assert _same(before, after)


@given(state=st.one_of(states(), states(band=1.0)), level=st.floats(-1e300, 1e300))
def test_a_real_derivative_on_the_half_spectrum_matches_the_complex_pair(state, level):
    grid, k = state.grid, state.grid.wavenumbers
    real = np.ascontiguousarray(state.values.real)  # band-limited, Nyquist line empty
    result = spectral_derivative(grid, real)
    full = np.fft.ifft(1j * k * np.fft.fft(real)).real
    assert result.dtype == np.float64 and result.shape == (grid.n,)
    assert np.max(np.abs(result - full)) <= 1e-14 * np.max(np.abs(result))
    # A constant field's half spectrum is its mean alone, and k_0 = 0.
    assert not np.any(spectral_derivative(grid, np.full(grid.n, level)))


# Packets also on a grid far beyond L2, at n = 2^16.
BIG_PACKETS = packets(tuple(2**p for p in range(8, 13)) + (2**16,))


@given(packet=BIG_PACKETS, kind=st.sampled_from(KINDS))
def test_a_packet_evaluates_its_carrier_only_where_the_envelope_is_nonzero(packet, kind):
    spec, grid = packet
    units = UnitSystem.natural()
    x = grid.points
    envelope = (2.0 * math.pi * spec.sigma**2) ** -0.25 \
        * np.exp(-((x - spec.x0) ** 2) / (4.0 * spec.sigma**2))
    values = envelope * np.exp(1j * spec.k0 * x)
    values = values / math.sqrt(state_norm(grid, values))
    state = gaussian_packet(spec, grid, units, kind)
    assert _same(state.coefficients, forward_transform(grid, values))


@given(packet=BIG_PACKETS)
def test_a_packet_evaluates_its_envelope_only_where_it_can_be_nonzero(packet):
    spec, grid = packet
    # The packet's grid, and its center with points on both sides of the
    # underflow edge, where (x - x0)^2 / 4 sigma^2 runs from 744 to 747.
    edge = 2.0 * spec.sigma * np.sqrt(np.linspace(744.0, 747.0, 301))
    for x in (grid.points, np.concatenate([spec.x0 - edge[::-1], [spec.x0], spec.x0 + edge])):
        envelope = (2.0 * math.pi * spec.sigma**2) ** -0.25 \
            * np.exp(-((x - spec.x0) ** 2) / (4.0 * spec.sigma**2))
        support = np.flatnonzero(envelope)
        # Every nonzero sample lies within 2 sigma sqrt(746) of the center,
        # and the window the packet evaluates holds all of them, bit for bit.
        assert np.all(np.abs(x[support] - spec.x0) <= 2.0 * spec.sigma * math.sqrt(746.0))
        window, inside = _envelope(spec, x)
        assert window == slice(support[0], support[-1] + 1)
        assert _same(inside, envelope[window])


def _count_omega_calls(monkeypatch):
    """Record (kind, is_scalar) for each omega call, in every module that holds it."""
    calls = []
    plain = kg_lab.dispersion.omega

    def counting(*args):
        calls.append((args[0], np.ndim(args[1]) == 0))
        return plain(*args)

    for module in (kg_lab, kg_lab.dispersion, kg_lab.states, kg_lab.propagation,
                   kg_lab.observables, kg_lab.scenarios):
        if hasattr(module, "omega"):
            monkeypatch.setattr(module, "omega", counting)
    return calls


def _sweep_op(kind):
    """One packet-sweep op: build the packet, evolve, fields, the t -/+ dt
    snapshots, the continuity residual and moments; returns the packet and
    its evolution to t."""
    grid, dt, t = make_grid(4096, 400.0), 1e-3, 1e4
    rho = "rho_nonrel" if kind is NR else "rho_kg"
    state = gaussian_packet(PacketSpec(10.0, 2.0, 8.0), grid, UnitSystem(1.0, 1.0, 4.0), kind)
    result = evolve(state, t)
    fields = compute_fields(result)
    before = getattr(compute_fields(evolve(state, t - dt)), rho)
    after = getattr(compute_fields(evolve(state, t + dt)), rho)
    continuity_residual(before, after, fields.j_std, dt, grid)
    moments(getattr(fields, rho), grid)
    return state, result


def test_a_kg_sweep_op_computes_omega_once(monkeypatch):
    calls = _count_omega_calls(monkeypatch)
    state, result = _sweep_op(KG)
    assert calls == [(KG, False)]
    assert result.state.omegas is state.omegas
    assert evolve(result.state, -result.state.time).state.omegas is state.omegas


# The packet's forward transform; psi, dpsi/dx and (KG+) dpsi/dt at t; psi
# and (KG+) dpsi/dt at t -/+ dt; and the real current's dj/dx on the half
# spectrum, which the complex pair would add to the first two counts.
@pytest.mark.parametrize("kind, inverse", [(KG, 7), (NR, 4)])
def test_a_sweep_op_takes_dj_dx_on_the_half_spectrum(transform_calls, kind, inverse):
    _sweep_op(kind)
    assert dict(transform_calls) == {"forward_transform": 1, "inverse_transform": inverse,
                                     "rfft": 1, "irfft": 1}


def test_a_packet_continuity_run_computes_omega_once_per_lineage(monkeypatch, tmp_path):
    config = validate_config('{"scenario": "packet-continuity"}',
                             output_override=str(tmp_path))
    calls = _count_omega_calls(monkeypatch)
    run_scenario(config)
    # One state lineage: the lattice frequencies once, then every evolved
    # state and its gamma statistics read them. The carrier's group
    # velocity takes one frequency of its own.
    assert [call for call in calls if not call[1]] == [(KG, False)]
    assert [call for call in calls if call[1]] == [(KG, True)]


def test_a_state_makes_no_blas_call(monkeypatch):
    # At n >= 16384 a BLAS dot product wakes OpenBLAS's thread pool, whose
    # spinning worker then holds a second core; a state's checks sum by einsum.
    def blas(*args, **kwargs):
        raise AssertionError("a BLAS call")

    for name in ("vdot", "dot", "inner"):
        monkeypatch.setattr(np, name, blas)
    grid = make_grid(32768, 3200.0)
    state = gaussian_packet(PacketSpec(10.0, 2.0, 8.0), grid, UnitSystem(1.0, 1.0, 4.0), KG)
    assert np.isfinite(compute_fields(evolve(state, 1e4)).rho_kg).all()
