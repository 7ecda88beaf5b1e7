import dataclasses

import numpy as np
import pytest
import scipy.linalg

from cpbsim import (
    DeviceParams,
    DriveProtocol,
    PropagatorConfig,
    Waveform,
    evolve,
    prepare_ensemble,
    ratio_trace,
    reverse_protocol,
    run_protocol,
    sample_drive,
    spectrum_trace,
    stochasticity_defect,
    unitarity_defect,
)
from cpbsim import propagate
from cpbsim.propagate import MAX_SAMPLES, MAX_STEPS, _grid

from _dense import build_hamiltonian, eigensystem, step_unitary

COARSE = PropagatorConfig(time_step=1e-3)


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def _dense_evolve(params, protocol, dt, t_start=0.0, t_stop=None):
    """Reference route: product of dense step_unitary factors on evolve's grid."""
    if t_stop is None:
        t_stop = protocol.duration
    n_full, remainder = _grid(t_stop - t_start, dt)
    steps = [(t_start + (j + 0.5) * dt, dt) for j in range(n_full)]
    if remainder > 0.0:
        steps.append((t_start + n_full * dt + 0.5 * remainder, remainder))
    u = np.eye(params.n_charges, dtype=complex)
    for t_mid, step in steps:
        h = build_hamiltonian(params, sample_drive(protocol, t_mid))
        u = step_unitary(h, step) @ u
    return u


def test_step_unitary_matches_expm():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = _random_hermitian(rng, 8)
        dt = rng.uniform(0.01, 0.5)
        np.testing.assert_allclose(
            step_unitary(h, dt), scipy.linalg.expm(-1j * h * dt), atol=1e-12
        )


def test_step_unitary_is_unitary():
    rng = np.random.default_rng(12)
    u = step_unitary(_random_hermitian(rng, 16), 0.3)
    assert unitarity_defect(u) < 1e-13


def test_evolve_unitary(u_forward):
    assert unitarity_defect(u_forward) < 1e-12


def test_evolve_composes_across_interior_cut(params, protocol):
    full = evolve(params, protocol, COARSE)
    cut = 0.31
    left = evolve(params, protocol, COARSE, 0.0, cut)
    right = evolve(params, protocol, COARSE, cut, protocol.duration)
    np.testing.assert_allclose(right @ left, full, atol=1e-8)


def test_evolve_handles_non_commensurate_window(params, protocol):
    # 0.2/3 is not an integer multiple of the step; the remainder step must
    # land the propagator exactly at t_stop and keep it unitary
    u = evolve(params, protocol, COARSE, 0.0, protocol.duration / 10.0)
    assert unitarity_defect(u) < 1e-12


@pytest.mark.parametrize(
    "direction, window",
    [("forward", None), ("backward", None), ("forward", (0.1, 0.1 + 0.2 / 3.0))],
    ids=["forward", "backward", "sub-window"],
)
def test_evolve_matches_dense_route(params, protocol, direction, window):
    prot = protocol if direction == "forward" else reverse_protocol(protocol)
    t_start, t_stop = window or (0.0, prot.duration)
    if window is not None:
        assert _grid(t_stop - t_start, COARSE.time_step)[1] > 0.0
    u = evolve(params, prot, COARSE, t_start, t_stop)
    reference = _dense_evolve(params, prot, COARSE.time_step, t_start, t_stop)
    assert np.max(np.abs(u - reference)) < 1e-12


def test_grid_takes_at_most_max_steps():
    # a binary step, so that each span below is exact; nothing is propagated
    dt = 2.0**-10
    assert _grid(MAX_STEPS * dt, dt) == (MAX_STEPS, 0.0)
    assert _grid((MAX_STEPS - 0.5) * dt, dt) == (MAX_STEPS - 1, 0.5 * dt)
    # one full step more, or a remainder step after MAX_STEPS full ones
    for span in ((MAX_STEPS + 1) * dt, (MAX_STEPS + 0.5) * dt):
        with pytest.raises(ValueError, match=f"finite and at most {MAX_STEPS}$"):
            _grid(span, dt)


def _random_device_and_protocol(rng, case):
    params = DeviceParams(
        charging_energy=2 * np.pi * rng.uniform(1.0, 5.0),
        josephson_energy_total=0.0 if case == 1 else 2 * np.pi * rng.uniform(1.0, 15.0),
        asymmetry=0.0 if case == 0 else rng.uniform(0.0, 1.0),
        n_charges=int(rng.choice([5, 11, 15])),
    )
    # at least one full flux period with amplitude above 1/2 drives the flux
    # through +-1/2, where cos(pi*flux) changes sign and, at asymmetry 0,
    # the bond phase arg E_J jumps by pi
    duration = rng.uniform(0.3, 0.8)
    protocol = DriveProtocol(
        flux=Waveform(
            offset=rng.uniform(-0.2, 0.2),
            amplitude=rng.uniform(0.55, 0.9),
            frequency=rng.uniform(1.0, 2.5) / duration,
            phase=rng.uniform(0.0, 2 * np.pi),
        ),
        gate=Waveform(
            offset=rng.uniform(-0.5, 0.5),
            amplitude=rng.uniform(-2.0, 2.0),
            frequency=rng.uniform(0.5, 3.0),
            phase=rng.uniform(0.0, 2 * np.pi),
        ),
        duration=duration,
    )
    return params, protocol


def _random_case(case):
    """Seeded device, forward drive and step size of one random case."""
    rng = np.random.default_rng(1000 + case)
    params, forward = _random_device_and_protocol(rng, case)
    config = PropagatorConfig(time_step=forward.duration / rng.uniform(150.5, 300.5))
    return params, forward, config


@pytest.mark.parametrize("case", range(6))
def test_evolve_matches_dense_route_on_random_protocols(case):
    params, forward, config = _random_case(case)
    flux = [forward.forward_bias(t).flux for t in np.linspace(0.0, forward.duration, 200)]
    assert max(np.abs(flux)) > 0.5
    for prot in (forward, reverse_protocol(forward)):
        u = evolve(params, prot, config)
        reference = _dense_evolve(params, prot, config.time_step)
        assert np.max(np.abs(u - reference)) < 1e-12
        assert unitarity_defect(u) < 1e-13


@pytest.mark.parametrize("case", range(6))
def test_random_protocols_are_doubly_stochastic_and_microreversible(case):
    params, forward, config = _random_case(case)
    backward = reverse_protocol(forward)
    deviations = []
    for dt in (config.time_step, config.time_step / 2.0):
        step = PropagatorConfig(time_step=dt)
        # each direction is propagated on its own: the backward matrix is
        # never derived from the forward one
        t_fwd = run_protocol(params, forward, step)
        t_bwd = run_protocol(params, backward, step)
        assert stochasticity_defect(t_fwd) < 1e-12
        deviations.append(float(np.max(np.abs(t_fwd.matrix - t_bwd.matrix.T))))
    # P_fwd = P_bwd^T holds up to the midpoint rule's error, which halving
    # dt cuts about 4x; without tunneling (case 1) it holds to roundoff
    coarse, fine = deviations
    assert coarse < 1e-12 or coarse / fine >= 3.0


def _case(params, protocol, case):
    """The default device and drive at dt 1e-3, or a seeded random case."""
    return (params, protocol, COARSE) if case == "default" else _random_case(case)


def _offset(wave, shift):
    return dataclasses.replace(wave, offset=wave.offset + shift)


def _charge_conjugate(protocol):
    """The drive with offset and amplitude of both waveforms negated."""
    def negated(wave):
        return dataclasses.replace(wave, offset=-wave.offset, amplitude=-wave.amplitude)

    return dataclasses.replace(
        protocol, flux=negated(protocol.flux), gate=negated(protocol.gate)
    )


@pytest.mark.parametrize("case", ["default", *range(6)])
def test_charge_conjugation_leaves_u_unchanged(params, protocol, case):
    # n_g -> -n_g keeps each charging term under n -> -n, and Phi -> -Phi
    # conjugates E_J, which the reversed bond direction conjugates back, so
    # U is unchanged with its labels reversed. Measured at these steps:
    # max|dU| 4.1e-13 and max|dP| 2.0e-14 on the default device at dt 1e-3,
    # at most 5.9e-15 and 1.2e-14 on the seeded cases
    device, forward, config = _case(params, protocol, case)
    u = evolve(device, forward, config)
    mirrored = evolve(device, _charge_conjugate(forward), config)[::-1, ::-1]
    assert np.max(np.abs(mirrored - u)) < 2e-12
    assert np.max(np.abs(np.abs(mirrored) ** 2 - np.abs(u) ** 2)) < 1e-13


@pytest.mark.parametrize("case", ["default", *range(6)])
def test_flux_period_leaves_u_unchanged(params, protocol, case):
    # E_J is periodic in the flux with period 2 flux quanta. Measured:
    # max|dU| 1.79e-14 on the default device, at most 1.53e-14 on the
    # seeded cases
    device, forward, config = _case(params, protocol, case)
    u = evolve(device, forward, config)
    shifted = dataclasses.replace(forward, flux=_offset(forward.flux, 2.0))
    assert np.max(np.abs(evolve(device, shifted, config) - u)) < 1e-13


# the N = 11 cases are truncation-limited (case 5 reads 4.3e-3 however many
# edge labels are left out), so only N = 15 cases are seeded here
@pytest.mark.parametrize(
    "case", ["default", *(c for c in range(6) if _random_case(c)[0].n_charges == 15)]
)
def test_gate_period_shifts_labels_by_one(params, protocol, case):
    # n_g -> n_g + 1 turns the charging term of label n into that of n - 1,
    # so P[m, n] at the shifted gate is P[m - 1, n - 1] away from the basis
    # edges, where the truncation differs. Of the N - 1 shifted label
    # pairs, 3 (N = 51) or 5 (N = 15) are left out at each edge. Measured:
    # max|dP| 3.09e-14 on the default device, at most 1.59e-14 on the
    # seeded cases
    device, forward, config = _case(params, protocol, case)
    n = device.n_charges
    edge = 3 if n == 51 else 5
    p = np.abs(evolve(device, forward, config)) ** 2
    shifted = dataclasses.replace(forward, gate=_offset(forward.gate, 1.0))
    p_shifted = np.abs(evolve(device, shifted, config)) ** 2
    rows = slice(edge, n - 1 - edge)
    moved = slice(edge + 1, n - edge)
    assert np.max(np.abs(p_shifted[moved, moved] - p[rows, rows])) < 1.5e-13


@pytest.mark.parametrize("case", ["default", *range(6)])
def test_symmetric_junctions_need_no_flux_inversion(params, protocol, case):
    # at asymmetry 0 E_J is real and even in the flux, so the backward
    # protocol without flux inversion gives the proper backward P, and the
    # no-inversion control deviates from P_F = P_B^T only as much as the
    # proper reversal does (3.86e-8 on the default device). Measured:
    # max|dP_B| 0.0 on the default device, at most 4.1e-15 on the seeded
    # cases
    device, forward, config = _case(params, protocol, case)
    device = dataclasses.replace(device, asymmetry=0.0)
    backward = reverse_protocol(forward)
    control = dataclasses.replace(backward, invert_flux=False)
    p_forward = np.abs(evolve(device, forward, config)) ** 2
    p_backward = np.abs(evolve(device, backward, config)) ** 2
    p_control = np.abs(evolve(device, control, config)) ** 2
    assert np.max(np.abs(p_control - p_backward)) < 2e-14
    proper = np.max(np.abs(p_forward - p_backward.T))
    assert abs(np.max(np.abs(p_forward - p_control.T)) - proper) < 2e-14

def _assert_frozen_eigh_matches_dense_route(params, protocol, u):
    """The H(0) solve against the dense route: energies, the ladder's
    label-to-eigenstate assignment, the ground state and the preparation
    built on it. Returns the energies and the dense eigensystem."""
    bias = sample_drive(protocol, 0.0)
    energies, states = propagate._frozen_eigh(params, protocol)
    dense = eigensystem(build_hamiltonian(params, bias))
    scale = float(np.max(np.abs(dense.energies)))
    np.testing.assert_allclose(energies, dense.energies, rtol=1e-12, atol=1e-12 * scale)
    assert np.array_equal(
        np.argmax(np.abs(states) ** 2, axis=1),
        np.argmax(np.abs(dense.states) ** 2, axis=1),
    )
    assert abs(np.vdot(dense.states[:, 0], states[:, 0])) ** 2 >= 1.0 - 1e-14
    reference = np.abs(u @ dense.states[:, 0]) ** 2
    probabilities = prepare_ensemble(params, protocol, u).probabilities
    assert np.max(np.abs(probabilities - reference)) <= 1e-14
    return energies, dense


def test_frozen_eigh_matches_dense_route_at_default_bias(
    params, protocol, u_forward, ladder_full
):
    energies, dense = _assert_frozen_eigh_matches_dense_route(params, protocol, u_forward)
    assert np.array_equal(energies, dense.energies)
    # the ladder on every label takes the dense route's energies, to the bit
    assigned = np.argmax(np.abs(dense.states) ** 2, axis=1)
    assert np.array_equal(ladder_full.energies, dense.energies[assigned])


@pytest.mark.parametrize("case", range(6))
def test_frozen_eigh_matches_dense_route_on_random_biases(params, case):
    # the seeded device of each case (E_J = 0 in case 1, asymmetry 0 in
    # case 0) and the default device, each at the t = 0 bias of the drive
    random_params, forward, config = _random_case(case)
    for device in (random_params, params):
        u = evolve(device, forward, config)
        _assert_frozen_eigh_matches_dense_route(device, forward, u)


def test_evolve_assembly_blocks_do_not_change_u(monkeypatch, params, protocol):
    # the tridiagonal forms are assembled a block of steps at a time; the
    # block size must not change a bit of U, remainder step included. Block
    # 1 assembles each step alone, 7 leaves a short last block, and 1000
    # holds the whole window in one block
    window = (0.1, 0.1 + 0.2 / 3.0)
    n_full, remainder = _grid(window[1] - window[0], COARSE.time_step)
    assert remainder > 0.0 and (n_full + 1) % 7 and n_full + 1 < 1000
    u = evolve(params, protocol, COARSE, *window)
    for block in (1, 7, 1000):
        monkeypatch.setattr(propagate, "_ASSEMBLY_BLOCK", block)
        assert np.array_equal(evolve(params, protocol, COARSE, *window), u)


def test_trace_assembly_blocks_do_not_change_results(monkeypatch, params, protocol):
    # the traces walk evolve's block assembly; 300 instants leave a short
    # last block at block sizes 7 and 128 and fit in one block of 1000
    spectrum = spectrum_trace(params, protocol, 300)
    ratios = ratio_trace(params, protocol, 300)
    for block in (1, 7, 1000):
        monkeypatch.setattr(propagate, "_ASSEMBLY_BLOCK", block)
        trace = spectrum_trace(params, protocol, 300)
        assert np.array_equal(trace.times, spectrum.times)
        assert np.array_equal(trace.energies, spectrum.energies)
        assert ratio_trace(params, protocol, 300) == ratios


@pytest.mark.parametrize("trace", [spectrum_trace, ratio_trace])
def test_traces_refuse_more_than_max_samples(params, protocol, trace):
    # refused before a time is laid out or a bias is sampled
    message = f"^n_samples must be at least 2 and at most {MAX_SAMPLES}$"
    with pytest.raises(ValueError, match=message):
        trace(params, protocol, MAX_SAMPLES + 1)


def test_evolve_window_validation(params, protocol):
    with pytest.raises(ValueError):
        evolve(params, protocol, COARSE, -0.1, 0.5)
    with pytest.raises(ValueError):
        evolve(params, protocol, COARSE, 0.5, 0.5)
    with pytest.raises(ValueError):
        evolve(params, protocol, COARSE, 0.0, protocol.duration * 1.01)
    with pytest.raises(ValueError, match="too coarse"):
        evolve(params, protocol, PropagatorConfig(time_step=0.1))


def test_zero_tunneling_keeps_populations(params, protocol):
    frozen = DeviceParams(
        charging_energy=params.charging_energy,
        josephson_energy_total=0.0,
        asymmetry=params.asymmetry,
        n_charges=params.n_charges,
    )
    u = evolve(frozen, protocol, COARSE)
    np.testing.assert_allclose(np.abs(u) ** 2, np.eye(u.shape[0]), atol=1e-24)


def test_convergence_is_second_order(params, protocol):
    # largest change of |U|^2 when the step is halved, at two step sizes
    probs = [
        np.abs(evolve(params, protocol, PropagatorConfig(dt))) ** 2
        for dt in (1e-3, 5e-4, 2.5e-4)
    ]
    est_coarse = float(np.max(np.abs(probs[0] - probs[1])))
    est_fine = float(np.max(np.abs(probs[1] - probs[2])))
    assert est_coarse < 1e-4
    assert est_coarse / est_fine > 3.0


def test_spectrum_trace_layout(params, protocol):
    trace = spectrum_trace(params, protocol, 101)
    assert trace.times.size == 101
    assert trace.energies.shape == (101, params.n_charges)
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(protocol.duration)
    np.testing.assert_array_equal(trace.energies[:, 0], np.zeros(101))
    assert np.all(np.diff(trace.energies, axis=1) >= 0.0)


def test_spectrum_crossings_without_tunneling(params):
    # no tunneling, no avoided crossings: the two lowest levels touch when
    # the gate sweeps through a half-integer charge bias
    frozen = DeviceParams(josephson_energy_total=0.0)
    trace = spectrum_trace(frozen, DriveProtocol(), 4001)
    gap = trace.energies[:, 1]
    assert gap.min() < 0.5
    with_tunneling = spectrum_trace(params, DriveProtocol(), 1001)
    assert with_tunneling.energies[:, 1].min() > 1.0


def test_spectrum_trace_matches_dense_eigenvalues(params, backward_protocol):
    trace = spectrum_trace(params, backward_protocol, 61)
    for t, levels in zip(trace.times, trace.energies):
        h = build_hamiltonian(params, sample_drive(backward_protocol, float(t)))
        reference = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(
            levels, reference - reference[0], rtol=1e-12, atol=1e-9
        )


def test_spectrum_trace_validation(params, protocol):
    with pytest.raises(ValueError):
        spectrum_trace(params, protocol, 1)
