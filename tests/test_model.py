import math

import numpy as np
import pytest
import scipy.constants
import scipy.linalg

from cpbsim import (
    KB_OVER_HBAR,
    BiasPoint,
    DetectorParams,
    DeviceParams,
    RunConfig,
    beta_ratio,
    charge_labels,
    josephson_energy,
    label_rows,
    thermal_energy,
)
from cpbsim.model import gauge_tridiagonal
from cpbsim.noise import _charge_values

from _dense import build_hamiltonian, eigensystem, hermiticity_defect

BIAS = BiasPoint(flux=0.5, gate_charge=-1.95)


def test_boltzmann_rate_constant():
    # independent route through scipy.constants, in rad/ns per kelvin
    reference = scipy.constants.k / scipy.constants.hbar * 1e-9
    assert abs(KB_OVER_HBAR - reference) < 1e-8


def test_charge_labels_centered(params):
    labels = charge_labels(params)
    assert labels.size == params.n_charges
    assert labels[0] == -25 and labels[-1] == 25
    assert np.array_equal(labels, -labels[::-1])


def test_label_rows_keeps_order(params):
    labels = charge_labels(params)
    assert label_rows(labels, (2, -1, 0)).tolist() == [27, 24, 25]
    assert label_rows(labels, np.array([25, -25])).tolist() == [50, 0]
    assert label_rows(labels, [np.int32(1)]).tolist() == [26]
    assert np.array_equal(label_rows(labels, "all"), np.arange(51))


@pytest.mark.parametrize(
    "subset, message",
    [
        ((1, -1, 1), "subspace labels must be distinct"),
        ((0, -26), "charge label -26 outside basis"),
        ((26,), "charge label 26 outside basis"),
        ((10**30,), f"charge label {10**30} outside basis"),
        ((-(10**30), 0), f"charge label {-(10**30)} outside basis"),
    ],
    ids=["repeat", "below", "above", "huge", "huge-negative"],
)
def test_label_rows_refuses(params, subset, message):
    with pytest.raises(ValueError) as excinfo:
        label_rows(charge_labels(params), subset)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "kwargs",
    [
        {"charging_energy": 0.0},
        {"charging_energy": -1.0},
        {"josephson_energy_total": -0.1},
        {"asymmetry": -0.01},
        {"asymmetry": 1.5},
        {"n_charges": 50},
        {"n_charges": 3},
    ],
)
def test_device_params_validation(kwargs):
    with pytest.raises(ValueError):
        DeviceParams(**kwargs)


@pytest.mark.parametrize("value", [-0.1, float("nan")], ids=["negative", "nan"])
def test_josephson_energy_total_must_be_non_negative(value):
    # nan fails every comparison, so the check must be "not >= 0", not "< 0"
    with pytest.raises(ValueError, match="^josephson_energy_total must be non-negative$"):
        DeviceParams(josephson_energy_total=value)


SIGN_CHECKS = {
    "charge_sensitivity": (lambda v: DetectorParams(charge_sensitivity=v),
                           "sensitivity and measurement time must be positive"),
    "measurement_time": (lambda v: DetectorParams(measurement_time=v),
                         "sensitivity and measurement time must be positive"),
    "island_capacitance": (lambda v: DetectorParams(island_capacitance=v),
                           "island capacitance must be positive"),
    "coupling_capacitance": (lambda v: DetectorParams(coupling_capacitance=v),
                             "coupling capacitance must be non-negative"),
    "thermal_energy": (thermal_energy, "temperature must be positive"),
    "t_bath": (lambda v: _charge_values(DeviceParams(), v, 0),
               "bath temperature must be positive"),
    "temperatures_k": (lambda v: RunConfig(temperatures_k=(1.0, v)),
                       "temperatures_k entries must be positive"),
    "microrev_tolerance": (lambda v: RunConfig(microrev_tolerance=v),
                           "microrev_tolerance must be positive"),
    "bath_temperature_k": (lambda v: RunConfig(bath_temperature_k=v),
                           "bath_temperature_k must be positive"),
}


@pytest.mark.parametrize("value", [-0.1, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("check", SIGN_CHECKS)
def test_sign_checks_refuse_negative_and_nan(check, value):
    # as above: each check reads "not x > 0" ("not x >= 0"), which nan fails
    build, message = SIGN_CHECKS[check]
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(value)


def test_josephson_energy_anchor_points(params):
    ej0 = josephson_energy(params, 0.0)
    assert ej0 == pytest.approx(params.josephson_energy_total)
    assert ej0.imag == 0.0
    half = josephson_energy(params, 0.5)
    # at half a flux quantum only the asymmetry-scaled imaginary part survives
    assert abs(half.real) < 1e-12 * params.josephson_energy_total
    assert half.imag == pytest.approx(params.asymmetry * params.josephson_energy_total)


def test_josephson_conjugation_is_exact(params):
    rng = np.random.default_rng(7)
    for flux in rng.uniform(-3.0, 3.0, size=200):
        assert josephson_energy(params, -flux) == np.conj(
            josephson_energy(params, flux)
        )


def test_josephson_magnitude_periodic(params):
    rng = np.random.default_rng(8)
    for flux in rng.uniform(-2.0, 2.0, size=50):
        a = abs(josephson_energy(params, flux))
        b = abs(josephson_energy(params, flux + 1.0))
        assert a == pytest.approx(b, abs=1e-9)


def test_beta_ratio_endpoints(params):
    # full-flux-quantum-biased endpoint: tunneling suppressed to the
    # asymmetry floor, well inside the charge regime
    assert beta_ratio(params, 0.5) < 0.1
    assert beta_ratio(params, 0.5) == pytest.approx(0.05 * 10.0 / 12.0)
    assert beta_ratio(params, 0.0) == pytest.approx(10.0 / 12.0)


def test_hamiltonian_matches_elementwise_assembly(params):
    h = build_hamiltonian(params, BIAS)
    labels = charge_labels(params)
    ej = josephson_energy(params, BIAS.flux)
    for i, n in enumerate(labels):
        assert h[i, i] == 4.0 * params.charging_energy * (n - BIAS.gate_charge) ** 2
        if i + 1 < labels.size:
            assert h[i, i + 1] == -0.5 * ej
            assert h[i + 1, i] == -0.5 * np.conj(ej)


def test_hamiltonian_hermitian(params):
    h = build_hamiltonian(params, BIAS)
    assert hermiticity_defect(h) == 0.0


def test_time_reversal_equals_flux_inversion(params):
    # the charge basis is time-reversal invariant with unit phase, so the
    # antiunitary reversal of H is elementwise conjugation
    rng = np.random.default_rng(9)
    for flux, ng in rng.uniform(-1.0, 1.0, size=(20, 2)):
        h = build_hamiltonian(params, BiasPoint(flux, ng))
        h_rev = build_hamiltonian(params, BiasPoint(-flux, ng))
        assert np.array_equal(np.conj(h), h_rev)


def test_time_reversal_involutive(params):
    h = build_hamiltonian(params, BIAS)
    assert np.array_equal(np.conj(np.conj(h)), h)


def test_eigensystem_orthonormal_and_reconstructs(params):
    h = build_hamiltonian(params, BIAS)
    sys = eigensystem(h)
    v = sys.states
    np.testing.assert_allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-12)
    np.testing.assert_allclose(
        (v * sys.energies) @ v.conj().T, h, atol=1e-9 * np.max(np.abs(h))
    )
    assert np.all(np.diff(sys.energies) >= 0.0)


def test_eigensystem_matches_tridiagonal_solver(params):
    # gauging away the tunneling phases leaves a real tridiagonal matrix
    # with the same spectrum; scipy solves it by an independent route
    h = build_hamiltonian(params, BIAS)
    diag = np.real(np.diag(h))
    off = np.abs(np.diag(h, 1))
    reference = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    np.testing.assert_allclose(
        eigensystem(h).energies, reference, rtol=1e-12, atol=1e-8
    )


def test_eigensystem_phase_pinned(params):
    sys = eigensystem(build_hamiltonian(params, BIAS))
    for k in range(sys.states.shape[1]):
        lead = sys.states[np.argmax(np.abs(sys.states[:, k])), k]
        assert abs(lead.imag) < 1e-14
        assert lead.real > 0.0


def test_eigensystem_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        eigensystem(m)


def test_gauge_tridiagonal_rows_match_one_row_assembly():
    # the batched rows must be the one-row assembly to the bit, and
    # D T D^dagger must rebuild the dense H of each bias point
    rng = np.random.default_rng(77)
    params = DeviceParams(asymmetry=0.3, n_charges=11)
    biases = [BiasPoint(flux=f, gate_charge=g) for f, g in rng.uniform(-1.0, 1.0, (40, 2))]
    biases += [BiasPoint(0.5, 0.5), BiasPoint(-0.5, -1.0), BiasPoint(0.0, 0.0)]
    diagonals, offs, gauges = gauge_tridiagonal(params, biases)
    assert diagonals.shape == gauges.shape == (len(biases), params.n_charges)
    assert offs.shape == (len(biases), params.n_charges - 1)
    for i, bias in enumerate(biases):
        one = gauge_tridiagonal(params, [bias])
        for batched, single in zip((diagonals, offs, gauges), one):
            assert batched[i].tobytes() == single[0].tobytes()
        t = np.diag(diagonals[i]) + np.diag(offs[i], 1) + np.diag(offs[i], -1)
        h = build_hamiltonian(params, bias)
        rebuilt = gauges[i][:, None] * t * gauges[i].conj()[None, :]
        np.testing.assert_allclose(rebuilt, h, rtol=0, atol=1e-12 * np.max(np.abs(h)))
