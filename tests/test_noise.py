import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from cpbsim import (
    KB_OVER_HBAR,
    BiasPoint,
    DephasingRatioPoint,
    DetectorParams,
    DeviceParams,
    DriveProtocol,
    charge_labels,
    dephasing_ratio,
    detector_distinguishability,
    kolmogorov_distance_quadrature,
    ratio_trace,
    reverse_protocol,
    sample_drive,
    window_width,
)
from cpbsim import noise

from _dense import build_hamiltonian, eigensystem


def _dense_ratio(params, bias, t_bath=noise.DEFAULT_BATH_TEMPERATURE):
    """Reference route: the qubit pair's T_phi/T_1 from the phase-pinned
    dense eigensystem of the complex H, and the level energies it used."""
    sys = eigensystem(build_hamiltonian(params, bias))
    n_values = charge_labels(params).astype(float)
    lower = sys.states[:, 0]
    upper = sys.states[:, 1]
    off = abs(np.vdot(lower, n_values * upper)) ** 2
    diag = float(np.real(np.vdot(lower, n_values * lower) - np.vdot(upper, n_values * upper)))
    x = (sys.energies[1] - sys.energies[0]) / (2.0 * KB_OVER_HBAR * t_bath)
    thermal = x / math.tanh(x) if x > 0.0 else 1.0
    ratio = math.inf if diag * diag < 1e-24 else 4.0 * off / (diag * diag) * thermal
    return ratio, sys.energies


def test_t2_identity_holds_along_trace(params, protocol):
    points = ratio_trace(params, protocol, n_samples=67)
    for p in points:
        if math.isinf(p.tphi_over_t1):
            assert p.t2_over_t1 == 2.0
        else:
            assert p.t2_over_t1 == pytest.approx(
                1.0 / (0.5 + 1.0 / p.tphi_over_t1)
            )


def test_symmetric_bias_kills_pure_dephasing(params):
    # at integer and half-integer n_g the qubit pair has equal diagonal
    # charge elements, at any flux. Measured at these 12 biases: |diag| at
    # most 4.4e-16, far under the 1e-12 the 1e-24 cut on diag^2 allows
    for gate in (0.5, 0.0, -1.5, 1.5):
        for flux in (0.0, 0.25, 0.5):
            bias = BiasPoint(flux=flux, gate_charge=gate)
            point = dephasing_ratio(params, bias)
            assert point.tphi_over_t1 == math.inf, bias
            assert point.t2_over_t1 == 2.0, bias
            assert _dense_ratio(params, bias)[0] == math.inf, bias


def test_zero_tunneling_freezes_coherence(protocol):
    frozen = DeviceParams(josephson_energy_total=0.0)
    point = dephasing_ratio(frozen, BiasPoint(flux=0.25, gate_charge=-1.95))
    assert point.tphi_over_t1 == 0.0
    assert point.t2_over_t1 == 0.0


def test_ratio_trace_covers_protocol(params, protocol):
    points = ratio_trace(params, protocol, n_samples=51)
    assert len(points) == 51
    assert points[0].time == 0.0
    assert points[-1].time == pytest.approx(protocol.duration)
    assert all(p.t2_over_t1 >= 0.0 for p in points)
    with pytest.raises(ValueError):
        ratio_trace(params, protocol, n_samples=1)


@pytest.mark.parametrize(
    "drive", [DriveProtocol(), reverse_protocol(DriveProtocol())], ids=["forward", "backward"]
)
def test_trace_points_are_dephasing_ratios(params, drive):
    # one flow for both: each trace point is dephasing_ratio at its instant's
    # bias and time, with every field equal
    points = ratio_trace(params, drive, n_samples=67)
    times = np.linspace(0.0, drive.duration, 67).tolist()
    assert [p.time for p in points] == times
    for point, t in zip(points, times):
        assert point == dephasing_ratio(params, sample_drive(drive, t), time=t)


def test_dephasing_ratio_validation(params):
    bias = BiasPoint(flux=0.25, gate_charge=-1.95)
    with pytest.raises(ValueError):
        dephasing_ratio(params, bias, t_bath=0.0)


def test_window_width_synthetic_pattern():
    class Point:
        def __init__(self, time, ratio):
            self.time = time
            self.t2_over_t1 = ratio

    # 5 samples, dt = 0.1; inside at indices 0, 2, 3 -> 0.05 + 0.1 + 0.1
    ratios = [0.02, 0.5, 0.03, 0.01, 0.9]
    points = [Point(0.1 * i, r) for i, r in enumerate(ratios)]
    assert window_width(points, 0.0, 0.04) == pytest.approx(0.25)
    assert window_width(points, 0.0, 1.0) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        window_width(points[:1], 0.0, 0.04)


def test_detector_frozen_values():
    report = detector_distinguishability(DetectorParams())
    assert report.sigma_q == pytest.approx(0.012020815280171309, rel=1e-12)
    assert report.delta_q == pytest.approx(0.061538461538461542, rel=1e-12)
    assert report.p_correct == pytest.approx(0.99476130786876804, rel=1e-10)
    assert report.distance == pytest.approx(2.0 * report.p_correct - 1.0)


def test_detector_closed_form_against_quadrature():
    det = DetectorParams()
    closed = detector_distinguishability(det).distance
    quad = kolmogorov_distance_quadrature(det)
    assert abs(closed - quad) < 1e-8


def _adaptive_distance(det):
    """Reference route: the trace distance by scipy's adaptive ``quad`` on
    the same two half-intervals, split at the kink at delta/2."""
    sigma = det.charge_sensitivity / math.sqrt(det.measurement_time * 1e-9)
    delta = 2.0 * det.coupling_capacitance / det.island_capacitance

    def gauss(x, mu):
        return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    integrand = lambda x: abs(gauss(x, 0.0) - gauss(x, delta))
    left, _ = integrate.quad(integrand, -12.0 * sigma, 0.5 * delta, limit=200)
    right, _ = integrate.quad(integrand, 0.5 * delta, delta + 12.0 * sigma, limit=200)
    return 0.5 * (left + right)


def test_detector_rule_matches_closed_form_and_adaptive_quad():
    # Seeded random detectors with delta/sigma from ~0.2 to ~2200, one in
    # ten uncoupled (delta = 0). Measured worst gaps on these cases: 2.2e-16
    # against the closed form and 4.3e-14 against quad. Past delta/sigma ~5e3
    # quad's 200 subintervals can miss both peaks (it read 0 at 6.8e3), so
    # the draws stay below that; the next test covers the rule out there.
    rng = np.random.default_rng(1510)
    for case in range(200):
        det = DetectorParams(
            charge_sensitivity=10.0 ** rng.uniform(-7.0, -5.0),
            measurement_time=10.0 ** rng.uniform(0.0, 3.0),
            island_capacitance=rng.uniform(1.0, 10.0),
            coupling_capacitance=0.0 if case % 10 == 0 else rng.uniform(0.0, 1.0),
        )
        rule = kolmogorov_distance_quadrature(det)
        assert abs(rule - detector_distinguishability(det).distance) <= 1e-13
        assert abs(rule - _adaptive_distance(det)) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sensitivity", [1e-9, 1e-13, 1e-20, 1e-200])
def test_detector_rule_holds_far_past_the_noise(sensitivity):
    # delta/sigma of 8.7e3, 8.7e7, 8.7e14 and 8.7e194, where the closed form
    # is 1. Adaptive quad read 1.8e-11 and 0 at the first two; nodes placed
    # in absolute coordinates, not as offsets from their half's centre, read
    # 1 + 1.3e-10 at the second and 0.9998 at the third. At the last the far
    # Gaussian's squared offset overflows, which must not warn.
    det = DetectorParams(charge_sensitivity=sensitivity)
    rule = kolmogorov_distance_quadrature(det)
    assert abs(rule - detector_distinguishability(det).distance) <= 1e-13


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--exact", "--dt", "1e-3"],
        ["spectrum", "--dt", "1e-3"],
        ["noise", "--dt", "1e-3"],
        ["gibbs", "--sampled", "--dt", "1e-3"],
    ],
    ids=["run-exact", "spectrum", "noise", "gibbs-sampled"],
)
def test_command_loads_no_scipy(tmp_path, argv):
    # a fresh interpreter, since this suite imports scipy itself. With the
    # LAPACK routines from numpy's OpenBLAS no scipy module may load; the
    # scipy binding, taken only where numpy has no such library, may load
    # scipy.linalg but none of the packages the commands once used
    src = str(Path(noise.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = (
        "import json, sys\n"
        "from cpbsim.cli import main\n"
        "from cpbsim._lapack import BINDING\n"
        "assert main(sys.argv[2:] + ['--out', sys.argv[1]]) == 0\n"
        "print(json.dumps([BINDING, sorted(m for m in sys.modules\n"
        "                                  if m.split('.')[0] == 'scipy')]))\n"
    )
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", script, str(out), *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    assert (out / "manifest.json").exists()
    binding, modules = json.loads(done.stdout)
    if binding["library"] == "scipy.linalg.cython_lapack":
        modules = [m for m in modules
                   if m.startswith(("scipy.integrate", "scipy.optimize", "scipy.special"))]
    assert modules == [], binding


def test_uncoupled_detector_guesses():
    report = detector_distinguishability(DetectorParams(coupling_capacitance=0.0))
    assert report.distance == 0.0
    assert report.p_correct == 0.5


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorParams(charge_sensitivity=0.0)
    with pytest.raises(ValueError):
        DetectorParams(measurement_time=-1.0)
    with pytest.raises(ValueError):
        DetectorParams(island_capacitance=0.0)
    with pytest.raises(ValueError):
        DetectorParams(coupling_capacitance=-0.1)


def test_beta_reported_along_trace(params, protocol):
    points = ratio_trace(params, protocol, n_samples=11)
    start = points[0]
    assert start.beta == pytest.approx(0.05 * 10.0 / 12.0)


@pytest.mark.parametrize("draw", [0, 1, 3])
def test_dephasing_ratio_matches_dense_route(draw):
    # The qubit pair on seeded random devices (seeds 4100, 4101, 4103), with
    # E_J = 0, asymmetry 0 and N = 5 among them, and biases that include
    # flux +-1/2, where arg E_J jumps by pi at asymmetry 0. Bound: 1e-8
    # relative plus 1e-19 absolute (a T_2/T_1 of 2e-19 is zero for every
    # use). Measured on these cases: 7.1e-13, 3.9e-12 and 7.8e-12 relative
    # for ratios above 1e-12, 284 compared per seed. Below that the coupling
    # element is at roundoff in both routes; the largest absolute gap there
    # is 8.7e-32. The closest case uses 0.08% of the bound.
    rng = np.random.default_rng(4100 + draw)
    compared = 0
    for case in range(24):
        params = DeviceParams(
            charging_energy=2 * np.pi * rng.uniform(1.0, 5.0),
            josephson_energy_total=0.0 if case % 6 == 1 else 2 * np.pi * rng.uniform(0.5, 15.0),
            asymmetry=0.0 if case % 6 == 0 else rng.uniform(0.0, 1.0),
            n_charges=int(rng.choice([5, 11, 15, 51])),
        )
        for j in range(12):
            flux = (0.5, -0.5)[j % 2] if j < 4 else rng.uniform(-1.0, 1.0)
            gate = rng.uniform(-3.0, 3.0)
            if case % 6 == 1 and j == 4:
                gate = 0.5  # charge degeneracy without tunneling: skipped
            bias = BiasPoint(flux=flux, gate_charge=gate)
            reference, energies = _dense_ratio(params, bias)
            # a gap at roundoff around the pair leaves both routes free to
            # pick any basis of the degenerate levels
            if np.min(np.diff(energies[:3])) < 1e-9 * np.max(np.abs(energies)):
                continue
            point = dephasing_ratio(params, bias)
            if math.isinf(reference):
                assert math.isinf(point.tphi_over_t1)
                continue
            assert abs(point.tphi_over_t1 - reference) <= 1e-8 * reference + 1e-19
            compared += 1
    assert compared > 250


def test_window_width_rejects_non_uniform_trace(params, protocol):
    def trace(times):
        return [DephasingRatioPoint(t, 0.04, 0.02, 0.0) for t in times]

    uniform = np.linspace(0.0, 0.4, 5)
    assert window_width(trace(uniform), 0.0, 1.0) == pytest.approx(0.4)
    for times in (
        [0.0, 0.1, 0.2, 0.35, 0.4],
        uniform * (1.0 + np.array([0.0, 0.0, 0.0, 0.0, 1e-8])),
        uniform[::-1],
        np.zeros(5),
    ):
        with pytest.raises(ValueError, match="uniform spacing"):
            window_width(trace(times), 0.0, 1.0)
    # a real trace, at a sample count where linspace's spacing wobbles most
    assert window_width(ratio_trace(params, protocol, 997), 0.0, 2.0) == pytest.approx(
        protocol.duration
    )
