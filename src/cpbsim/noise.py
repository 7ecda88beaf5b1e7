"""Decoherence-window diagnostics and charge-detector distinguishability.

Two independent concerns live here. First, the ratio of pure dephasing to
relaxation for a neighboring eigenstate pair along the protocol: charge
noise couples through the island charge operator, so the ratio is fixed by
its matrix elements in the instantaneous eigenbasis and by a thermal factor
of the level gap against the bath temperature. Second, the readout fidelity
of a charge detector distinguishing adjacent charge states from the induced
charge on a coupling capacitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drive import sample_drive
from .model import (
    KB_OVER_HBAR,
    BiasPoint,
    DeviceParams,
    beta_ratio,
    build_hamiltonian,
    charge_labels,
    eigensystem,
)

DEFAULT_BATH_TEMPERATURE = 0.030  # kelvin; typical dilution-fridge operation

#: Pessimistic relaxation-time floor (ns) for fidelity-loss bounds.
DEFAULT_T1_NS = 50.0


@dataclass(frozen=True)
class DephasingRatioPoint:
    """T_phi/T_1 and the derived T_2/T_1 for levels (k, k+1) at one instant."""

    time: float
    level: int
    tphi_over_t1: float
    t2_over_t1: float
    beta: float


@dataclass(frozen=True)
class DetectorParams:
    """Charge-detector inputs.

    charge_sensitivity in e/sqrt(Hz), measurement_time in ns, capacitances
    in fF (only their ratio matters).
    """

    charge_sensitivity: float = 1.7e-6
    measurement_time: float = 20.0
    island_capacitance: float = 6.5
    coupling_capacitance: float = 0.20

    def __post_init__(self) -> None:
        if self.charge_sensitivity <= 0 or self.measurement_time <= 0:
            raise ValueError("sensitivity and measurement time must be positive")
        if self.island_capacitance <= 0:
            raise ValueError("island capacitance must be positive")
        if self.coupling_capacitance < 0:
            raise ValueError("coupling capacitance must be non-negative")


@dataclass(frozen=True)
class DetectorReport:
    """Distinguishability of adjacent charge states.

    ``distance`` is the Kolmogorov (trace) distance between the two Gaussian
    outcome distributions, ``p_correct`` = (1 + distance)/2.
    """

    sigma_q: float
    delta_q: float
    distance: float
    p_correct: float


def _t2_from_tphi(tphi_over_t1: float) -> float:
    # T_2^-1 = T_1^-1/2 + T_phi^-1 in units of T_1
    if tphi_over_t1 == 0.0:
        return 0.0
    if math.isinf(tphi_over_t1):
        return 2.0
    return 1.0 / (0.5 + 1.0 / tphi_over_t1)


def dephasing_ratio(
    params: DeviceParams,
    bias: BiasPoint,
    t_bath: float = DEFAULT_BATH_TEMPERATURE,
    k: int = 0,
    time: float = 0.0,
) -> DephasingRatioPoint:
    """Pure-dephasing to relaxation ratio for eigenstate pair (k, k+1).

    Ratio = 4|<k|n|k+1>|^2 / (<k|n|k> - <k+1|n|k+1>)^2 times the thermal
    factor x*coth(x) with x = gap/(2 k_B T_bath). Degenerate diagonal matrix
    elements mean pure dephasing vanishes; the ratio is then reported as
    +inf and T_2/T_1 saturates at 2.
    """
    if t_bath <= 0:
        raise ValueError("bath temperature must be positive")
    if not 0 <= k < params.n_charges - 1:
        raise ValueError("level index k+1 outside the basis")
    sys = eigensystem(build_hamiltonian(params, bias))
    n_values = charge_labels(params).astype(float)
    lower = sys.states[:, k]
    upper = sys.states[:, k + 1]
    off = abs(np.vdot(lower, n_values * upper)) ** 2
    diag = float(np.real(np.vdot(lower, n_values * lower) - np.vdot(upper, n_values * upper)))
    gap = float(sys.energies[k + 1] - sys.energies[k])
    x = gap / (2.0 * KB_OVER_HBAR * t_bath)
    thermal = x / math.tanh(x) if x > 0.0 else 1.0
    denom = diag * diag
    if denom < 1e-24:
        ratio = math.inf
    else:
        ratio = 4.0 * off / denom * thermal
    return DephasingRatioPoint(
        time=time,
        level=k,
        tphi_over_t1=ratio,
        t2_over_t1=_t2_from_tphi(ratio),
        beta=beta_ratio(params, bias.flux),
    )


def ratio_trace(
    params: DeviceParams,
    protocol,
    n_samples: int = 667,
    t_bath: float = DEFAULT_BATH_TEMPERATURE,
    k: int = 0,
):
    """Sample the dephasing ratio at n_samples uniform instants."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    times = np.linspace(0.0, protocol.duration, n_samples)
    return [
        dephasing_ratio(
            params, sample_drive(protocol, float(t)), t_bath, k, time=float(t)
        )
        for t in times
    ]


def window_width(points, lower: float, upper: float) -> float:
    """Total protocol time whose T_2/T_1 falls inside [lower, upper].

    Counts each sample's surrounding interval; endpoint samples carry half
    an interval.
    """
    if len(points) < 2:
        raise ValueError("need at least two trace points")
    dt = points[1].time - points[0].time
    width = 0.0
    last = len(points) - 1
    for i, p in enumerate(points):
        if lower <= p.t2_over_t1 <= upper:
            width += dt / 2.0 if i in (0, last) else dt
    return width


def detector_distinguishability(det: DetectorParams) -> DetectorReport:
    """Adjacent-charge-state readout fidelity of the detector.

    The integrated charge noise is sigma_Q = sqrt(S_Q/tau); one extra Cooper
    pair shifts the induced detector charge by 2e*C_C/C_Sigma. The trace
    distance between the two Gaussian outcome distributions has the closed
    form erf(delta/(2*sqrt(2)*sigma)).
    """
    from scipy.special import erf  # deferred: a slow import most commands skip

    sigma = det.charge_sensitivity / math.sqrt(det.measurement_time * 1e-9)
    delta = 2.0 * det.coupling_capacitance / det.island_capacitance
    distance = float(erf(delta / (2.0 * math.sqrt(2.0) * sigma)))
    return DetectorReport(
        sigma_q=sigma,
        delta_q=delta,
        distance=distance,
        p_correct=0.5 * (1.0 + distance),
    )


def kolmogorov_distance_quadrature(det: DetectorParams) -> float:
    """Trace distance by adaptive quadrature of |p_0 - p_delta|.

    Independent route kept alongside the closed form so the two can be
    cross-checked; integrates over [-12, 12+delta] sigmas where the
    Gaussians carry all but ~1e-33 of their mass.
    """
    from scipy.integrate import quad  # deferred: a slow import most commands skip

    sigma = det.charge_sensitivity / math.sqrt(det.measurement_time * 1e-9)
    delta = 2.0 * det.coupling_capacitance / det.island_capacitance

    def gauss(x, mu):
        return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (
            sigma * math.sqrt(2.0 * math.pi)
        )

    integrand = lambda x: abs(gauss(x, 0.0) - gauss(x, delta))
    lo, hi = -12.0 * sigma, delta + 12.0 * sigma
    # the integrand kinks at delta/2; split there for the quadrature's sake
    left, _ = quad(integrand, lo, 0.5 * delta, limit=200)
    right, _ = quad(integrand, 0.5 * delta, hi, limit=200)
    return 0.5 * (left + right)


def fidelity_loss_bound(points, t1_ns: float = DEFAULT_T1_NS):
    """Pessimistic protocol-fidelity losses 1 - exp(-integral dt/T).

    Holds T_1 at the supplied floor for the whole protocol (the actual
    relaxation time is much longer away from the avoided crossings), so both
    numbers are coarse upper bounds, not reproductions.
    """
    if t1_ns <= 0:
        raise ValueError("t1_ns must be positive")
    times = np.asarray([p.time for p in points])
    t2_ratio = np.asarray([p.t2_over_t1 for p in points])
    if np.any(t2_ratio <= 0):
        raise ValueError("T_2/T_1 must be positive along the trace")
    relax = np.trapezoid(np.full_like(times, 1.0 / t1_ns), times)
    dephase = np.trapezoid(1.0 / (t1_ns * t2_ratio), times)
    return {
        "relaxation": 1.0 - math.exp(-relax),
        "dephasing": 1.0 - math.exp(-dephase),
    }
