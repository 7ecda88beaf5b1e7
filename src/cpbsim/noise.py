"""Decoherence-window diagnostics and charge-detector distinguishability.

Two independent concerns live here. First, the ratio of pure dephasing to
relaxation for the qubit pair, the two lowest eigenstates, along the
protocol: charge noise couples through the island charge operator, so the
ratio is fixed by its matrix elements in the instantaneous eigenbasis and
by a thermal factor of the level gap against the bath temperature.
Second, the readout fidelity of a charge detector distinguishing adjacent
charge states from the induced charge on a coupling capacitor.

The matrix elements need no complex eigensolve. The diagonal gauge D of
:func:`cpbsim.model.gauge_tridiagonal` maps H = D T D^dagger to a real
symmetric tridiagonal T, and D commutes with the charge operator n, so the
elements are those of n between the real eigenvectors s of T:
<k|n|k'> = s_k^T n s_k'. A trace takes its instants one at a time from the
walk that :func:`cpbsim.propagate.evolve` takes its steps from. Each instant
solves only the pair (0, 1) it needs, by ``cpbsim._lapack.level_pair``: one
LAPACK ``dstevx`` call, which scales T first where its norm is out of range,
so a Josephson energy up to the float range still gives the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import level_pair
from .model import (
    KB_OVER_HBAR,
    BiasPoint,
    DeviceParams,
    beta_ratio,
    charge_labels,
)
from .propagate import _forms, _instants

DEFAULT_BATH_TEMPERATURE = 0.030  # kelvin; typical dilution-fridge operation

# Legendre nodes and weights on [-1, 1] of the detector cross-check's panels
_LEGENDRE_NODES, _LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class DephasingRatioPoint:
    """T_phi/T_1 and the derived T_2/T_1 for levels (0, 1) at one instant."""

    time: float
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
        if not self.charge_sensitivity > 0 or not self.measurement_time > 0:
            raise ValueError("sensitivity and measurement time must be positive")
        if not self.island_capacitance > 0:
            raise ValueError("island capacitance must be positive")
        if not self.coupling_capacitance >= 0:
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
    return 1.0 / (0.5 + 1.0 / tphi_over_t1)


def dephasing_ratio(
    params: DeviceParams,
    bias: BiasPoint,
    t_bath: float = DEFAULT_BATH_TEMPERATURE,
    time: float = 0.0,
) -> DephasingRatioPoint:
    """Pure-dephasing to relaxation ratio for eigenstate pair (0, 1).

    Ratio = 4|<0|n|1>|^2 / (<0|n|0> - <1|n|1>)^2 times the thermal
    factor x*coth(x) with x = gap/(2 k_B T_bath). Degenerate diagonal matrix
    elements mean pure dephasing vanishes; the ratio is then reported as
    +inf and T_2/T_1 saturates at 2.

    The matrix elements come from the real tridiagonal form of H, as the
    module docstring sets out. The ratio does not depend on the sign of
    either eigenvector, so none is pinned. A LAPACK failure raises
    ``numpy.linalg.LinAlgError``.
    """
    return _ratio_points(params, [bias], [time], t_bath)[0]


def ratio_trace(
    params: DeviceParams,
    protocol,
    n_samples: int = 667,
    t_bath: float = DEFAULT_BATH_TEMPERATURE,
):
    """Sample the qubit pair's dephasing ratio at n_samples uniform instants.

    Each point is :func:`dephasing_ratio` at that instant's bias and time.
    """
    times, biases = _instants(protocol, n_samples)
    return _ratio_points(params, biases, times.tolist(), t_bath)


def _ratio_points(params, biases, times, t_bath):
    """:func:`dephasing_ratio` at each (bias, time), one instant at a time."""
    if not t_bath > 0:
        raise ValueError("bath temperature must be positive")
    n_values = charge_labels(params).astype(float)
    points = []
    for (bias, diagonal, off, _), time in zip(_forms(params, biases), times):
        energies, states = level_pair(diagonal, off)
        elements = states.T @ (n_values[:, None] * states)
        off_element = elements[0, 1] ** 2
        diag = elements[0, 0] - elements[1, 1]
        gap = energies[1] - energies[0]
        x = gap / (2.0 * KB_OVER_HBAR * t_bath)
        thermal = x / math.tanh(x) if x > 0.0 else 1.0
        denom = diag * diag
        ratio = math.inf if denom < 1e-24 else 4.0 * off_element / denom * thermal
        points.append(
            DephasingRatioPoint(
                time=time,
                tphi_over_t1=ratio,
                t2_over_t1=_t2_from_tphi(ratio),
                beta=beta_ratio(params, bias.flux),
            )
        )
    return points


def window_width(points, lower: float, upper: float) -> float:
    """Total protocol time whose T_2/T_1 falls inside [lower, upper].

    Counts each sample's surrounding interval; endpoint samples carry half
    an interval. The sample times must be increasing and uniformly spaced
    to a relative 1e-9, as every :func:`ratio_trace` is.
    """
    if len(points) < 2:
        raise ValueError("need at least two trace points")
    steps = np.diff([p.time for p in points])
    dt = float(steps[0])
    if not dt > 0.0 or np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise ValueError("trace times must increase with uniform spacing")
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
    sigma = det.charge_sensitivity / math.sqrt(det.measurement_time * 1e-9)
    delta = 2.0 * det.coupling_capacitance / det.island_capacitance
    distance = math.erf(delta / (2.0 * math.sqrt(2.0) * sigma))
    return DetectorReport(
        sigma_q=sigma,
        delta_q=delta,
        distance=distance,
        p_correct=0.5 * (1.0 + distance),
    )


def kolmogorov_distance_quadrature(det: DetectorParams) -> float:
    """Trace distance by a composite Gauss-Legendre rule on |p_0 - p_delta|.

    Independent route kept alongside the closed form so the two can be
    cross-checked: it integrates the two Gaussian densities directly and
    never calls erf. The range [-12, 12+delta] sigmas, where the Gaussians
    carry all but ~1e-33 of their mass, is split at the integrand's kink at
    delta/2, and each half is cut into ceil(width/sigma) equal panels with
    16 Legendre nodes per panel (Golub-Welsch nodes from ``leggauss``).

    Each half is laid out as offsets from its own Gaussian's centre, 0 or
    delta, and stops 12 sigmas from it. Both matter only when delta spans
    many sigmas: the nodes keep their digits near the Gaussian that
    dominates there, the part left out holds under 1e-32 of either
    Gaussian's mass, and no half spans more than 24 sigmas.
    """
    sigma = det.charge_sensitivity / math.sqrt(det.measurement_time * 1e-9)
    delta = 2.0 * det.coupling_capacitance / det.island_capacitance

    def gauss(x):
        # the far Gaussian's exponent may overflow to -inf, which exp maps to 0
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    total = 0.0
    # (first offset, last offset, other Gaussian's centre) for each half
    halves = (
        (-12.0 * sigma, min(0.5 * delta, 12.0 * sigma), delta),
        (max(-0.5 * delta, -12.0 * sigma), 12.0 * sigma, -delta),
    )
    for lo, hi, other in halves:
        edges = np.linspace(lo, hi, math.ceil((hi - lo) / sigma) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        x = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * _LEGENDRE_NODES
        total += float(
            np.sum(half * _LEGENDRE_WEIGHTS * np.abs(gauss(x) - gauss(x - other)))
        )
    return 0.5 * total
