"""Charge-basis model of a flux-biased Cooper-pair box.

Conventions used throughout the package: hbar = 1, energies in rad/ns, time
in ns, external flux in units of the flux quantum. The charge basis is
truncated to an odd number of states N, with labels n running over
-(N-1)/2 .. (N-1)/2 (Cooper pairs on the island relative to neutrality).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# k_B / hbar in rad/ns per kelvin, from CODATA-18 k_B = 1.380649e-23 J/K and
# hbar = 1.054571817e-34 J s. Unit-tested against an independent computation.
KB_OVER_HBAR = 130.920339127

#: Charge labels retained by the measurement-friendly 5-state window.
DEFAULT_SUBSPACE = (-2, -1, 0, 1, 2)

#: Largest charge basis, labels -50..50. An ``evolve`` step takes 0.41 ms
#: at N = 101 against 0.12 ms at the default 51 and 4.5 ms at 201 on a
#: 2-vCPU x86-64 host, and ``cpbsim spectrum`` holds about 5.8 kB per sample
#: at N = 101. Only the phase-rounding check bounded N before, near 19,000.
MAX_CHARGES = 101


@dataclass(frozen=True)
class DeviceParams:
    """Static device parameters.

    Parameters
    ----------
    charging_energy : float
        E_C in rad/ns. Must be positive.
    josephson_energy_total : float
        Junction-sum Josephson energy in rad/ns. Non-negative.
    asymmetry : float
        Junction asymmetry in [0, 1]. Zero restores a time-reversal-symmetric
        device; the flux-tunable imaginary tunneling term scales with it.
    n_charges : int
        Charge-basis truncation N, odd, >= 5 and at most :data:`MAX_CHARGES`.
    """

    charging_energy: float = TWO_PI * 3.0
    josephson_energy_total: float = TWO_PI * 10.0
    asymmetry: float = 0.05
    n_charges: int = 51

    def __post_init__(self) -> None:
        if not self.charging_energy > 0.0:
            raise ValueError("charging_energy must be positive")
        if not self.josephson_energy_total >= 0.0:
            raise ValueError("josephson_energy_total must be non-negative")
        if not 0.0 <= self.asymmetry <= 1.0:
            raise ValueError("asymmetry must lie in [0, 1]")
        if self.n_charges < 5 or self.n_charges % 2 == 0:
            raise ValueError("n_charges must be odd and >= 5")
        if self.n_charges > MAX_CHARGES:
            raise ValueError(f"n_charges must be at most {MAX_CHARGES}")


@dataclass(frozen=True)
class BiasPoint:
    """Instantaneous external bias: flux in flux quanta, gate charge in 2e."""

    flux: float
    gate_charge: float


def charge_labels(params: DeviceParams) -> np.ndarray:
    """Integer charge labels of the truncated basis, ascending."""
    half = (params.n_charges - 1) // 2
    return np.arange(-half, half + 1)


def label_rows(labels: np.ndarray, subset) -> np.ndarray:
    """Row indices of the charge labels ``subset`` in the basis ``labels``.

    ``labels`` is a basis as :func:`charge_labels` returns it; ``subset`` is
    ``"all"`` or a sequence of distinct labels, and the rows keep its order.
    """
    if isinstance(subset, str) and subset == "all":
        return np.arange(labels.size)
    # Python ints, so that a huge label is refused rather than overflowing
    first = int(labels[0])
    rows = [int(n) - first for n in subset]
    if len(set(rows)) != len(rows):
        raise ValueError("subspace labels must be distinct")
    for n, row in zip(subset, rows):
        if not 0 <= row < labels.size:
            raise ValueError(f"charge label {n} outside basis")
    return np.array(rows, dtype=int)


def josephson_energy(params: DeviceParams, flux: float) -> complex:
    """Complex flux-tunable tunneling energy.

    Real part cos(pi*flux), imaginary part asymmetry*sin(pi*flux), both
    scaled by the junction-sum energy. Evaluated through |flux| and
    conjugated for negative flux, so the conjugation law
    ``josephson_energy(-flux) == conj(josephson_energy(flux))`` holds with
    the exact same floating-point operations mirrored.
    """
    a = abs(flux)
    value = params.josephson_energy_total * complex(
        math.cos(math.pi * a), params.asymmetry * math.sin(math.pi * a)
    )
    return value if flux >= 0.0 else value.conjugate()


def beta_ratio(params: DeviceParams, flux: float) -> float:
    """|E_J| over the charging scale 4*E_C; << 1 means near-pure charge states."""
    return abs(josephson_energy(params, flux)) / (4.0 * params.charging_energy)


def gauge_tridiagonal(params: DeviceParams, biases):
    """Real symmetric tridiagonal forms of the Hamiltonian and their gauges.

    The charge-basis Hamiltonian at a frozen bias point has diagonal
    4*E_C*(n - n_g)^2 and couples neighboring charge states with -E_J/2 on
    the (n, n+1) side and its conjugate below. Every tunneling bond carries
    the same phase arg E_J, so the diagonal gauge
    D = diag(exp(-i*n*arg E_J)) gives H = D T D^dagger with T real: the same
    diagonal, and -|E_J|/2 on both off-diagonals.

    Takes a sequence of bias points and returns (diagonals, off-diagonals,
    gauges) with one row per bias point, shaped (instants, N), (instants,
    N - 1) and (instants, N). Each row's off-diagonal and gauge come from
    one ``josephson_energy`` value, evaluated per bias point with scalar
    arithmetic; the rows are then assembled as array operations, with the
    same floating-point results as a row built on its own. Raises
    ``FloatingPointError`` when an entry is not finite.
    """
    n = charge_labels(params).astype(float)
    gate = np.array([bias.gate_charge for bias in biases], dtype=float)
    ejs = [josephson_energy(params, bias.flux) for bias in biases]
    # an overflowing or infinite-times-zero entry is refused just below
    with np.errstate(over="ignore", invalid="ignore"):
        diagonals = 4.0 * params.charging_energy * (n - gate[:, None]) ** 2
    half = np.array([-0.5 * abs(ej) for ej in ejs])
    if not (np.isfinite(diagonals).all() and np.isfinite(half).all()):
        raise FloatingPointError("the Hamiltonian has a non-finite entry")
    offs = np.repeat(half[:, None], params.n_charges - 1, axis=1)
    rates = np.array([-1j * cmath.phase(ej) for ej in ejs])
    gauges = np.exp(rates[:, None] * n)
    return diagonals, offs, gauges
