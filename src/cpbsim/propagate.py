"""Unitary propagation of a driven protocol and spectral diagnostics.

The integrator freezes the Hamiltonian at each step midpoint and applies the
exact exponential of the frozen matrix, so every step is exactly unitary and
the scheme is second-order accurate in the step size. The interval is tiled
with steps of exactly ``time_step`` plus one shorter remainder step when the
duration is not an integer multiple.

Each frozen H is tridiagonal with one phase arg E_J on every bond, so a
diagonal gauge D makes it a real symmetric tridiagonal T (see
:func:`cpbsim.model.gauge_tridiagonal`, which assembles the T and D of a
block of step midpoints in one call). A step is then
U_step = D S exp(-i E dt) S^T D^dagger with T = S E S^T from LAPACK
``dstevd``; S and S^T are applied as real products, and consecutive steps
share one diagonal gauge change D_new^dagger D_old. The dense complex
route, which diagonalizes the full H, is kept in ``tests/_dense.py`` as the
reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._lapack import dstevd, dsterf
from .drive import sample_drive
from .model import DeviceParams, gauge_tridiagonal

#: Step size (ns) used by the benchmark runs.
DEFAULT_TIME_STEP = 1e-4

#: Largest accepted bound eps * max|E| * (t_stop - t_start), in rad, on the
#: rounding of the phase a propagation accumulates. The default device reads
#: about 8.7e-12, 10^5 below it; near 1 rad no step phase has a correct digit.
PHASE_ROUNDING_LIMIT = 1e-6

# Steps whose tridiagonal forms are assembled in one call. A block's step
# midpoints are generated as it is assembled, and the assembly holds about
# 1.6 kB per step at N = 51 (200 kB per block), so evolve's scratch memory
# does not grow with the step count. The block size changes no bit of U.
_ASSEMBLY_BLOCK = 128

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PropagatorConfig:
    """Integrator settings. ``time_step`` in ns, must resolve the protocol."""

    time_step: float = DEFAULT_TIME_STEP

    def __post_init__(self) -> None:
        if not self.time_step > 0.0:
            raise ValueError("time_step must be positive")


@dataclass(frozen=True)
class SpectrumTrace:
    """Instantaneous spectrum along a protocol.

    ``energies[i, k]`` is the k-th eigenenergy at ``times[i]`` measured from
    the instantaneous ground energy, so column 0 is identically zero.
    """

    times: np.ndarray
    energies: np.ndarray


def _grid(span: float, dt: float):
    """Number of full steps and remainder length tiling ``span``."""
    n_full = int(np.floor(span / dt * (1.0 + 1e-12) + 1e-9))
    remainder = span - n_full * dt
    if remainder < 1e-9 * dt:
        remainder = 0.0
    return n_full, remainder


def _steps(t_start: float, dt: float, n_full: int, remainder: float):
    """(midpoint, length) of each step from ``t_start``, generated lazily."""
    for j in range(n_full):
        yield t_start + (j + 0.5) * dt, dt
    if remainder > 0.0:
        yield t_start + n_full * dt + 0.5 * remainder, remainder


def evolve(
    params: DeviceParams,
    protocol,
    config: PropagatorConfig,
    t_start: float = 0.0,
    t_stop: float | None = None,
) -> np.ndarray:
    """Time-ordered propagator of the driven device over [t_start, t_stop].

    Later-time step factors multiply on the left. Defaults to the full
    protocol window. The step size must resolve the protocol: at least 100
    steps per duration are required, and the energy scale must leave the
    step phases resolvable: ``ValueError`` when eps * max|E| * (t_stop -
    t_start) exceeds :data:`PHASE_ROUNDING_LIMIT`. Raises
    ``numpy.linalg.LinAlgError`` when the LAPACK eigensolver fails.
    """
    duration = protocol.duration
    if t_stop is None:
        t_stop = duration
    if not 0.0 <= t_start < t_stop <= duration:
        raise ValueError("need 0 <= t_start < t_stop <= protocol duration")
    dt = config.time_step
    if dt > duration / 100.0:
        raise ValueError(
            f"time_step {dt} too coarse for duration {duration}; "
            "need at least 100 steps"
        )
    steps = _steps(t_start, dt, *_grid(t_stop - t_start, dt))
    # w = D^dagger U in the gauge D of the latest step (D = 1 before the first)
    w = np.eye(params.n_charges, dtype=complex)
    gauge = np.ones(params.n_charges, dtype=complex)
    while block := list(islice(steps, _ASSEMBLY_BLOCK)):
        rows = gauge_tridiagonal(
            params, [sample_drive(protocol, t_mid) for t_mid, _ in block]
        )
        # every level of the block has |E| <= max|diagonal| + 2 max|off|;
        # Python floats, so that an overflowing sum is inf without a warning
        scale = float(np.abs(rows[0]).max()) + 2.0 * float(np.abs(rows[1]).max())
        rounding = _EPS * scale * (t_stop - t_start)
        if rounding > PHASE_ROUNDING_LIMIT:
            raise ValueError(
                f"phase rounding bound {rounding:.3g} rad exceeds "
                f"{PHASE_ROUNDING_LIMIT:g}: the energy scale is too large to propagate"
            )
        for (_, step), diagonal, off, new_gauge in zip(block, *rows):
            energies, states = _eigh_tridiagonal(diagonal, off)
            w *= (new_gauge.conj() * gauge)[:, None]
            w = _real_product(states.T, w)
            w *= np.exp(-1j * energies * step)[:, None]
            w = _real_product(states, w)
            gauge = new_gauge
    return gauge[:, None] * w


def _eigh_tridiagonal(diagonal: np.ndarray, off: np.ndarray):
    """Eigenvalues and orthonormal eigenvectors of a real symmetric tridiagonal."""
    energies, states, info = dstevd(diagonal, off)
    _check_lapack("dstevd", info)
    # dstevd's column norms miss 1 by a few ulps with a slight bias, which
    # adds up over thousands of near-identical steps (the default 6,667-step
    # propagator drifts ~1e-12 from unitary). A first-order renormalization,
    # applied additively so that each entry rounds on its own, cuts that
    # drift to ~4e-13.
    states -= states * (0.5 * (np.einsum("ij,ij->j", states, states) - 1.0))
    return energies, states


def _frozen_eigh(params: DeviceParams, bias):
    """Ascending eigenvalues and eigenvectors D s of H frozen at ``bias``.

    Each column's sign is LAPACK's choice, so callers use only |D s|^2 = s^2
    or products whose global phase drops out.
    """
    diagonals, offs, gauges = gauge_tridiagonal(params, [bias])
    energies, states = _eigh_tridiagonal(diagonals[0], offs[0])
    return energies, gauges[0][:, None] * states


def _real_product(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w for real ``a`` and C-contiguous complex ``w``, in real arithmetic."""
    return (a @ w.view(float)).view(complex)


def _check_lapack(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info})")


def unitarity_defect(u: np.ndarray) -> float:
    """Largest elementwise magnitude of U^dagger U - 1."""
    n = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))


def spectrum_trace(params: DeviceParams, protocol, n_samples: int) -> SpectrumTrace:
    """Sample the instantaneous spectrum at n_samples points over the protocol.

    Raises ``FloatingPointError`` when a level, measured from the ground
    energy, is not finite.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    times = np.linspace(0.0, protocol.duration, n_samples)
    diagonals, offs, _ = gauge_tridiagonal(
        params, [sample_drive(protocol, float(t)) for t in times]
    )
    energies = np.empty((n_samples, params.n_charges))
    # finite entries can still span more than the float range; refused below
    with np.errstate(over="ignore"):
        for i, (diagonal, off) in enumerate(zip(diagonals, offs)):
            levels, info = dsterf(diagonal, off)
            _check_lapack("dsterf", info)
            energies[i] = levels - levels[0]
    if not np.isfinite(energies).all():
        raise FloatingPointError("the spectrum has a non-finite level")
    return SpectrumTrace(times=times, energies=energies)

