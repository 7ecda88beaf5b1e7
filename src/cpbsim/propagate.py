"""Unitary propagation of a driven protocol and spectral diagnostics.

The integrator freezes the Hamiltonian at each step midpoint and applies the
exact exponential of the frozen matrix, so every step is exactly unitary and
the scheme is second-order accurate in the step size. The interval is tiled
with steps of exactly ``time_step`` plus one shorter remainder step when the
duration is not an integer multiple.

Each frozen H is tridiagonal with one phase arg E_J on every bond, so a
diagonal gauge D makes it a real symmetric tridiagonal T. One walk, which
every solve here and in ``cpbsim.noise`` and ``cpbsim.thermo`` takes,
assembles T and D a block of instants per ``gauge_tridiagonal`` call.
A step is then U_step = D S exp(-i E dt) S^T D^dagger with T = S E S^T from
``cpbsim._lapack.eigh`` (LAPACK ``dstevd``); S and S^T are applied as real
products, and consecutive steps share one diagonal gauge change
D_new^dagger D_old. :func:`spectrum_trace` needs only the levels, from
``cpbsim._lapack.eigvalsh`` (``dsterf``). The dense complex route, which
diagonalizes the full H, is kept in ``tests/_dense.py`` as the reference
the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, tee

import numpy as np

from ._lapack import eigh, eigvalsh
from .drive import sample_drive
from .model import DeviceParams, gauge_tridiagonal

#: Step size (ns) of the CLI's default config.
DEFAULT_TIME_STEP = 1e-4

#: Largest accepted bound eps * max|E| * (t_stop - t_start), in rad, on the
#: rounding of the phase a propagation accumulates. The default device reads
#: about 8.7e-12, 10^5 below it; near 1 rad no step phase has a correct digit.
PHASE_ROUNDING_LIMIT = 1e-6

#: Most steps one propagation may take: about 20 min at 120 us per N = 51
#: step on a 2-vCPU x86-64 host, and 1,500 times the default 6,667 steps.
MAX_STEPS = 10**7

#: Most instants one spectrum or ratio trace may sample. ``cpbsim spectrum``
#: takes about 3 kB and 75 us per sample at N = 51, and 5.8 kB and 0.18 ms
#: at N = 101, so 10^5 samples stay under 0.6 GB and 20 s.
MAX_SAMPLES = 10**5

# Instants whose tridiagonal forms _forms assembles in one call. A block's
# bias points are generated as it is assembled, about 1.6 kB per instant at
# N = 51 (200 kB per block), so no walk's scratch memory grows with its step
# or sample count. The block size changes no bit of any result.
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


def _forms(params: DeviceParams, biases):
    """(run, diagonals, offs, gauges) per run of <= _ASSEMBLY_BLOCK biases."""
    biases = iter(biases)
    while block := list(islice(biases, _ASSEMBLY_BLOCK)):
        yield block, *gauge_tridiagonal(params, block)


def _instants(protocol, n_samples: int):
    """Uniform times over the protocol, ends included, and their drive biases."""
    if not 2 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"n_samples must be at least 2 and at most {MAX_SAMPLES}")
    times = np.linspace(0.0, protocol.duration, n_samples)
    return times, (sample_drive(protocol, float(t)) for t in times)


def _grid(span: float, dt: float):
    """Number of full steps and remainder length tiling ``span``;
    ``ValueError`` when that is more than :data:`MAX_STEPS` steps."""
    n_full = np.floor(span / dt * (1.0 + 1e-12) + 1e-9)
    remainder = span - n_full * dt
    if remainder < 1e-9 * dt:
        remainder = 0.0
    # false for an infinite step count too
    if not n_full + (remainder > 0.0) <= MAX_STEPS:
        raise ValueError(
            f"time_step {dt} too fine for span {span}; the step count must be "
            f"finite and at most {MAX_STEPS}"
        )
    return int(n_full), float(remainder)


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
    steps per duration are required, and at most :data:`MAX_STEPS` over
    the window. The energy scale must leave the step phases resolvable:
    ``ValueError`` when eps * max|E| * (t_stop - t_start) exceeds
    :data:`PHASE_ROUNDING_LIMIT`. Raises
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
    steps, midpoints = tee(_steps(t_start, dt, *_grid(t_stop - t_start, dt)))
    biases = (sample_drive(protocol, t_mid) for t_mid, _ in midpoints)
    # w = D^dagger U in the gauge D of the latest step (D = 1 before the first)
    w = np.eye(params.n_charges, dtype=complex)
    gauge = np.ones(params.n_charges, dtype=complex)
    for _, diagonals, offs, gauges in _forms(params, biases):
        _check_phase_rounding(diagonals, offs, t_stop - t_start)
        # the block's forms come first: zip stops on them before taking a step
        for diagonal, off, new_gauge, (_, step) in zip(diagonals, offs, gauges, steps):
            energies, states = _eigh_tridiagonal(diagonal, off)
            w *= (new_gauge.conj() * gauge)[:, None]
            w = _real_product(states.T, w)
            w *= np.exp(-1j * energies * step)[:, None]
            w = _real_product(states, w)
            gauge = new_gauge
    return gauge[:, None] * w


def _check_phase_rounding(diagonals, offs, span: float) -> None:
    """Refuse tridiagonal forms whose phases over ``span`` ns would carry no
    correct digit: ``ValueError`` when eps * max|E| * span exceeds
    :data:`PHASE_ROUNDING_LIMIT`."""
    # every level has |E| <= max|diagonal| + 2 max|off|; Python floats, so
    # that an overflowing sum is inf without a warning
    scale = float(np.abs(diagonals).max()) + 2.0 * float(np.abs(offs).max())
    rounding = _EPS * scale * span
    if rounding > PHASE_ROUNDING_LIMIT:
        raise ValueError(
            f"phase rounding bound {rounding:.3g} rad exceeds "
            f"{PHASE_ROUNDING_LIMIT:g}: the energy scale is too large to propagate"
        )


def _eigh_tridiagonal(diagonal: np.ndarray, off: np.ndarray):
    """Eigenvalues and orthonormal eigenvectors of a real symmetric tridiagonal."""
    energies, states = eigh(diagonal, off)
    # dstevd's column norms miss 1 by a few ulps with a slight bias, which
    # adds up over thousands of near-identical steps (the default 6,667-step
    # propagator drifts ~1e-12 from unitary). A first-order renormalization,
    # applied additively so that each entry rounds on its own, cuts that
    # drift to ~4e-13.
    states -= states * (0.5 * (np.einsum("ij,ij->j", states, states) - 1.0))
    return energies, states


def _frozen_eigh(params: DeviceParams, protocol):
    """Ascending eigenvalues and eigenvectors D s of H(0), the Hamiltonian
    frozen at the start of ``protocol``.

    Each column's sign is LAPACK's choice, so callers use only |D s|^2 = s^2
    or products whose global phase drops out. H(0) must first pass
    :func:`evolve`'s phase-rounding check over the protocol's duration.
    """
    _, diagonals, offs, gauges = next(_forms(params, [sample_drive(protocol, 0.0)]))
    _check_phase_rounding(diagonals, offs, protocol.duration)
    energies, states = _eigh_tridiagonal(diagonals[0], offs[0])
    return energies, gauges[0][:, None] * states


def _real_product(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w for real ``a`` and C-contiguous complex ``w``, in real arithmetic."""
    return (a @ w.view(float)).view(complex)


def unitarity_defect(u: np.ndarray) -> float:
    """Largest elementwise magnitude of U^dagger U - 1."""
    n = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))


def spectrum_trace(params: DeviceParams, protocol, n_samples: int) -> SpectrumTrace:
    """Sample the instantaneous spectrum at n_samples points over the protocol.

    Raises ``FloatingPointError`` when a level, measured from the ground
    energy, is not finite, and ``numpy.linalg.LinAlgError`` when the LAPACK
    eigensolver fails.
    """
    times, biases = _instants(protocol, n_samples)
    energies = np.empty((n_samples, params.n_charges))
    rows = iter(energies)
    # finite entries can still span more than the float range; refused below
    with np.errstate(over="ignore"):
        for _, diagonals, offs, _ in _forms(params, biases):
            for diagonal, off, row in zip(diagonals, offs, rows):
                levels = eigvalsh(diagonal, off)
                row[:] = levels - levels[0]
    if not np.isfinite(energies).all():
        raise FloatingPointError("the spectrum has a non-finite level")
    return SpectrumTrace(times=times, energies=energies)

