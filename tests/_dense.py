"""Dense complex reference route for the dual-route tests.

The package assembles every Hamiltonian as the gauge-real tridiagonal form
of :func:`cpbsim.model.gauge_tridiagonal` and solves it with LAPACK
``dstevd``/``dsterf``. The functions here build the full complex charge-basis
matrix instead and diagonalize it with ``numpy.linalg.eigh``, an independent
route the tests compare the package against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cpbsim.model import BiasPoint, DeviceParams, charge_labels, josephson_energy


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with a fixed phase convention.

    ``energies`` ascending; ``states[:, k]`` is the k-th eigenvector with its
    largest-magnitude component rotated to be real and positive.
    """

    energies: np.ndarray
    states: np.ndarray


def build_hamiltonian(params: DeviceParams, bias: BiasPoint) -> np.ndarray:
    """Tridiagonal charge-basis Hamiltonian at a frozen bias point.

    Diagonal: 4*E_C*(n - n_g)^2. The tunneling term couples neighboring
    charge states with -E_J/2 on the (n, n+1) side and its conjugate below,
    so the matrix is Hermitian by construction.
    """
    n = charge_labels(params).astype(float)
    ej = josephson_energy(params, bias.flux)
    h = np.zeros((params.n_charges, params.n_charges), dtype=complex)
    np.fill_diagonal(h, 4.0 * params.charging_energy * (n - bias.gate_charge) ** 2)
    idx = np.arange(params.n_charges - 1)
    h[idx, idx + 1] = -0.5 * ej
    h[idx + 1, idx] = -0.5 * ej.conjugate()
    return h


def hermiticity_defect(h: np.ndarray) -> float:
    """Largest elementwise magnitude of H - H^dagger."""
    return float(np.max(np.abs(h - h.conj().T)))


def eigensystem(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian operator, phases pinned.

    Each eigenvector is rotated so that its largest-magnitude component is
    real and positive, which makes the output deterministic across runs and
    LAPACK builds (up to roundoff).
    """
    defect = hermiticity_defect(h)
    scale = float(np.max(np.abs(h))) or 1.0
    if defect > 1e-10 * scale:
        raise ValueError(f"operator is not Hermitian (defect {defect:.3e})")
    energies, states = np.linalg.eigh(h)
    columns = np.arange(states.shape[1])
    lead = states[np.argmax(np.abs(states), axis=0), columns]
    # hypot rounds exactly like abs() of a complex scalar; np.abs may not
    mag = np.hypot(lead.real, lead.imag)
    pin = np.ones_like(lead)
    nonzero = mag > 0.0
    pin[nonzero] = lead[nonzero].conjugate() / mag[nonzero]
    return EigenSystem(energies=energies, states=states * pin)


def step_unitary(h: np.ndarray, dt: float) -> np.ndarray:
    """Exact exponential exp(-i*h*dt) of a frozen Hermitian matrix."""
    energies, states = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * dt)
    return (states * phases) @ states.conj().T
