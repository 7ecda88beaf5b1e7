"""The propagator against an exact time-dependent solution.

With ``asymmetry`` 1 the tunneling energy is E_J = E_JSigma exp(i pi Phi) at
every flux, so along a linear flux ramp Phi(t) = Phi_0 + r t at a fixed gate
only the bond phase moves. The diagonal gauge D(Phi) = diag(exp(-i n pi Phi))
then takes H(t) = D T D^dagger to a static frame, and

    U(t) = D(Phi(t)) exp(-i K t) D(Phi_0)^dagger,
    K = T - pi r diag(n),

with T the real tridiagonal of diagonal 4 E_C (n - n_g)^2 and off-diagonal
-E_JSigma/2. This is the N-level form of the rotating-frame solution (Rabi,
Phys. Rev. 51 (1937) 652), exact for any basis size. K is diagonalized here
by ``numpy.linalg.eigh``, apart from cpbsim's own LAPACK binding, so the
check does not rest on the code it checks.

The reversed ramp runs -Phi_1 -> -Phi_0 at the same rate, through
``reverse_protocol``'s mirrored clock and flux inversion. The midpoint
scheme's error is second order: it is bounded by 20 dt^2 (about twice the
1.0e-5 measured at dt 1e-3), and halving dt must cut it by 3.5 to 4.5.
The same bound holds ``cpbsim run --exact``'s transition matrix against
|U|^2 when the ramp comes in as a waveform table (9.3e-6 measured).
"""

import json

import numpy as np
import pytest

from cpbsim import (
    DeviceParams,
    PropagatorConfig,
    TabulatedProtocol,
    evolve,
    reverse_protocol,
)
from cpbsim.cli import main

TAU = 2.0 / 3.0
FLUX = (0.0, 0.5)
GATE = 0.3


def _ramp():
    return TabulatedProtocol(
        times=np.array([0.0, TAU]),
        flux_values=np.array(FLUX),
        gate_values=np.array([GATE, GATE]),
    )


def _exact_u(params, flux_start, flux_stop):
    """Closed-form U over the ramp from ``flux_start`` to ``flux_stop``."""
    half = (params.n_charges - 1) // 2
    n = np.arange(-half, half + 1, dtype=float)
    rate = (flux_stop - flux_start) / TAU
    k = np.diag(4.0 * params.charging_energy * (n - GATE) ** 2 - np.pi * rate * n)
    bond = np.full(n.size - 1, -0.5 * params.josephson_energy_total)
    k += np.diag(bond, 1) + np.diag(bond, -1)
    energies, states = np.linalg.eigh(k)
    static = (states * np.exp(-1j * energies * TAU)) @ states.T
    start = np.exp(-1j * n * np.pi * flux_start)
    stop = np.exp(-1j * n * np.pi * flux_stop)
    return stop[:, None] * static * start.conj()[None, :]


def _error(params, direction, dt):
    """max|U - U_exact| of ``evolve`` at step ``dt`` over the whole ramp."""
    forward = _ramp()
    if direction == "forward":
        protocol, ends = forward, FLUX
    else:
        protocol, ends = reverse_protocol(forward), (-FLUX[1], -FLUX[0])
    u = evolve(params, protocol, PropagatorConfig(dt))
    return float(np.max(np.abs(u - _exact_u(params, *ends))))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_evolve_converges_to_the_rotating_frame_solution(direction):
    params = DeviceParams(asymmetry=1.0, n_charges=11)
    # dt 1e-3 tiles the ramp with 666 full steps and a remainder step
    coarse = _error(params, direction, 1e-3)
    fine = _error(params, direction, 5e-4)
    assert coarse <= 20.0 * 1e-3**2
    assert fine <= 20.0 * 5e-4**2
    assert 3.5 <= coarse / fine <= 4.5


def test_evolve_matches_the_rotating_frame_solution_at_the_default_basis():
    params = DeviceParams(asymmetry=1.0)
    assert _error(params, "forward", 1e-3) <= 20.0 * 1e-3**2


def test_cli_run_matches_the_rotating_frame_solution(tmp_path):
    table = tmp_path / "ramp.csv"
    table.write_text(
        f"t_ns,flux_phi0,n_g\n0,{FLUX[0]!r},{GATE!r}\n{TAU!r},{FLUX[1]!r},{GATE!r}\n"
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "device": {"asymmetry": 1},
                "protocol": {"family": "table", "table_path": str(table)},
            }
        )
    )
    out = tmp_path / "out"
    argv = ["run", "--exact", "--dt", "1e-3", "--config", str(config), "--out", str(out)]
    assert main(argv) == 0
    matrix = json.loads((out / "transition_matrix.json").read_text())["matrix"]
    exact = np.abs(_exact_u(DeviceParams(asymmetry=1.0), *FLUX)) ** 2
    assert np.max(np.abs(np.array(matrix) - exact)) <= 20.0 * 1e-3**2
