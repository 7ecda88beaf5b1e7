"""Shared fixtures.

The default-protocol propagations dominate the suite's runtime (seconds
each at dt = 1e-4 ns), so they are computed once per session and shared
by the unit and acceptance tests.
"""

import pytest

from cpbsim import (
    BACKWARD,
    DeviceParams,
    DriveProtocol,
    PropagatorConfig,
    charge_labels,
    energy_ladder,
    evolve,
    prepare_ensemble,
    reverse_protocol,
    transition_matrix,
)
from cpbsim import _lapack

_criterion_lines = []


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
    # the library, kernel set and build the byte pins ran under
    terminalreporter.section("lapack")
    terminalreporter.write_line(f"binding:  {_lapack.BINDING}")
    terminalreporter.write_line(f"fallback: {_lapack.resolve([])[3]}")


@pytest.fixture(scope="session")
def criterion_log():
    """One pass/fail line per acceptance criterion, echoed after the run."""
    return _criterion_lines


@pytest.fixture(scope="session")
def params():
    return DeviceParams()


@pytest.fixture(scope="session")
def protocol():
    return DriveProtocol()


@pytest.fixture(scope="session")
def backward_protocol(protocol):
    return reverse_protocol(protocol)


@pytest.fixture(scope="session")
def prop_config():
    return PropagatorConfig()


@pytest.fixture(scope="session")
def u_forward(params, protocol, prop_config):
    return evolve(params, protocol, prop_config)


@pytest.fixture(scope="session")
def u_backward(params, backward_protocol, prop_config):
    return evolve(params, backward_protocol, prop_config)


@pytest.fixture(scope="session")
def u_pair_fine(params, protocol, backward_protocol, prop_config):
    """Forward/backward pair at half the default step, for convergence checks."""
    fine = PropagatorConfig(time_step=prop_config.time_step / 2.0)
    return evolve(params, protocol, fine), evolve(params, backward_protocol, fine)


@pytest.fixture(scope="session")
def trans_forward(u_forward, params):
    return transition_matrix(u_forward, charge_labels(params))


@pytest.fixture(scope="session")
def trans_backward(u_backward, params):
    return transition_matrix(u_backward, charge_labels(params), BACKWARD)


@pytest.fixture(scope="session")
def preparation(params, protocol, u_forward):
    return prepare_ensemble(params, protocol, u_forward)


@pytest.fixture(scope="session")
def ladder(params, protocol):
    return energy_ladder(params, protocol)


@pytest.fixture(scope="session")
def ladder_full(params, protocol):
    return energy_ladder(params, protocol, subspace="all")
