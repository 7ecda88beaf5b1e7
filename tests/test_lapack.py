"""The LAPACK binding: the same bits as scipy's f2py wrappers, the scipy
fallback, and per-thread buffers."""

import inspect
import threading

import numpy as np
import pytest
from scipy.linalg import lapack

from cpbsim import (
    DeviceParams,
    PropagatorConfig,
    default_protocol,
    evolve,
    reverse_protocol,
    sample_drive,
    spectrum_trace,
)
from cpbsim import _lapack, noise, propagate
from cpbsim.model import gauge_tridiagonal

OPENBLAS = _lapack.BINDING["library"] != "scipy.linalg.lapack"


def _random_forms(seed, count, n):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=n) * 10.0, rng.normal(size=n - 1)) for _ in range(count)]


def _drive_forms(count):
    protocol = default_protocol()
    biases = [sample_drive(protocol, float(t))
              for t in np.linspace(0.0, protocol.duration, count)]
    diagonals, offs, _ = gauge_tridiagonal(DeviceParams(), biases)
    return list(zip(diagonals, offs))


FORMS = {
    "random-51": _random_forms(5, 500, 51),
    "drive-51": _drive_forms(101),
    "random-3": _random_forms(6, 50, 3),
    "random-8": _random_forms(7, 50, 8),
}


def _same(ours, theirs):
    """Equal bits, and arrays in the same memory order."""
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
            assert a.flags.f_contiguous == b.flags.f_contiguous
        else:
            assert a == b


@pytest.mark.parametrize("forms", FORMS.values(), ids=FORMS.keys())
def test_routines_match_scipy_bit_for_bit(forms):
    n = forms[0][0].size
    for i, (d, e) in enumerate(forms):
        d_in, e_in = d.copy(), e.copy()
        _same(_lapack.dstevd(d, e), lapack.dstevd(d, e))
        _same(_lapack.dsterf(d, e), lapack.dsterf(d, e))
        # ranges: 2 by index, 1 by value (vl, vu], 0 all (on a few forms)
        queries = [(2, 0.0, 0.0, 1, 2, 0.0, "B"), (2, 0.0, 0.0, n - 1, n, 0.0, "E"),
                   (1, -1.0, 1.0, 0, 0, 1e-9, "B")]
        if i < 10:
            queries.append((0, 0.0, 0.0, 0, 0, 0.0, "E"))
        for query in queries:
            ours = _lapack.dstebz(d, e, *query)
            theirs = lapack.dstebz(d, e, *query)
            _same(ours, theirs)
            m = theirs[0]
            # dstein on both bindings' iblock/isplit: int64 here, int32 from f2py
            for block, split in (ours[2:4], theirs[2:4]):
                _same(_lapack.dstein(d, e, theirs[1][:m], block, split),
                      lapack.dstein(d, e, theirs[1][:m], theirs[2], theirs[3]))
        assert np.array_equal(d, d_in) and np.array_equal(e, e_in)


def test_resolver_falls_back_to_scipy(tmp_path):
    # an empty directory, and one whose library file does not load
    (tmp_path / "broken").mkdir()
    (tmp_path / "broken" / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    *routines, binding = _lapack.resolve([tmp_path / "empty", tmp_path / "broken"])
    assert routines == [lapack.dstevd, lapack.dsterf, lapack.dstebz, lapack.dstein]
    assert binding == {"library": "scipy.linalg.lapack", "corename": None}


@pytest.mark.skipif(not OPENBLAS, reason="numpy carries no bundled OpenBLAS LAPACK")
def test_binding_names_numpy_openblas():
    binding = _lapack.BINDING
    assert binding["library"].startswith("libscipy_openblas64_")
    assert binding["corename"]
    *routines, again = _lapack.resolve(_lapack.numpy_library_dirs())
    assert again == binding
    assert [type(r).__name__ for r in routines] == ["_Dstevd", "_Dsterf", "_Dstebz", "_Dstein"]


def test_routines_are_not_plain_functions():
    # the benchmark tracer wraps every public cpbsim function, and tests
    # replace these names in the two modules that call them
    for module, names in ((propagate, ("dstevd", "dsterf")), (noise, ("dstebz", "dstein"))):
        for name in names:
            routine = getattr(module, name)
            assert routine is getattr(_lapack, name)
            assert callable(routine) and not inspect.isfunction(routine)


def test_threads_give_serial_bits():
    params = DeviceParams()
    config = PropagatorConfig(time_step=1e-3)
    forward = default_protocol()
    backward = reverse_protocol(forward)
    tasks = [
        lambda: evolve(params, forward, config),
        lambda: spectrum_trace(params, forward, 500).energies,
        lambda: evolve(params, backward, config),
        lambda: spectrum_trace(params, backward, 500).energies,
    ]
    serial = [task() for task in tasks]
    # each thread runs every task, the two in opposite orders, so the same
    # routine runs in both threads at once
    orders = [list(range(len(tasks))), list(reversed(range(len(tasks))))]
    results = [{}, {}]
    start = threading.Barrier(2)

    def worker(order, found):
        start.wait()
        for i in order:
            found[i] = tasks[i]()

    threads = [threading.Thread(target=worker, args=args) for args in zip(orders, results)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for found in results:
        assert sorted(found) == list(range(len(tasks)))
        for i, value in found.items():
            assert np.array_equal(value, serial[i])
