"""The three eigensolves: numpy's OpenBLAS binding gives the bits of the
scipy fallback, failures raise and exit 2 through both bindings, and
per-thread buffers."""

import inspect
import json
import re
import threading

import numpy as np
import pytest
from scipy.linalg import lapack

from cpbsim import (
    BiasPoint,
    DeviceParams,
    DriveProtocol,
    PropagatorConfig,
    evolve,
    ratio_trace,
    reverse_protocol,
    sample_drive,
    spectrum_trace,
)
from cpbsim import _lapack, noise, propagate
from cpbsim.cli import main
from cpbsim.model import charge_labels, gauge_tridiagonal

OPENBLAS = _lapack.BINDING["library"] != "scipy.linalg.cython_lapack"
# (eigh, eigvalsh, level_pair, binding) of the scipy fallback
SCIPY = _lapack.resolve([])


def _random_forms(seed, count, n):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=n) * 10.0, rng.normal(size=n - 1)) for _ in range(count)]


def _drive_forms(count):
    protocol = DriveProtocol()
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
        assert np.array_equal(a, b)
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
            b.flags.c_contiguous, b.flags.f_contiguous)


@pytest.mark.parametrize("forms", FORMS.values(), ids=FORMS.keys())
def test_routines_match_scipy_bit_for_bit(forms):
    eigh, eigvalsh, level_pair, _ = SCIPY
    for d, e in forms:
        d_in, e_in = d.copy(), e.copy()
        _same(_lapack.eigh(d, e), eigh(d, e))
        _same([_lapack.eigvalsh(d, e)], [eigvalsh(d, e)])
        _same(_lapack.level_pair(d, e), level_pair(d, e))
        assert np.array_equal(d, d_in) and np.array_equal(e, e_in)


def test_level_pair_ascends_across_split_blocks():
    # without tunneling T is diagonal, and every charge is a block of its
    # own. At gate charge -0.3 the lowest level is charge 0 and the next is
    # charge -1, whose block comes first, so dstebz's order "B" lists the
    # upper first, and level_pair must sort the pair
    params = DeviceParams(josephson_energy_total=0.0)
    diagonals, offs, _ = gauge_tridiagonal(params, [BiasPoint(flux=0.25, gate_charge=-0.3)])
    d, e = diagonals[0], offs[0]
    assert not e.any()
    _m, w, *_ = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, 2, 0.0, "B")
    assert w[0] > w[1]
    labels = list(charge_labels(params))
    expected = np.eye(d.size)[:, [labels.index(0), labels.index(-1)]]
    d_in, e_in = d.copy(), e.copy()
    pairs = [_lapack.level_pair(d, e), SCIPY[2](d, e)]
    for vals, z in pairs:
        assert vals[0] < vals[1]
        assert np.array_equal(np.abs(z), expected)
    _same(*pairs)
    assert np.array_equal(d, d_in) and np.array_equal(e, e_in)


@pytest.mark.parametrize("josephson", [5e154, 1e200, 1e308])
def test_level_pair_at_huge_josephson_energy(josephson):
    # T's norm lies beyond the range bisection starts from unscaled; dstevx
    # scales it first
    params = DeviceParams(josephson_energy_total=josephson)
    protocol = DriveProtocol()
    biases = [sample_drive(protocol, float(t))
              for t in np.linspace(0.0, protocol.duration, 21)]
    diagonals, offs, _ = gauge_tridiagonal(params, biases)
    for d, e in zip(diagonals, offs):
        vals, z = _lapack.level_pair(d, e)
        _same((vals, z), SCIPY[2](d, e))
        lowest = _lapack.eigvalsh(d, e)[:2]
        assert np.all(np.abs(vals - lowest) <= 1e-15 * np.abs(lowest))


def test_resolver_falls_back_to_scipy(tmp_path):
    # an empty directory, and one whose library file does not load
    (tmp_path / "broken").mkdir()
    (tmp_path / "broken" / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    eigh, eigvalsh, level_pair, binding = _lapack.resolve(
        [tmp_path / "empty", tmp_path / "broken"])
    assert binding == {
        "library": "scipy.linalg.cython_lapack", "corename": None, "config": None}
    assert {type(solve.__self__).__name__ for solve in (eigh, eigvalsh, level_pair)} == {
        "_Solves"}
    d, e = FORMS["drive-51"][0]
    _same(eigh(d, e), lapack.dstevd(d, e)[:2])
    _same([eigvalsh(d, e)], [lapack.dsterf(d, e)[0]])
    # the pair through f2py's bisection and inverse iteration, sorted
    _count, w, iblock, isplit, _info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, 2, 0.0, "B")
    z, _info = lapack.dstein(d, e, w[:2], iblock, isplit)
    pair = np.argsort(w[:2], kind="stable")
    _same(level_pair(d, e), (w[pair], z[:, pair]))


@pytest.mark.skipif(not OPENBLAS, reason="numpy carries no bundled OpenBLAS LAPACK")
def test_binding_names_numpy_openblas():
    binding = _lapack.BINDING
    assert binding["library"].startswith("libscipy_openblas64_")
    assert binding["corename"]
    assert binding["config"].startswith("OpenBLAS ")
    *solves, again = _lapack.resolve(_lapack.numpy_library_dirs())
    assert again == binding
    assert [type(solve.__self__).__name__ for solve in solves] == ["_Solves"] * 3


@pytest.mark.parametrize("binding", ["numpy", "scipy"])
@pytest.mark.parametrize("entries", [3, 5], ids=["n-2", "n"])
def test_off_diagonal_of_the_wrong_length_raises(binding, entries):
    solves = _lapack.eigh, _lapack.eigvalsh, _lapack.level_pair
    if binding == "scipy":
        solves = SCIPY[:3]
    d, e = np.arange(5.0), np.ones(entries)
    for solve in solves:
        with pytest.raises(ValueError, match=re.escape(f"e has {entries} entries, not 4")):
            solve(d, e)


def test_routines_are_not_plain_functions():
    # the benchmark tracer wraps every public cpbsim function, and tests
    # replace these names in the two modules that call them
    for module, names in ((propagate, ("eigh", "eigvalsh")), (noise, ("level_pair",))):
        for name in names:
            solve = getattr(module, name)
            assert solve is getattr(_lapack, name)
            assert callable(solve) and not inspect.isfunction(solve)
    for solve in SCIPY[:3]:
        assert callable(solve) and not inspect.isfunction(solve)


def _use_scipy(monkeypatch):
    """Route propagate's and noise's solves through the scipy fallback."""
    eigh, eigvalsh, level_pair, _ = SCIPY
    monkeypatch.setattr(propagate, "eigh", eigh)
    monkeypatch.setattr(propagate, "eigvalsh", eigvalsh)
    monkeypatch.setattr(noise, "level_pair", level_pair)


def _payloads(out):
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]
    return {name: (out / name).read_bytes() for name in manifest["outputs"]}


@pytest.mark.parametrize(
    "argv",
    [["spectrum"], ["noise"], ["run", "--exact", "--dt", "1e-3"]],
    ids=["spectrum", "noise", "run-exact"],
)
def test_fallback_writes_the_same_payloads(monkeypatch, tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "numpy")]) == 0
    _use_scipy(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "scipy")]) == 0
    assert _payloads(tmp_path / "scipy") == _payloads(tmp_path / "numpy")


# routine: (solve, a command whose first solve it fails, ctypes argument
# position of its info). dstevx's eigenvalue count is its argument 10
FAILURES = {
    "dstevd": ("eigh", ["run", "--exact", "--dt", "1e-3"], 10),
    "dsterf": ("eigvalsh", ["spectrum"], 3),
    "dstevx": ("level_pair", ["noise"], 17),
}
CASES = {
    f"{binding}-{routine}-{what}": (binding, routine, what)
    for binding in ("numpy", "scipy")
    for routine, what in [(r, "info") for r in FAILURES] + [("dstevx", "count")]
}


@pytest.mark.parametrize("binding, routine, what", CASES.values(), ids=CASES.keys())
def test_solve_failure_raises_and_command_exits_2(
    monkeypatch, tmp_path, capsys, binding, routine, what
):
    name, argv, info_arg = FAILURES[routine]
    value = 3 if what == "info" else 1
    solves = _lapack.eigh.__self__
    if binding == "scipy":
        solves = SCIPY[0].__self__
        _use_scipy(monkeypatch)
    real = getattr(solves, f"_{routine}")
    position = info_arg if what == "info" else 10

    def stand_in(*args):
        # the real routine, then a value written through the byref it got
        real(*args)
        args[position]._obj.value = value

    monkeypatch.setattr(solves, f"_{routine}", stand_in)
    solve = getattr(noise if name == "level_pair" else propagate, name)
    if what == "info":
        message = f"LAPACK {routine} failed (info = 3)"
    else:
        message = "LAPACK dstevx found 1 eigenvalues, not 2"
    d, e = FORMS["drive-51"][0]
    with pytest.raises(np.linalg.LinAlgError, match=re.escape(message)):
        solve(d, e)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"cpbsim: {message}\n"


def test_threads_give_serial_bits(monkeypatch):
    # the fallback's thread safety rests on the same ctypes calls, so both
    # bindings run, the package's own first
    _assert_threads_give_serial_bits()
    _use_scipy(monkeypatch)
    _assert_threads_give_serial_bits()


def _assert_threads_give_serial_bits():
    params = DeviceParams()
    config = PropagatorConfig(time_step=1e-3)
    forward = DriveProtocol()
    backward = reverse_protocol(forward)
    tasks = [
        lambda: evolve(params, forward, config),
        lambda: spectrum_trace(params, forward, 500).energies,
        lambda: evolve(params, backward, config),
        lambda: spectrum_trace(params, backward, 500).energies,
        lambda: [p.tphi_over_t1 for p in ratio_trace(params, forward, 200)],
        lambda: [p.tphi_over_t1 for p in ratio_trace(params, backward, 200)],
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
