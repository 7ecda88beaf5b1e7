"""The four tridiagonal LAPACK routines cpbsim calls, bound once at import.

numpy's wheels ship OpenBLAS together with its LAPACK (a
``libscipy_openblas64_`` library in ``numpy.libs``, or in ``numpy/.dylibs``
on macOS), exporting each routine with 64-bit integers as
``scipy_<name>_64_``. This module binds ``dstevd``, ``dsterf``, ``dstebz``
and ``dstein`` from that library through ctypes, so importing cpbsim does
not import scipy, and every payload bit depends on the one OpenBLAS that
numpy already uses for its products. Where numpy carries no such library,
or the library lacks one of the four routines (conda/MKL or Accelerate
builds), the same routines are taken from ``scipy.linalg.lapack``: the same
LAPACK code through another binding, picked from what the process finds.

Each routine takes and returns what scipy's f2py wrapper of it does,
``info`` included, and leaves its inputs untouched; only the integer arrays
``dstebz`` returns are LAPACK's int64 rather than f2py's int32. A routine's
ctypes arguments and arrays are built once per matrix order and thread: a
call copies its inputs into those arrays, calls LAPACK and returns copies of
the outputs. ctypes releases the GIL for the call, so every thread keeps
its own arrays.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path

import numpy as np

_INT = ctypes.c_int64
# Every argument is prebuilt as a ctypes parameter object of its C type
# (``from_param``, ``byref``) or is a bytes object, which ctypes passes on
# without converting. The functions declare no ``argtypes``: converting
# through them costs about 0.2 us per argument and call, which would put the
# 13 to 20 arguments of a call above the whole f2py wrapper's overhead.
# gfortran passes each character argument's length as a trailing size_t.
_CHAR_LEN = ctypes.c_size_t.from_param(1)


def _address(array: np.ndarray):
    return ctypes.c_void_p.from_param(array.ctypes.data)


def _int(value: int):
    return ctypes.byref(_INT(value))


class _Routine:
    """One routine of numpy's OpenBLAS, called as its f2py wrapper is.

    ``_build(n)`` returns the arrays and ctypes arguments of one matrix
    order, D's and E's arrays first; they are built on the first call of
    each order in each thread. LAPACK only ever sees these arrays, whose
    sizes are fixed by n.
    """

    def __init__(self, name: str, function) -> None:
        function.restype = None
        self.__name__ = name
        self._function = function
        self._local = threading.local()

    def _load(self, d, e):
        """This thread's arrays for the order of ``d``, holding ``d`` and ``e``."""
        n = len(d)
        if len(e) != n - 1:
            raise ValueError(f"{self.__name__}: e has {len(e)} entries, not {n - 1}")
        spaces = self._local.__dict__
        try:
            space = spaces[n]
        except KeyError:
            space = spaces[n] = self._build(n)
        space[0][...] = d
        space[1][...] = e
        return space


def _tridiagonal(n: int):
    """Arrays for D and E, and a view of E's n - 1 entries."""
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    return d, e, e[: n - 1]


class _Dstevd(_Routine):
    """``vals, z, info = dstevd(d, e)``: all eigenpairs, divide and conquer."""

    def _build(self, n):
        d, e, e_in = _tridiagonal(n)
        z = np.empty((n, n), order="F")
        lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
        work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
        info = _INT()
        args = (
            b"V", _int(n), _address(d), _address(e), _address(z), _int(max(n, 1)),
            _address(work), _int(lwork), _address(iwork), _int(liwork),
            ctypes.byref(info), _CHAR_LEN,
        )
        return d, e_in, z, info, args, (e, work, iwork)

    def __call__(self, d, e):
        vals, _e, z, info, args, _keep = self._load(d, e)
        self._function(*args)
        return vals.copy(), z.copy(order="F"), info.value


class _Dsterf(_Routine):
    """``vals, info = dsterf(d, e)``: all eigenvalues, root-free QL/QR."""

    def _build(self, n):
        d, e, e_in = _tridiagonal(n)
        info = _INT()
        args = (_int(n), _address(d), _address(e), ctypes.byref(info))
        return d, e_in, info, args, e

    def __call__(self, d, e):
        vals, _e, info, args, _keep = self._load(d, e)
        self._function(*args)
        return vals.copy(), info.value


class _Dstebz(_Routine):
    """``m, w, iblock, isplit, info = dstebz(d, e, range, vl, vu, il, iu,
    tol, order)``: selected eigenvalues by bisection. ``range`` is 0 for
    all eigenvalues, 1 for those in (vl, vu] and 2 for indices il..iu."""

    def _build(self, n):
        d, e, e_in = _tridiagonal(n)
        # w, iblock and isplit in one array, zeroed by one fill
        out = np.empty(3 * n, dtype=np.int64)
        w, iblock, isplit = out[:n].view(np.float64), out[n : 2 * n], out[2 * n :]
        work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int64)
        scalars = (ctypes.c_double(), ctypes.c_double(), _INT(), _INT(), ctypes.c_double())
        m, info = _INT(), _INT()
        args = [
            None, None, _int(n), *map(ctypes.byref, scalars), _address(d), _address(e),
            ctypes.byref(m), _int(0), _address(w), _address(iblock), _address(isplit),
            _address(work), _address(iwork), ctypes.byref(info), _CHAR_LEN, _CHAR_LEN,
        ]
        # slot 6 holds the scalar arguments the ctypes objects were last set to
        return [d, e_in, out, w, iblock, isplit, None, m, info, args, scalars, (e, work, iwork)]

    def __call__(self, d, e, range, vl, vu, il, iu, tol, order):
        space = self._load(d, e)
        _d, _e, out, w, iblock, isplit, last, m, info, args, scalars, _keep = space
        key = (range, order, vl, vu, il, iu, tol)
        if key != last:
            args[0] = b"A" if range <= 0 else b"V" if range == 1 else b"I"
            args[1] = order.encode() if isinstance(order, str) else order
            for scalar, value in zip(scalars, key[2:]):
                scalar.value = value
            space[6] = key
        # f2py's outputs start as zeros; LAPACK sets only the first m
        # entries of w and iblock and the first nsplit of isplit
        out.fill(0)
        self._function(*args)
        return m.value, w.copy(), iblock.copy(), isplit.copy(), info.value


class _Dstein(_Routine):
    """``z, info = dstein(d, e, w, iblock, isplit)``: eigenvectors of the
    eigenvalues ``w`` by inverse iteration; ``iblock`` and ``isplit`` may
    be of any integer type."""

    def _build(self, n):
        d, e, e_in = _tridiagonal(n)
        w, z = np.empty(n), np.empty((n, n), order="F")
        iblock, isplit = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        work, iwork = np.empty(5 * n), np.empty(n, dtype=np.int64)
        ifail = np.empty(n, dtype=np.int64)
        m, info = _INT(), _INT()
        args = (
            _int(n), _address(d), _address(e), ctypes.byref(m), _address(w),
            _address(iblock), _address(isplit), _address(z), _int(max(n, 1)),
            _address(work), _address(iwork), _address(ifail), ctypes.byref(info),
        )
        # (w[:k], z[:, :k]) for each eigenvalue count k
        views = {k: (w[:k], z[:, :k]) for k in range(n + 1)}
        return d, e_in, iblock, isplit, views, m, info, args, (e, work, iwork, ifail)

    def __call__(self, d, e, w, iblock, isplit):
        _d, _e, sblock, ssplit, views, m, info, args, _keep = self._load(d, e)
        k = len(w)
        if k not in views or len(iblock) != len(d) or len(isplit) != len(d):
            raise ValueError("dstein: need len(w) <= n and n entries in iblock, isplit")
        sw, z = views[k]
        sw[...] = w
        sblock[...] = iblock
        ssplit[...] = isplit
        m.value = k
        self._function(*args)
        return z.copy(order="F"), info.value


_ROUTINES = {"dstevd": _Dstevd, "dsterf": _Dsterf, "dstebz": _Dstebz, "dstein": _Dstein}


def numpy_library_dirs() -> tuple:
    """Where numpy's wheels keep their bundled libraries."""
    package = Path(np.__file__).resolve().parent
    return package.parent / "numpy.libs", package / ".dylibs"


def resolve(directories):
    """``(dstevd, dsterf, dstebz, dstein, binding)`` from the first
    ``libscipy_openblas64_*`` library in ``directories`` that exports all
    four routines, else from ``scipy.linalg.lapack``.

    ``binding`` names the library the routines come from and, for OpenBLAS,
    the kernel set it picked for this CPU (``corename``).
    """
    for directory in directories:
        for path in sorted(Path(directory).glob("libscipy_openblas64_*")):
            try:
                library = ctypes.CDLL(str(path))
                functions = [getattr(library, f"scipy_{name}_64_") for name in _ROUTINES]
            except (OSError, AttributeError):
                continue
            get_corename = getattr(library, "scipy_openblas_get_corename64_", None)
            corename = None
            if get_corename is not None:
                get_corename.restype = ctypes.c_char_p
                corename = get_corename().decode("ascii", "replace")
            routines = [cls(name, f) for (name, cls), f in zip(_ROUTINES.items(), functions)]
            return (*routines, {"library": path.name, "corename": corename})
    from scipy.linalg import lapack

    routines = [getattr(lapack, name) for name in _ROUTINES]
    return (*routines, {"library": "scipy.linalg.lapack", "corename": None})


dstevd, dsterf, dstebz, dstein, BINDING = resolve(numpy_library_dirs())
