"""The three tridiagonal eigensolves cpbsim makes, bound once at import.

Each takes a real symmetric tridiagonal T as its diagonal ``d`` and
off-diagonal ``e``, leaves both untouched, and returns eigenvalues in
ascending order with eigenvectors as the columns of a Fortran-ordered ``z``
(each column's sign LAPACK's choice): ``eigh(d, e) -> (vals, z)`` all
eigenpairs (LAPACK ``dstevd``), ``eigvalsh(d, e) -> vals`` all eigenvalues
(``dsterf``), and ``level_pair(d, e, k) -> (vals, z)`` eigenpairs k and k+1,
0-based (``dstebz`` bisection, then ``dstein`` inverse iteration). A routine
that fails (``info`` != 0), or a ``dstebz`` count other than 2, raises
``numpy.linalg.LinAlgError``, so no caller handles LAPACK's conventions.

numpy's wheels ship OpenBLAS together with its LAPACK (a
``libscipy_openblas64_`` library in ``numpy.libs``, or in ``numpy/.dylibs``
on macOS), exporting each routine with 64-bit integers as
``scipy_<name>_64_``. The solves call the four routines of that library
through ctypes, so importing cpbsim does not import scipy, and every
payload bit depends on the one OpenBLAS that numpy already uses for its
products. Where numpy carries no such library, or the library lacks one of
the four routines (conda/MKL or Accelerate builds), the solves call the same
routines through ``scipy.linalg.lapack``: the same LAPACK code through
another binding, picked from what the process finds.

A solve's ctypes arguments and arrays are built once per matrix order and
thread: a call copies ``d`` and ``e`` into those arrays, calls LAPACK and
returns copies of the outputs. ctypes releases the GIL for each call, so
every thread keeps its own arrays.
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


def _check(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info})")


def _check_bisection(info: int, count: int) -> None:
    _check("dstebz", info)
    if count != 2:
        raise np.linalg.LinAlgError(f"LAPACK dstebz found {count} eigenvalues, not 2")


def _ascending(w: np.ndarray, z: np.ndarray):
    """``w[:2]`` and ``z``'s two columns, ascending: dstebz's order "B",
    which dstein needs, lists the upper one first where T splits between
    the two with the lower one in a later block."""
    pair = np.argsort(w[:2], kind="stable")
    return w[pair], z[:, pair]


def _tridiagonal(n: int):
    """Arrays for D and E, and a view of E's n - 1 entries."""
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    return d, e, e[: n - 1]


def _eigh_space(n: int):
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


def _eigvalsh_space(n: int):
    d, e, e_in = _tridiagonal(n)
    info = _INT()
    args = (_int(n), _address(d), _address(e), ctypes.byref(info))
    return d, e_in, info, args, e


def _pair_space(n: int):
    d, e, e_in = _tridiagonal(n)
    w, z = np.empty(n), np.empty((n, 2), order="F")
    iblock, isplit = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    # work space for either routine: dstebz needs 4n and 3n, dstein 5n and n
    work, iwork = np.empty(5 * n), np.empty(3 * n, dtype=np.int64)
    ifail = np.empty(2, dtype=np.int64)
    il, iu, count, info = _INT(), _INT(), _INT(), _INT()
    zero = ctypes.byref(ctypes.c_double(0.0))
    # range "I" selects by 1-based index il..iu; abstol 0 is LAPACK's
    # default, eps times the norm of T
    bisect = (
        b"I", b"B", _int(n), zero, zero, ctypes.byref(il), ctypes.byref(iu), zero,
        _address(d), _address(e), ctypes.byref(count), _int(0), _address(w),
        _address(iblock), _address(isplit), _address(work), _address(iwork),
        ctypes.byref(info), _CHAR_LEN, _CHAR_LEN,
    )
    # dstein reads the first two of dstebz's w and iblock, and its isplit
    invert = (
        _int(n), _address(d), _address(e), _int(2), _address(w), _address(iblock),
        _address(isplit), _address(z), _int(max(n, 1)), _address(work),
        _address(iwork), _address(ifail), ctypes.byref(info),
    )
    keep = (e, iblock, isplit, work, iwork, ifail)
    return d, e_in, w, z, il, iu, count, info, bisect, invert, keep


class _OpenBLAS:
    """The three solves through the four routines of numpy's OpenBLAS.

    A ``_*_space(n)`` function builds the arrays and ctypes arguments of
    one solve and matrix order, D's and E's arrays first, on the first call
    of that solve and order in each thread. LAPACK only ever sees these
    arrays, whose sizes are fixed by n.
    """

    def __init__(self, dstevd, dsterf, dstebz, dstein) -> None:
        for function in (dstevd, dsterf, dstebz, dstein):
            function.restype = None
        self._dstevd, self._dsterf = dstevd, dsterf
        self._dstebz, self._dstein = dstebz, dstein
        self._local = threading.local()

    def _load(self, space_of, d, e):
        """This thread's ``space_of(len(d))``, holding ``d`` and ``e``."""
        n = len(d)
        if len(e) != n - 1:
            raise ValueError(f"e has {len(e)} entries, not {n - 1}")
        spaces = self._local.__dict__
        try:
            space = spaces[space_of, n]
        except KeyError:
            space = spaces[space_of, n] = space_of(n)
        space[0][...] = d
        space[1][...] = e
        return space

    def eigh(self, d, e):
        vals, _e, z, info, args, _keep = self._load(_eigh_space, d, e)
        self._dstevd(*args)
        _check("dstevd", info.value)
        return vals.copy(), z.copy(order="F")

    def eigvalsh(self, d, e):
        vals, _e, info, args, _keep = self._load(_eigvalsh_space, d, e)
        self._dsterf(*args)
        _check("dsterf", info.value)
        return vals.copy()

    def level_pair(self, d, e, k):
        _d, _e, w, z, il, iu, count, info, bisect, invert, _keep = self._load(
            _pair_space, d, e
        )
        il.value, iu.value = k + 1, k + 2
        self._dstebz(*bisect)
        _check_bisection(info.value, count.value)
        self._dstein(*invert)
        _check("dstein", info.value)
        return _ascending(w, z)


class _Scipy:
    """The three solves through ``scipy.linalg.lapack``'s f2py wrappers."""

    def __init__(self) -> None:
        from scipy.linalg import lapack

        self._lapack = lapack

    def eigh(self, d, e):
        vals, z, info = self._lapack.dstevd(d, e)
        _check("dstevd", info)
        return vals, z

    def eigvalsh(self, d, e):
        vals, info = self._lapack.dsterf(d, e)
        _check("dsterf", info)
        return vals

    def level_pair(self, d, e, k):
        count, w, iblock, isplit, info = self._lapack.dstebz(
            d, e, 2, 0.0, 0.0, k + 1, k + 2, 0.0, "B"
        )
        _check_bisection(info, count)
        z, info = self._lapack.dstein(d, e, w[:2], iblock, isplit)
        _check("dstein", info)
        return _ascending(w, z)


def numpy_library_dirs() -> tuple:
    """Where numpy's wheels keep their bundled libraries."""
    package = Path(np.__file__).resolve().parent
    return package.parent / "numpy.libs", package / ".dylibs"


def resolve(directories):
    """``(eigh, eigvalsh, level_pair, binding)`` from the first
    ``libscipy_openblas64_*`` library in ``directories`` that exports all
    four routines, else from ``scipy.linalg.lapack``.

    ``binding`` names the library the routines come from and, for OpenBLAS,
    the kernel set it picked for this CPU (``corename``).
    """
    for directory in directories:
        for path in sorted(Path(directory).glob("libscipy_openblas64_*")):
            try:
                library = ctypes.CDLL(str(path))
                dstevd, dsterf, dstebz, dstein = (
                    getattr(library, f"scipy_{name}_64_")
                    for name in ("dstevd", "dsterf", "dstebz", "dstein")
                )
            except (OSError, AttributeError):
                continue
            get_corename = getattr(library, "scipy_openblas_get_corename64_", None)
            corename = None
            if get_corename is not None:
                get_corename.restype = ctypes.c_char_p
                corename = get_corename().decode("ascii", "replace")
            solves = _OpenBLAS(dstevd, dsterf, dstebz, dstein)
            binding = {"library": path.name, "corename": corename}
            return solves.eigh, solves.eigvalsh, solves.level_pair, binding
    solves = _Scipy()
    binding = {"library": "scipy.linalg.lapack", "corename": None}
    return solves.eigh, solves.eigvalsh, solves.level_pair, binding


eigh, eigvalsh, level_pair, BINDING = resolve(numpy_library_dirs())
