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

One workspace per matrix order and thread holds the arrays and ctypes
arguments of all four routines: a call copies ``d`` and ``e`` into its
arrays, calls LAPACK and returns copies of the outputs. ctypes releases
the GIL for each call, so every thread keeps its own workspaces.
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


class _Workspace:
    """A thread's arrays and ctypes arguments for matrix order n, shared by
    the four routines; LAPACK only ever sees these arrays, whose sizes are
    fixed by n.

    Each routine's arguments are the tuple named after it. dstevd's work
    space (1 + 4n + n^2 and 3 + 5n) covers dstebz's (4n and 3n) and
    dstein's (5n and n), and dstein writes its two eigenvectors into the
    first two columns of Z.
    """

    def __init__(self, n: int) -> None:
        lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
        # fields, so that they live as long as the arguments holding their
        # addresses
        self.d, self.e, self.w = np.empty(n), np.empty(n - 1), np.empty(n)
        self.z, self.work = np.empty((n, n), order="F"), np.empty(lwork)
        self.iwork, self.iblock, self.isplit, self.ifail = (
            np.empty(size, dtype=np.int64) for size in (liwork, n, n, 2)
        )
        d, e, w, z, work = map(_address, (self.d, self.e, self.w, self.z, self.work))
        iwork, iblock, isplit, ifail = map(
            _address, (self.iwork, self.iblock, self.isplit, self.ifail)
        )
        self.il, self.iu, self.count, self.info = _INT(), _INT(), _INT(), _INT()
        order, ldz, info = _int(n), _int(n), ctypes.byref(self.info)
        zero = ctypes.byref(ctypes.c_double(0.0))
        self.dstevd = (
            b"V", order, d, e, z, ldz, work, _int(lwork), iwork, _int(liwork), info,
            _CHAR_LEN,
        )
        self.dsterf = (order, d, e, info)
        # range "I" selects by 1-based index il..iu; abstol 0 is LAPACK's
        # default, eps times the norm of T
        self.dstebz = (
            b"I", b"B", order, zero, zero, ctypes.byref(self.il), ctypes.byref(self.iu),
            zero, d, e, ctypes.byref(self.count), _int(0), w, iblock, isplit, work,
            iwork, info, _CHAR_LEN, _CHAR_LEN,
        )
        # dstein reads the first two of dstebz's w and iblock, and its isplit
        self.dstein = (
            order, d, e, _int(2), w, iblock, isplit, z, ldz, work, iwork, ifail, info,
        )


class _OpenBLAS:
    """The three solves through the four routines of numpy's OpenBLAS.

    Each thread builds one :class:`_Workspace` per matrix order, on its
    first solve of that order, and every solve of the order copies ``d``
    and ``e`` into it.
    """

    def __init__(self, dstevd, dsterf, dstebz, dstein) -> None:
        for function in (dstevd, dsterf, dstebz, dstein):
            function.restype = None
        self._dstevd, self._dsterf = dstevd, dsterf
        self._dstebz, self._dstein = dstebz, dstein
        self._local = threading.local()

    def _load(self, d, e) -> _Workspace:
        """This thread's workspace of order ``len(d)``, holding ``d`` and ``e``."""
        n = len(d)
        if len(e) != n - 1:
            raise ValueError(f"e has {len(e)} entries, not {n - 1}")
        spaces = self._local.__dict__
        try:
            space = spaces[n]
        except KeyError:
            space = spaces[n] = _Workspace(n)
        space.d[...] = d
        space.e[...] = e
        return space

    def eigh(self, d, e):
        space = self._load(d, e)
        self._dstevd(*space.dstevd)
        _check("dstevd", space.info.value)
        return space.d.copy(), space.z.copy(order="F")

    def eigvalsh(self, d, e):
        space = self._load(d, e)
        self._dsterf(*space.dsterf)
        _check("dsterf", space.info.value)
        return space.d.copy()

    def level_pair(self, d, e, k):
        space = self._load(d, e)
        space.il.value, space.iu.value = k + 1, k + 2
        self._dstebz(*space.dstebz)
        _check_bisection(space.info.value, space.count.value)
        self._dstein(*space.dstein)
        _check("dstein", space.info.value)
        return _ascending(space.w, space.z)


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


def _openblas_text(library, name: str):
    """The string OpenBLAS's ``openblas_get_<name>`` returns, or ``None``
    where the library does not export it."""
    function = getattr(library, f"scipy_openblas_get_{name}64_", None)
    if function is None:
        return None
    function.restype = ctypes.c_char_p
    return function().decode("ascii", "replace")


def resolve(directories):
    """``(eigh, eigvalsh, level_pair, binding)`` from the first
    ``libscipy_openblas64_*`` library in ``directories`` that exports all
    four routines, else from ``scipy.linalg.lapack``.

    ``binding`` names the library the routines come from and, for OpenBLAS,
    the kernel set it picked for this CPU (``corename``) and its version and
    build options (``config``).
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
            solves = _OpenBLAS(dstevd, dsterf, dstebz, dstein)
            binding = {
                "library": path.name,
                "corename": _openblas_text(library, "corename"),
                "config": _openblas_text(library, "config"),
            }
            return solves.eigh, solves.eigvalsh, solves.level_pair, binding
    solves = _Scipy()
    binding = {"library": "scipy.linalg.lapack", "corename": None, "config": None}
    return solves.eigh, solves.eigvalsh, solves.level_pair, binding


eigh, eigvalsh, level_pair, BINDING = resolve(numpy_library_dirs())
