"""The three tridiagonal eigensolves cpbsim makes, bound once at import.

Each takes a real symmetric tridiagonal T as its diagonal ``d`` and
off-diagonal ``e``, leaves both untouched, and returns eigenvalues in
ascending order with eigenvectors as the columns of a Fortran-ordered ``z``
(each column's sign LAPACK's choice): ``eigh(d, e) -> (vals, z)`` all
eigenpairs (LAPACK ``dstevd``), ``eigvalsh(d, e) -> vals`` all eigenvalues
(``dsterf``), and ``level_pair(d, e) -> (vals, z)`` the two lowest
eigenpairs (``dstevx``: bisection, inverse iteration and sorting, with T
scaled first where its norm would overflow or underflow). A routine that
fails (``info`` != 0), or a ``dstevx`` count other than 2, raises
``numpy.linalg.LinAlgError``, so no caller handles LAPACK's conventions.

numpy's wheels ship OpenBLAS together with its LAPACK (a
``libscipy_openblas64_`` library in ``numpy.libs``, or in ``numpy/.dylibs``
on macOS), exporting each routine with 64-bit integers as
``scipy_<name>_64_``. The solves call the three routines of that library
through ctypes, so importing cpbsim does not import scipy, and every
payload bit depends on the one OpenBLAS that numpy already uses for its
products. Where numpy carries no such library, or the library lacks one of
the three routines (conda/MKL or Accelerate builds), the same ctypes calls
go to the C functions that ``scipy.linalg.cython_lapack`` exports, which
take ``int`` integers and no character lengths: the same LAPACK code
through another function source, picked from what the process finds.

One workspace per matrix order and thread holds the arrays and ctypes
arguments of the three routines: a call copies ``d`` and ``e`` into its
arrays, calls LAPACK and returns copies of the outputs. ctypes releases
the GIL for each call, so every thread keeps its own workspaces.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path

import numpy as np

_ROUTINES = ("dstevd", "dsterf", "dstevx")
# Every argument is prebuilt as a ctypes parameter object of its C type
# (``from_param``, ``byref``) or is a bytes object, which ctypes passes on
# without converting. The functions declare no ``argtypes``: converting
# through them costs about 0.2 us per argument and call, some 4 us on the
# 18 to 20 arguments of a dstevx call.
# gfortran passes each character argument's length as a trailing size_t.
_CHAR_LEN = ctypes.c_size_t.from_param(1)


def _address(array: np.ndarray):
    return ctypes.c_void_p.from_param(array.ctypes.data)


def _check(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info})")


class _Workspace:
    """A thread's arrays and ctypes arguments for matrix order n, shared by
    the three routines; LAPACK only ever sees these arrays, whose sizes are
    fixed by n.

    ``integer`` is the library's ctypes integer type and ``lengths`` the
    trailing arguments it takes for each character argument. Each routine's
    arguments are the tuple named after it. dstevd's work space (1 + 4n +
    n^2 and 3 + 5n) covers dstevx's (5n and 5n), and dstevx writes its two
    eigenvectors into the first two columns of Z.
    """

    def __init__(self, n: int, integer, lengths: tuple) -> None:
        lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
        # fields, so that they live as long as the arguments holding their
        # addresses
        self.d, self.e, self.w = np.empty(n), np.empty(n - 1), np.empty(n)
        self.z, self.work = np.empty((n, n), order="F"), np.empty(lwork)
        self.iwork, self.ifail = (np.empty(size, dtype=integer) for size in (liwork, n))
        d, e, w, z, work, iwork, ifail = map(
            _address, (self.d, self.e, self.w, self.z, self.work, self.iwork, self.ifail)
        )
        self.count, self.info = integer(), integer()
        order, ldz, lw, liw, il, iu = (
            ctypes.byref(integer(value)) for value in (n, n, lwork, liwork, 1, 2)
        )
        count, info = ctypes.byref(self.count), ctypes.byref(self.info)
        zero = ctypes.byref(ctypes.c_double(0.0))
        self.dstevd = (b"V", order, d, e, z, ldz, work, lw, iwork, liw, info, *lengths)
        self.dsterf = (order, d, e, info)
        # range "I" selects by 1-based index il..iu, the two lowest; abstol 0
        # is LAPACK's default, eps times the norm of T
        self.dstevx = (
            b"V", b"I", order, d, e, zero, zero, il, iu, zero, count, w, z, ldz, work,
            iwork, ifail, info, *lengths, *lengths,
        )


class _Solves:
    """The three solves through one library's ``dstevd``, ``dsterf`` and
    ``dstevx``.

    Each thread builds one :class:`_Workspace` per matrix order, on its
    first solve of that order, and every solve of the order copies ``d``
    and ``e`` into it.
    """

    def __init__(self, dstevd, dsterf, dstevx, integer, lengths: tuple) -> None:
        for function in (dstevd, dsterf, dstevx):
            function.restype = None
        self._dstevd, self._dsterf, self._dstevx = dstevd, dsterf, dstevx
        self._integer, self._lengths = integer, lengths
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
            space = spaces[n] = _Workspace(n, self._integer, self._lengths)
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

    def level_pair(self, d, e):
        space = self._load(d, e)
        self._dstevx(*space.dstevx)
        _check("dstevx", space.info.value)
        if space.count.value != 2:
            raise np.linalg.LinAlgError(
                f"LAPACK dstevx found {space.count.value} eigenvalues, not 2"
            )
        return space.w[:2].copy(), space.z[:, :2].copy(order="F")


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
    three routines, else from ``scipy.linalg.cython_lapack``.

    ``binding`` names the library the routines come from and, for OpenBLAS,
    the kernel set it picked for this CPU (``corename``) and its version and
    build options (``config``).
    """
    for directory in directories:
        for path in sorted(Path(directory).glob("libscipy_openblas64_*")):
            try:
                library = ctypes.CDLL(str(path))
                functions = [getattr(library, f"scipy_{name}_64_") for name in _ROUTINES]
            except (OSError, AttributeError):
                continue
            solves = _Solves(*functions, ctypes.c_int64, (_CHAR_LEN,))
            binding = {
                "library": path.name,
                "corename": _openblas_text(library, "corename"),
                "config": _openblas_text(library, "config"),
            }
            return solves.eigh, solves.eigvalsh, solves.level_pair, binding
    from scipy.linalg.cython_lapack import __pyx_capi__ as capsules

    # private prototypes, so that no restype is set on the shared pythonapi
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    capsule_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", ctypes.pythonapi))
    functions = []
    for name in _ROUTINES:
        capsule = capsules[name]
        pointer = capsule_pointer(capsule, capsule_name(capsule))
        functions.append(ctypes.CFUNCTYPE(None)(pointer))
    solves = _Solves(*functions, ctypes.c_int, ())
    binding = {"library": "scipy.linalg.cython_lapack", "corename": None, "config": None}
    return solves.eigh, solves.eigvalsh, solves.level_pair, binding


eigh, eigvalsh, level_pair, BINDING = resolve(numpy_library_dirs())
