"""LAPACK's tridiagonal ground state, called without the GIL.

``lowest_eigenpair(d, e)`` finds the lowest eigenpair of the symmetric
tridiagonal matrix with diagonal d and off-diagonal e by the two routines,
and with the arguments, that ``scipy.linalg.eigh_tridiagonal(d, e,
select="i", select_range=(0, 0))`` uses: ``dstebz`` (range ``I``, order
``B``, abstol 0) for the eigenvalue, then ``dstein`` for its vector.  It
returns the same bits.  The routines are the ones that
``scipy.linalg.cython_lapack`` exports, called through ``ctypes``, which
releases the GIL for the length of the call; scipy's f2py wrappers hold it.
So eigensolves on several threads run at once.

Import this module lazily: it loads scipy.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np


@functools.cache
def _routines() -> tuple:
    """ctypes functions on the ``dstebz`` and ``dstein`` that scipy's
    ``cython_lapack`` exports as capsules; every array is passed by address."""
    from scipy.linalg import cython_lapack

    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))

    def routine(name, argtypes):
        capsule = cython_lapack.__pyx_capi__[name]
        return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))

    array, char = np.ctypeslib.ndpointer(), ctypes.c_char_p
    return routine("dstebz", [char, char] + [array] * 16), routine("dstein", [array] * 13)


def _check(info: np.ndarray, routine: str) -> None:
    if info[0] != 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info[0]})")


def lowest_eigenpair(d, e) -> tuple:
    """``eigh_tridiagonal(d, e, select="i", select_range=(0, 0))``: returns
    ``(w, z)``, w the lowest eigenvalue with shape (1,) and z its unit vector
    with shape (n, 1).

    A non-finite d or e, or one of the wrong shape, raises ``ValueError``,
    and a routine that returns info != 0 raises ``np.linalg.LinAlgError``
    naming it.
    """
    d = np.ascontiguousarray(np.asarray_chkfinite(d, dtype=float))
    e = np.ascontiguousarray(np.asarray_chkfinite(e, dtype=float))
    if d.ndim != 1 or len(d) < 1 or e.shape != (len(d) - 1,):
        raise ValueError(f"need d of shape (n,) and e of shape (n - 1,), "
                         f"got {d.shape} and {e.shape}")
    stebz, stein = _routines()
    size = len(d)
    # LAPACK takes every scalar by reference; work arrays are zeroed as f2py's are
    n, ldz = np.array([size], dtype=np.intc), np.array([max(1, size)], dtype=np.intc)
    index = np.array([1], dtype=np.intc)  # il = iu = 1: the lowest eigenvalue
    vl, vu, abstol = np.array([0.0]), np.array([1.0]), np.array([0.0])
    m, nsplit, info = (np.zeros(1, dtype=np.intc) for _ in range(3))
    w = np.zeros(size)
    iblock, isplit = np.zeros(size, dtype=np.intc), np.zeros(size, dtype=np.intc)
    work, iwork = np.zeros(4 * size), np.zeros(3 * size, dtype=np.intc)
    stebz(b"I", b"B", n, vl, vu, index, index, abstol, d, e, m, nsplit,
          w, iblock, isplit, work, iwork, info)
    _check(info, "dstebz")
    w = w[:m[0]]
    z = np.zeros((ldz[0], len(w)), order="F")
    work, iwork = np.zeros(5 * size), np.zeros(size, dtype=np.intc)
    ifail = np.zeros(len(w), dtype=np.intc)
    stein(n, d, e, m, w, iblock, isplit, z, ldz, work, iwork, ifail, info)
    _check(info, "dstein")
    return w, z
