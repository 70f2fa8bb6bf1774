"""LAPACK's tridiagonal ground state, called so that several run at once.

``lowest_eigenpair(d, e)`` finds the lowest eigenpair of the symmetric
tridiagonal matrix with diagonal d and off-diagonal e by the two routines,
and with the arguments, that ``scipy.linalg.eigh_tridiagonal(d, e,
select="i", select_range=(0, 0))`` uses: ``dstebz`` (range ``I``, order
``B``, abstol 0) for the eigenvalue, then ``dstein`` for its vector.  It
returns the same bits.  The routines are the ones that
``scipy.linalg.cython_lapack`` exports, called through ``ctypes``, which
releases the GIL for the length of the call; scipy's f2py wrappers hold it.

``lowest_eigenpair`` is a generator: it yields each foreign call as
``(function, arguments)`` and resumes once the call has returned.
``drive`` makes the calls of several such generators, each on its own
worker thread, while every Python frame, numpy error state and profiler
hook stays on the calling thread.

Import this module lazily: it loads scipy.
"""

from __future__ import annotations

import ctypes
import functools
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np


@functools.cache
def _routines() -> tuple:
    """ctypes functions on the ``dstebz`` and ``dstein`` that scipy's
    ``cython_lapack`` exports as capsules."""
    from scipy.linalg import cython_lapack

    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))

    def routine(name, argtypes):
        capsule = cython_lapack.__pyx_capi__[name]
        return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))

    ptr, char = ctypes.c_void_p, ctypes.c_char_p
    return routine("dstebz", [char, char] + [ptr] * 16), routine("dstein", [ptr] * 13)


def _call(function, *args) -> tuple:
    """The foreign call ``function(*args)``, every array passed by address.
    The caller holds the arrays in its locals until the call has returned."""
    return function, tuple(a if isinstance(a, bytes) else a.ctypes.data for a in args)


def _check(info: np.ndarray, routine: str) -> None:
    if info[0] != 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info[0]})")


def lowest_eigenpair(d, e):
    """Generator of ``eigh_tridiagonal(d, e, select="i", select_range=(0, 0))``:
    yields the ``dstebz`` and ``dstein`` calls and returns ``(w, z)``, w the
    lowest eigenvalue with shape (1,) and z its unit vector with shape (n, 1).

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
    yield _call(stebz, b"I", b"B", n, vl, vu, index, index, abstol, d, e, m, nsplit,
                w, iblock, isplit, work, iwork, info)
    _check(info, "dstebz")
    w = w[:m[0]]
    z = np.zeros((ldz[0], len(w)), order="F")
    work, iwork = np.zeros(5 * size), np.zeros(size, dtype=np.intc)
    ifail = np.zeros(len(w), dtype=np.intc)
    yield _call(stein, n, d, e, m, w, iblock, isplit, z, ldz, work, iwork, ifail, info)
    _check(info, "dstein")
    return w, z


def drive(tasks: list) -> list:
    """Run generators that yield foreign calls, one worker thread each.

    Each yielded ``(function, arguments)`` is submitted at once, and its
    generator resumes on this thread when the call returns; the workers run
    nothing but those calls.  The calls of the last unfinished generator
    run on this thread, which nothing else then waits for, and save the
    two thread hand-offs per call.  Returns the generators' return values
    in order.  Every generator runs to its end; then the failure of the
    lowest-indexed one that raised is raised, as running them one after the
    other would raise it.  No worker outlives the call.
    """
    results, failures = [None] * len(tasks), {}
    unfinished = set(range(len(tasks)))
    with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
        running = {}

        def resume(i, call=None):
            try:
                if call is not None:
                    call.result()
                function, args = next(tasks[i])
                while unfinished == {i}:
                    function(*args)
                    function, args = next(tasks[i])
            except StopIteration as stop:
                results[i] = stop.value
                unfinished.remove(i)
            except Exception as exc:
                failures[i] = exc
                unfinished.remove(i)
            else:
                running[pool.submit(function, *args)] = i

        for i in range(len(tasks)):
            resume(i)
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for call in done:
                resume(running.pop(call), call)
    if failures:
        raise failures[min(failures)]
    return results
