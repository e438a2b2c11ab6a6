"""scipy's LAPACK through ctypes, and one BLAS thread for the duration of a block.

:func:`lapack` binds the three LAPACK routines the split sweep's Cholesky
route calls (``dpotrf``, ``dpotrs``, ``dtrtri``) on first use, so that
importing the package imports no scipy: a process that never fits never
loads it.  Each is the function scipy's Cython LAPACK exports in a capsule
(``scipy.linalg.cython_lapack.__pyx_capi__``), the symbol scipy's f2py
wrappers call too, of whichever LAPACK the scipy build links, wrapped as a
``ctypes.CFUNCTYPE`` function.  A ctypes call releases the GIL, so worker
threads can factor at once.

numpy and scipy wheels each bundle an OpenBLAS build (``scipy-openblas``)
next to the package, in ``numpy.libs`` and ``scipy.libs``.  Each keeps its
own thread pool, and a product or factorization run on another number of
threads may round differently.  :func:`one_blas_thread` sets both pools to
one thread and restores their counts on exit, the technique of
threadpoolctl, without depending on it.  The first time it is entered it
binds LAPACK, which loads scipy's library, and then looks the libraries up
by name in those two directories, taking only those already loaded.  With
another BLAS, or a build without these symbols, it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import os
import threading

# (package, its library directory, library name pattern, symbol suffix)
_OPENBLAS = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "scipy.libs", "libscipy_openblas*.so", ""),
)

# The thread counts are process-wide library state, so the pin's state is
# process-wide too.
_lock = threading.Lock()
_pools: list | None = None  # (get, set) of each pool, found on first use
_saved: list[int] = []
_depth = 0


@functools.cache
def lapack() -> tuple:
    """scipy's LAPACK ``dpotrf``, ``dpotrs`` and ``dtrtri``, bound on first use.

    Returns the three as ctypes functions, in that order.  They take every
    argument by pointer, as Fortran does (each declared ``c_void_p``), and
    return nothing: the status is written to the last argument, ``info``.
    """
    from scipy.linalg.cython_lapack import __pyx_capi__ as capsules

    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    functions = []
    for routine, arguments in (("dpotrf", 5), ("dpotrs", 8), ("dtrtri", 6)):
        capsule = capsules[routine]
        prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * arguments)
        functions.append(prototype(address(capsule, name(capsule))))
    return tuple(functions)


def _find_pools() -> list:
    if not hasattr(os, "RTLD_NOLOAD"):
        return []
    import glob  # here, not at import: the first grow pays for it

    pools = []
    for package, directory, pattern, suffix in _OPENBLAS:
        # find_spec locates the package without importing it
        root = os.path.dirname(os.path.dirname(importlib.util.find_spec(package).origin))
        for path in sorted(glob.glob(os.path.join(root, directory, pattern))):
            try:  # RTLD_NOLOAD: a library not loaded yet stays unloaded
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            pools.append((get, put))
    return pools


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every found OpenBLAS pool at one thread.

    Nested and concurrent blocks share one setting: the first to enter
    saves the thread counts and the last to leave restores them, also when
    the block raises.
    """
    global _pools, _depth
    with _lock:
        if _pools is None:
            lapack()  # loads scipy's OpenBLAS, so that its pool is found
            _pools = _find_pools()
        if _depth == 0:
            _saved[:] = [get() for get, _ in _pools]
            for _, put in _pools:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, put), count in zip(_pools, _saved):
                    put(count)
