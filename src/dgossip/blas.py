"""Hold numpy's BLAS at one thread while a run executes.

OpenBLAS splits a large product over its threads, and the split changes
the order in which a dot product's terms are summed, so some shapes round
differently on two threads than on one.  A run's worker processes split
its rows, never a product, so :func:`one_thread` pins the OpenBLAS that
numpy loaded to one thread for the duration of a run, and restores the
previous count afterwards.  The workers are forked inside the pin, so
they inherit it.
Dense gossip, one product on the calling thread, takes the same pin
around that product, so its bits hold outside a run too.  It reaches the
library through ctypes, by the thread-count functions that numpy's wheels
export.  Where none is found (a numpy built against another BLAS), the
pin does nothing and the run goes ahead unpinned.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

__all__ = ["one_thread", "thread_control"]

# (setter, getter) pairs: numpy >= 2 wheels (scipy-openblas, 64-bit ints),
# older wheels, then a plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# where numpy's wheels keep their bundled libraries: Linux and Windows, then macOS
_LIB_DIRS = (os.path.join(os.pardir, "numpy.libs"), ".dylibs")


@functools.cache
def thread_control():
    """(set, get) thread-count functions of numpy's bundled OpenBLAS, or None if none is found."""
    root = os.path.dirname(np.__file__)
    for pattern in (os.path.join(root, d, "*openblas*") for d in _LIB_DIRS):
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)  # the copy numpy loaded: the same file maps to one handle
            except OSError:
                continue
            for set_name, get_name in _SYMBOLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


@contextmanager
def one_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its thread count."""
    control = thread_control()
    if control is None:
        yield
        return
    setter, getter = control
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)
