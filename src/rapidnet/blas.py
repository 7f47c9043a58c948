"""The OpenBLAS that numpy carries: its thread count, read and pinned through ctypes.

OpenBLAS keeps one thread count for the whole process.  `one_thread` pins
it to 1 for as long as any caller is inside it and restores the count the
first such caller found when the last one leaves, so concurrent callers
cannot leave it at 1.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager
from typing import Optional

import numpy as np

# (get, set) symbol pairs, newest naming first
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))

_lock = threading.Lock()
_pins = 0        # callers inside `one_thread`
_restore = None  # the count the first of them found


@functools.lru_cache(maxsize=None)
def _functions():
    """(get, set) of the OpenBLAS in numpy's bundled libraries, or None when there is none."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def threads() -> Optional[int]:
    """The thread count OpenBLAS reports; None when numpy carries no OpenBLAS."""
    fns = _functions()
    return None if fns is None else fns[0]()


@contextmanager
def one_thread():
    """Run the body with OpenBLAS at one thread (a no-op without OpenBLAS)."""
    global _pins, _restore
    fns = _functions()
    if fns is None:
        yield
        return
    get, set_ = fns
    with _lock:
        if _pins == 0:
            _restore = get()
            set_(1)
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                set_(_restore)


def _after_fork_in_child() -> None:
    # only the forking thread survives: no body is running, and the lock
    # may have been held by a thread that is gone
    global _lock, _pins
    _lock = threading.Lock()
    if _pins:
        _pins = 0
        _functions()[1](_restore)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
