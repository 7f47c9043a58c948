"""Dense tensor helpers and deterministic random number generation.

Feature maps are plain numpy arrays in (batch, channels, height, width)
layout, contiguous row-major, f32 for model execution and f64 for gradient
checking.  Operations here never mutate their inputs, except where a caller
hands one in as `out=`, the array to write the result into.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError

DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


def resolve_dtype(dtype) -> np.dtype:
    """Map 'f32'/'f64' (or a numpy float dtype) to a numpy dtype."""
    if isinstance(dtype, str):
        try:
            return DTYPES[dtype]
        except KeyError:
            raise ValueError(f"unknown dtype {dtype!r}, expected 'f32' or 'f64'") from None
    dt = np.dtype(dtype)
    if dt not in DTYPES.values():
        raise ValueError(f"unsupported dtype {dt}, expected float32 or float64")
    return dt


class Rng:
    """Deterministic random stream.

    Backed by numpy's PCG64 bit generator: the same seed yields the same
    sample stream on every run and platform (numpy guarantees stream
    stability for a fixed bit generator).
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0, dtype=np.float32) -> np.ndarray:
        return randn(shape, self, mean=mean, std=std, dtype=dtype)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0, dtype=np.float32) -> np.ndarray:
        check_shape(shape)
        return self._gen.uniform(low, high, size=tuple(shape)).astype(dtype)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def check_shape(shape: Sequence[int]) -> tuple:
    """Validate a dimension list (all dims >= 1) and return it as a tuple."""
    dims = tuple(int(d) for d in shape)
    if len(dims) == 0 or any(d < 1 for d in dims):
        raise ShapeError(f"invalid shape {tuple(shape)}: all dimensions must be >= 1")
    return dims


def randn(shape: Sequence[int], rng: Rng, mean: float = 0.0, std: float = 1.0,
          dtype=np.float32) -> np.ndarray:
    """Draw i.i.d. normal samples; deterministic given the rng state."""
    dims = check_shape(shape)
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    out = rng._gen.standard_normal(dims, dtype=np.float64)
    out = out * std + mean
    return out.astype(resolve_dtype(dtype))


def check_out(out, shape, dtype, src: Optional[np.ndarray] = None) -> np.ndarray:
    """Refuse an `out=` array that a kernel cannot write its result straight into.

    `out` must be a C-contiguous, writeable ndarray of the result's shape and
    dtype, so that flat views of it are views and nothing is written into a
    copy or cast on the way.  With `src`, the input of a kernel that writes
    its result block by block, `out` must be src's own memory (same start,
    layout and dtype) or share none of it: a partial overlap would feed the
    kernel values it has already overwritten.
    """
    if not isinstance(out, np.ndarray):
        raise TypeError(f"out must be a numpy array, got {type(out).__name__}")
    if out.shape != tuple(shape):
        raise ShapeError(f"out shape {out.shape} != result shape {tuple(shape)}")
    if out.dtype != dtype:
        raise ValueError(f"out dtype {out.dtype} != result dtype {np.dtype(dtype)}")
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("out must be a C-contiguous, writeable array")
    if src is not None and np.may_share_memory(out, src) and not (
            src.flags.c_contiguous and src.shape == out.shape and src.dtype == out.dtype
            and src.ctypes.data == out.ctypes.data):
        raise ValueError("out must be the input itself or share no memory with it")
    return out


def add(a: np.ndarray, b, *, out=None) -> np.ndarray:
    """Elementwise a + b; b may be a tensor of equal shape or a scalar.

    With `out` (see `check_out`; a or b itself, or an array sharing no memory
    with them) the sum is written there and returned, with the bits of `a + b`.
    """
    if isinstance(b, np.ndarray) and a.shape != b.shape:
        raise ShapeError(f"operand shapes differ: {a.shape} vs {b.shape}")
    if out is None:
        return a + b
    return np.add(a, b, out=check_out(out, a.shape, np.result_type(a, b)))
