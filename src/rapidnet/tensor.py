"""Dense tensor helpers and deterministic random number generation.

Feature maps are plain numpy arrays in (batch, channels, height, width)
layout, contiguous row-major, f32 for model execution and f64 for gradient
checking.  Operations here never mutate their inputs, except where a caller
hands one in as `out=`, the array to write the result into.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence

import numpy as np

from .errors import ShapeError

DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}

# f64 samples drawn per block (128 KiB): a draw's transient, whatever its size.
_DRAW_BLOCK = 1 << 14
# Where each tensor of an `arena` starts: one cache line, the widest SIMD load.
ARENA_ALIGN = 64


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
        """Samples of U[low, high), the bits of numpy's `uniform` cast to `dtype`,
        drawn block by block as `randn` draws."""
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        return _draw(self._gen.random, check_shape(shape), span, low, dtype, None)

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
          dtype=np.float32, *, out=None) -> np.ndarray:
    """Draw i.i.d. normal samples; deterministic given the rng state.

    The f64 samples are drawn, scaled and shifted in one reused block of
    `_DRAW_BLOCK` elements and then written into the result in `dtype`, so
    the only memory a draw takes beyond its result is that block.  The bits
    and the stream position after the draw are those of one
    `standard_normal` call over the whole shape, `* std + mean` and `astype`.
    With `out` (see `check_out`) the samples are written there.
    """
    dims = check_shape(shape)
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    return _draw(rng._gen.standard_normal, dims, std, mean, dtype, out)


def _draw(fill, dims: tuple, scale: float, shift: float, dtype, out) -> np.ndarray:
    """`fill(out=block)` f64 samples, each times `scale` plus `shift`, written
    into `out` (or a new array) of `dims` and `dtype` one block at a time."""
    dt = resolve_dtype(dtype)
    out = np.empty(dims, dt) if out is None else check_out(out, dims, dt)
    flat = out.reshape(-1)
    block = np.empty(min(flat.size, _DRAW_BLOCK))
    for lo in range(0, flat.size, block.size):
        buf = block[:flat.size - lo]
        fill(out=buf)
        buf *= scale
        buf += shift
        flat[lo:lo + buf.size] = buf
    return out


def arena(shapes: Sequence[Sequence[int]], dtype) -> List[np.ndarray]:
    """Zero-filled C-contiguous arrays of `shapes`, in order, as views of one buffer.

    Each array starts at the first `ARENA_ALIGN`-byte boundary at or after
    the end of the one before; the gaps stay zero.  `arena_span` recognises
    that layout.
    """
    dt = resolve_dtype(dtype)
    step = ARENA_ALIGN // dt.itemsize
    sizes = [math.prod(s) for s in shapes]
    offsets = list(itertools.accumulate((-(-n // step) * step for n in sizes), initial=0))
    raw = np.zeros(offsets[-1] + step, dt)  # room to move the start to a boundary
    start = (-raw.ctypes.data % ARENA_ALIGN) // dt.itemsize
    return [raw[start + o:start + o + n].reshape(s) for o, n, s in zip(offsets, sizes, shapes)]


def arena_span(arrays: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The 1-D view from the first array's start to the last one's end when
    `arrays` lie in one buffer as `arena` lays them out; otherwise None."""
    if not arrays:
        return None
    base, dt = arrays[0].base, arrays[0].dtype
    if (not isinstance(base, np.ndarray) or base.dtype != dt or base.ndim != 1
            or not base.flags.c_contiguous):
        return None
    origin = base.ctypes.data
    addr = arrays[0].ctypes.data
    if addr % ARENA_ALIGN:
        return None
    for a in arrays:
        if (a.base is not base or a.dtype != dt or not a.flags.c_contiguous
                or not a.flags.writeable or a.ctypes.data != addr):
            return None
        addr += -(-a.nbytes // ARENA_ALIGN) * ARENA_ALIGN
    lo = (arrays[0].ctypes.data - origin) // dt.itemsize
    return base[lo:lo + (arrays[-1].ctypes.data + arrays[-1].nbytes - arrays[0].ctypes.data)
                // dt.itemsize]


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
