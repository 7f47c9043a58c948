"""Forward and backward primitives: 2-D convolution (stride/padding/dilation/
groups), batch normalization, GeLU, pooling, linear layers, and softmax
cross-entropy.

`conv2d` and `conv2d_backward` pick one of three kernels from the layer's
geometry (`_conv_kind`).  Pointwise (1x1, stride 1, no padding, one group)
convs are plain matmuls on [N, C, H*W].  Stride-1 depthwise convs with k > 1
are row GEMMs over width tiles: the output columns are split into tiles
whose padded width is at most 6k, one cache-sized block of channels at a
time is padded and tiled into a channel-major [C, hp*N*nt, tp] layout
(`_row_blocks`), in which a live kernel row's shifted input is one
contiguous row slice, and each live kernel row adds one batched matmul with
a banded [tp, T] weight per channel; kernel rows and columns that read only
padding are skipped.  Its input gradient is the same kernel run over
grad_out with the kernel rotated by 180 degrees.  Every other conv, 1x1 and
strided depthwise ones included, lowers to im2col plus a batched matrix
multiply.  The im2col column holds only the live taps (those whose window
reads at least one input pixel), each copied from its in-bounds output
rectangle of the unpadded input with its border strips zeroed, and it is
multiplied by the matching weight sub-block.  `conv2d_naive` is an
explicit-loop reference used as the oracle for all three in tests.  Backward
functions recompute what they need from (input, layer, grad_out); there is
no autograd graph.

Train-mode batch norm takes its statistics once per call from the centred
input d = x - mean, and its backward is the closed form
grad_x = k1*g + k2*d + k3 with per-channel k1, k2, k3.

GeLU is the exact erf form for every dtype.  f64 evaluates erf with scipy;
f32 uses a rational erf (the Eigen/XLA single-precision form, max abs error
4.2e-7 against the f64 erf) evaluated in place, because scipy's f32 erf
made GeLU about half of a fused forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.special import erf

from .errors import GeometryError, LabelError, ShapeError
from .tensor import Rng

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# f32 erf(t) = t * P(t^2) / Q(t^2) on t clamped to [-4, 4], past which erf
# rounds to +-1 in f32; coefficients highest power first.
_ERF_F32_NUM = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                         -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                         -1.60960333262415e-02], dtype=np.float32)
_ERF_F32_DEN = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                         -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
# Elements per block of the f32 erf: a block's three f32 buffers stay in L2,
# so the ~20 in-place passes do not stream the whole tensor from memory.
_ERF_F32_BLOCK = 1 << 16
# Bytes of padded, width-tiled input per block of the depthwise row GEMMs;
# the block's accumulator and row product are about as large, so the per-row
# passes stay in L2 as well.
_DW_BLOCK_BYTES = 1 << 18


class Param:
    """A learnable tensor together with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad: Optional[np.ndarray] = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


@dataclass
class GradResult:
    """Gradient of a scalar objective w.r.t. a layer's input and parameters."""

    grad_input: np.ndarray
    grad_params: Dict[str, np.ndarray] = field(default_factory=dict)


class Conv2dLayer:
    """2-D convolution layer.

    weight: [out_channels, in_channels/groups, k, k]; optional bias
    [out_channels].  `groups == in_channels == out_channels` is the
    depthwise case.  Dilation spreads the kernel taps `dilation` pixels
    apart; dilation 1 is a regular convolution.
    """

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray] = None, *,
                 stride: int = 1, padding: int = 0, dilation: int = 1, groups: int = 1):
        if weight.ndim != 4 or weight.shape[2] != weight.shape[3] or weight.shape[2] < 1:
            raise ShapeError(f"conv weight must be [out, in/groups, k, k] with k >= 1, "
                             f"got {weight.shape}")
        if stride < 1 or dilation < 1 or groups < 1 or padding < 0:
            raise ValueError("stride/dilation/groups must be >= 1 and padding >= 0")
        out_channels = weight.shape[0]
        if out_channels % groups != 0:
            raise ShapeError(f"groups={groups} must divide out_channels={out_channels}")
        if bias is not None and bias.shape != (out_channels,):
            raise ShapeError(f"bias shape {bias.shape} != ({out_channels},)")
        self.weight = Param(weight)
        self.bias = Param(bias) if bias is not None else None
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.groups = groups

    @classmethod
    def create(cls, in_channels: int, out_channels: int, kernel_size: int, *,
               stride: int = 1, padding: int = 0, dilation: int = 1, groups: int = 1,
               bias: bool = True, rng: Optional[Rng] = None,
               dtype=np.float32) -> "Conv2dLayer":
        """He-normal (fan-out) initialized layer; zero weights when rng is None."""
        if in_channels % groups != 0:
            raise ShapeError(f"groups={groups} must divide in_channels={in_channels}")
        if kernel_size < 1:
            raise ShapeError(f"kernel_size must be >= 1, got {kernel_size}")
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        if rng is None:
            w = np.zeros(shape, dtype=dtype)
        else:
            fan_out = out_channels * kernel_size * kernel_size // groups
            w = rng.normal(shape, std=math.sqrt(2.0 / fan_out), dtype=dtype)
        b = np.zeros(out_channels, dtype=dtype) if bias else None
        return cls(w, b, stride=stride, padding=padding, dilation=dilation, groups=groups)

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1] * self.groups

    @property
    def kernel_size(self) -> int:
        return self.weight.shape[2]

    def named_params(self):
        yield "weight", self.weight
        if self.bias is not None:
            yield "bias", self.bias


class BatchNorm2d:
    """Per-channel batch normalization over (N, H, W).

    Train/eval is not stored here: it is the `train` argument of
    `batchnorm_forward`.  Running variance uses the biased batch estimate so
    that running and batch statistics coincide once converged.
    """

    eps = 1e-5
    momentum = 0.1  # `reparam.recalibrate_bn` sets 1 for its one pass

    def __init__(self, gamma: np.ndarray, beta: np.ndarray,
                 running_mean: np.ndarray, running_var: np.ndarray):
        c = gamma.shape[0]
        for name, arr in (("beta", beta), ("running_mean", running_mean),
                          ("running_var", running_var)):
            if arr.shape != (c,):
                raise ShapeError(f"{name} shape {arr.shape} != ({c},)")
        if np.any(running_var < 0):
            raise ValueError("running_var must be >= 0 elementwise")
        self.gamma = Param(gamma)
        self.beta = Param(beta)
        self.running_mean = running_mean
        self.running_var = running_var

    @classmethod
    def create(cls, channels: int, *, dtype=np.float32) -> "BatchNorm2d":
        return cls(np.ones(channels, dtype=dtype), np.zeros(channels, dtype=dtype),
                   np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def named_params(self):
        yield "gamma", self.gamma
        yield "beta", self.beta

    def named_buffers(self):
        yield "running_mean", self.running_mean
        yield "running_var", self.running_var


class LinearLayer:
    """Fully connected layer: y = x @ weight.T + bias."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        if weight.ndim != 2 or bias.shape != (weight.shape[0],):
            raise ShapeError(f"inconsistent linear shapes: weight {weight.shape}, bias {bias.shape}")
        self.weight = Param(weight)
        self.bias = Param(bias)

    @classmethod
    def create(cls, in_features: int, out_features: int, *,
               rng: Optional[Rng] = None, dtype=np.float32) -> "LinearLayer":
        """Normal(0, 0.02) initialized weight, zero bias."""
        if rng is None:
            w = np.zeros((out_features, in_features), dtype=dtype)
        else:
            w = rng.normal((out_features, in_features), std=0.02, dtype=dtype)
        return cls(w, np.zeros(out_features, dtype=dtype))

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    def named_params(self):
        yield "weight", self.weight
        yield "bias", self.bias


# ---------------------------------------------------------------------------
# convolution


def effective_kernel(kernel_size: int, dilation: int) -> int:
    """Side length of the kernel footprint once dilation gaps are included."""
    return (kernel_size - 1) * dilation + 1


def out_shape(h: int, w: int, conv: Conv2dLayer) -> Tuple[int, int]:
    """Output spatial dims of `conv` applied to an h x w input."""
    k_eff = effective_kernel(conv.kernel_size, conv.dilation)
    oh = (h + 2 * conv.padding - k_eff) // conv.stride + 1
    ow = (w + 2 * conv.padding - k_eff) // conv.stride + 1
    if oh < 1 or ow < 1:
        raise GeometryError(
            f"no valid output for input {h}x{w} with k={conv.kernel_size} "
            f"d={conv.dilation} s={conv.stride} p={conv.padding}")
    return oh, ow


def _check_conv_input(x: np.ndarray, conv: Conv2dLayer) -> None:
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-D (N,C,H,W), got {x.shape}")
    if x.shape[1] != conv.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, layer expects {conv.in_channels}")


def _conv_kind(conv: Conv2dLayer) -> str:
    """Which kernel `conv2d`/`conv2d_backward` run: "pointwise", "depthwise" or "im2col".

    A stride-1 depthwise conv with k > 1 takes the width-tiled row GEMMs
    ("depthwise", `_dw_conv`); the map size only sets its tile plan.  A 1x1
    one (a per-channel scale, for which the band pays 6 MACs per output) and
    a strided one take the grouped im2col: in the tiled layout a stride-s
    kernel row is one slice only when N == 1, and no RapidNet layer is one.
    """
    k = conv.kernel_size
    if k == 1 and conv.stride == 1 and conv.padding == 0 and conv.groups == 1:
        return "pointwise"
    if k > 1 and conv.stride == 1 and 1 < conv.groups == conv.in_channels == conv.out_channels:
        return "depthwise"
    return "im2col"


def _channel_major(a: np.ndarray) -> np.ndarray:
    """[N, C, ...] -> [C, N * ...]; a view when N == 1, a copy otherwise."""
    return a.swapaxes(0, 1).reshape(a.shape[1], -1)


def _tap_spans(k: int, dilation: int, stride: int, padding: int, size: int,
               out: int) -> List[Tuple[int, int, int, int]]:
    """(tap, first input coordinate, lo, hi) of each live kernel offset along one axis.

    Offset i reads input coordinates i*dilation - padding + stride*y for
    outputs y < out; exactly the outputs lo <= y < hi read inside [0, size),
    the first of them at the given coordinate.  An offset with no such output
    reads only padding: `conv2d_naive` never multiplies it, so skipping it
    is exact.
    """
    spans = []
    for i in range(k):
        first = i * dilation - padding
        lo = max(0, -(first // stride))  # first output reading a coordinate >= 0
        hi = min(out, -((first - size) // stride))  # outputs reading a coordinate < size
        if lo < hi:
            spans.append((i, first + stride * lo, lo, hi))
    return spans


def _tap_index(spans: List[Tuple[int, int, int, int]]):
    """The live offsets along one kernel axis as an index into the weight.

    A slice when they are contiguous, so the live-tap weight is a view (the
    weight itself when every tap is live); a list only when the input is
    narrower than the stride and dead offsets fall between live ones.
    """
    taps = [span[0] for span in spans]
    lo = taps[0] if taps else 0
    if taps == list(range(lo, lo + len(taps))):
        return slice(lo, lo + len(taps))
    return taps


def _im2col_plan(x: np.ndarray, conv: Conv2dLayer, oh: int, ow: int):
    """(row spans, column spans, [o, c/g, ki, kj] weight of the live taps) of a dense conv."""
    _, _, h, w = x.shape
    k, s, p, d = conv.kernel_size, conv.stride, conv.padding, conv.dilation
    rows, cols = _tap_spans(k, d, s, p, h, oh), _tap_spans(k, d, s, p, w, ow)
    live_w = conv.weight.value[:, :, _tap_index(rows)][:, :, :, _tap_index(cols)]
    return rows, cols, live_w


def _im2col(x: np.ndarray, stride: int, oh: int, ow: int, rows, cols) -> np.ndarray:
    """Gather the live taps into [N, C, len(rows), len(cols), oh, ow].

    Each tap copies its in-bounds output rectangle straight from `x` and
    zeroes the border strips around it, which read padding; no padded copy
    of `x` is made.
    """
    n, c, _, _ = x.shape
    s = stride
    col = np.empty((n, c, len(rows), len(cols), oh, ow), dtype=x.dtype)
    for a, (_, r0, y0, y1) in enumerate(rows):
        for b, (_, c0, x0, x1) in enumerate(cols):
            tap = col[:, :, a, b]
            tap[:, :, y0:y1, x0:x1] = x[:, :, r0:r0 + s * (y1 - y0):s, c0:c0 + s * (x1 - x0):s]
            if y0:
                tap[:, :, :y0] = 0
            if y1 < oh:
                tap[:, :, y1:] = 0
            if x0:
                tap[:, :, y0:y1, :x0] = 0
            if x1 < ow:
                tap[:, :, y0:y1, x1:] = 0
    return col


def _col2im(gcol: np.ndarray, shape: Tuple[int, ...], stride: int, rows, cols) -> np.ndarray:
    """Scatter-add the in-bounds part of a `_im2col` column onto a zero input of `shape`."""
    s = stride
    img = np.zeros(shape, dtype=gcol.dtype)
    for a, (_, r0, y0, y1) in enumerate(rows):
        for b, (_, c0, x0, x1) in enumerate(cols):
            img[:, :, r0:r0 + s * (y1 - y0):s, c0:c0 + s * (x1 - x0):s] += \
                gcol[:, :, a, b, y0:y1, x0:x1]
    return img


class _DwPlan(NamedTuple):
    """Live kernel rows and columns (`_tap_spans`), width tiles and channel
    blocks of one stride-1 depthwise conv."""

    rows: List[Tuple[int, int, int, int]]
    cols: List[Tuple[int, int, int, int]]
    nt: int  # width tiles
    tile: int  # output columns per tile, T
    tp: int  # padded tile width T + (k-1)*d
    per_block: int  # channels per `_row_blocks` block


def _dw_plan(shape: Tuple[int, ...], k: int, padding: int, dilation: int, dtype) -> _DwPlan:
    """The `_DwPlan` of a stride-1 depthwise k x k conv on an input of `shape` [N, C, H, W].

    A tile's row GEMM multiplies its padded width tp = T + (k-1)*d by T
    outputs, tp/k times the MACs of the k taps it replaces, so the ow output
    columns split into as few tiles as keep tp at most 6k (T at least 1):
    nt = ceil(ow / T_max) tiles of T = ceil(ow / nt) columns.  A block holds
    as many channels as fit in `_DW_BLOCK_BYTES` of tiled input (at least
    one; all of them at N = 0, where a channel holds no bytes).
    """
    n, c, h, w = shape
    e = (k - 1) * dilation
    oh, ow = h + 2 * padding - e, w + 2 * padding - e
    nt = -(-ow // max(1, 6 * k - e))
    tile = -(-ow // nt)
    channel_bytes = (h + 2 * padding) * n * nt * (tile + e) * np.dtype(dtype).itemsize
    return _DwPlan(_tap_spans(k, dilation, 1, padding, h, oh),
                   _tap_spans(k, dilation, 1, padding, w, ow), nt, tile, tile + e,
                   max(1, min(c, _DW_BLOCK_BYTES // max(1, channel_bytes))))


def _row_blocks(x: np.ndarray, padding: int, plan: _DwPlan,
                dtype) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, flat): channels lo:hi of x, zero-padded and cut into width
    tiles, as [hi - lo, hp*N*nt, tp].

    Row (r*N + b)*nt + t holds padded row r of image b over padded columns
    t*T ... t*T + tp, tile t's own halo included, so kernel row i reads rows
    i*d*N*nt ... (i*d + oh)*N*nt: one contiguous slice that holds the
    row-shifted input of every image and tile.  Every block is copied into
    the same buffer, whose padding, and the columns of a partial last tile
    past the padded width, stay zero.
    """
    n, c, h, w = x.shape
    p, nt, tile, tp = padding, plan.nt, plan.tile, plan.tp
    buf = np.zeros((plan.per_block, (h + 2 * p) * n * nt, tp), dtype=dtype)
    tiles = buf.reshape(plan.per_block, h + 2 * p, n, nt, tp)
    copies = []  # (tile, first and last + 1 input column it holds, position of the first)
    for t in range(nt):
        first = t * tile - p
        c0, c1 = max(0, first), min(w, first + tp)
        if c0 < c1:
            copies.append((t, c0, c1, c0 - first))
    for lo in range(0, c, plan.per_block):
        hi = min(c, lo + plan.per_block)
        src = x[:, lo:hi].transpose(1, 2, 0, 3)
        for t, c0, c1, at in copies:
            tiles[:hi - lo, p:p + h, :, t, at:at + c1 - c0] = src[..., c0:c1]
        yield lo, hi, buf[:hi - lo]


def _rows_band(w: np.ndarray, dilation: int, plan: _DwPlan, dtype) -> np.ndarray:
    """Banded [tp, T] weights of each live kernel row and channel of w [C, k, k]:
    [rows, C, tp, T].

    band[a, c, x + j*d, x] = w[c, i_a, j] for each live tap j of live row
    i_a; the rest is zero.  In the flat [tp*T] matrix the entries of tap j
    lie at j*d*T + x*(T + 1), so each tap is one strided slice.  Every tile
    shares the band.  Dead taps are never read.
    """
    c, d, tile, rows = w.shape[0], dilation, plan.tile, len(plan.rows)
    w = w[:, _tap_index(plan.rows)].transpose(1, 0, 2)  # [rows, C, k]
    band = np.zeros((rows, c, plan.tp * tile), dtype=dtype)
    step = tile + 1
    for j, *_ in plan.cols:
        band[:, :, j * d * tile:j * d * tile + step * tile:step] = w[:, :, j, None]
    return band.reshape(rows, c, plan.tp, tile)


def _dw_conv(x: np.ndarray, w: np.ndarray, padding: int, dilation: int) -> np.ndarray:
    """Stride-1 depthwise conv without bias of x [N, C, H, W] with w [C, k, k]:
    one batched matmul per live kernel row.

    For each cache-sized block of channels, out[c] = sum over live rows i of
    flat[c, rows of i] @ band_i[c], an [oh*N*nt, tp] @ [tp, T] product per
    channel; the columns of a partial last tile past ow are cropped.  The
    band's zeros multiply every input pixel of a tile's row, so a non-finite
    input value makes NaN of all outputs of its channel's tile rows, not only
    of its receptive field.
    """
    n, c, h, wd = x.shape
    k, p, d = w.shape[-1], padding, dilation
    oh, ow = h + 2 * p - (k - 1) * d, wd + 2 * p - (k - 1) * d
    dtype = np.result_type(x, w)
    plan = _dw_plan(x.shape, k, p, d, dtype)
    band = _rows_band(w, d, plan, dtype)
    step = n * plan.nt  # tiled rows per padded row
    out = np.empty((n, c, oh, ow), dtype=dtype)
    # the sum stays zero if no tap is live
    acc = np.zeros((plan.per_block, oh * step, plan.tile), dtype=dtype)
    tmp = np.empty_like(acc)
    for lo, hi, flat in _row_blocks(x, p, plan, dtype):
        a, t = acc[:hi - lo], tmp[:hi - lo]
        for pos, (i, *_) in enumerate(plan.rows):  # row 0 writes the sum, the rest add
            np.matmul(flat[:, i * d * step:(i * d + oh) * step], band[pos, lo:hi],
                      out=t if pos else a)
            if pos:
                a += t
        out[:, lo:hi] = a.reshape(hi - lo, oh, n, plan.nt * plan.tile)[..., :ow].transpose(2, 0, 1, 3)
    return out


def _dw_conv_backward(x: np.ndarray, conv: Conv2dLayer,
                      grad_out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(grad_x, grad_w as [C, k, k]) of `_dw_conv` with the layer's weight.

    grad_x is `_dw_conv` itself, run over grad_out with the kernel rotated by
    180 degrees and padding e - p, e = (k-1)*d (Dumoulin & Visin, "A guide
    to convolution arithmetic for deep learning", arXiv 1603.07285).  When
    p > e, the outer p - e rows and columns of grad_out belong to outputs
    that read only padding, so they are cropped and the padding is 0.
    grad_w[c, i, j] is the j*d diagonal sum of go_t @ flat_i over the
    forward's tiled blocks, go_t being grad_out per tile as [C, T, oh*N*nt]
    (zero past ow).  Both matmul operands are contiguous: a transposed view
    runs 2-4x slower in numpy's batched matmul at these sizes.
    """
    n, c, _, _ = x.shape
    k, p, d = conv.kernel_size, conv.padding, conv.dilation
    e = (k - 1) * d
    _, _, oh, ow = grad_out.shape
    w = conv.weight.value[:, 0]
    dtype = np.result_type(w, grad_out)
    plan = _dw_plan(x.shape, k, p, d, dtype)
    nt, tile = plan.nt, plan.tile
    step = n * nt
    go_buf = np.zeros((plan.per_block, tile, oh, n, nt), dtype=dtype)  # columns past ow stay zero
    prod = np.empty((plan.per_block, tile, plan.tp), dtype=dtype)
    grad_w = np.zeros((c, k, k), dtype=dtype)
    xs = np.arange(tile)
    diag = np.array([j for j, *_ in plan.cols], dtype=np.intp)[:, None] * d + xs  # [live cols, T]
    live_cols = _tap_index(plan.cols)
    for lo, hi, flat in _row_blocks(x, p, plan, dtype):
        go = go_buf[:hi - lo]
        for t in range(nt):
            x0, x1 = t * tile, min(ow, (t + 1) * tile)
            go[:, :x1 - x0, :, :, t] = grad_out[:, lo:hi, :, x0:x1].transpose(1, 3, 2, 0)
        go_t, pr = go.reshape(hi - lo, tile, oh * step), prod[:hi - lo]
        for i, *_ in plan.rows:
            np.matmul(go_t, flat[:, i * d * step:(i * d + oh) * step], out=pr)
            grad_w[lo:hi, i, live_cols] = pr[:, xs, diag].sum(axis=-1)
    crop = max(0, p - e)
    grad_x = _dw_conv(grad_out[:, :, crop:oh - crop, crop:ow - crop], w[:, ::-1, ::-1],
                      max(0, e - p), d)
    return grad_x, grad_w


def conv2d(x: np.ndarray, conv: Conv2dLayer) -> np.ndarray:
    """Optimized convolution, dispatched on the layer's geometry (`_conv_kind`). Zero padding.

    A pointwise conv (1x1, stride 1, no padding, one group) is one matmul on
    `x` viewed as [N, C, H*W].  A stride-1 depthwise conv is a sum of row
    GEMMs over width tiles (`_dw_conv`): a cache-sized block of channels of
    `x` at a time is padded and tiled into a channel-major [C, hp*N*nt, tp]
    buffer (`_row_blocks`), and each live kernel row i adds
    flat[c, i*d*N*nt:(i*d + oh)*N*nt] @ band_i[c] for every channel c of the
    block in one batched matmul, band_i[c] being the [tp, T] banded matrix
    of that row's live taps, shared by every tile.  Every other conv (dense,
    dilated, strided, grouped, strided depthwise) is im2col plus a batched
    matmul over the live taps only (`_im2col_plan`).  Both skip a tap whose
    window lies wholly in padding, exactly as `conv2d_naive` does; when
    every tap is live the live-tap weight is the weight itself.
    """
    _check_conv_input(x, conv)
    n, c, h, w = x.shape
    oh, ow = out_shape(h, w, conv)
    g, o = conv.groups, conv.out_channels
    wv = conv.weight.value
    kind = _conv_kind(conv)
    if kind == "pointwise":
        out = np.matmul(wv.reshape(o, c), x.reshape(n, c, h * w))
    elif kind == "depthwise":
        out = _dw_conv(x, wv[:, 0], conv.padding, conv.dilation)
    else:
        rows, cols, live_w = _im2col_plan(x, conv, oh, ow)
        kk = c // g * len(rows) * len(cols)
        col = _im2col(x, conv.stride, oh, ow, rows, cols).reshape(n, g, kk, oh * ow)
        out = np.matmul(live_w.reshape(g, o // g, kk), col)
    out = out.reshape(n, o, oh, ow)
    if conv.bias is not None:
        out += conv.bias.value[None, :, None, None]
    return out


def conv2d_naive(x: np.ndarray, conv: Conv2dLayer) -> np.ndarray:
    """Reference convolution: explicit loops with dilation offsets, no layout tricks."""
    _check_conv_input(x, conv)
    n, c, h, w = x.shape
    oh, ow = out_shape(h, w, conv)
    k, g, s, p, d = conv.kernel_size, conv.groups, conv.stride, conv.padding, conv.dilation
    cg = c // g
    og = conv.out_channels // g
    wv = conv.weight.value
    out = np.zeros((n, conv.out_channels, oh, ow), dtype=x.dtype)
    for bn in range(n):
        for gi in range(g):
            for oc in range(og):
                oc_abs = gi * og + oc
                for oy in range(oh):
                    for ox in range(ow):
                        acc = 0.0
                        for ky in range(k):
                            iy = oy * s - p + ky * d
                            if iy < 0 or iy >= h:
                                continue
                            for kx in range(k):
                                ix = ox * s - p + kx * d
                                if ix < 0 or ix >= w:
                                    continue
                                for ic in range(cg):
                                    acc += x[bn, gi * cg + ic, iy, ix] * wv[oc_abs, ic, ky, kx]
                        out[bn, oc_abs, oy, ox] = acc
    if conv.bias is not None:
        out += conv.bias.value[None, :, None, None]
    return out


def conv2d_backward(x: np.ndarray, conv: Conv2dLayer, grad_out: np.ndarray) -> GradResult:
    """Gradients of sum(grad_out * conv2d(x)) w.r.t. input, weight, and bias.

    Dispatched like `conv2d`.  Pointwise: grad_x = W^T @ grad_out per image
    and grad_w one contraction over (image, pixel).  Depthwise: grad_x is the
    forward's kernel run over grad_out with the kernel rotated by 180
    degrees, and grad_w[c, i, j] is the j*d diagonal sum of
    grad_out^T @ flat_i over the forward's tiled row slices
    (`_dw_conv_backward`).  Otherwise the live-tap im2col column gives
    grad_w on the live taps (exactly 0 on the others), and col2im
    scatter-adds W_live^T @ grad_out straight onto the in-bounds input
    pixels.
    """
    _check_conv_input(x, conv)
    n, c, h, w = x.shape
    oh, ow = out_shape(h, w, conv)
    if grad_out.shape != (n, conv.out_channels, oh, ow):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != {(n, conv.out_channels, oh, ow)}")
    g, o = conv.groups, conv.out_channels
    wv = conv.weight.value
    kind = _conv_kind(conv)
    if kind == "pointwise":
        go = grad_out.reshape(n, o, h * w)
        grad_w = _channel_major(go) @ _channel_major(x).T
        grad_x = np.matmul(wv.reshape(o, c).T, go).reshape(x.shape)
    elif kind == "depthwise":
        grad_x, grad_w = _dw_conv_backward(x, conv, grad_out)
    else:
        rows, cols, live_w = _im2col_plan(x, conv, oh, ow)
        ki, kj = len(rows), len(cols)
        kk = c // g * ki * kj
        col = _im2col(x, conv.stride, oh, ow, rows, cols).reshape(n, g, kk, oh * ow)
        go = grad_out.reshape(n, g, o // g, oh * ow)
        grad_w = np.matmul(go, col.transpose(0, 1, 3, 2)).sum(axis=0).reshape(live_w.shape)
        if live_w.shape != wv.shape:  # dead taps get exactly 0
            live = np.ix_([t[0] for t in rows], [t[0] for t in cols])
            grad_w, live_grad_w = np.zeros(wv.shape, dtype=grad_w.dtype), grad_w
            grad_w[:, :, live[0], live[1]] = live_grad_w
        gcol = np.matmul(live_w.reshape(g, o // g, kk).transpose(0, 2, 1), go)
        grad_x = _col2im(gcol.reshape(n, c, ki, kj, oh, ow), x.shape, conv.stride, rows, cols)
    grads = {"weight": grad_w.reshape(conv.weight.shape)}
    if conv.bias is not None:
        grads["bias"] = grad_out.sum(axis=(0, 2, 3))
    return GradResult(grad_x, grads)


# ---------------------------------------------------------------------------
# batch normalization


def _check_bn_input(x: np.ndarray, bn: BatchNorm2d) -> None:
    if x.ndim != 4 or x.shape[1] != bn.channels:
        raise ShapeError(f"BN expects (N,{bn.channels},H,W) input, got {x.shape}")


def _batch_stats(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, d = x - mean as [N, C, H*W], biased var = mean of d*d) over (N, H, W).

    The variance is taken from the centred values, not as E[x^2] - mean^2,
    which cancels catastrophically when |mean| >> std.
    """
    n, c, h, w = x.shape
    xv = x.reshape(n, c, h * w)
    mean = xv.mean(axis=(0, 2))
    d = xv - mean[:, None]
    var = np.einsum("nci,nci->c", d, d) / (n * h * w)
    return mean, d, var


def batchnorm_forward(x: np.ndarray, bn: BatchNorm2d, train: bool = False) -> np.ndarray:
    """train: gamma * (x - mean) / sqrt(var + eps) + beta with batch statistics,
    computed in place on the centred copy, moving the running estimates by
    `bn.momentum`; eval: x * scale + shift from the running estimates."""
    _check_bn_input(x, bn)
    if train:
        mean, d, var = _batch_stats(x)
        m = bn.momentum
        bn.running_mean = ((1.0 - m) * bn.running_mean + m * mean).astype(x.dtype)
        bn.running_var = ((1.0 - m) * bn.running_var + m * var).astype(x.dtype)
        d *= (bn.gamma.value / np.sqrt(var + bn.eps))[:, None]
        d += bn.beta.value[:, None]
        return d.reshape(x.shape)
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = (bn.gamma.value * inv_std)[None, :, None, None]
    shift = (bn.beta.value - bn.gamma.value * bn.running_mean * inv_std)[None, :, None, None]
    return x * scale + shift


def batchnorm_backward(x: np.ndarray, bn: BatchNorm2d, grad_out: np.ndarray) -> GradResult:
    """Train-mode BN gradients w.r.t. input, gamma, beta, in closed form.

    With d = x - mean, m = N*H*W and per-channel sums over (N, H, W)
    (Ioffe & Szegedy, arXiv 1502.03167): grad_beta = sum(g), grad_gamma =
    inv_std * sum(g*d), and grad_x = k1*g + k2*d + k3 with k1 = gamma*inv_std,
    k2 = -k1 * inv_std^2 * sum(g*d) / m and k3 = -k1 * sum(g) / m.  The
    statistics are recomputed from x once; grad_x is built in place on d.
    """
    _check_bn_input(x, bn)
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != input shape {x.shape}")
    _, d, var = _batch_stats(x)
    m = d.size // d.shape[1]
    g = grad_out.reshape(d.shape)
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    sum_g = g.sum(axis=(0, 2))
    sum_gd = np.einsum("nci,nci->c", g, d)
    k1 = bn.gamma.value * inv_std
    d *= (-k1 * inv_std * inv_std * sum_gd / m)[:, None]
    d += (-k1 * sum_g / m)[:, None]
    d += g * k1[:, None]
    return GradResult(d.reshape(x.shape), {"gamma": inv_std * sum_gd, "beta": sum_g})


# ---------------------------------------------------------------------------
# activations / pooling / linear / loss


def _horner(coefs: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """out = polynomial in s with `coefs` (highest power first), in place."""
    np.multiply(s, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= s
    out += coefs[-1]


def _erf_f32(t: np.ndarray, s: np.ndarray, p: np.ndarray) -> None:
    """t = erf(t) for an f32 array, in place; `s` and `p` are same-size scratch.

    NaN stays NaN through the clamp, and +-inf gives +-1 exactly.
    """
    np.clip(t, -4.0, 4.0, out=t)
    np.multiply(t, t, out=s)
    _horner(_ERF_F32_NUM, s, p)
    t *= p
    _horner(_ERF_F32_DEN, s, p)
    t /= p


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF Phi(x) = (1 + erf(x / sqrt(2))) / 2 as a new array.

    f32 input takes `_erf_f32`, block by block in the result array, so the
    result is the only full-size allocation.  Every other dtype takes scipy's
    erf.
    """
    if np.result_type(x) != np.float32:
        return 0.5 * (1.0 + erf(x * _INV_SQRT2))
    cdf = np.empty(np.shape(x), dtype=np.float32)
    flat_x, flat_cdf = np.reshape(x, -1), cdf.reshape(-1)
    s = np.empty(min(flat_x.size, _ERF_F32_BLOCK), dtype=np.float32)
    p = np.empty_like(s)
    for lo in range(0, flat_x.size, _ERF_F32_BLOCK):
        t = flat_cdf[lo:lo + _ERF_F32_BLOCK]
        np.multiply(flat_x[lo:lo + t.size], np.float32(_INV_SQRT2), out=t)
        _erf_f32(t, s[:t.size], p[:t.size])
        t *= 0.5
        t += 0.5
    return cdf


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GeLU x * Phi(x) via erf (not the tanh approximation).

    f32 uses the rational erf (|gelu - f64 gelu| <= 1e-6 * max(1, |x|)),
    f64 scipy's erf; the dtype is kept and `x` is not modified.
    """
    cdf = _normal_cdf(x)
    cdf *= x
    return cdf


def gelu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """d/dx [x * Phi(x)] = Phi(x) + x * phi(x), chained with grad_out."""
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != input shape {x.shape}")
    # grad_out * (cdf + x * pdf) with the same roundings, built in two arrays
    cdf = _normal_cdf(x)
    pdf = np.multiply(x, -0.5)
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf *= x.dtype.type(_INV_SQRT_2PI)
    pdf *= x
    cdf += pdf
    cdf *= grad_out
    return cdf


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean over (H, W): [N, C, H, W] -> [N, C]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects a 4-D input, got {x.shape}")
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    if grad_out.shape != (n, c):
        raise ShapeError(f"grad_out shape {grad_out.shape} != ({n}, {c})")
    return np.broadcast_to(grad_out[:, :, None, None] / x.dtype.type(h * w), x.shape).copy()


def linear(x: np.ndarray, layer: LinearLayer) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != layer.in_features:
        raise ShapeError(f"linear expects (N, {layer.in_features}) input, got {x.shape}")
    return x @ layer.weight.value.T + layer.bias.value[None, :]


def linear_backward(x: np.ndarray, layer: LinearLayer, grad_out: np.ndarray) -> GradResult:
    if grad_out.shape != (x.shape[0], layer.out_features):
        raise ShapeError(f"grad_out shape {grad_out.shape} != ({x.shape[0]}, {layer.out_features})")
    return GradResult(
        grad_out @ layer.weight.value,
        {"weight": grad_out.T @ x, "bias": grad_out.sum(axis=0)},
    )


def softmax_cross_entropy(logits: np.ndarray, labels: Sequence[int]) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy with log-sum-exp stabilization.

    Returns (loss, grad_logits) with grad = (softmax - one_hot) / N.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D (N, classes), got {logits.shape}")
    n, classes = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= classes:
        raise LabelError(f"labels must lie in [0, {classes})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad = (grad / n).astype(logits.dtype)
    return loss, grad
