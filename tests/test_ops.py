import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf, ndtr

from conftest import rel_err
from rapidnet import ops
from rapidnet.errors import GeometryError, LabelError, ShapeError
from rapidnet.ops import (
    BatchNorm2d,
    Conv2dLayer,
    LinearLayer,
    batchnorm_backward,
    batchnorm_forward,
    conv2d,
    conv2d_backward,
    conv2d_naive,
    gelu,
    gelu_backward,
    global_avg_pool,
    global_avg_pool_backward,
    linear,
    linear_backward,
    out_shape,
    softmax_cross_entropy,
)
from rapidnet.tensor import Rng, add


def make_conv(c_in, c_out, k, rng=None, **kw):
    return Conv2dLayer.create(c_in, c_out, k, rng=rng, **kw)


# Conv geometries for the property tests: kernel, dilation, stride, padding,
# channels, depthwise or dense, bias, and a few rows/cols past the smallest input.
CONV_SPACE = dict(k=st.sampled_from([1, 3, 5, 7]), d=st.integers(1, 3), s=st.integers(1, 2),
                  p=st.integers(0, 3), c=st.integers(1, 3), c_out=st.integers(1, 3),
                  depthwise=st.booleans(), bias=st.booleans(), extra_h=st.integers(0, 3),
                  extra_w=st.integers(0, 3), seed=st.integers(0, 2 ** 16))

# Draws that always reach the pointwise and depthwise kernels of conv2d.
POINTWISE = dict(k=1, d=1, s=1, p=0, c=3, c_out=2, depthwise=False, bias=True,
                 extra_h=1, extra_w=2, seed=1)
DEPTHWISE = dict(k=3, d=1, s=1, p=1, c=3, c_out=3, depthwise=True, bias=False,
                 extra_h=2, extra_w=1, seed=2)
# A depthwise draw where all but 3 of the 49 taps read only padding: a 7x7
# pad-3 conv on a 1x2 input.  A strided dilated depthwise draw, which the
# grouped im2col owns.
DEAD_TAPS = dict(k=7, d=1, s=1, p=3, c=3, c_out=3, depthwise=True, bias=True,
                 extra_h=0, extra_w=1, seed=3)
STRIDED_DILATED = dict(k=3, d=2, s=2, p=2, c=3, c_out=3, depthwise=True, bias=True,
                       extra_h=3, extra_w=2, seed=4)
# Dense draws the live-tap im2col owns: micro's MLDC branch geometry (3x3 at
# dilation 2, pad 2, on a 2x2 map: 8 of 9 taps dead), and a strided 1x1 on
# a 1x1 map where no tap is live, so the output is the bias alone.
DENSE_DEAD_TAPS = dict(k=3, d=2, s=1, p=2, c=3, c_out=2, depthwise=False, bias=True,
                       extra_h=1, extra_w=1, seed=5)
NO_LIVE_TAP = dict(k=1, d=1, s=2, p=1, c=3, c_out=2, depthwise=False, bias=True,
                   extra_h=0, extra_w=0, seed=6)
# Depthwise draws with several live rows of a 7x7 kernel: a pad-3 conv on a
# 4x3 map, and the same at dilation 2 on a 10x8 map, where 24 of the 49 taps
# read only padding.
ROWS = dict(k=7, d=1, s=1, p=3, c=3, c_out=3, depthwise=True, bias=True,
            extra_h=3, extra_w=2, seed=7)
ROWS_DILATED = dict(k=7, d=2, s=1, p=3, c=3, c_out=3, depthwise=True, bias=False,
                    extra_h=3, extra_w=1, seed=8)
# Depthwise draws wider than one width tile (CONV_SPACE's widths never are):
# a 3x3 pad-1 conv on a 38-wide map (3 tiles of 13 columns, the last one
# partial); the same at dilation 2 and pad 2 on a 31-wide map (3 tiles of
# 11); and a 3x3 pad-3 conv on a 21-wide map, whose padding exceeds the
# kernel's extent e = 2, so its input gradient crops grad_out.
MULTI_TILE = dict(k=3, d=1, s=1, p=1, c=3, c_out=3, depthwise=True, bias=True,
                  extra_h=2, extra_w=37, seed=9)
MULTI_TILE_DILATED = dict(k=3, d=2, s=1, p=2, c=3, c_out=3, depthwise=True, bias=False,
                          extra_h=1, extra_w=30, seed=10)
GRAD_OUT_CROP = dict(k=3, d=1, s=1, p=3, c=3, c_out=3, depthwise=True, bias=True,
                     extra_h=1, extra_w=20, seed=11)
# The LK-FFN's depthwise conv with `lk_ffn=False`: a 1x1 per-channel scale,
# which the grouped im2col owns.
DEPTHWISE_1X1 = dict(k=1, d=1, s=1, p=0, c=3, c_out=3, depthwise=True, bias=True,
                     extra_h=2, extra_w=3, seed=12)


def drawn_conv(n, k, d, s, p, c, c_out, depthwise, bias, extra_h, extra_w, seed):
    """An f64 layer and input for one draw of CONV_SPACE at batch n."""
    # smallest input that leaves a valid output, plus a few rows/cols
    floor = max(1, (k - 1) * d + 1 - 2 * p)
    h, w = floor + extra_h, floor + extra_w
    groups, c_out = (c, c) if depthwise else (1, c_out)
    rng = Rng(seed)
    conv = make_conv(c, c_out, k, stride=s, padding=p, dilation=d, groups=groups,
                     bias=bias, rng=rng, dtype=np.float64)
    if bias:
        conv.bias.value[:] = rng.normal((c_out,), dtype=np.float64)
    return conv, rng.normal((n, c, h, w), dtype=np.float64)


def assert_adjoint(conv, x, seed):
    """With the bias removed the conv is bilinear in (x, w), so for any gy
    sum(naive(x) * gy) == sum(x * grad_x) == sum(w * grad_w); checked in f64."""
    y = conv2d_naive(x, conv)
    if conv.bias is not None:
        y -= conv.bias.value[None, :, None, None]
    gy = Rng(seed).normal(y.shape, dtype=np.float64)
    r = conv2d_backward(x, conv, gy)
    scale = float(np.sum(np.abs(y * gy)))
    want = float(np.sum(y * gy))
    assert abs(float(np.sum(x * r.grad_input)) - want) <= 1e-10 * scale
    assert abs(float(np.sum(conv.weight.value * r.grad_params["weight"])) - want) \
        <= 1e-10 * scale
    if conv.bias is not None:
        assert np.allclose(r.grad_params["bias"], gy.sum(axis=(0, 2, 3)), rtol=1e-12)


class TestOutShape:
    def test_stride_two_halving(self):
        conv = make_conv(3, 8, 3, stride=2, padding=1)
        assert out_shape(224, 224, conv) == (112, 112)

    def test_dilated_no_padding(self):
        conv = make_conv(1, 1, 3, dilation=2)
        assert out_shape(7, 7, conv) == (3, 3)

    def test_same_padding_dilated(self):
        conv = make_conv(1, 1, 3, dilation=3, padding=3)
        assert out_shape(14, 14, conv) == (14, 14)

    def test_same_padding_preserves_odd_kernels(self):
        for k in (1, 3, 5, 7):
            for d in (1, 2, 3):
                conv = make_conv(1, 1, k, dilation=d, padding=d * (k - 1) // 2)
                assert out_shape(16, 16, conv) == (16, 16)

    def test_invalid_geometry(self):
        conv = make_conv(1, 1, 7, dilation=3)  # effective kernel 19
        with pytest.raises(GeometryError):
            out_shape(10, 10, conv)


class TestConv2d:
    def test_dilated_ones(self):
        # 3x3 all-ones kernel at dilation 2 over a 7x7 ones image: 9 taps each
        conv = Conv2dLayer(np.ones((1, 1, 3, 3), dtype=np.float32), dilation=2)
        out = conv2d(np.ones((1, 1, 7, 7), dtype=np.float32), conv)
        assert out.shape == (1, 1, 3, 3)
        assert np.allclose(out, 9.0)

    def test_identity_kernel(self, rng):
        w = np.zeros((4, 4, 3, 3), dtype=np.float32)
        for c in range(4):
            w[c, c, 1, 1] = 1.0
        conv = Conv2dLayer(w, padding=1)
        x = rng.normal((2, 4, 6, 6))
        assert np.allclose(conv2d(x, conv), x)

    def test_depthwise_identity_1x1(self, rng):
        conv = Conv2dLayer(np.ones((5, 1, 1, 1), dtype=np.float32), groups=5)
        x = rng.normal((1, 5, 4, 4))
        assert np.array_equal(conv2d(x, conv), x)

    @pytest.mark.parametrize("k, kw, kind", [
        (1, {}, "pointwise"),
        (3, dict(padding=1), "im2col"),
        (3, dict(padding=1, groups=6), "depthwise"),
        (7, dict(padding=6, dilation=2, groups=6), "depthwise"),
    ])
    def test_batch_zero_gives_empty_output(self, k, kw, kind, rng):
        # every kind agrees at N = 0, forward and backward
        conv = make_conv(6, 6, k, rng=rng, **kw)
        assert ops._conv_kind(conv) == kind
        x = np.zeros((0, 6, 8, 8), dtype=np.float32)
        out = conv2d(x, conv)
        assert out.shape == (0, 6) + out_shape(8, 8, conv) == conv2d_naive(x, conv).shape
        r = conv2d_backward(x, conv, out)
        assert r.grad_input.shape == x.shape
        assert not np.any(r.grad_params["weight"])

    def test_channel_mismatch(self, rng):
        conv = make_conv(3, 8, 3, rng=rng)
        with pytest.raises(ShapeError):
            conv2d(rng.normal((1, 4, 8, 8)), conv)

    def test_dilation_one_bit_identical_to_plain_path(self, rng):
        # a hand-rolled regular (d=1) im2col path must agree bit for bit
        conv = make_conv(3, 6, 3, stride=2, padding=1, rng=rng)
        x = rng.normal((2, 3, 9, 9))
        got = conv2d(x, conv)

        n, c, h, w = x.shape
        k, s, p = 3, 2, 1
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        img = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        col = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                col[:, :, i, j] = img[:, :, i:i + s * oh:s, j:j + s * ow:s]
        col = col.reshape(n, 1, c * k * k, oh * ow)
        wmat = conv.weight.value.reshape(1, 6, c * k * k)
        ref = np.matmul(wmat, col).reshape(n, 6, oh, ow)
        ref += conv.bias.value[None, :, None, None]
        assert np.array_equal(got, ref)


class TestConvOracle:
    def test_zero_weights(self, rng):
        conv = make_conv(2, 3, 3, padding=1)
        conv.bias.value[:] = [1.0, 2.0, 3.0]
        out = conv2d_naive(rng.normal((1, 2, 5, 5)), conv)
        assert np.allclose(out, np.array([1.0, 2.0, 3.0])[None, :, None, None])

    def test_naive_matches_opt_basic(self, rng):
        conv = make_conv(4, 6, 3, stride=2, padding=2, dilation=2, rng=rng)
        x = rng.normal((2, 4, 9, 9))
        assert rel_err(conv2d(x, conv), conv2d_naive(x, conv)) < 1e-5

    def test_naive_matches_opt_depthwise_dilated(self, rng):
        conv = make_conv(4, 4, 3, padding=3, dilation=3, groups=4, rng=rng)
        x = rng.normal((1, 4, 8, 8))
        assert rel_err(conv2d(x, conv), conv2d_naive(x, conv)) < 1e-5

    def test_randomized_configurations(self):
        # spans k, dilation, stride, and depthwise/dense grouping
        rng = Rng(99)
        for trial in range(40):
            k = int(rng.integers(0, 4))
            k = (1, 3, 5, 7)[k]
            d = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            c = int(rng.integers(1, 5))
            groups = 1 if int(rng.integers(0, 2)) == 0 else c
            p = int(rng.integers(0, 3))
            k_eff = (k - 1) * d + 1
            h = k_eff + int(rng.integers(0, 4))
            n = int(rng.integers(1, 3))
            conv = make_conv(c, c, k, stride=s, padding=p, dilation=d, groups=groups, rng=rng)
            x = rng.normal((n, c, h, h))
            assert rel_err(conv2d(x, conv), conv2d_naive(x, conv)) < 1e-5, (
                f"trial {trial}: k={k} d={d} s={s} p={p} c={c} g={groups} h={h}")

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(1, 2), **CONV_SPACE)
    @example(n=2, **POINTWISE)
    @example(n=2, **DEPTHWISE)
    @example(n=2, **DEAD_TAPS)
    @example(n=2, **STRIDED_DILATED)
    @example(n=2, **DENSE_DEAD_TAPS)
    @example(n=2, **NO_LIVE_TAP)
    @example(n=2, **ROWS)
    @example(n=2, **ROWS_DILATED)
    @example(n=2, **MULTI_TILE)
    @example(n=2, **MULTI_TILE_DILATED)
    @example(n=2, **GRAD_OUT_CROP)
    @example(n=2, **DEPTHWISE_1X1)
    def test_property_matches_naive(self, n, **space):
        conv, x = drawn_conv(n, **space)
        assert x.dtype == conv.weight.value.dtype == np.float64
        assert rel_err(conv2d(x, conv), conv2d_naive(x, conv)) < 1e-5

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(1, 3), **CONV_SPACE)
    @example(n=3, **POINTWISE)
    @example(n=3, **DEPTHWISE)
    @example(n=3, **DEAD_TAPS)
    @example(n=3, **STRIDED_DILATED)
    @example(n=3, **DENSE_DEAD_TAPS)
    @example(n=3, **NO_LIVE_TAP)
    @example(n=3, **ROWS)
    @example(n=3, **ROWS_DILATED)
    @example(n=3, **MULTI_TILE)
    @example(n=3, **MULTI_TILE_DILATED)
    @example(n=3, **GRAD_OUT_CROP)
    @example(n=3, **DEPTHWISE_1X1)
    def test_property_backward_adjoint(self, n, **space):
        conv, x = drawn_conv(n, **space)
        assert_adjoint(conv, x, space["seed"] + 1)


def wide_depthwise(n, dtype):
    """A 3x3 pad-1 depthwise conv on 2x2 maps whose c channels fill two blocks
    of `ops._DW_BLOCK_BYTES` and part of a third, so the block edges fall
    inside the channel range and the last block is a remainder."""
    channel_bytes = (2 + 2) * n * (2 + 2) * np.dtype(dtype).itemsize  # one tile: [hp*N, tp]
    per_block = ops._DW_BLOCK_BYTES // channel_bytes
    c = 5 * per_block // 2 + 1
    rng = Rng(n)
    conv = make_conv(c, c, 3, padding=1, groups=c, rng=rng, dtype=dtype)
    conv.bias.value[:] = rng.normal((c,), dtype=dtype)
    x = rng.normal((n, c, 2, 2), dtype=dtype)
    # the premise: the depthwise kernel really splits the channels this way
    assert ops._conv_kind(conv) == "depthwise"
    plan = ops._dw_plan(x.shape, 3, 1, 1, dtype)
    assert plan.nt == 1 and plan.per_block == per_block and len(plan.rows) * len(plan.cols) == 9
    assert c // per_block == 2 and c % per_block
    return conv, x


def dead_tap_mask(conv, h, w):
    """[k, k] mask of the taps that read only padding for an h x w input,
    found by brute force over every output pixel."""
    oh, ow = out_shape(h, w, conv)
    k, s, p, d = conv.kernel_size, conv.stride, conv.padding, conv.dilation

    def dead(i, size, out):
        return not any(0 <= o * s - p + i * d < size for o in range(out))

    return np.array([[dead(i, h, oh) or dead(j, w, ow) for j in range(k)] for i in range(k)])


class TestDepthwiseKernel:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-5), (np.float32, 1e-4)])
    def test_blocks_match_naive(self, n, dtype, tol):
        conv, x = wide_depthwise(n, dtype)
        out = conv2d(x, conv)
        assert out.dtype == dtype
        assert rel_err(out, conv2d_naive(x, conv)) < tol

    @pytest.mark.parametrize("n", [1, 3])
    def test_blocks_backward_adjoint(self, n):
        conv, x = wide_depthwise(n, np.float64)
        assert_adjoint(conv, x, seed=n + 1)

    @pytest.mark.parametrize("n, h, w, k, kw, n_dead", [
        (2, 2, 2, 7, dict(padding=3), 40),                        # micro's stage-3 7x7
        (1, 1, 2, 7, dict(padding=3), 46),
        (2, 1, 1, 3, dict(padding=3, dilation=3), 8),             # dilation 3 on a 1x1 map
        (2, 1, 3, 3, dict(stride=2, padding=2, dilation=2), 6),
        (1, 1, 1, 2, dict(padding=3, dilation=5), 4),             # every tap dead
        (2, 1, 45, 7, dict(padding=3), 42),                       # two tiles of 23, one partial
    ])
    def test_dead_tap_weights_never_read(self, n, h, w, k, kw, n_dead):
        assert_dead_taps_never_read(n, h, w, k, kw, n_dead, c_in=3, c_out=3, groups=3)


def shift_add_depthwise(x, conv, gy):
    """(output, grad_x, grad_w) of a stride-1 depthwise conv without bias, in f64.

    Direct and vectorized: each tap (i, j) is one slice of a zero-padded copy
    of x, which gives the output and grad_w, and grad_x scatter-adds
    gy * w[c, i, j] back onto that slice of a zero-padded gradient.
    """
    k, p, d = conv.kernel_size, conv.padding, conv.dilation
    w = conv.weight.value[:, 0].astype(np.float64)
    x, gy = x.astype(np.float64), gy.astype(np.float64)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    _, _, oh, ow = gy.shape
    out, grad_xp, grad_w = np.zeros(gy.shape), np.zeros(xp.shape), np.zeros(w.shape)
    for i in range(k):
        for j in range(k):
            tap = (slice(None), slice(None), slice(i * d, i * d + oh), slice(j * d, j * d + ow))
            wij = w[None, :, i, j, None, None]
            out += xp[tap] * wij
            grad_w[:, i, j] = np.einsum("nchw,nchw->c", xp[tap], gy)
            grad_xp[tap] += gy * wij
    h, wd = x.shape[2:]
    return out, grad_xp[:, :, p:p + h, p:p + wd], grad_w[:, None]


class TestRowsKernel:
    """The row-GEMM kernel against a direct shift-add reference (`shift_add_depthwise`).

    Tolerances, relative to the largest reference magnitude (`rel_err`): in
    f64 the output, grad_x and grad_w match the reference to 1e-10; in f32
    each is within 1e-5 of the reference run in f64 on the same values.  The
    geometries are ti's and micro's 7x7 layers and ti's b8 3x3 layers at
    fewer channels, plus a dilation-2 7x7, and ti's 56x56 3x3 (four width
    tiles) and a 7x7 on a 56x56 map (two).
    """

    # (8, 48, 14, 7) spans three channel blocks in f32 and five in f64
    GEOMETRIES = [(8, 48, 14, 7, 1), (2, 16, 7, 7, 1), (32, 8, 2, 7, 1), (32, 8, 1, 7, 1),
                  (4, 8, 14, 7, 2), (8, 16, 14, 3, 1), (8, 16, 7, 3, 1), (2, 8, 56, 3, 1),
                  (2, 4, 56, 7, 1)]

    @pytest.mark.parametrize("n, c, size, k, d", GEOMETRIES)
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    def test_matches_direct_kernel(self, n, c, size, k, d, dtype, tol):
        rng = Rng(size + k)
        conv = make_conv(c, c, k, padding=d * (k // 2), dilation=d, groups=c, bias=False,
                         rng=rng, dtype=np.float64)
        x = rng.normal((n, c, size, size), dtype=np.float64)
        gy = rng.normal((n, c, size, size), dtype=np.float64)
        assert ops._conv_kind(conv) == "depthwise"
        refs = shift_add_depthwise(x.astype(dtype), conv, gy.astype(dtype))
        if dtype == np.float32:
            conv.weight.value = conv.weight.value.astype(dtype)
            x, gy = x.astype(dtype), gy.astype(dtype)
        r = conv2d_backward(x, conv, gy)
        got = (conv2d(x, conv), r.grad_input, r.grad_params["weight"])
        for g, ref in zip(got, refs):
            assert g.dtype == dtype and g.shape == ref.shape
            assert rel_err(g, ref) < tol

    @pytest.mark.parametrize("dtype, blocks", [(np.float32, 3), (np.float64, 5)])
    def test_geometry_spans_channel_blocks(self, dtype, blocks):
        # the premise of the (8, 48, 14, 7) geometry above: one tile, and
        # channel blocks whose last one is a remainder
        plan = ops._dw_plan((8, 48, 14, 14), 7, 3, 1, dtype)
        assert plan.nt == 1 and -(-48 // plan.per_block) == blocks and 48 % plan.per_block

    @pytest.mark.parametrize("n, h, w, n_dead", [
        (8, 1, 1, 48),                                            # micro's stage-4 7x7
        (4, 2, 2, 40),                                            # micro's stage-3 7x7
        (4, 2, 5, 28),
    ])
    def test_dead_tap_weights_never_read(self, n, h, w, n_dead):
        conv = make_conv(3, 3, 7, padding=3, groups=3)
        assert ops._conv_kind(conv) == "depthwise"
        assert_dead_taps_never_read(n, h, w, 7, dict(padding=3), n_dead,
                                    c_in=3, c_out=3, groups=3)


def assert_dead_taps_never_read(n, h, w, k, kw, n_dead, c_in, c_out, groups):
    # conv2d_naive skips a tap whose window lies wholly in padding, so a NaN
    # weight there must not reach the output or the input gradient, and the
    # weight gradient there is exactly 0
    rng = Rng(k + h)
    conv = make_conv(c_in, c_out, k, groups=groups, rng=rng, dtype=np.float64, **kw)
    x = rng.normal((n, c_in, h, w), dtype=np.float64)
    dead = dead_tap_mask(conv, h, w)
    assert int(dead.sum()) == n_dead
    clean = conv.weight.value.copy()
    clean[:, :, dead] = 0.0
    conv.weight.value[:, :, dead] = np.nan
    want = conv2d_naive(x, conv)
    assert np.all(np.isfinite(want))
    assert rel_err(conv2d(x, conv), want) < 1e-5
    gy = rng.normal(want.shape, dtype=np.float64)
    got = conv2d_backward(x, conv, gy)
    conv.weight.value = clean
    ref = conv2d_backward(x, conv, gy)
    assert np.array_equal(got.grad_input, ref.grad_input)
    assert np.array_equal(got.grad_params["weight"], ref.grad_params["weight"])
    assert not np.any(got.grad_params["weight"][:, :, dead])


class TestDenseDeadTaps:
    @pytest.mark.parametrize("n, h, w, k, kw, n_dead", [
        (2, 2, 2, 3, dict(padding=2, dilation=2), 8),             # micro's stage-3 MLDC branch
        (2, 1, 1, 3, dict(padding=3, dilation=3), 8),             # micro's stage-4 MLDC branch
        (2, 2, 3, 3, dict(stride=2, padding=1), 3),               # downsample, top row dead
        (1, 1, 1, 3, dict(stride=2, padding=2), 5),               # dead middle tap between live ones
        (2, 1, 1, 1, dict(stride=2, padding=1), 1),               # no tap is live
    ])
    def test_dead_tap_weights_never_read(self, n, h, w, k, kw, n_dead):
        assert_dead_taps_never_read(n, h, w, k, kw, n_dead, c_in=3, c_out=2, groups=1)

    def test_grouped(self):
        assert_dead_taps_never_read(2, 2, 2, 3, dict(padding=2, dilation=2), 8,
                                    c_in=4, c_out=6, groups=2)

    @pytest.mark.parametrize("k, kw", [(3, dict(padding=1)), (3, dict(padding=2, dilation=2)),
                                       (3, dict(stride=2, padding=1)), (5, dict(padding=1))])
    def test_all_live_matches_padded_column(self, rng, k, kw):
        # with every tap live the pad-free gather fills the same column as
        # gathering from a zero-padded copy, so the output is bit for bit the same
        conv = make_conv(4, 6, k, rng=rng, **kw)
        x = rng.normal((2, 4, 7, 7))
        oh, ow = out_shape(7, 7, conv)
        s, p, d = conv.stride, conv.padding, conv.dilation
        img = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        col = np.empty((2, 4, k, k, oh, ow), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                col[:, :, i, j] = img[:, :, i * d:i * d + s * oh:s, j * d:j * d + s * ow:s]
        ref = np.matmul(conv.weight.value.reshape(1, 6, -1), col.reshape(2, 1, -1, oh * ow))
        ref = ref.reshape(2, 6, oh, ow) + conv.bias.value[None, :, None, None]
        assert not dead_tap_mask(conv, 7, 7).any()
        assert np.array_equal(conv2d(x, conv), ref)


class TestConvDispatch:
    @pytest.mark.parametrize("c_in, c_out, k, kw, kind", [
        (8, 32, 1, {}, "pointwise"),
        (8, 8, 1, dict(groups=8), "im2col"),
        (8, 8, 7, dict(padding=3, groups=8), "depthwise"),
        (8, 8, 3, dict(stride=2, padding=1, groups=8), "im2col"),
        (8, 8, 1, dict(stride=2), "im2col"),
        (8, 8, 1, dict(padding=1), "im2col"),
        (8, 8, 3, dict(padding=2, dilation=2), "im2col"),
        (8, 16, 3, dict(groups=8), "im2col"),
        (8, 8, 3, dict(groups=2), "im2col"),
        (1, 1, 3, {}, "im2col"),
    ])
    def test_kind_from_geometry(self, c_in, c_out, k, kw, kind):
        # the kind follows from the layer's geometry alone, never from the map
        assert ops._conv_kind(make_conv(c_in, c_out, k, **kw)) == kind

    @pytest.mark.parametrize("n, size, k, kw, nt, tile", [
        (8, 14, 7, dict(padding=3), 1, 14),                       # ti stage-3 CPE / LK-FFN
        (8, 7, 7, dict(padding=3), 1, 7),                         # ti stage 4
        (1, 14, 7, dict(padding=3), 1, 14),
        (1, 7, 7, dict(padding=3), 1, 7),
        (32, 2, 7, dict(padding=3), 1, 2),                        # micro stage 3
        (32, 1, 7, dict(padding=3), 1, 1),                        # micro stage 4
        (8, 28, 7, dict(padding=3), 1, 28),
        (8, 36, 7, dict(padding=3), 1, 36),                       # tp = 42 = 6k
        (2, 10, 7, dict(padding=3, dilation=2), 1, 4),
        (8, 14, 3, dict(padding=1), 1, 14),                       # ti stage-3 IRB
        (8, 16, 3, dict(padding=1), 1, 16),                       # tp = 18 = 6k
        (8, 7, 3, dict(padding=1), 1, 7),                         # ti stage-4 IRB
        (32, 8, 3, dict(padding=1), 1, 8),                        # micro stage 1
        (8, 56, 7, dict(padding=3), 2, 28),
        (8, 37, 7, dict(padding=3), 2, 19),                       # one column past 6k
        (8, 17, 3, dict(padding=1), 2, 9),                        # one column past 6k
        (8, 28, 3, dict(padding=1), 2, 14),                       # ti stage-2 IRB
        (1, 14, 3, dict(padding=1), 1, 14),
        (2, 8, 3, dict(padding=1), 1, 8),
        (1, 7, 3, dict(padding=1), 1, 7),
        (1, 1, 7, dict(padding=3), 1, 1),                         # one tap row of one pixel
        (8, 56, 3, dict(padding=1), 4, 14),                       # ti stage-1 IRB
        (8, 27, 5, dict(padding=2), 2, 14),                       # 5x5: one column past 6k
        (1, 56, 3, dict(padding=1), 4, 14),
        (1, 28, 3, dict(padding=1), 2, 14),
        (2, 30, 7, dict(padding=6, dilation=2), 1, 30),           # tp = 42 at dilation 2
        (2, 31, 7, dict(padding=6, dilation=2), 2, 16),
        (1, 3, 3, dict(padding=10, dilation=10), 3, 1),           # e = 20 > 6k: T = 1
    ])
    def test_tile_plan(self, n, size, k, kw, nt, tile):
        # the fewest tiles whose padded width tp = T + (k-1)*d stays within 6k
        conv = make_conv(8, 8, k, groups=8, **kw)
        assert ops._conv_kind(conv) == "depthwise"
        plan = ops._dw_plan((n, 8, size, size), k, conv.padding, conv.dilation, np.float32)
        assert (plan.nt, plan.tile) == (nt, tile)
        e = (k - 1) * conv.dilation
        assert plan.tp == tile + e and (plan.tp <= 6 * k or tile == 1)
        ow = out_shape(size, size, conv)[1]
        assert (nt - 1) * tile < ow <= nt * tile

    @pytest.mark.parametrize("n, space, kind", [
        (2, POINTWISE, "pointwise"), (2, DEPTHWISE, "depthwise"), (2, DEAD_TAPS, "depthwise"),
        (2, STRIDED_DILATED, "im2col"), (2, DENSE_DEAD_TAPS, "im2col"),
        (2, NO_LIVE_TAP, "im2col"), (2, ROWS, "depthwise"), (3, ROWS, "depthwise"),
        (2, ROWS_DILATED, "depthwise"), (3, ROWS_DILATED, "depthwise"),
        (2, DEPTHWISE_1X1, "im2col"),
    ])
    def test_property_examples_reach_their_kernel(self, n, space, kind):
        conv, x = drawn_conv(n, **space)
        assert ops._conv_kind(conv) == kind

    @pytest.mark.parametrize("space, nt", [(MULTI_TILE, 3), (MULTI_TILE_DILATED, 3),
                                           (GRAD_OUT_CROP, 2)])
    def test_multi_tile_examples_span_tiles(self, space, nt):
        # the premise of those examples: the forward and the input gradient,
        # run over grad_out (cropped by p - e when p > e), both take several
        # tiles, the last one partial
        conv, x = drawn_conv(2, **space)
        k, p, d = conv.kernel_size, conv.padding, conv.dilation
        e = (k - 1) * d
        plan = ops._dw_plan(x.shape, k, p, d, x.dtype)
        oh, ow = out_shape(x.shape[2], x.shape[3], conv)
        crop = max(0, p - e)
        grad_plan = ops._dw_plan((2, 3, oh - 2 * crop, ow - 2 * crop), k, max(0, e - p), d,
                                 x.dtype)
        assert plan.nt == grad_plan.nt == nt
        assert ow % plan.tile and x.shape[3] % grad_plan.tile
        assert (p > e) == (space is GRAD_OUT_CROP)

    def test_kernel_size_below_one_rejected(self):
        for k in (0, -3):
            with pytest.raises(ShapeError):
                make_conv(4, 4, k)
        with pytest.raises(ShapeError):
            Conv2dLayer(np.zeros((2, 2, 0, 0), dtype=np.float32))


def textbook_bn_forward(x, bn):
    """Train-mode BN forward as first written: the reference for the fast path."""
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    scale = (bn.gamma.value * inv_std)[None, :, None, None]
    shift = (bn.beta.value - bn.gamma.value * mean * inv_std)[None, :, None, None]
    return x * scale + shift


def textbook_bn_backward(x, bn, grad_out):
    """(grad_x, grad_gamma, grad_beta) of train-mode BN, textbook form, as first written."""
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    dxhat = grad_out * bn.gamma.value[None, :, None, None]
    mean_dxhat = dxhat.mean(axis=(0, 2, 3), keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
    grad_x = inv_std[None, :, None, None] * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return grad_x, grad_gamma, grad_beta


def drawn_bn(shape, offset, const, seed, dtype):
    """A BN with random affine, for train-mode calls, an input centred at `offset`
    (channel 0 constant when `const`, so its variance is 0) and an upstream gradient."""
    rng = Rng(seed)
    c = shape[1]
    bn = BatchNorm2d.create(c, dtype=dtype)
    bn.gamma.value[:] = rng.normal((c,), dtype=dtype)
    bn.beta.value[:] = rng.normal((c,), dtype=dtype)
    x = rng.normal(shape, mean=offset, dtype=dtype)
    if const:
        x[:, 0] = offset + 0.25
    return bn, x, rng.normal(shape, dtype=dtype)


def fast_bn(x, bn, gy):
    out = batchnorm_forward(x, bn, train=True)
    r = batchnorm_backward(x, bn, gy)
    return out, r.grad_input, r.grad_params["gamma"], r.grad_params["beta"]


def textbook_bn(x, bn, gy):
    return (textbook_bn_forward(x, bn), *textbook_bn_backward(x, bn, gy))


def bn_errors(shape, offset, const, seed, dtype, impl=fast_bn):
    """Errors of impl's (output, grad_x, grad_gamma, grad_beta), computed in
    `dtype`, against the textbook form in f64 on the same values.

    Each error is scaled by the magnitude of the terms the result sums, not
    by the result alone: with a variance near 0 (scale ~ 1/sqrt(eps)) or
    N*H*W = 2 the terms cancel, and the textbook form's own rounding error
    follows the terms.
    """
    bn, x, gy = drawn_bn(shape, offset, const, seed, dtype)
    got = impl(x, bn, gy)
    assert all(a.dtype == dtype for a in got)
    ref_bn, ref_x, ref_gy = drawn_bn(shape, offset, const, seed, np.float64)
    ref_x[...], ref_gy[...] = x, gy
    for name, p in bn.named_params():
        getattr(ref_bn, name).value[:] = p.value
    want = textbook_bn(ref_x, ref_bn, ref_gy)
    inv_std = 1.0 / np.sqrt(ref_x.var(axis=(0, 2, 3)) + bn.eps)[None, :, None, None]
    xhat = (ref_x - ref_x.mean(axis=(0, 2, 3), keepdims=True)) * inv_std
    k1 = np.abs(ref_bn.gamma.value[None, :, None, None] * inv_std)
    terms = [np.abs(ref_x) * k1, np.abs(ref_gy) * k1,
             np.abs(ref_gy * xhat).sum(axis=(0, 2, 3)), np.abs(ref_gy).sum(axis=(0, 2, 3))]
    return [float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), float(np.max(t)), 1e-8)
            for a, b, t in zip(got, want, terms)]


BN_SPACE = dict(n=st.integers(1, 3), c=st.integers(1, 4), h=st.integers(1, 5),
                w=st.integers(1, 5), offset=st.sampled_from([0.0, 5.0]), const=st.booleans(),
                seed=st.integers(0, 2 ** 16))
# ti's largest BN input: the stem's first conv output at batch 2
TI_LARGEST_BN = (2, 16, 112, 112)
# f32 against the f64 textbook form, for the fast and the textbook form alike:
# the worst of 400 random draws was 2.6e-6 for both (grad_x at N*H*W = 2)
BN_F32_TOL = 1e-5


class TestBatchNormClosedForm:
    """The fast train-mode BN (statistics from d = x - mean, closed-form
    backward) against the textbook form it replaced."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(**BN_SPACE)
    @example(n=1, c=3, h=1, w=1, offset=0.0, const=False, seed=1)   # N*H*W = 1
    @example(n=2, c=3, h=3, w=2, offset=0.0, const=True, seed=2)    # a constant channel
    @example(n=3, c=4, h=5, w=5, offset=5.0, const=False, seed=3)   # mean offset 5
    def test_f64_matches_textbook(self, n, c, h, w, offset, const, seed):
        errs = bn_errors((n, c, h, w), offset, const, seed, np.float64)
        assert max(errs) < 1e-12, errs

    # the textbook form runs too: the bound is what f32 costs either way
    @pytest.mark.parametrize("impl", [fast_bn, textbook_bn])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(**BN_SPACE)
    @example(n=1, c=3, h=1, w=1, offset=0.0, const=False, seed=1)
    @example(n=2, c=3, h=3, w=2, offset=0.0, const=True, seed=2)
    @example(n=3, c=4, h=5, w=5, offset=5.0, const=False, seed=3)
    def test_f32_within_bound_of_f64_textbook(self, impl, n, c, h, w, offset, const, seed):
        errs = bn_errors((n, c, h, w), offset, const, seed, np.float32, impl=impl)
        assert max(errs) < BN_F32_TOL, errs

    @pytest.mark.parametrize("offset", [0.0, 5.0])
    def test_ti_largest_shape(self, offset):
        assert max(bn_errors(TI_LARGEST_BN, offset, True, 7, np.float64)) < 1e-12
        assert max(bn_errors(TI_LARGEST_BN, offset, True, 7, np.float32)) < BN_F32_TOL

    @pytest.mark.parametrize("shape, offset", [((1, 3, 1, 1), 0.0), ((3, 4, 5, 5), 5.0),
                                               (TI_LARGEST_BN, 5.0)])
    def test_running_stats_match_textbook(self, shape, offset):
        bn, x, _ = drawn_bn(shape, offset, True, 8, np.float64)
        batchnorm_forward(x, bn, train=True)
        assert rel_err(bn.running_mean, 0.1 * x.mean(axis=(0, 2, 3))) < 1e-12
        assert rel_err(bn.running_var, 0.9 + 0.1 * x.var(axis=(0, 2, 3))) < 1e-12


class TestBatchNorm:
    def test_eval_identity_stats(self, rng):
        bn = BatchNorm2d.create(3)
        x = rng.normal((2, 3, 4, 4))
        out = batchnorm_forward(x, bn)
        assert np.allclose(out, x / np.sqrt(1.0 + bn.eps), atol=1e-6)

    def test_train_normalizes(self, rng):
        bn = BatchNorm2d.create(5, dtype=np.float64)
        x = rng.normal((4, 5, 6, 6), mean=2.0, std=3.0, dtype=np.float64)
        out = batchnorm_forward(x, bn, train=True)
        mean = out.mean(axis=(0, 2, 3))
        std = out.std(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-6
        assert np.max(np.abs(std - 1.0)) < 1e-4

    def test_eval_affine(self, rng):
        bn = BatchNorm2d.create(2)
        bn.gamma.value[:] = 2.0
        bn.beta.value[:] = 3.0
        x = rng.normal((1, 2, 3, 3))
        out = batchnorm_forward(x, bn)
        assert np.allclose(out, 2.0 * x / np.sqrt(1.0 + bn.eps) + 3.0, atol=1e-5)

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d.create(3, dtype=np.float64)
        x = rng.normal((8, 3, 4, 4), mean=1.0, std=2.0, dtype=np.float64)
        for _ in range(300):
            batchnorm_forward(x, bn, train=True)
        # running stats converge to the (biased) batch statistics
        assert np.allclose(bn.running_mean, x.mean(axis=(0, 2, 3)), atol=1e-6)
        assert np.allclose(bn.running_var, x.var(axis=(0, 2, 3)), atol=1e-6)
        eval_out = batchnorm_forward(x, bn)
        train_out = batchnorm_forward(x, bn, train=True)
        assert np.max(np.abs(eval_out - train_out)) < 1e-3

    def test_backward_zero_grad(self, rng):
        bn = BatchNorm2d.create(2, dtype=np.float64)
        x = rng.normal((2, 2, 3, 3), dtype=np.float64)
        r = batchnorm_backward(x, bn, np.zeros_like(x))
        assert np.all(r.grad_input == 0)
        assert np.all(r.grad_params["gamma"] == 0)
        assert np.all(r.grad_params["beta"] == 0)

    def test_gamma_grad_of_constant_input(self):
        # constant input normalizes to ~0, so the gamma gradient vanishes
        bn = BatchNorm2d.create(2, dtype=np.float64)
        x = np.full((2, 2, 3, 3), 5.0)
        r = batchnorm_backward(x, bn, np.ones_like(x))
        assert np.max(np.abs(r.grad_params["gamma"])) < 1e-6

    def test_channel_mismatch(self, rng):
        bn = BatchNorm2d.create(3)
        with pytest.raises(ShapeError):
            batchnorm_forward(rng.normal((1, 4, 2, 2)), bn)


class TestBatchNormKeptStats:
    """The statistics a train forward keeps are those the backward would take."""

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, offset, const", [((1, 3, 1, 1), 0.0, False),
                                                      ((3, 4, 5, 5), 5.0, True),
                                                      ((2, 6, 9, 7), 0.0, False)])
    def test_backward_given_stats_is_bitwise_the_recomputing_one(self, dt, shape, offset, const):
        bn, x, gy = drawn_bn(shape, offset, const, 11, dt)
        y, stats = batchnorm_forward(x, bn, train=True, keep_stats=True)
        assert same_bits(y, batchnorm_forward(x, bn, train=True))
        mean, _, var = ops._batch_stats(x)  # as the backward takes them
        assert same_bits(stats.mean, mean) and same_bits(stats.inv_std, 1.0 / np.sqrt(var + bn.eps))
        x0 = x.copy()
        kept, again = batchnorm_backward(x, bn, gy, stats), batchnorm_backward(x, bn, gy)
        assert same_bits(kept.grad_input, again.grad_input)
        for name in ("gamma", "beta"):
            assert same_bits(kept.grad_params[name], again.grad_params[name])
        assert same_bits(x, x0)

    def test_keep_stats_needs_train_mode(self, rng):
        with pytest.raises(ValueError, match="keep_stats"):
            batchnorm_forward(rng.normal((1, 3, 2, 2)), BatchNorm2d.create(3), keep_stats=True)


class TestGelu:
    def test_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_derivative_at_zero(self):
        g = gelu_backward(np.array([0.0]), np.array([1.0]))
        assert g[0] == pytest.approx(0.5)

    def test_large_input_passthrough(self):
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-6)

    def test_matches_high_precision_erf(self):
        # independent oracle: x * Phi(x) with mpmath's arbitrary-precision erf
        for x in (-2.0, -0.5, 0.3, 1.0, 2.5):
            expected = float(mpmath.mpf(x) * 0.5 * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2))))
            got = float(gelu(np.array([x], dtype=np.float64))[0])
            assert got == pytest.approx(expected, rel=1e-12)

    def test_preserves_dtype(self):
        assert gelu(np.ones(3, dtype=np.float32)).dtype == np.float32
        assert gelu(np.ones(3, dtype=np.float64)).dtype == np.float64
        for dt in (np.float32, np.float64):
            assert gelu_backward(np.ones(3, dtype=dt), np.ones(3, dtype=dt)).dtype == dt

    @pytest.mark.parametrize("dt, want", [(np.float16, np.float64), (np.int32, np.float64),
                                          (np.float32, np.float32), (np.float64, np.float64)])
    def test_dtype_contract(self, dt, want):
        # f32 and f64 keep their dtype; any other dtype runs, and returns, in f64
        x = np.array([-3, -1, 0, 1, 2, 5], dtype=dt)
        g = np.array([1, -2, 3, 1, 1, 2], dtype=dt)
        x64, g64 = x.astype(want), g.astype(want)
        fwd, (fwd_kept, cdf), slope = gelu(x), gelu(x, keep_cdf=True), gelu_backward(x, g)
        assert fwd.dtype == fwd_kept.dtype == cdf.dtype == slope.dtype == want
        assert same_bits(fwd, gelu(x64)) and same_bits(fwd_kept, fwd)
        assert same_bits(slope, gelu_backward(x64, g64))
        assert same_bits(gelu_backward(x, g, cdf), slope)


def scipy_gelu(x):
    """GeLU and its derivative as written with scipy's erf for every dtype."""
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * x.dtype.type(1.0 / math.sqrt(2.0 * math.pi))
    return x * cdf, cdf + x * pdf


def same_bits(a, b):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    return (a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 4.0, -4.0, 5.657, -5.657, 40.0, -40.0]


F32_MAX = float(np.finfo(np.float32).max)


class TestGeluF32:
    """f32 GeLU uses the tanh form of a degree-6 Phi fit; f64 keeps scipy's erf."""

    @pytest.fixture(scope="class")
    def grid(self):
        x = np.linspace(-30.0, 30.0, 1_200_001, dtype=np.float32)
        return np.concatenate([x, np.array([0.0, -0.0], dtype=np.float32)])

    @pytest.fixture(scope="class")
    def extremes(self):
        """+-10^k up to the f32 maximum, and subnormals."""
        tiny = np.finfo(np.float32).smallest_subnormal
        mags = np.array([10.0 ** k for k in range(-45, 39)] + [F32_MAX], dtype=np.float32)
        mags = np.concatenate([mags, np.array([tiny, 7 * tiny, 1e-40, 1.1e-38], dtype=np.float32)])
        return np.concatenate([mags, -mags])

    def test_phi_within_bound_of_f64_ndtr(self, grid, extremes):
        # 2.5e-7 on Phi restates the old 5e-7 bound on erf
        for x in (grid, extremes):
            assert np.max(np.abs(ops._normal_cdf(x) - ndtr(x.astype(np.float64)))) <= 2.5e-7

    def test_phi_is_one_past_the_fit_range_and_monotone(self, grid):
        # no clamp: tanh rounds to 1 from 5.5 up to the f32 maximum
        x = np.concatenate([np.linspace(5.5, 1e4, 200_001, dtype=np.float32),
                            np.geomspace(5.5, F32_MAX, 10_001).astype(np.float32)])
        assert np.all(ops._normal_cdf(x) == 1.0)
        phi = ops._normal_cdf(grid[:-2])  # the sorted linspace part
        assert np.all(np.diff(phi) >= 0)

    def test_no_runtime_warning(self, grid, extremes):
        # x^2 and the polynomial overflow to inf for |x| past about 6e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (grid, extremes):
                gelu(x)
                gelu_backward(x, np.ones_like(x))

    def test_gelu_and_derivative_within_bound_of_f64(self, grid):
        x64 = grid.astype(np.float64)
        scale = np.maximum(1.0, np.abs(x64))
        got = gelu(grid)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - gelu(x64)) / scale) <= 1e-6
        ones = np.ones_like(grid)
        got = gelu_backward(grid, ones)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - gelu_backward(x64, ones.astype(np.float64))) / scale) <= 1e-6

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_special_values_as_with_scipy_erf(self, dt):
        x = np.array(SPECIAL, dtype=dt)
        with np.errstate(invalid="ignore"):
            want_fwd, want_slope = scipy_gelu(x)
            got_fwd = gelu(x)
            got_slope = gelu_backward(x, np.ones_like(x))
        assert np.array_equal(np.isnan(got_fwd), np.isnan(want_fwd))
        assert np.array_equal(np.isnan(got_slope), np.isnan(want_slope))
        assert got_fwd[1] == np.inf and np.isnan(got_fwd[0]) and np.isnan(got_fwd[2])
        assert same_bits(got_fwd[3:5], want_fwd[3:5])

    def test_f64_bitwise_unchanged(self, rng):
        x = np.concatenate([rng.normal((4096,), std=4.0, dtype=np.float64),
                            np.array(SPECIAL)])
        g = rng.normal(x.shape, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            want_fwd, want_slope = scipy_gelu(x)
            assert same_bits(gelu(x), want_fwd)
            assert same_bits(gelu_backward(x, g), g * want_slope)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_inputs_not_mutated(self, rng, dt):
        x = rng.normal((2, 3, 5, 7), std=3.0, dtype=dt)
        g = rng.normal(x.shape, dtype=dt)
        x0, g0 = x.copy(), g.copy()
        gelu(x)
        gelu_backward(x, g)
        assert np.array_equal(x, x0) and np.array_equal(g, g0)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (7, 5), (2, 3, 5, 7), (ops._ERF_F32_BLOCK + 3,)])
    def test_backward_bitwise_as_written_out(self, rng, dt, shape):
        # gelu_backward works in place on Phi(x); pin it to the plain formula
        x = rng.normal(shape, std=3.0, dtype=dt)
        m = min(x.size, len(SPECIAL))
        x.reshape(-1)[:m] = SPECIAL[:m]
        g = rng.normal(shape, dtype=dt)
        x0, g0 = x.copy(), g.copy()
        with np.errstate(invalid="ignore"):
            pdf = np.exp(-0.5 * x * x) * x.dtype.type(1.0 / math.sqrt(2.0 * math.pi))
            want = g * (ops._normal_cdf(x) + x * pdf)
            got = gelu_backward(x, g)
        assert same_bits(got, want)
        assert same_bits(x, x0) and same_bits(g, g0)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (2, 3, 5, 7), (ops._ERF_F32_BLOCK + 3,),
                                       (2, ops._ERF_F32_BLOCK + 5)])
    def test_kept_phi_is_bitwise_the_recomputed_one(self, rng, dt, shape):
        # gelu's kept Phi feeds gelu_backward in place of taking Phi again
        x = rng.normal(shape, std=3.0, dtype=dt)
        m = min(x.size, len(SPECIAL))
        x.reshape(-1)[:m] = SPECIAL[:m]
        g = rng.normal(shape, dtype=dt)
        with np.errstate(invalid="ignore"):
            y, cdf = gelu(x, keep_cdf=True)
            assert same_bits(y, gelu(x)) and same_bits(cdf, ops._normal_cdf(x))
            assert same_bits(gelu_backward(x, g, cdf), gelu_backward(x, g))
            # a transposed view and a non-contiguous gradient take the same bits
            xt, gt = x.T, g[..., ::-1].T if x.ndim > 1 else g
            assert same_bits(gelu_backward(xt, gt, cdf.T), gelu_backward(xt, gt))

    def test_layout_and_block_edges_do_not_matter(self, rng):
        # a transposed view, and a size that is not a multiple of the block
        x = rng.normal((3, ops._ERF_F32_BLOCK // 2 + 5), std=3.0).T
        assert np.array_equal(gelu(x), gelu(np.ascontiguousarray(x)))
        flat = np.ascontiguousarray(x).reshape(-1)
        parts = [gelu(flat[i:i + 1000]) for i in range(0, flat.size, 1000)]
        assert np.array_equal(gelu(flat), np.concatenate(parts))


def in_place_specials(dt):
    """NaN, +-inf, signed zeros and subnormals of dtype dt."""
    tiny = float(np.finfo(dt).smallest_subnormal)
    return np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 7 * tiny,
                     1e3 * tiny, -1e3 * tiny], dtype=dt)


def in_place_bn(c, dt, seed=0):
    rng = Rng(seed)
    bn = BatchNorm2d.create(c, dtype=dt)
    bn.gamma.value[:] = rng.uniform((c,), 0.5, 1.5, dtype=dt)
    bn.beta.value[:] = rng.normal((c,), dtype=dt)
    bn.running_mean[:] = rng.normal((c,), dtype=dt)
    bn.running_var[:] = rng.uniform((c,), 0.5, 2.0, dtype=dt)
    return bn


# (name, call(x, out)) of every kernel with an `out=` form, on (2, 6, 9, 9) inputs
IN_PLACE_KERNELS = [
    ("gelu", lambda x, out: gelu(x, out=out)),
    ("bn_eval", lambda x, out: batchnorm_forward(x, in_place_bn(6, x.dtype), out=out)),
    ("bn_train", lambda x, out: batchnorm_forward(x, in_place_bn(6, x.dtype), True, out=out)),
    ("dw_conv", lambda x, out: conv2d(x, make_conv(6, 6, 3, padding=1, groups=6, rng=Rng(1),
                                                   dtype=x.dtype), out=out)),
    ("dense_conv", lambda x, out: conv2d(x, make_conv(6, 6, 3, padding=2, dilation=2,
                                                      rng=Rng(1), dtype=x.dtype), out=out)),
    ("add", lambda x, out: add(x, np.flip(x), out=out)),
]


class TestInPlace:
    """Each kernel's `out=` form, written over its own input, gives the bits of
    the call that allocates; an `out` it cannot write straight into (strided,
    read-only, another dtype or shape) is refused with the input untouched,
    never written through a copy."""

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [0, ops._ERF_F32_BLOCK - 1, ops._ERF_F32_BLOCK + 1])
    def test_gelu_over_its_input(self, dt, size):
        x = np.random.default_rng(size).standard_normal(size).astype(dt) * 4
        sp = in_place_specials(dt)
        for at in (0, size // 2, size - len(sp)):  # the ends and a block edge
            if size:
                x[at:at + len(sp)] = sp
        with np.errstate(invalid="ignore"):
            want = gelu(x)
            got = gelu(x, out=x)
        assert got is x and same_bits(x, want)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_gelu_into_another_array_keeps_phi(self, dt):
        x = Rng(3).normal((2, 3, 5, 7), std=3.0, dtype=dt)
        x0, out = x.copy(), np.empty_like(x)
        y, cdf = gelu(x, keep_cdf=True, out=out)
        assert y is out and same_bits(out, gelu(x0)) and same_bits(cdf, ops._normal_cdf(x0))
        assert same_bits(x, x0)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [False, True])
    def test_batchnorm_over_its_input(self, dt, train):
        x = Rng(4).normal((3, 5, 4, 6), std=2.0, dtype=dt)
        want_bn, bn = in_place_bn(5, dt), in_place_bn(5, dt)
        want = batchnorm_forward(x, want_bn, train)
        got = batchnorm_forward(x, bn, train, out=x)
        assert np.shares_memory(got, x) and same_bits(x, want)
        for a, b in zip(want_bn.named_buffers(), bn.named_buffers()):
            assert same_bits(a[1], b[1])

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dw_conv_over_its_input_across_channel_blocks(self, dt, k, d):
        n, c, size = 4, 40, 28
        p = d * (k - 1) // 2
        rng = Rng(10 * k + d)
        x = rng.normal((n, c, size, size), dtype=dt)
        w = rng.normal((c, k, k), dtype=dt)
        assert ops._dw_plan(x.shape, k, p, d, dt).per_block < c  # several blocks
        want = ops._dw_conv(x, w, p, d)
        assert ops._dw_conv(x, w, p, d, out=x) is x
        assert same_bits(x, want)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("kw", [dict(k=3, padding=1, groups=8, bias=True),
                                    dict(k=3, padding=2, dilation=2),
                                    dict(k=1, groups=8),
                                    dict(k=1)],
                             ids=["depthwise", "dense_dilated", "depthwise_1x1", "pointwise"])
    def test_conv2d_over_its_input(self, dt, kw):
        kw = dict(kw)
        conv = make_conv(8, 8, kw.pop("k"), rng=Rng(2), dtype=dt, **kw)
        if conv.bias is not None:
            conv.bias.value[:] = Rng(3).normal((8,), dtype=dt)
        x = Rng(5).normal((3, 8, 10, 10), dtype=dt)
        want = conv2d(x, conv)
        assert conv2d(x, conv, out=x) is x
        assert same_bits(x, want)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_add_into_either_operand(self, dt):
        a, b = (Rng(s).normal((2, 3, 4, 5), dtype=dt) for s in (1, 2))
        want = a + b
        for target in ("a", "b"):
            x, y = a.copy(), b.copy()
            got = add(x, y, out=x if target == "a" else y)
            assert same_bits(got, want) and got is (x if target == "a" else y)

    @pytest.mark.parametrize("name, call", IN_PLACE_KERNELS, ids=[n for n, _ in IN_PLACE_KERNELS])
    @pytest.mark.parametrize("bad", ["strided", "fortran", "read_only", "other_dtype",
                                     "other_shape"])
    def test_refuses_an_out_it_cannot_write(self, name, call, bad):
        values = Rng(6).normal((2, 6, 9, 9), dtype=np.float32)
        if bad == "strided":
            x = np.zeros((2, 6, 9, 18), np.float32)[..., ::2]
            x[...] = values
            out = x
        elif bad == "fortran":
            x = out = np.asfortranarray(values)
        elif bad == "read_only":
            x = out = values.copy()
            x.setflags(write=False)
        elif bad == "other_dtype":
            x, out = values.copy(), values.astype(np.float64)
        else:
            x, out = values.copy(), np.zeros((2, 6, 9, 8), np.float32)
        x0, out0 = x.copy(), out.copy()
        with pytest.raises(ValueError):
            call(x, out)
        assert same_bits(x, x0) and same_bits(out, out0)

    @pytest.mark.parametrize("name", ["gelu", "dw_conv", "dense_conv"])
    @pytest.mark.parametrize("shift", [1, 6 * 9 * 9])  # one element, one sample
    def test_refuses_an_out_that_overlaps_its_input_in_part(self, name, shift):
        # these kernels write block by block, so a shifted out would feed them
        # values they have already overwritten
        call = dict(IN_PLACE_KERNELS)[name]
        size = 2 * 6 * 9 * 9
        buf = np.zeros(size + shift, np.float32)
        buf[:size] = Rng(6).normal((size,), dtype=np.float32)
        x, out = buf[:size].reshape(2, 6, 9, 9), buf[shift:].reshape(2, 6, 9, 9)
        buf0 = buf.copy()
        with pytest.raises(ValueError, match="share no memory"):
            call(x, out)
        assert same_bits(buf, buf0)

    @pytest.mark.parametrize("dt", [np.int32, np.float16])
    def test_gelu_refuses_an_input_it_converts(self, dt):
        # other dtypes run in f64, so x itself cannot hold the result
        x = np.arange(-3, 3).astype(dt)
        x0 = x.copy()
        with pytest.raises(ValueError):
            gelu(x, out=x)
        assert np.array_equal(x, x0) and gelu(x).dtype == np.float64


# Run the f32 paths of the package in a fresh interpreter, then an f64 GeLU;
# print whether scipy.special was loaded after each.
_LAZY_ERF_PROBE = """
import os, sys
import numpy as np
import rapidnet
from rapidnet import analysis, model, ops, trainer, weights_io

net = model.build_model(model.default_config("micro"))
x = np.random.default_rng(0).standard_normal((4, 3, 32, 32), dtype=np.float32)
net.set_mode("train")
_, grad = ops.softmax_cross_entropy(net.forward(x), [0, 1, 2, 3])
net.zero_grad()
net.backward(grad)
params = net.iter_params()
trainer.adamw_step([(n, p.value) for n, p in params], {n: p.grad for n, p in params},
                   trainer.AdamWState(lr=1e-3))
net.set_mode("eval")
net.forward(x)
path = os.path.join(sys.argv[1], "m.rpdn")
weights_io.save(net, path)
loaded = weights_io.load(path)
analysis.report(loaded.config, 32, loaded)
print("scipy.special" in sys.modules)
ops.gelu(np.array([0.5]))
print("scipy.special" in sys.modules)
"""


def test_scipy_special_is_imported_only_by_an_f64_gelu(tmp_path):
    # the f64 erf is the package's only use of scipy.special, which costs a
    # process about 24 MB and 0.25 s to import
    src = os.path.dirname(os.path.dirname(os.path.abspath(ops.__file__)))
    out = subprocess.run([sys.executable, "-c", _LAZY_ERF_PROBE, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False", "True"]


class TestPooling:
    def test_ones(self):
        out = global_avg_pool(np.ones((1, 3, 7, 7), dtype=np.float32))
        assert out.shape == (1, 3)
        assert np.allclose(out, 1.0)

    def test_single_pixel_identity(self, rng):
        x = rng.normal((2, 5, 1, 1))
        assert np.array_equal(global_avg_pool(x), x[:, :, 0, 0])

    def test_matches_loop_sum(self, rng):
        x = rng.normal((2, 3, 5, 4), dtype=np.float64)
        got = global_avg_pool(x)
        for n in range(2):
            for c in range(3):
                acc = 0.0
                for i in range(5):
                    for j in range(4):
                        acc += x[n, c, i, j]
                assert got[n, c] == pytest.approx(acc / 20.0, rel=1e-6)

    def test_backward_needs_a_4d_input(self):
        with pytest.raises(ShapeError, match="4-D"):
            global_avg_pool_backward(np.zeros((2, 3), np.float32), np.zeros((2, 3), np.float32))


class TestLinear:
    def test_identity(self):
        layer = LinearLayer(np.eye(3, dtype=np.float32), np.zeros(3, dtype=np.float32))
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        assert np.allclose(linear(x, layer), x)

    def test_arithmetic(self):
        layer = LinearLayer(np.array([[1.0, 1.0]]), np.array([0.5]))
        assert linear(np.array([[1.0, 2.0]]), layer)[0, 0] == pytest.approx(3.5)

    def test_shape_mismatch(self, rng):
        layer = LinearLayer.create(4, 2, rng=rng)
        with pytest.raises(ShapeError):
            linear(rng.normal((1, 5)), layer)

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3), (2, 4, 1), (4,)])
    def test_backward_checks_the_input_like_forward(self, shape):
        # a (2, 5) input would give a (3, 5) gradient for the (3, 4) weight
        layer = LinearLayer.create(4, 3)
        with pytest.raises(ShapeError, match=r"\(N, 4\)"):
            linear_backward(np.zeros(shape, np.float32), layer, np.zeros((2, 3), np.float32))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((3, 10)), [0, 5, 9])
        assert loss == pytest.approx(math.log(10.0), rel=1e-6)

    def test_confident_correct(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 30.0
        logits[1, 3] = 30.0
        loss, _ = softmax_cross_entropy(logits, [1, 3])
        assert loss < 1e-9

    def test_out_of_range_label(self):
        with pytest.raises(LabelError):
            softmax_cross_entropy(np.zeros((1, 4)), [4])
        with pytest.raises(LabelError):
            softmax_cross_entropy(np.zeros((1, 4)), [-1])

    def test_empty_batch(self):
        with pytest.raises(ShapeError, match="no samples"):
            softmax_cross_entropy(np.zeros((0, 4), np.float32), [])

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [True, False], [0.0, 1.0],
                                        np.array([0, 1], np.float32), ["0", "1"]])
    def test_non_integer_labels_are_refused(self, labels):
        # a cast to int64 would truncate 1.7 to 1 and read True as 1
        with pytest.raises(LabelError, match="integers"):
            softmax_cross_entropy(np.zeros((2, 4), np.float32), labels)

    @pytest.mark.parametrize("dt", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
    def test_every_integer_dtype_is_a_label(self, dt):
        logits = np.arange(8, dtype=np.float64).reshape(2, 4)
        want = softmax_cross_entropy(logits, [3, 0])
        got = softmax_cross_entropy(logits, np.array([3, 0], dtype=dt))
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_grad_sums_to_zero(self, rng):
        logits = rng.normal((4, 6), dtype=np.float64)
        _, grad = softmax_cross_entropy(logits, [0, 1, 2, 3])
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_large_logits_stable(self):
        logits = np.array([[1000.0, 1000.0]])
        loss, grad = softmax_cross_entropy(logits, [0])
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))
