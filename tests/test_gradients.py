"""Finite-difference checks for every backward path.

All checks run in f64 with central differences (h = 1e-5) on small shapes
and require relative agreement below 1e-5.
"""

import numpy as np
import pytest

from conftest import fd_grad, rel_err
from rapidnet.blocks import (
    DilatedConvBlock,
    DownsampleBlock,
    HeadBlock,
    InvertedResidualBlock,
    LkFfnBlock,
    MldcBlock,
    StemBlock,
)
from rapidnet.ops import (
    BatchNorm2d,
    Conv2dLayer,
    LinearLayer,
    batchnorm_backward,
    batchnorm_forward,
    conv2d,
    conv2d_backward,
    gelu,
    gelu_backward,
    global_avg_pool,
    global_avg_pool_backward,
    linear,
    linear_backward,
    softmax_cross_entropy,
)
from rapidnet.tensor import Rng

TOL = 1e-5
F64 = np.float64


def check_input_grad(forward, backward, x, rng):
    gy = rng.normal(forward(x).shape, dtype=F64)
    analytical = backward(x, gy)
    numerical = fd_grad(lambda t: float(np.sum(forward(t) * gy)), x.copy())
    assert rel_err(analytical, numerical) < TOL


class TestConvBackward:
    def test_identity_kernel_grad_input(self):
        w = np.zeros((2, 2, 3, 3), dtype=F64)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        conv = Conv2dLayer(w, padding=1)
        x = np.zeros((1, 2, 4, 4), dtype=F64)
        r = conv2d_backward(x, conv, np.ones((1, 2, 4, 4), dtype=F64))
        assert np.allclose(r.grad_input, 1.0)

    @pytest.mark.parametrize("kw", [
        dict(k=3, stride=1, padding=1, dilation=1, groups=1),
        dict(k=3, stride=2, padding=1, dilation=1, groups=1),
        dict(k=3, stride=1, padding=3, dilation=3, groups=4),   # dilated depthwise
        dict(k=5, stride=1, padding=4, dilation=2, groups=2),
        dict(k=1, stride=1, padding=0, dilation=1, groups=1),
        dict(k=7, stride=2, padding=3, dilation=1, groups=4),
        dict(k=7, stride=1, padding=3, dilation=1, groups=4),   # CPE / LK-FFN depthwise
        dict(k=3, stride=1, padding=1, dilation=1, groups=4, bias=False),
        dict(k=1, stride=1, padding=0, dilation=1, groups=1, c_out=6),
    ])
    def test_matches_finite_differences(self, kw):
        rng = Rng(5)
        c = 4
        bias = kw.get("bias", True)
        conv = Conv2dLayer.create(c, kw.get("c_out", c), kw["k"], stride=kw["stride"],
                                  padding=kw["padding"], dilation=kw["dilation"],
                                  groups=kw["groups"], bias=bias, rng=rng, dtype=F64)
        x = rng.normal((2, c, 8, 8), dtype=F64)
        gy = rng.normal(conv2d(x, conv).shape, dtype=F64)
        r = conv2d_backward(x, conv, gy)

        num_x = fd_grad(lambda t: float(np.sum(conv2d(t, conv) * gy)), x.copy())
        assert rel_err(r.grad_input, num_x) < TOL

        num_w = fd_grad(lambda _: float(np.sum(conv2d(x, conv) * gy)), conv.weight.value)
        assert rel_err(r.grad_params["weight"], num_w) < TOL
        if bias:
            assert np.allclose(r.grad_params["bias"], gy.sum(axis=(0, 2, 3)))
        else:
            assert "bias" not in r.grad_params


class TestBatchNormBackward:
    def test_matches_finite_differences(self):
        rng = Rng(6)
        bn = BatchNorm2d.create(4, dtype=F64)
        bn.gamma.value[:] = rng.normal((4,), mean=1.0, std=0.2, dtype=F64)
        bn.beta.value[:] = rng.normal((4,), std=0.2, dtype=F64)
        x = rng.normal((2, 4, 5, 5), dtype=F64)
        gy = rng.normal(x.shape, dtype=F64)
        r = batchnorm_backward(x, bn, gy)

        num_x = fd_grad(lambda t: float(np.sum(batchnorm_forward(t, bn, train=True) * gy)),
                        x.copy())
        assert rel_err(r.grad_input, num_x) < TOL

        num_gamma = fd_grad(lambda _: float(np.sum(batchnorm_forward(x, bn, train=True) * gy)),
                            bn.gamma.value)
        assert rel_err(r.grad_params["gamma"], num_gamma) < TOL
        assert np.allclose(r.grad_params["beta"], gy.sum(axis=(0, 2, 3)))


class TestSimpleOpBackward:
    def test_gelu(self):
        rng = Rng(7)
        x = rng.normal((3, 4), dtype=F64)
        check_input_grad(gelu, gelu_backward, x, rng)

    def test_global_avg_pool(self):
        rng = Rng(8)
        x = rng.normal((2, 3, 4, 4), dtype=F64)
        check_input_grad(global_avg_pool, global_avg_pool_backward, x, rng)

    def test_linear(self):
        rng = Rng(9)
        layer = LinearLayer.create(6, 4, rng=rng, dtype=F64)
        layer.bias.value[:] = rng.normal((4,), dtype=F64)
        x = rng.normal((3, 6), dtype=F64)
        gy = rng.normal((3, 4), dtype=F64)
        r = linear_backward(x, layer, gy)
        num_x = fd_grad(lambda t: float(np.sum(linear(t, layer) * gy)), x.copy())
        assert rel_err(r.grad_input, num_x) < 1e-6

        num_w = fd_grad(lambda _: float(np.sum(linear(x, layer) * gy)), layer.weight.value)
        assert rel_err(r.grad_params["weight"], num_w) < 1e-6

    def test_softmax_cross_entropy(self):
        rng = Rng(10)
        logits = rng.normal((3, 5), dtype=F64)
        labels = [0, 2, 4]
        _, grad = softmax_cross_entropy(logits, labels)
        num = fd_grad(lambda t: softmax_cross_entropy(t, labels)[0], logits.copy())
        assert rel_err(grad, num) < 1e-6


def block_grad_check(block, x, rng, seed_params=True):
    """Compare block.backward's input gradient against finite differences,
    and spot-check a couple of parameter gradients."""
    if seed_params:
        for _, p in block.named_params():
            if p.value.ndim >= 1 and np.all(p.value == 0):
                p.value[...] = rng.normal(p.value.shape, std=0.05, dtype=F64)
    gy = rng.normal(block.forward(x, []).shape, dtype=F64)

    def loss(t):
        return float(np.sum(block.forward(t, []) * gy))

    tape = []
    block.forward(x, tape)
    analytical = block.backward(gy, tape)
    numerical = fd_grad(loss, x.copy())
    assert rel_err(analytical, numerical) < TOL

    params = list(block.named_params())
    for name, p in (params[0], params[-1]):
        block.forward(x, tape)
        for _, q in params:
            q.zero_grad()
        block.backward(gy, tape)
        num_p = fd_grad(lambda _: loss(x), p.value)  # perturbs the parameter in place
        assert rel_err(p.grad, num_p) < TOL, f"param {name}"


class TestBlockBackward:
    def test_stem(self):
        rng = Rng(11)
        block = StemBlock(3, 4, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((1, 3, 8, 8), dtype=F64), rng)

    def test_inverted_residual(self):
        rng = Rng(12)
        block = InvertedResidualBlock(3, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((2, 3, 5, 5), dtype=F64), rng)

    def test_downsample(self):
        rng = Rng(13)
        block = DownsampleBlock(3, 5, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((1, 3, 6, 6), dtype=F64), rng)

    def test_mldc(self):
        rng = Rng(14)
        block = MldcBlock(2, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((1, 2, 7, 7), dtype=F64), rng)

    def test_mldc_gelu_per_branch(self):
        rng = Rng(15)
        block = MldcBlock(2, gelu_per_branch=True, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((1, 2, 6, 6), dtype=F64), rng)

    def test_mldc_no_cpe(self):
        rng = Rng(16)
        block = MldcBlock(2, use_cpe=False, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((1, 2, 6, 6), dtype=F64), rng)

    def test_mldc_pointwise_mixer(self):
        rng = Rng(17)
        block = MldcBlock(3, mixer_mode="pointwise", rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((1, 3, 5, 5), dtype=F64), rng)

    def test_lkffn(self):
        rng = Rng(18)
        block = LkFfnBlock(2, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((1, 2, 7, 7), dtype=F64), rng)

    def test_head_plain(self):
        rng = Rng(19)
        block = HeadBlock(4, 3, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((2, 4, 3, 3), dtype=F64), rng)

    def test_head_hidden(self):
        rng = Rng(20)
        block = HeadBlock(4, 3, hidden=6, rng=rng, dtype=F64)
        block_grad_check(block, rng.normal((2, 4, 3, 3), dtype=F64), rng)

    def test_full_dilated_conv_block(self):
        # end-to-end gradient through MLDC + large-kernel FFN
        rng = Rng(21)
        block = DilatedConvBlock(MldcBlock(2, rng=rng, dtype=F64),
                                 LkFfnBlock(2, rng=rng, dtype=F64))
        x = rng.normal((1, 2, 8, 8), dtype=F64)
        gy = rng.normal((1, 2, 8, 8), dtype=F64)

        def loss(t):
            return float(np.sum(block.forward(t, []) * gy))

        tape = []
        block.forward(x, tape)
        analytical = block.backward(gy, tape)
        numerical = fd_grad(loss, x.copy())
        assert rel_err(analytical, numerical) < TOL

    def test_backward_without_forward_raises(self):
        rng = Rng(22)
        block = LkFfnBlock(2, rng=rng, dtype=F64)
        with pytest.raises(Exception):
            block.backward(rng.normal((1, 2, 4, 4), dtype=F64), [])
