"""Structural reparameterization for inference.

Two rewrites, both function-preserving:

* the training-time identity skip around the 7x7 depthwise conv is folded
  into the kernel (center tap += 1), so `x + dw(x)` becomes a single conv;
* every eval-mode BN is folded into the preceding convolution's weight and
  bias, leaving a BN-free graph.

Outer block residuals wrap non-linear paths and are kept as explicit adds.
Both rewrites act on the blocks' stage plans: a fused block is a shallow copy
whose plan holds the folded convs with no BN and no skip.  `fuse_model` is
that copy mapped over the model's block list, with the fusion counts read
off the source model; `fused_structure` is the same walk with the folding
left out, for a loader that fills every tensor itself.
`reparameterize_model` adds a seeded two-forward equivalence check.  Both
`fuse_model` and `reparameterize_model` return a new model and leave the
input model untouched.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .blocks import Stage, stages
from .errors import FusionError, ShapeError, StateError
from .model import RapidNetModel
from .ops import BatchNorm2d, Conv2dLayer, LinearLayer
from .tensor import Rng


@dataclass
class FusionReport:
    fused_skips: int
    folded_bns: int
    max_abs_logit_diff: float


def fuse_identity_into_dw(dw: Conv2dLayer) -> Conv2dLayer:
    """Fold an identity skip into a depthwise conv: fused(x) == x + dw(x).

    Requires a stride-1 depthwise conv with an odd kernel and "same"
    padding, so that the identity map is expressible as a center tap.
    """
    k = dw.kernel_size
    depthwise = dw.groups == dw.in_channels == dw.out_channels
    if not depthwise:
        raise FusionError("identity fusion requires a depthwise conv "
                          f"(groups={dw.groups}, in={dw.in_channels}, out={dw.out_channels})")
    if k % 2 == 0:
        raise FusionError(f"identity fusion requires an odd kernel, got k={k}")
    if dw.stride != 1:
        raise FusionError(f"identity fusion requires stride 1, got stride={dw.stride}")
    if dw.padding != dw.dilation * (k - 1) // 2:
        raise FusionError(f"identity fusion requires same-padding p={dw.dilation * (k - 1) // 2}, "
                          f"got p={dw.padding}")
    w = dw.weight.value.copy()
    w[:, 0, k // 2, k // 2] += 1.0
    b = dw.bias.value.copy() if dw.bias is not None else None
    return Conv2dLayer(w, b, stride=dw.stride, padding=dw.padding,
                       dilation=dw.dilation, groups=dw.groups)


def fold_bn_into_conv(conv: Conv2dLayer, bn: BatchNorm2d) -> Conv2dLayer:
    """Fold BN as eval mode runs it (running estimates) into the preceding conv:
    folded(x) == batchnorm_forward(conv(x), bn)."""
    if bn.channels != conv.out_channels:
        raise ShapeError(f"BN channels {bn.channels} != conv out_channels {conv.out_channels}")
    scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
    w = conv.weight.value * scale[:, None, None, None]
    b0 = conv.bias.value if conv.bias is not None else 0.0
    b = bn.beta.value + (b0 - bn.running_mean) * scale
    dt = conv.weight.value.dtype
    return Conv2dLayer(w.astype(dt, copy=False), b.astype(dt, copy=False),
                       stride=conv.stride, padding=conv.padding,
                       dilation=conv.dilation, groups=conv.groups)


def _clone(layer):
    if isinstance(layer, LinearLayer):
        return LinearLayer(layer.weight.value.copy(), layer.bias.value.copy())
    b = layer.bias.value.copy() if layer.bias is not None else None
    return Conv2dLayer(layer.weight.value.copy(), b, stride=layer.stride,
                       padding=layer.padding, dilation=layer.dilation, groups=layer.groups)


def _folded_conv(st: Stage):
    """The stage's conv with its skip folded into the kernel and its BN into the conv."""
    # each rewrite returns fresh tensors, so only an untouched conv needs a copy
    conv = fuse_identity_into_dw(st.conv) if st.skip else st.conv
    if st.bn is not None:
        conv = fold_bn_into_conv(conv, st.bn)
    elif not st.skip:
        conv = _clone(conv)
    return conv


def _unfolded_conv(st: Stage):
    """The stage's conv as `_folded_conv` shapes it, with no arithmetic: its own
    tensors, plus a zero bias where folding a BN would add one."""
    conv = st.conv
    if st.bn is None or conv.bias is not None:
        return conv
    w = conv.weight.value
    return Conv2dLayer(w, np.zeros(conv.out_channels, dtype=w.dtype), stride=conv.stride,
                       padding=conv.padding, dilation=conv.dilation, groups=conv.groups)


def _fuse_block(block, fuse_conv=_folded_conv):
    """Copy of `block` whose stages hold `fuse_conv(stage)` with no BN and no skip."""
    def fuse_stage(st: Stage) -> Stage:
        if st.conv is None:
            return st
        return st._replace(conv=fuse_conv(st), bn=None, skip=False)

    out = copy.copy(block)
    out.plan = [group._replace(stages=[fuse_stage(st) for st in group.stages])
                for group in block.plan]
    return out


def _fused(model: RapidNetModel, fuse_conv) -> RapidNetModel:
    """The model's block list with every block passed through `_fuse_block`."""
    if model.mode != "eval":
        raise StateError("fusion requires an eval-mode model")
    return RapidNetModel(model.config, [(name, _fuse_block(blk, fuse_conv))
                                        for name, blk in model.named_blocks()])


def fuse_model(model: RapidNetModel) -> Tuple[RapidNetModel, int, int]:
    """Fuse CPE skips and fold all BN layers; returns (fused_model, skips, bns).

    The structural rewrite alone, with no equivalence check: every conv and
    linear layer keeps its name, shape and geometry.  The input model must
    be in eval mode and is not mutated.
    """
    fused = _fused(model, _folded_conv)
    skips = sum(st.skip for _, blk in model.named_blocks() for st in stages(blk.plan))
    return fused, skips, count_batchnorms(model)


def fused_structure(model: RapidNetModel) -> RapidNetModel:
    """The structure `fuse_model` returns (names, shapes, geometry, dtype), without its arithmetic.

    For a caller that overwrites every tensor next, as `weights_io.load` of a
    fused checkpoint does: no skip or BN is folded, and each conv keeps the
    source model's tensors, so the source model must not be used afterwards.
    """
    return _fused(model, _unfolded_conv)


def reparameterize_model(model: RapidNetModel) -> tuple:
    """Fuse CPE skips and fold all BN layers; returns (fused_model, report).

    The report records the fusion counts and the max-abs logit difference
    between the source and fused models on one seeded random 1x3x64x64
    input.  Reparameterizing an already-fused model is a no-op (zero
    counts).  The input model must be in eval mode and is not mutated.
    """
    fused, skips, bns = fuse_model(model)
    rng = Rng(model.config.seed ^ 0x5EED)
    x = rng.normal((1, 3, 64, 64), dtype=model.dtype)
    diff = float(np.max(np.abs(model.forward(x) - fused.forward(x))))
    report = FusionReport(fused_skips=skips, folded_bns=bns, max_abs_logit_diff=diff)
    return fused, report


def count_batchnorms(model: RapidNetModel) -> int:
    """Number of BatchNorm2d layers reachable in the model structure."""
    return sum(1 for _ in model.iter_batchnorms())


def recalibrate_bn(model: RapidNetModel, x: np.ndarray) -> None:
    """Re-estimate every BN's running statistics on a calibration batch.

    One train-mode pass at momentum 1 sets each running mean/var to the
    activation statistics actually observed under `x`.  A freshly
    initialized network has placeholder statistics that activations drift
    away from layer by layer; recalibrating (or training) restores the
    bounded-activation regime that eval mode and BN folding assume.

    The batch should be large enough that every BN layer sees several
    samples per channel (N * H * W at the deepest stage), or the variance
    estimates degenerate and eval-mode scales blow up.  The pass records
    nothing (`forward(x, record=False)`), so each activation is freed as the
    forward moves on, and restoring the mode drops any tape recorded
    before.  A bad `x` raises the forward's error with the BN buffers, the
    class-wide momentum and the mode as they were.
    """
    bns = list(model.iter_batchnorms())
    for bn in bns:
        bn.momentum = 1.0
    prev_mode = model.mode
    model.set_mode("train")
    try:
        model.forward(x, record=False)
    finally:
        model.set_mode(prev_mode)
        for bn in bns:
            del bn.momentum  # back to the class-wide 0.1
