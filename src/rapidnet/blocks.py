"""Network blocks: conv stem, inverted residual block, downsample,
multi-level dilated convolution (MLDC) block, large-kernel FFN, and the
classifier head.

Each block's constructor builds its layers once, straight into an ordered
stage plan stored as `block.plan`.  Every plan item is a `Parallel` group:
`Stage` records over one input (a conv, linear or pooling layer, then an
optional BN and GeLU, with an optional identity skip around the conv) whose
outputs are summed under one optional GeLU.  A constructor may list a lone
stage; the plan holds it as a group of one branch and no GeLU, so every
walker handles one item type.  No layer is held anywhere else.  A class-level
`residual` flag adds the block input to the plan's output.  The plan drives
the generic forward and backward below as well as parameter naming, BN and
skip fusion (`reparam` swaps in a rewritten plan) and cost and
receptive-field tracing (`analysis`), so a new block type is a plan here
plus the `model.build_model` line that appends it to the block list.

The paper's dilated conv block is an MLDC block followed by a large-kernel
FFN: a model holds the two as consecutive entries of its block list.
`DilatedConvBlock` chains the same pair for standalone use (gradient checks);
it has no plan of its own and is never a model entry.

Blocks hold no state but their layers.  `forward(x, tape=None)` runs the
block; the tape, a list the caller owns, is the only way train/eval reaches
a layer.  Without one the forward is eval mode and pure; with one, each BN
uses batch statistics and updates its running estimates, and the tape gets
exactly what backward reads.  Each stage pushes (x, y, stats, z, cdf): its
input x for the conv's (or pooling's) gradient; with a BN, the BN input y
and its `BatchStats` (batch mean, inv_std = 1 / sqrt(var + eps)); with a
GeLU, the GeLU input z and Phi(z).  Slots a stage has no layer for hold
None.  A group with a GeLU pushes its pre-GeLU sum and that sum's Phi; one
without pushes nothing.  `backward(grad_out, tape)` pops them in
reverse, accumulates parameter gradients and returns the gradient w.r.t.
the block input.  The `DISCARD` tape runs train mode and records nothing,
for a forward that no backward follows.  Blocks whose BN layers have been
folded away (see `reparam`) carry `None` in the BN slots and skip
normalization, and a fused CPE stage carries `skip=False`.

A forward whose tape records nothing (`None` or `DISCARD`) reuses buffers
that nothing else reads, through the ops' `out=`, with the bits of a
forward that allocates every result.  Each stage's BN and GeLU, and its
identity skip add, overwrite the stage's fresh conv, linear or pooling
output; a group sums its branches into the first branch's output and takes
its GeLU there; the residual is added into the plan's output.  Past the
first group the input of a group is the plan's own (the previous group's
output).  A group of one branch hands that input to its stage, so a stage
whose conv keeps that shape and reads it into buffers of its own (the IRB's
3x3 depthwise conv, `_dw_conv`) and has no identity skip writes its output
over it; a wider group's branches all read the same input, so none may.
The first group's input is never written: it is the caller's array, or a
batch slice's view of it, and the CPE skip and the block residual read it.
A recording tape disables all of this, since it holds those arrays for the
backward.
"""

from __future__ import annotations

from functools import reduce
from typing import List, NamedTuple, Optional, Union

import numpy as np

from .errors import GeometryError, ShapeError
from .ops import (
    BatchNorm2d,
    Conv2dLayer,
    LinearLayer,
    _conv_kind,
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
    out_shape,
)
from .tensor import Rng, add


class Stage(NamedTuple):
    """Layer `conv` -> optional BN -> optional GeLU.

    `conv` is a Conv2dLayer, a LinearLayer, or None for global average
    pooling.  With `skip`, the stage input is added to the conv output before
    the BN: an identity skip that fusion folds into the kernel.
    """

    name: str
    conv: Union[Conv2dLayer, LinearLayer, None]
    bn_name: str = ""
    bn: Optional[BatchNorm2d] = None
    act: bool = False
    skip: bool = False


class Parallel(NamedTuple):
    """Stages over one input whose outputs are summed, then an optional GeLU."""

    stages: List[Stage]
    act: bool


def stages(plan) -> List[Stage]:
    """Every stage of a plan in forward order, groups flattened."""
    return [st for group in plan for st in group.stages]


def _accumulate(layer, r) -> None:
    for name, p in layer.named_params():
        p.accumulate(r.grad_params[name])


class _Discard(list):
    """A tape that keeps nothing: see `DISCARD`."""

    def append(self, entry) -> None:
        pass


# The tape of a train-mode forward that no backward follows (BN
# recalibration): each BN takes batch statistics and moves its running
# estimates, and nothing is recorded, so every activation is freed as the
# forward moves on.
DISCARD = _Discard()


def _keeps(tape) -> bool:
    return tape is not None and tape is not DISCARD


def _stage_forward(st: Stage, x, tape, own: bool):
    keep = _keeps(tape)
    reuse = not keep  # no tape holds this stage's arrays, so each post-op overwrites them
    if st.conv is None:
        y = global_avg_pool(x)
    elif isinstance(st.conv, LinearLayer):
        y = linear(x, st.conv)
    else:
        y = conv2d(x, st.conv, out=x if reuse and own and _fills_own_input(st, x) else None)
    if st.skip:
        y = add(x, y, out=y if reuse else None)
    out, stats, z, cdf = y, None, None, None
    if st.bn is not None:
        out = batchnorm_forward(y, st.bn, tape is not None, keep_stats=keep,
                                out=y if reuse else None)
        if keep:
            out, stats = out
    if st.act:
        z, out = out, gelu(out, keep_cdf=keep, out=out if reuse else None)
        if keep:
            out, cdf = out
    if keep:
        tape.append((x, None if stats is None else y, stats, z, cdf))
    return out


def _fills_own_input(st: Stage, x) -> bool:
    """Whether the stage's conv may write its output over its input x: it keeps
    x's shape, no identity skip reads x after it, and it copies x into its own
    buffers before writing (`_dw_conv` one channel block at a time), where a
    pointwise matmul would make numpy copy all of x first."""
    h, w = x.shape[2:]
    return (not st.skip and _conv_kind(st.conv) == "depthwise"
            and out_shape(h, w, st.conv) == (h, w))


def _stage_backward(st: Stage, grad, tape):
    x, y, stats, z, cdf = tape.pop()
    if st.act:
        grad = gelu_backward(z, grad, cdf)
    if st.bn is not None:
        r = batchnorm_backward(y, st.bn, grad, stats)
        _accumulate(st.bn, r)
        grad = r.grad_input
    if st.conv is None:
        return global_avg_pool_backward(x, grad)
    if isinstance(st.conv, LinearLayer):
        r = linear_backward(x, st.conv, grad)
    else:
        r = conv2d_backward(x, st.conv, grad)
    _accumulate(st.conv, r)
    return r.grad_input + grad if st.skip else r.grad_input


def _parallel_forward(group: Parallel, x, tape, own: bool):
    reuse = not _keeps(tape)
    own = own and len(group.stages) == 1  # branches share x: none may write over it
    pre = reduce(lambda a, b: add(a, b, out=a if reuse else None),
                 [_stage_forward(st, x, tape, own) for st in group.stages])
    if not group.act:
        return pre
    if reuse:
        return gelu(pre, out=pre)
    out, cdf = gelu(pre, keep_cdf=True)
    tape.append((pre, cdf))
    return out


def _parallel_backward(group: Parallel, grad, tape):
    if group.act:
        pre, cdf = tape.pop()
        grad = gelu_backward(pre, grad, cdf)
    return reduce(np.add, [_stage_backward(st, grad, tape) for st in reversed(group.stages)])


class _Block:
    """Runs, names and exposes the layers of the block's stage plan."""

    residual = False    # add the block input to the plan's output
    input_multiple = 1  # input height and width must be multiples of this

    def __init__(self, plan):
        # groups in forward order; a lone stage is a group of one
        self.plan = [item if isinstance(item, Parallel) else Parallel([item], False)
                     for item in plan]

    def named_layers(self):
        """(name, layer) for every conv, linear and BN layer, in forward order."""
        for st in stages(self.plan):
            if st.conv is not None:
                yield st.name, st.conv
            if st.bn is not None:
                yield st.bn_name, st.bn

    def named_params(self):
        for name, layer in self.named_layers():
            for pname, p in layer.named_params():
                yield f"{name}.{pname}", p

    def named_buffers(self):
        for name, layer in self.named_layers():
            if isinstance(layer, BatchNorm2d):
                for bname, buf in layer.named_buffers():
                    yield f"{name}.{bname}", buf

    def forward(self, x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
        if tape is not None and not isinstance(tape, list):
            raise TypeError(f"tape must be a list or None, got {type(tape).__name__}")
        if x.ndim != 4:
            raise ShapeError(f"{type(self).__name__} expects a 4-D input, got {x.shape}")
        m = self.input_multiple
        if x.shape[2] % m or x.shape[3] % m:
            raise GeometryError(f"{type(self).__name__} input resolution "
                                f"{x.shape[2]}x{x.shape[3]} must be divisible by {m}")
        h = x
        for i, group in enumerate(self.plan):  # past the first group, h is the plan's own
            h = _parallel_forward(group, h, tape, own=i > 0)
        if not self.residual:
            return h
        return add(x, h, out=None if _keeps(tape) else h)

    def backward(self, grad_out: np.ndarray, tape: list) -> np.ndarray:
        g = grad_out
        for group in reversed(self.plan):
            g = _parallel_backward(group, g, tape)
        return grad_out + g if self.residual else g


def _conv_bn(name: str, bn_name: str, in_channels: int, out_channels: int, k: int, *,
             rng: Optional[Rng], dtype, act: bool = False, **geometry) -> Stage:
    """Stage of a bias-free conv followed by a BN."""
    conv = Conv2dLayer.create(in_channels, out_channels, k, bias=False, rng=rng,
                              dtype=dtype, **geometry)
    return Stage(name, conv, bn_name, BatchNorm2d.create(out_channels, dtype=dtype), act=act)


class StemBlock(_Block):
    """Two stride-2 3x3 conv+BN+GeLU stages; reduces resolution 4x."""

    input_multiple = 4

    def __init__(self, in_channels: int, out_channels: int, *,
                 rng: Optional[Rng] = None, dtype=np.float32):
        if out_channels % 2 != 0:
            raise ShapeError(f"stem output channels must be even, got {out_channels}")
        mid = out_channels // 2
        kw = dict(stride=2, padding=1, act=True, rng=rng, dtype=dtype)
        super().__init__([_conv_bn("conv1", "bn1", in_channels, mid, 3, **kw),
                          _conv_bn("conv2", "bn2", mid, out_channels, 3, **kw)])


class InvertedResidualBlock(_Block):
    """1x1 expand (ratio 4) -> 3x3 depthwise -> 1x1 project, residual around all."""

    residual = True

    def __init__(self, channels: int, *, rng: Optional[Rng] = None, dtype=np.float32):
        hidden = 4 * channels
        kw = dict(rng=rng, dtype=dtype)
        super().__init__([
            _conv_bn("expand", "bn1", channels, hidden, 1, act=True, **kw),
            _conv_bn("dw", "bn2", hidden, hidden, 3, padding=1, groups=hidden, act=True, **kw),
            _conv_bn("project", "bn3", hidden, channels, 1, **kw)])


class DownsampleBlock(_Block):
    """Stride-2 3x3 conv + BN; halves resolution, changes channel width."""

    def __init__(self, in_channels: int, out_channels: int, *,
                 rng: Optional[Rng] = None, dtype=np.float32):
        super().__init__([_conv_bn("conv", "bn", in_channels, out_channels, 3, stride=2,
                                   padding=1, rng=rng, dtype=dtype)])


MIXER_MODES = ("mldc", "sldc", "conv3x3", "pointwise")


class MldcBlock(_Block):
    """Spatial mixer block: reparameterizable 7x7 depthwise conv (with
    training-time identity skip), pointwise conv + BN, parallel dilated
    branches summed under one GeLU, pointwise conv + BN, outer residual.

    `mixer_mode` selects the branch set: "mldc" (two dilated convs), "sldc"
    (one dilated conv), "conv3x3" (one regular 3x3), "pointwise" (one 1x1).
    Branch i is the stage `branch_<t>` with BN `bn_<t>`, t = "ab"[i].
    """

    residual = True

    def __init__(self, channels: int, *, dilations=(2, 3), kernel: int = 3,
                 mixer_mode: str = "mldc", use_cpe: bool = True,
                 gelu_per_branch: bool = False,
                 rng: Optional[Rng] = None, dtype=np.float32):
        if mixer_mode not in MIXER_MODES:
            raise ValueError(f"unknown mixer_mode {mixer_mode!r}")
        if mixer_mode == "mldc":
            specs = [(kernel, dilations[0]), (kernel, dilations[1])]
        elif mixer_mode == "sldc":
            specs = [(kernel, dilations[0])]
        elif mixer_mode == "conv3x3":
            specs = [(3, 1)]
        else:  # pointwise
            specs = [(1, 1)]
        kw = dict(rng=rng, dtype=dtype)
        cpe = [Stage("cpe", Conv2dLayer.create(channels, channels, 7, padding=3,
                                               groups=channels, bias=True, **kw), skip=True)
               ] if use_cpe else []
        pw_in = _conv_bn("pw_in", "bn_in", channels, channels, 1, **kw)
        mixer = Parallel([_conv_bn(f"branch_{t}", f"bn_{t}", channels, channels, k,
                                   padding=d * (k - 1) // 2, dilation=d,
                                   act=gelu_per_branch, **kw)
                          for t, (k, d) in zip("ab", specs)], act=not gelu_per_branch)
        pw_out = _conv_bn("pw_out", "bn_out", channels, channels, 1, **kw)
        super().__init__(cpe + [pw_in, mixer, pw_out])


class LkFfnBlock(_Block):
    """Large-kernel FFN: 7x7 depthwise conv + BN, then a two-layer pointwise
    MLP (expansion 4) with GeLU; outer residual."""

    residual = True

    def __init__(self, channels: int, *, large_kernel: bool = True,
                 rng: Optional[Rng] = None, dtype=np.float32):
        k = 7 if large_kernel else 1
        hidden = 4 * channels
        kw = dict(rng=rng, dtype=dtype)
        dw = _conv_bn("dw", "bn1", channels, channels, k, padding=(k - 1) // 2,
                      groups=channels, **kw)
        fc1 = Stage("fc1", Conv2dLayer.create(channels, hidden, 1, bias=True, **kw), act=True)
        super().__init__([dw, fc1, _conv_bn("fc2", "bn2", hidden, channels, 1, **kw)])


class DilatedConvBlock:
    """MLDC block followed by the large-kernel FFN; shape preserving."""

    def __init__(self, mldc: MldcBlock, ffn: LkFfnBlock):
        self.mldc = mldc
        self.ffn = ffn

    def forward(self, x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
        return self.ffn.forward(self.mldc.forward(x, tape), tape)

    def backward(self, grad_out: np.ndarray, tape: list) -> np.ndarray:
        return self.mldc.backward(self.ffn.backward(grad_out, tape), tape)


class HeadBlock(_Block):
    """Global average pooling followed by the classifier MLP.

    With `hidden` set, the head is fc1 -> GeLU -> fc2; otherwise a single
    linear layer maps pooled features to class logits.
    """

    def __init__(self, channels: int, num_classes: int, *, hidden: Optional[int] = None,
                 rng: Optional[Rng] = None, dtype=np.float32):
        kw = dict(rng=rng, dtype=dtype)
        if hidden is None:
            fcs = [Stage("fc", LinearLayer.create(channels, num_classes, **kw))]
        else:
            fcs = [Stage("fc1", LinearLayer.create(channels, hidden, **kw), act=True),
                   Stage("fc2", LinearLayer.create(hidden, num_classes, **kw))]
        super().__init__([Stage("pool", None)] + fcs)
