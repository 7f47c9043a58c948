"""Static cost and receptive-field analysis.

Per-layer parameter counts, multiply-accumulate (MAC) counts traced through
the actual feature-map shapes at a given input resolution, theoretical
receptive fields, and a JSON-serializable report.

Conventions: 1 MAC = one multiply plus one accumulate; only convolution and
linear layers carry MACs.  BN, activations, residual adds, and pooling are
elementwise work, counted separately (one op per output element) and
reported under `elementwise_ops`.  The theoretical receptive field of a
k x k kernel with dilation d has side length (k - 1) * d + 1; in particular
a 3 x 3 kernel at dilation 3 covers a 7 x 7 field, the full final-stage
feature map of a 224-input network (7 x 7 after 32x reduction), which is
the coverage the dilated mixer's widest branch is sized to reach.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

from .blocks import Stage
from .errors import GeometryError
from .model import ModelConfig, RapidNetModel, build_model
from .ops import BatchNorm2d, Conv2dLayer, LinearLayer, effective_kernel, out_shape


def layer_trf(k: int, d: int) -> int:
    """Side length of the theoretical receptive field of a k x k kernel at dilation d."""
    if k < 1 or d < 1:
        raise ValueError(f"kernel and dilation must be >= 1, got k={k}, d={d}")
    return effective_kernel(k, d)


def conv_macs(conv: Conv2dLayer, out_h: int, out_w: int, n: int = 1) -> int:
    """MACs of one conv application: k*k*(C_in/groups)*C_out*H_out*W_out per sample."""
    k = conv.kernel_size
    return k * k * (conv.in_channels // conv.groups) * conv.out_channels * out_h * out_w * n


def linear_macs(layer: LinearLayer, n: int = 1) -> int:
    return layer.in_features * layer.out_features * n


@dataclass
class LayerCost:
    name: str
    params: int
    macs: int
    out_shape: List[int]
    k: int
    d: int
    trf: int


@dataclass
class AnalysisReport:
    variant: str
    resolution: int
    total_params: int
    total_macs: int
    composite_rf: int
    elementwise_ops: int
    layers: List[LayerCost]

    @property
    def total_gmacs(self) -> float:
        return round(self.total_macs / 1e9, 3)

    def to_dict(self) -> dict:
        # Stable key order: variant, resolution, total_params, total_gmacs,
        # composite_rf, elementwise_ops, layers.
        return {
            "variant": self.variant,
            "resolution": self.resolution,
            "total_params": self.total_params,
            "total_gmacs": self.total_gmacs,
            "composite_rf": self.composite_rf,
            "elementwise_ops": self.elementwise_ops,
            "layers": [asdict(layer) for layer in self.layers],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class _Trace:
    """Accumulates layer costs and elementwise counts while walking the model."""

    def __init__(self):
        self.layers: List[LayerCost] = []
        self.elementwise = 0

    def conv(self, name: str, conv: Conv2dLayer, h: int, w: int) -> Tuple[int, int]:
        oh, ow = out_shape(h, w, conv)
        params = conv.weight.value.size + (conv.bias.value.size if conv.bias is not None else 0)
        self.layers.append(LayerCost(
            name=name, params=params, macs=conv_macs(conv, oh, ow),
            out_shape=[1, conv.out_channels, oh, ow],
            k=conv.kernel_size, d=conv.dilation,
            trf=layer_trf(conv.kernel_size, conv.dilation)))
        return oh, ow

    def bn(self, name: str, bn: Optional[BatchNorm2d], c: int, h: int, w: int) -> None:
        if bn is None:
            return
        self.layers.append(LayerCost(name=name, params=2 * c, macs=0,
                                     out_shape=[1, c, h, w], k=1, d=1, trf=1))
        self.elementwise += c * h * w

    def linear(self, name: str, layer: LinearLayer) -> None:
        self.layers.append(LayerCost(
            name=name, params=layer.weight.value.size + layer.bias.value.size,
            macs=linear_macs(layer), out_shape=[1, layer.out_features],
            k=1, d=1, trf=1))

    def stage(self, prefix: str, st: Stage, c: int, h: int, w: int) -> Tuple[int, int, int]:
        """Append one stage's costs for a (c, h, w) input; returns its output dims."""
        if st.conv is None:  # global average pooling
            self.elementwise += c * h * w
            return c, 1, 1
        if isinstance(st.conv, LinearLayer):
            self.linear(prefix + st.name, st.conv)
            c, h, w = st.conv.out_features, 1, 1
        else:
            h, w = self.conv(prefix + st.name, st.conv, h, w)
            c = st.conv.out_channels
        if st.skip:
            self.elementwise += c * h * w
        self.bn(prefix + st.bn_name, st.bn, c, h, w)
        if st.act:
            self.elementwise += c * h * w
        return c, h, w


def _trace_block(tr: _Trace, name: str, block, c: int, h: int, w: int) -> Tuple[int, int, int]:
    """Append the block's layer costs for a (c, h, w) input; returns the output dims."""
    for group in block.plan:
        outs = [tr.stage(f"{name}.", st, c, h, w) for st in group.stages]
        c, h, w = outs[0]
        tr.elementwise += (len(outs) - 1 + group.act) * c * h * w  # branch sum, GeLU
    if block.residual:
        tr.elementwise += c * h * w
    return c, h, w


def _trace_model(model: RapidNetModel, resolution: int) -> _Trace:
    if resolution % 32 != 0 or resolution < 32:
        raise GeometryError(f"resolution {resolution} must be a positive multiple of 32")
    tr = _Trace()
    c, h, w = 3, resolution, resolution
    for name, block in model.named_blocks():
        c, h, w = _trace_block(tr, name, block, c, h, w)
    return tr


def count_params(model: RapidNetModel) -> int:
    """Total learnable scalars (BN running statistics excluded)."""
    return sum(p.value.size for _, p in model.iter_params())


def count_macs(model: RapidNetModel, resolution: int) -> int:
    """Total conv + linear MACs for one forward pass at resolution x resolution."""
    return sum(layer.macs for layer in _trace_model(model, resolution).layers)


def block_conv_macs(block, h: int, w: int) -> int:
    """MACs of a single block at the given input spatial dims (bench annotation)."""
    tr = _Trace()
    _trace_block(tr, "block", block, 0, h, w)  # only pooling reads the input channels
    return sum(layer.macs for layer in tr.layers)


def chain_rf(layers) -> int:
    """Receptive field of a sequential conv stack given (kernel, dilation, stride) triples."""
    r, j = 1, 1
    for k, d, s in layers:
        r += (layer_trf(k, d) - 1) * j
        j *= s
    return r


def composite_rf(model: RapidNetModel) -> int:
    """Receptive-field side length of the convolutional trunk at the head input.

    Standard recursion: r += (k_eff - 1) * jump, jump *= stride; parallel
    branches contribute their maximum; residual skips never shrink the
    field, so the conv path dominates.  Global pooling and the classifier
    are excluded.
    """
    chain = []
    for _, block in model.named_blocks():
        for group in block.plan:
            convs = [st.conv for st in group.stages if isinstance(st.conv, Conv2dLayer)]
            if convs:
                widest = max(convs, key=lambda c: layer_trf(c.kernel_size, c.dilation))
                chain.append((widest.kernel_size, widest.dilation, widest.stride))
    return chain_rf(chain)


def report(cfg: ModelConfig, resolution: int, model: Optional[RapidNetModel] = None
           ) -> AnalysisReport:
    """Full per-layer cost breakdown of the configured model at a resolution.

    Only shapes and conv geometry are read, so without `model` the structure
    is built zero-filled (`build_model(..., init=False)`).
    """
    if model is None:
        model = build_model(cfg, init=False)
    tr = _trace_model(model, resolution)
    total_params = sum(layer.params for layer in tr.layers)
    total_macs = sum(layer.macs for layer in tr.layers)
    return AnalysisReport(
        variant=cfg.variant,
        resolution=resolution,
        total_params=total_params,
        total_macs=total_macs,
        composite_rf=composite_rf(model),
        elementwise_ops=tr.elementwise,
        layers=tr.layers,
    )
