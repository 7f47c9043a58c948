"""A self-contained CNN engine for a multi-level dilated-convolution mobile
backbone family, with static cost analysis, structural reparameterization,
serialization, a toy trainer, and a micro-benchmark harness.
"""

from . import analysis, bench, blocks, ops, reparam, tensor, trainer, weights_io
from .analysis import (
    AnalysisReport,
    LayerCost,
    composite_rf,
    count_macs,
    count_params,
    layer_trf,
    report,
)
from .bench import BenchProtocol, BenchResult, bench_case, trimmed_stats
from .blocks import (
    DilatedConvBlock,
    DownsampleBlock,
    HeadBlock,
    InvertedResidualBlock,
    LkFfnBlock,
    MldcBlock,
    StemBlock,
)
from .model import (
    ModelConfig,
    RapidNetModel,
    StageConfig,
    VARIANTS,
    build_model,
    default_config,
)
from .ops import (
    BatchNorm2d,
    Conv2dLayer,
    GradResult,
    LinearLayer,
    Param,
    conv2d,
    conv2d_backward,
    conv2d_naive,
    gelu,
    out_shape,
)
from .reparam import (
    FusionReport,
    fold_bn_into_conv,
    fuse_identity_into_dw,
    recalibrate_bn,
    reparameterize_model,
)
from .tensor import Rng, randn
from .trainer import AdamWState, SyntheticDataset, adamw_step, train_toy

__version__ = "0.1.0"
