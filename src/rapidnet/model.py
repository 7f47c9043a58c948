"""Model configuration registry and builder.

A built model is a conv stem, four stages of blocks with downsample layers
between them, and a classifier head.  Stages 1-2 hold inverted residual
blocks only; stages 3-4 append dilated convolution blocks after the IRBs,
each one an MLDC block and a large-kernel FFN block in sequence.
`build_model` writes that order down once, as the model's list of named
blocks; forward, backward, naming, fusion and analysis all walk that list,
and the model's `dtype` and `fused` are read off it.
Variant configurations (ti/s/m/b) follow the published architecture table;
`micro` is a tiny non-standard variant for fast tests.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import blas
from .blocks import (
    DISCARD,
    MIXER_MODES,
    DownsampleBlock,
    HeadBlock,
    InvertedResidualBlock,
    LkFfnBlock,
    MldcBlock,
    StemBlock,
)
from .errors import ConfigError, GeometryError, ShapeError, StateError
from .ops import BatchNorm2d, Param
from .tensor import Rng, resolve_dtype


def _plain(value):
    """`value` as a JSON-ready scalar: any non-bool integer becomes an int."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return value


@dataclass(frozen=True)
class StageConfig:
    channels: int
    n_irb: int
    n_dcb: int


@dataclass(frozen=True)
class ModelConfig:
    stages: Tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    num_classes: int = 1000
    mixer_mode: str = "mldc"
    dilations: Tuple[int, int] = (2, 3)
    mixer_kernel: int = 3
    use_cpe: bool = True
    lk_ffn: bool = True
    gelu_per_branch: bool = False
    head_hidden: Optional[int] = None
    seed: int = 0
    variant: str = "custom"

    def validate(self) -> None:
        if len(self.stages) != 4:
            raise ConfigError(f"expected 4 stages, got {len(self.stages)}")
        # a checkpoint's JSON can carry any type: refuse before comparing
        integral = [(f"a stage {i + 1} entry", v)
                    for i, st in enumerate(self.stages) for v in astuple(st)]
        if not isinstance(self.dilations, (tuple, list)) or len(self.dilations) != 2:
            raise ConfigError(f"dilations must be a pair, got {self.dilations!r}")
        integral += [("a dilation", d) for d in self.dilations]
        integral += [("num_classes", self.num_classes), ("mixer_kernel", self.mixer_kernel),
                     ("seed", self.seed)]
        if self.head_hidden is not None:
            integral.append(("head_hidden", self.head_hidden))
        for name, value in integral:
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("use_cpe", "lk_ffn", "gelu_per_branch"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if not isinstance(self.variant, str):
            raise ConfigError(f"variant must be a string, got {self.variant!r}")
        for i, st in enumerate(self.stages):
            if st.channels < 1 or st.n_irb < 0 or st.n_dcb < 0:
                raise ConfigError(f"stage {i + 1} has invalid counts: {st}")
            if i < 2 and st.n_dcb != 0:
                raise ConfigError(f"stage {i + 1} must not contain dilated conv blocks")
        if self.stages[0].channels % 2 != 0:
            raise ConfigError("stage-1 channel count must be even (stem runs at half width)")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.mixer_mode not in MIXER_MODES:
            raise ConfigError(f"unknown mixer_mode {self.mixer_mode!r}; "
                              f"expected one of {MIXER_MODES}")
        if self.mixer_kernel < 1 or self.mixer_kernel % 2 == 0:
            raise ConfigError(f"mixer_kernel must be odd and >= 1, got {self.mixer_kernel}")
        da, db = self.dilations
        if da < 1 or db < 1:
            raise ConfigError(f"dilations must be >= 1, got {self.dilations}")
        if self.mixer_mode == "mldc" and not (2 <= da < db):
            raise ConfigError("mldc mode requires strictly increasing dilations, each >= 2; "
                              f"got {self.dilations}")
        if self.head_hidden is not None and self.head_hidden < 1:
            raise ConfigError(f"head_hidden must be >= 1, got {self.head_hidden}")

    def to_dict(self) -> dict:
        """Every field in declaration order; tuples become JSON lists and
        integers (numpy ones too, which `validate` accepts) plain ints."""
        d = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        d["stages"] = [[int(v) for v in astuple(st)] for st in self.stages]
        d["dilations"] = [int(v) for v in self.dilations]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of `to_dict`; every field is required, extra keys are ignored."""
        kw = {f.name: d[f.name] for f in fields(cls)}
        kw["stages"] = tuple(StageConfig(*s) for s in kw["stages"])
        kw["dilations"] = tuple(kw["dilations"])
        return cls(**kw)


# Stage tables: (channels, n_irb, n_dcb) per stage.
_VARIANT_STAGES = {
    "ti": ((32, 2, 0), (64, 2, 0), (112, 6, 2), (224, 2, 2)),
    "s": ((32, 3, 0), (64, 3, 0), (112, 9, 3), (224, 3, 3)),
    "m": ((32, 3, 0), (64, 3, 0), (160, 9, 3), (320, 3, 3)),
    "b": ((64, 3, 0), (128, 3, 0), (224, 9, 3), (416, 3, 3)),
    # Non-standard tiny variant for CI; not part of the published family.
    "micro": ((8, 1, 0), (16, 1, 0), (24, 1, 1), (32, 1, 1)),
}

# Hidden width of the classifier MLP for the published variants.  The micro
# variant uses the plain linear head.
_HEAD_HIDDEN = 1280

VARIANTS = tuple(_VARIANT_STAGES)


def default_config(variant: str) -> ModelConfig:
    """Configuration for a named variant with default flags."""
    key = variant.lower()
    if key not in _VARIANT_STAGES:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    stages = tuple(StageConfig(*s) for s in _VARIANT_STAGES[key])
    if key == "micro":
        return ModelConfig(stages=stages, num_classes=8, head_hidden=None, variant=key)
    return ModelConfig(stages=stages, num_classes=1000, head_hidden=_HEAD_HIDDEN, variant=key)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class RapidNetModel:
    """A built network: one ordered list of named blocks (stem, four stages
    with interleaved downsamples, head) that every walker reads.

    `mode` ("train" or "eval") is stored only here.  An eval-mode forward is
    pure.  A train-mode forward updates BN running statistics and records
    on one tape what every block's backward reads, which `backward` consumes
    and `set_mode` drops.  An eval-mode forward of N >= 2 samples splits the
    batch into `workers(N)` contiguous slices, one per usable CPU.  Slice 0
    runs on the caller's thread and the rest on an executor made for the
    call, whose threads end with it, all with OpenBLAS pinned to one thread
    (`blas.one_thread`); the head then runs once over the joined features.
    The logits are bitwise those of the unsliced forward at one BLAS
    thread, and a slice's error is raised only after every slice has
    finished.  `dtype` and `fused` are read off the blocks, not stored.
    Blocks are named stem, stage{i}.irb{j}, stage{i}.dcb{j}.mldc,
    stage{i}.dcb{j}.ffn, down{i} and head; parameter names are
    <block>.<layer>.<tensor> (see `iter_params`).
    """

    def __init__(self, config: ModelConfig, blocks: List[Tuple[str, object]]):
        self.config = config
        self._blocks = list(blocks)
        self.mode = "eval"
        self._tape: Optional[list] = None  # the last train-mode forward's record

    # -- structure ---------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The first layer's dtype, which every tensor shares."""
        return next(self._blocks[0][1].named_layers())[1].weight.value.dtype

    @property
    def fused(self) -> bool:
        """True when no BN layer is left; an unfused stem always holds two."""
        return next(self.iter_batchnorms(), None) is None

    def set_mode(self, mode: str) -> None:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        self.mode = mode
        self._tape = None

    def iter_batchnorms(self) -> Iterator[BatchNorm2d]:
        """Every BatchNorm2d layer in the structure (none after fusion)."""
        for _, blk in self.named_blocks():
            for _, layer in blk.named_layers():
                if isinstance(layer, BatchNorm2d):
                    yield layer

    def named_blocks(self) -> List[Tuple[str, object]]:
        """(name, block) pairs in forward order."""
        return self._blocks

    def iter_params(self) -> List[Tuple[str, Param]]:
        params = []
        for bname, blk in self.named_blocks():
            for pname, p in blk.named_params():
                params.append((f"{bname}.{pname}", p))
        return params

    def iter_buffers(self) -> List[Tuple[str, np.ndarray]]:
        bufs = []
        for bname, blk in self.named_blocks():
            for name, buf in blk.named_buffers():
                bufs.append((f"{bname}.{name}", buf))
        return bufs

    def zero_grad(self) -> None:
        for _, p in self.iter_params():
            p.zero_grad()

    # -- execution ---------------------------------------------------------

    def workers(self, n: int) -> int:
        """Batch slices a forward of n samples runs as: 1 in train mode (BN's
        batch statistics couple the samples) or without a pinnable OpenBLAS,
        else one per usable CPU, at most n."""
        if self.mode == "train" or blas.threads() is None:
            return 1
        return min(n, _usable_cpus())

    def forward(self, x: np.ndarray, *, record: bool = True) -> np.ndarray:
        """Logits of the (N, 3, H, W) batch `x` of the model's dtype, N >= 1; a
        bad input raises a rapidnet error before any BN buffer or tape changes.

        In train mode, `record=False` runs BN on batch statistics and moves
        its running estimates but records nothing (`blocks.DISCARD`), for a
        pass that no `backward` follows."""
        if not isinstance(x, np.ndarray):
            raise ShapeError(f"model input must be a numpy array, got {type(x).__name__}")
        if x.dtype != self.dtype:
            raise ShapeError(f"model input must be {self.dtype}, got {x.dtype}")
        if x.ndim != 4:
            raise ShapeError(f"model input must be 4-D (N,3,H,W), got {x.shape}")
        if x.shape[0] == 0:
            raise ShapeError(f"model input holds no samples: {x.shape}")
        _, first = next(self._blocks[0][1].named_layers())
        if x.shape[1] != first.in_channels:
            raise ShapeError(f"model expects {first.in_channels}-channel input, "
                             f"got {x.shape[1]}")
        if min(x.shape[2:]) < 32 or x.shape[2] % 32 != 0 or x.shape[3] % 32 != 0:
            raise GeometryError(f"input resolution {x.shape[2]}x{x.shape[3]} "
                                "must be a positive multiple of 32")
        self._tape = None  # a failed forward leaves no record behind
        workers = self.workers(len(x))
        if workers == 1:
            tape = None if self.mode == "eval" else [] if record else DISCARD
            out = self._run(x, tape, self._blocks)
            self._tape = None if tape is DISCARD else tape
            return out
        # The head runs once over the whole batch: its matmuls have one row
        # per sample, and numpy runs a one-row matmul as gemv, which rounds
        # unlike the gemm of a larger slice.
        body, head = self._blocks[:-1], self._blocks[-1:]
        bounds = [len(x) * i // workers for i in range(workers + 1)]
        with blas.one_thread():
            # the executor's exit waits for every slice: none outlives the pin,
            # nor the call that raised, and its threads end with the call
            with ThreadPoolExecutor(workers - 1, thread_name_prefix="rapidnet-slice") as pool:
                futures = [pool.submit(self._run, x[lo:hi], None, body)
                           for lo, hi in zip(bounds[1:-1], bounds[2:])]
                first = self._run(x[:bounds[1]], None, body)
            features = np.concatenate([first] + [f.result() for f in futures])
            return self._run(features, None, head)

    @staticmethod
    def _run(x: np.ndarray, tape: Optional[list], blocks) -> np.ndarray:
        for _, blk in blocks:
            x = blk.forward(x, tape)
        return x

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Propagate loss gradients back through the whole network.

        Consumes the preceding train-mode forward's tape, accumulates into
        each parameter's grad slot and returns the gradient w.r.t. the input.
        """
        if self._tape is None:
            raise StateError("backward needs a train-mode forward since the last backward")
        tape, self._tape = self._tape, None
        g = grad_logits
        for _, blk in reversed(self._blocks):
            g = blk.backward(g, tape)
        return g


def build_model(cfg: ModelConfig, dtype="f32", *, init: bool = True) -> RapidNetModel:
    """Construct and deterministically initialize a model from its config.

    With `init=False` every conv and linear tensor is zero-filled instead of
    drawn from the seeded He/normal init: the structure for callers that
    read only shapes or overwrite every tensor (`weights_io.load`).  Zero
    pages stay untouched until something writes them.
    """
    cfg.validate()
    dt = resolve_dtype(dtype)
    kw = dict(rng=Rng(cfg.seed) if init else None, dtype=dt)

    blocks: List[Tuple[str, object]] = [("stem", StemBlock(3, cfg.stages[0].channels, **kw))]
    for i, st in enumerate(cfg.stages, start=1):
        for j in range(st.n_irb):
            blocks.append((f"stage{i}.irb{j}", InvertedResidualBlock(st.channels, **kw)))
        for j in range(st.n_dcb):
            blocks.append((f"stage{i}.dcb{j}.mldc", MldcBlock(
                st.channels, dilations=cfg.dilations, kernel=cfg.mixer_kernel,
                mixer_mode=cfg.mixer_mode, use_cpe=cfg.use_cpe,
                gelu_per_branch=cfg.gelu_per_branch, **kw)))
            blocks.append((f"stage{i}.dcb{j}.ffn",
                           LkFfnBlock(st.channels, large_kernel=cfg.lk_ffn, **kw)))
        if i < 4:
            blocks.append((f"down{i}", DownsampleBlock(st.channels, cfg.stages[i].channels, **kw)))
    blocks.append(("head", HeadBlock(cfg.stages[3].channels, cfg.num_classes,
                                     hidden=cfg.head_hidden, **kw)))
    return RapidNetModel(cfg, blocks)
