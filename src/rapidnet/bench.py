"""Micro-benchmark harness with a trimmed-measurement protocol.

Each case runs `iters_per_round` forward passes per timed round, for
`rounds` rounds after a warm-up; the `trim` lowest and highest round times
are discarded before averaging.  Wall-clock numbers are reported, never
asserted: host variance cannot support hard thresholds.  The MAC
annotations, by contrast, are exact and shared with the analysis module.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import block_conv_macs, conv_macs, count_macs
from .blas import threads as blas_threads
from .blocks import MldcBlock
from .model import build_model, default_config
from .ops import Conv2dLayer, conv2d
from .reparam import reparameterize_model
from .tensor import Rng

BENCH_CASES = ("dilated3x3", "dense_kxk", "depthwise", "mldc_block", "pw_mixer", "model")


@dataclass
class BenchProtocol:
    rounds: int = 50
    iters_per_round: int = 50
    trim: int = 10
    warmup: int = 3

    def validate(self) -> None:
        if self.rounds < 1 or self.iters_per_round < 1 or self.trim < 0 or self.warmup < 0:
            raise ValueError("rounds/iters must be >= 1, trim and warmup >= 0")
        if 2 * self.trim >= self.rounds:
            raise ValueError(f"trim {self.trim} discards all {self.rounds} rounds")


@dataclass
class BenchResult:
    label: str
    shape: List[int]
    macs: int
    round_times_ns: List[int]
    trimmed_mean_ns: float
    median_ns: float
    min_ns: int
    threads: Optional[int]
    workers: Optional[int]  # batch slices the "model" case's forward ran; None for op cases

    def to_json_line(self) -> str:
        return json.dumps(asdict(self))


def trimmed_stats(times: Sequence[float], trim: int) -> Tuple[float, float, float]:
    """(trimmed mean, median, min) of the round times.

    The mean is taken over the sorted interior after dropping the `trim`
    lowest and `trim` highest values; median and min cover all samples.
    """
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got {trim}")
    if 2 * trim >= len(times):
        raise ValueError(f"trim {trim} discards all {len(times)} samples")
    ordered = sorted(times)
    interior = ordered[trim:len(ordered) - trim] if trim else ordered
    return (statistics.fmean(interior), statistics.median(ordered), ordered[0])


def _time_case(fn: Callable[[], None], protocol: BenchProtocol) -> List[int]:
    for _ in range(protocol.warmup):
        fn()
    rounds = []
    for _ in range(protocol.rounds):
        t0 = time.perf_counter_ns()
        for _ in range(protocol.iters_per_round):
            fn()
        rounds.append(time.perf_counter_ns() - t0)
    return rounds


def bench_case(case: str, shape: Sequence[int], protocol: BenchProtocol, *,
               dilation: int = 3, kernel: int = 7, variant: str = "ti",
               fused: bool = False, seed: int = 0) -> BenchResult:
    """Time one benchmark case and annotate it with its exact MAC count.

    `shape` is the input (N, C, H, W); for the "model" case C must be 3 and
    H, W divisible by 32.  Cases: "dilated3x3" (dense 3x3 conv at the given
    dilation), "dense_kxk" (dense k x k conv), "depthwise" (k x k depthwise
    conv at the given dilation, C >= 2), "mldc_block", "pw_mixer"
    (MLDC block with a pointwise mixer), "model" (full variant forward,
    optionally reparameterized).  The result's `threads` is what OpenBLAS
    reports outside the timed calls.  A "model" forward of N >= 2 runs as
    `workers` batch slices, one per usable CPU, with OpenBLAS pinned to one
    thread meanwhile (see `RapidNetModel.forward`); the op cases leave
    numpy's threading as it is.
    """
    protocol.validate()
    if case not in BENCH_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {BENCH_CASES}")
    n, c, h, w = (int(v) for v in shape)
    rng = Rng(seed)
    workers = None
    x = rng.normal((n, c, h, w), dtype=np.float32)

    if case == "dilated3x3":
        conv = Conv2dLayer.create(c, c, 3, padding=dilation, dilation=dilation,
                                  rng=rng, dtype=np.float32)
        macs = conv_macs(conv, h, w, n)
        fn = lambda: conv2d(x, conv)
        label = f"dilated3x3(d={dilation})"
    elif case == "dense_kxk":
        conv = Conv2dLayer.create(c, c, kernel, padding=(kernel - 1) // 2,
                                  rng=rng, dtype=np.float32)
        macs = conv_macs(conv, h, w, n)
        fn = lambda: conv2d(x, conv)
        label = f"dense_{kernel}x{kernel}"
    elif case == "depthwise":
        if c < 2:
            raise ValueError(f"depthwise case needs C >= 2 channels, got {shape}")
        conv = Conv2dLayer.create(c, c, kernel, padding=dilation * (kernel - 1) // 2,
                                  dilation=dilation, groups=c, rng=rng, dtype=np.float32)
        macs = conv_macs(conv, h, w, n)
        fn = lambda: conv2d(x, conv)
        label = f"depthwise_{kernel}x{kernel}(d={dilation})"
    elif case in ("mldc_block", "pw_mixer"):
        mode = "mldc" if case == "mldc_block" else "pointwise"
        block = MldcBlock(c, mixer_mode=mode, rng=rng, dtype=np.float32)
        macs = block_conv_macs(block, h, w) * n
        fn = lambda: block.forward(x)
        label = case
    else:
        if c != 3 or h != w or h % 32 != 0:
            raise ValueError(f"model case needs shape N,3,R,R with R divisible by 32, got {shape}")
        model = build_model(default_config(variant))
        if fused:
            model, _ = reparameterize_model(model)
        macs = count_macs(model, h) * n
        fn = lambda: model.forward(x)
        workers = model.workers(n)
        label = f"model({variant}{', fused' if fused else ''})"

    rounds = _time_case(fn, protocol)
    mean, median, tmin = trimmed_stats(rounds, protocol.trim)
    return BenchResult(label=label, shape=[n, c, h, w], macs=macs,
                       round_times_ns=rounds, trimmed_mean_ns=mean,
                       median_ns=median, min_ns=int(tmin), threads=blas_threads(),
                       workers=workers)
