"""Toy-scale optimizer and training loop.

AdamW with decoupled weight decay drives a micro-scale model on a synthetic
blob-quadrant task: each image contains one bright Gaussian blob and the
label is the quadrant of the blob center.  The task is solvable in seconds
and exercises every block type end to end, which is what the loop is for;
it is not a benchmark-scale trainer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import StateError, TrainingDiverged
from .model import ModelConfig, RapidNetModel, build_model
from .ops import softmax_cross_entropy
from .tensor import Rng, arena_span


class _FlatMoments:
    """The flat form of an `AdamWState`: the parameter and gradient arena
    spans a step was handed, f64 moments laid out like them, and the pass's
    scratch."""

    def __init__(self, values: List[np.ndarray], grads: List[np.ndarray],
                 value_span: np.ndarray, grad_span: np.ndarray):
        self.values, self.grads = values, grads  # what later steps are checked against
        self.p, self.g = value_span, grad_span
        self.m, self.v, self.s, self.t = (np.zeros(value_span.size) for _ in range(4))
        self.q = np.zeros_like(value_span)

    def matches(self, values: List[np.ndarray], grads: List[np.ndarray]) -> bool:
        return (len(values) == len(self.values)
                and all(map(operator.is_, values, self.values))
                and all(map(operator.is_, grads, self.grads)))

    def view(self, flat: np.ndarray, value: np.ndarray) -> np.ndarray:
        """The part of `flat` that lies where `value` lies in the value span."""
        lo = (value.ctypes.data - self.p.ctypes.data) // value.itemsize
        return flat[lo:lo + value.size].reshape(value.shape)


@dataclass
class AdamWState:
    """Optimizer state: per-parameter first/second moments (f64) plus step count.

    `m` and `v` map each parameter name to its moment.  Once `adamw_step`
    has run its flat pass, the moments are two flat f64 arrays laid out like
    the parameter arena, kept here with the pass's scratch, and `m[name]`
    and `v[name]` are views of them.
    """

    lr: float = 2e-3
    betas: Tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    _flat: Optional[_FlatMoments] = field(default=None, repr=False, compare=False)


def _flat_moments(params: Sequence[Tuple[str, np.ndarray]], grads: List[Optional[np.ndarray]],
                  state: AdamWState) -> Optional[_FlatMoments]:
    """The state's flat moments when `params` and `grads` are the views of
    two arenas laid out alike (`tensor.arena_span`), in order; else None."""
    values = [p for _, p in params]
    if state._flat is not None and state._flat.matches(values, grads):
        return state._flat
    if any(g is None or g.shape != p.shape for g, p in zip(grads, values)):
        return None
    value_span, grad_span = arena_span(values), arena_span(grads)
    if value_span is None or grad_span is None or grad_span.dtype != value_span.dtype:
        return None
    flat = _FlatMoments(values, grads, value_span, grad_span)
    for name, p in params:  # moments of earlier per-tensor steps move in
        for moments, buf in ((state.m, flat.m), (state.v, flat.v)):
            view = flat.view(buf, p)
            if name in moments:
                view[...] = moments[name]
            moments[name] = view
    state._flat = flat
    return flat


def adamw_step(params: Sequence[Tuple[str, np.ndarray]],
               grads: Mapping[str, np.ndarray],
               state: AdamWState) -> AdamWState:
    """One AdamW update, in place on the parameter arrays.

    Decoupled weight decay: p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p).
    When the parameters are a model's arena views in `iter_params` order and
    the gradients the grad arena's (`RapidNetModel.backward` binds it), one
    in-place pass runs over each whole arena, with the flat moments and
    scratch of `state`, and allocates nothing after its first call.
    Otherwise each tensor is updated on its own, and a missing gradient
    raises `StateError` when that tensor's turn comes.  That loop is the
    oracle the flat pass is tested against: each step keeps its dtype (the
    moments in f64; `(1 - b1) * g`, `(1 - b2) * g**2` and `wd * p` in the
    tensor's), so both give the same bits.
    """
    b1, b2 = state.betas
    flat = _flat_moments(params, [grads.get(name) for name, _ in params], state)
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    if flat is not None:
        p, g, m, v, s, tmp, q = flat.p, flat.g, flat.m, flat.v, flat.s, flat.t, flat.q
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=q)
        v *= b2
        v += np.multiply(np.square(g, out=q), 1.0 - b2, out=q)
        np.divide(m, bc1, out=s)
        np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        tmp += state.eps
        s /= tmp
        if state.weight_decay:
            s += np.multiply(p, state.weight_decay, out=q)
        s *= state.lr
        q[...] = s
        p -= q
        return state
    for name, p in params:
        g = grads.get(name)
        if g is None:
            raise StateError(f"missing gradient for parameter {name!r}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p, dtype=np.float64)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p, dtype=np.float64)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            update = update + state.weight_decay * p
        p -= (state.lr * update).astype(p.dtype)
    return state


def cosine_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Cosine annealing: lr(0) = lr_max, lr(total_steps) = 0."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    return 0.5 * lr_max * (1.0 + math.cos(math.pi * step / total_steps))


class SyntheticDataset:
    """Images with one bright Gaussian blob; label = quadrant of its center.

    Labels are 0..3 for (top-left, top-right, bottom-left, bottom-right),
    perfectly determined by the image, so the task is learnable by
    construction.  Each blob has a standard deviation of 3 pixels, over a
    Gaussian background of standard deviation `NOISE` (0.02).  Deterministic
    for a fixed seed.
    """

    num_classes = 4
    NOISE = 0.02

    def __init__(self, n_samples: int, seed: int = 0, image_size: int = 32):
        if image_size < 32 or image_size % 32 != 0:
            raise ValueError(f"image_size {image_size} must be a positive multiple of 32")
        self.seed = seed
        rng = Rng(seed)
        half = image_size // 2
        margin = 2
        images = rng.normal((n_samples, 3, image_size, image_size), std=self.NOISE,
                            dtype=np.float32)
        labels = []
        yy, xx = np.mgrid[0:image_size, 0:image_size]
        for i in range(n_samples):
            # keep centers off the midlines so the quadrant is unambiguous
            qy = int(rng.integers(0, 2))
            qx = int(rng.integers(0, 2))
            cy = int(rng.integers(margin, half - margin)) + qy * half
            cx = int(rng.integers(margin, half - margin)) + qx * half
            blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * 3.0 ** 2))
            images[i] += blob.astype(np.float32)[None, :, :]
            labels.append(qy * 2 + qx)
        self.images = images
        self.labels = np.asarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass
class TraceRow:
    step: int
    lr: float
    loss: float


@dataclass
class TrainResult:
    model: RapidNetModel
    trace: List[TraceRow]


def evaluate_accuracy(model: RapidNetModel, dataset: SyntheticDataset) -> float:
    """Eval-mode classification accuracy over the whole dataset, 32 images per
    forward; the model's mode is restored afterwards, as `recalibrate_bn` does."""
    batch_size = 32
    prev_mode = model.mode
    model.set_mode("eval")
    correct = 0
    try:
        for start in range(0, len(dataset), batch_size):
            x = dataset.images[start:start + batch_size]
            logits = model.forward(x.astype(model.dtype, copy=False))
            labels = dataset.labels[start:start + batch_size]
            correct += int((logits.argmax(axis=1) == labels).sum())
    finally:
        model.set_mode(prev_mode)
    return correct / len(dataset)


def train_toy(cfg: ModelConfig, dataset: SyntheticDataset, steps: int,
              lr: float = 2e-3, schedule: str = "cosine", *,
              batch_size: Optional[int] = None) -> TrainResult:
    """Train a fresh (micro-scale) model on the synthetic task; returns the loss trace.

    The model is built from `cfg` with its class count aligned to the
    dataset, and AdamW runs without weight decay, as one pass over the
    model's arenas.  The backward computes no input gradient, which nothing
    here reads.  Deterministic for fixed config/dataset seeds: batch order
    comes from a seeded shuffle.
    """
    if schedule not in ("constant", "cosine"):
        raise ValueError(f"schedule must be 'constant' or 'cosine', got {schedule!r}")
    if cfg.num_classes != dataset.num_classes:
        cfg = replace(cfg, num_classes=dataset.num_classes)
    model = build_model(cfg)
    model.set_mode("train")
    n = len(dataset)
    if batch_size is None or batch_size > n:
        batch_size = n
    order_rng = Rng(cfg.seed ^ 0xBA7C4)
    state = AdamWState(lr=lr)
    params = model.iter_params()

    trace: List[TraceRow] = []
    order = order_rng.permutation(n)
    cursor = 0
    for step in range(steps):
        if cursor + batch_size > n:
            order = order_rng.permutation(n)
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        x = dataset.images[idx].astype(model.dtype, copy=False)
        y = dataset.labels[idx]

        step_lr = cosine_lr(step, steps, lr) if schedule == "cosine" else lr
        logits = model.forward(x)
        loss, grad_logits = softmax_cross_entropy(logits, y)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became non-finite at step {step}")
        model.zero_grad()
        model.backward(grad_logits, input_grad=False)
        state.lr = step_lr
        grads = {name: p.grad for name, p in params}
        adamw_step([(name, p.value) for name, p in params], grads, state)
        trace.append(TraceRow(step=step, lr=step_lr, loss=loss))
    return TrainResult(model=model, trace=trace)


def trace_to_csv(trace: List[TraceRow]) -> str:
    lines = ["step,lr,loss"]
    lines += [f"{row.step},{row.lr:.8g},{row.loss:.8g}" for row in trace]
    return "\n".join(lines) + "\n"
