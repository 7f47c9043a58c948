"""Toy-scale optimizer and training loop.

AdamW with decoupled weight decay drives a micro-scale model on a synthetic
blob-quadrant task: each image contains one bright Gaussian blob and the
label is the quadrant of the blob center.  The task is solvable in seconds
and exercises every block type end to end, which is what the loop is for;
it is not a benchmark-scale trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import StateError, TrainingDiverged
from .model import ModelConfig, RapidNetModel, build_model
from .ops import softmax_cross_entropy
from .tensor import Rng


@dataclass
class AdamWState:
    """Optimizer state: per-parameter first/second moments plus step count."""

    lr: float = 2e-3
    betas: Tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: Sequence[Tuple[str, np.ndarray]],
               grads: Mapping[str, np.ndarray],
               state: AdamWState) -> AdamWState:
    """One AdamW update, in place on the parameter arrays.

    Decoupled weight decay: p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p).
    """
    b1, b2 = state.betas
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
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
        if image_size % 32 != 0:
            raise ValueError(f"image_size {image_size} must be a multiple of 32")
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
    """Eval-mode classification accuracy over the whole dataset, 32 images per forward."""
    batch_size = 32
    model.set_mode("eval")
    correct = 0
    for start in range(0, len(dataset), batch_size):
        x = dataset.images[start:start + batch_size]
        logits = model.forward(x.astype(model.dtype))
        correct += int((logits.argmax(axis=1) == dataset.labels[start:start + batch_size]).sum())
    return correct / len(dataset)


def train_toy(cfg: ModelConfig, dataset: SyntheticDataset, steps: int,
              lr: float = 2e-3, schedule: str = "cosine", *,
              batch_size: Optional[int] = None) -> TrainResult:
    """Train a fresh (micro-scale) model on the synthetic task; returns the loss trace.

    The model is built from `cfg` with its class count aligned to the
    dataset, and AdamW runs without weight decay.  Deterministic for fixed
    config/dataset seeds: batch order comes from a seeded shuffle.
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
        x = dataset.images[idx].astype(model.dtype)
        y = dataset.labels[idx]

        step_lr = cosine_lr(step, steps, lr) if schedule == "cosine" else lr
        logits = model.forward(x)
        loss, grad_logits = softmax_cross_entropy(logits, y)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became non-finite at step {step}")
        model.zero_grad()
        model.backward(grad_logits)
        state.lr = step_lr
        grads = {name: p.grad for name, p in params}
        adamw_step([(name, p.value) for name, p in params], grads, state)
        trace.append(TraceRow(step=step, lr=step_lr, loss=loss))
    return TrainResult(model=model, trace=trace)


def trace_to_csv(trace: List[TraceRow]) -> str:
    lines = ["step,lr,loss"]
    lines += [f"{row.step},{row.lr:.8g},{row.loss:.8g}" for row in trace]
    return "\n".join(lines) + "\n"
