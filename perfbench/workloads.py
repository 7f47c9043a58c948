"""The benchmark's four closed-loop workloads, one caller each.

Each workload generates its inputs from the workload seed, sets up the
program (timed several times; the median is `setup_s`), then repeats one
operation until the measuring time is spent.  Every operation's output is
checked by a correctness gate outside the timed region; a miss counts as a
failed operation.

    infer_ti_b1  fused ti forward at 1x3x224x224, round-robin over 8 images
    infer_ti_b8  fused ti forward at 8x3x224x224 (the same 8 images)
    train_micro  micro train step: forward, softmax CE, backward, AdamW
    export_load  reparameterize ti -> weights_io.save -> load -> analysis.report

Models are the published ti/micro defaults (config seed 0); the workload
seed drives only the generated inputs.  Checkpoint files live in the run's
work directory and are served from the page cache.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

from rapidnet import analysis, model, ops, reparam, trainer, weights_io

RESOLUTION = 224
POOL_IMAGES = 8
CALIBRATION_BATCH = 2     # 2 x 7 x 7 = 98 samples per channel at ti's last stage
FUSION_TOL = 1e-4         # the repo's f32 fusion-equivalence tolerance
TRAIN_SAMPLES = 256
TRAIN_BATCH = 32
TRAIN_LR = 2e-3


def stream(seed: int, k: int) -> np.random.Generator:
    """Independent input stream k of a workload seed."""
    return np.random.default_rng([seed, k])


def images(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, 3, RESOLUTION, RESOLUTION), dtype=np.float32)


def calibrated_ti(seed: int) -> model.RapidNetModel:
    """Unfused ti with BN statistics recalibrated on a seeded batch."""
    net = model.build_model(model.default_config("ti"))
    reparam.recalibrate_bn(net, images(stream(seed, 1), CALIBRATION_BATCH))
    return net


class Workload:
    """A set-up, one repeated operation, and the gate each output must pass."""

    setup_reps: int     # set-ups timed per run; setup_s is their median
    unit: str           # what throughput_per_s counts
    items_per_op = 1

    def prepare(self) -> None:
        """Write the files the set-up reads; runs in its own process."""

    def final_check(self) -> bool:
        """Gate on the run as a whole, after its last operation."""
        return True

    def models(self) -> list:
        """Models alive for the whole run, whose layers a trace can name."""
        return [self.net]


class Infer(Workload):
    """Fused ti inference; the set-up is weights_io.load of the prepared checkpoint."""

    setup_reps = 7
    unit = "images"

    def __init__(self, batch: int, work: str, seed: int):
        self.batch = self.items_per_op = batch
        self.ckpt = os.path.join(work, "ti_fused.rpdn")
        self.refs = os.path.join(work, "reference.npz")
        self.seed = seed
        self.i = 0

    def prepare(self) -> None:
        """Fused f32 checkpoint plus f64 unfused reference logits for the pool."""
        net = calibrated_ti(self.seed)
        pool = images(stream(self.seed, 0), POOL_IMAGES)
        ref_net = model.build_model(net.config, dtype="f64")
        for (_, p64), (_, p32) in zip(ref_net.iter_params(), net.iter_params()):
            p64.value[...] = p32.value
        for (_, b64), (_, b32) in zip(ref_net.iter_buffers(), net.iter_buffers()):
            b64[...] = b32
        ref = np.concatenate([ref_net.forward(pool[i:i + 4].astype(np.float64))
                              for i in range(0, POOL_IMAGES, 4)])
        fused, _ = reparam.reparameterize_model(net)
        weights_io.save(fused, self.ckpt)
        np.savez(self.refs, pool=pool, ref=ref)

    def setup(self) -> None:
        self.net = weights_io.load(self.ckpt)

    def after_setup(self, inject: str) -> None:
        with np.load(self.refs) as data:
            self.pool, self.ref = data["pool"], data["ref"]
        if inject == "weight":
            _, w = self.net.iter_params()[0]
            w.value += np.float32(1e-2)
        elif inject == "nonfinite":
            self.pool[0, 0, 0, 0] = np.nan

    def op(self):
        lo = (self.i * self.batch) % POOL_IMAGES
        self.i += 1
        return lo, self.net.forward(self.pool[lo:lo + self.batch])

    def check(self, result) -> bool:
        lo, logits = result
        diff = np.max(np.abs(logits - self.ref[lo:lo + self.batch]))
        return bool(diff < FUSION_TOL)  # False for NaN


class TrainMicro(Workload):
    """micro train steps at batch 32 on 32x32 SyntheticDataset images."""

    setup_reps = 9
    unit = "samples"
    items_per_op = TRAIN_BATCH

    def __init__(self, work: str, seed: int):
        self.seed = seed
        self.losses: list = []

    def setup(self) -> None:
        data_seed = int(stream(self.seed, 2).integers(2 ** 31))
        self.data = trainer.SyntheticDataset(TRAIN_SAMPLES, seed=data_seed)
        cfg = replace(model.default_config("micro"),
                      num_classes=trainer.SyntheticDataset.num_classes)
        self.net = model.build_model(cfg)

    def after_setup(self, inject: str) -> None:
        if inject == "nonfinite":
            self.data.images[0, 0, 0, 0] = np.nan
        self.net.set_mode("train")
        self.params = self.net.iter_params()
        self.state = trainer.AdamWState(lr=TRAIN_LR)
        self.order_rng = stream(self.seed, 3)
        self.order = self.order_rng.permutation(TRAIN_SAMPLES)
        self.cursor = 0

    def op(self):
        if self.cursor + TRAIN_BATCH > TRAIN_SAMPLES:
            self.order = self.order_rng.permutation(TRAIN_SAMPLES)
            self.cursor = 0
        idx = self.order[self.cursor:self.cursor + TRAIN_BATCH]
        self.cursor += TRAIN_BATCH
        logits = self.net.forward(self.data.images[idx])
        loss, grad = ops.softmax_cross_entropy(logits, self.data.labels[idx])
        self.net.zero_grad()
        self.net.backward(grad)
        grads = {name: p.grad for name, p in self.params}
        trainer.adamw_step([(name, p.value) for name, p in self.params], grads, self.state)
        return loss

    def check(self, loss) -> bool:
        self.losses.append(loss)
        return math.isfinite(loss)

    def final_check(self) -> bool:
        """The last loss must be below the first: the steps learn."""
        return len(self.losses) > 1 and self.losses[-1] < self.losses[0]


class ExportLoad(Workload):
    """reparameterize_model(unfused ti) -> save -> load -> analysis.report cycles."""

    setup_reps = 3
    unit = "cycles"

    def __init__(self, work: str, seed: int):
        self.seed = seed
        self.ckpt = os.path.join(work, "ti_export.rpdn")
        self.calibration = images(stream(seed, 1), CALIBRATION_BATCH)

    def setup(self) -> None:
        self.net = model.build_model(model.default_config("ti"))
        reparam.recalibrate_bn(self.net, self.calibration)

    def after_setup(self, inject: str) -> None:
        self.inject = inject
        if inject == "nonfinite":
            self.calibration[0, 0, 0, 0] = np.nan
            self.setup()
        self.total_macs = analysis.report(self.net.config, RESOLUTION, self.net).total_macs

    def op(self):
        fused, fusion = reparam.reparameterize_model(self.net)
        weights_io.save(fused, self.ckpt)
        loaded = weights_io.load(self.ckpt)
        rep = analysis.report(loaded.config, RESOLUTION, loaded)
        return fused, fusion, loaded, rep

    def check(self, result) -> bool:
        fused, fusion, loaded, rep = result
        if self.inject == "weight":
            _, w = loaded.iter_params()[0]
            w.value += np.float32(1e-2)
        exported, restored = _tensors(fused), _tensors(loaded)
        bitwise = [name for name, _ in exported] == [name for name, _ in restored] and all(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for (_, a), (_, b) in zip(exported, restored))
        return bool(fusion.max_abs_logit_diff < FUSION_TOL and bitwise
                    and rep.total_macs == self.total_macs)


def _tensors(net) -> list:
    return [(name, p.value) for name, p in net.iter_params()] + net.iter_buffers()


def make(name: str, work: str, seed: int):
    if name == "infer_ti_b1":
        return Infer(1, work, seed)
    if name == "infer_ti_b8":
        return Infer(8, work, seed)
    if name == "train_micro":
        return TrainMicro(work, seed)
    if name == "export_load":
        return ExportLoad(work, seed)
    raise ValueError(f"unknown workload {name!r}")
