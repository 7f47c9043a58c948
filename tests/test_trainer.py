import math
from dataclasses import replace

import numpy as np
import pytest

from rapidnet.errors import StateError
from rapidnet.model import default_config
from rapidnet.trainer import (
    AdamWState,
    SyntheticDataset,
    TrainResult,
    adamw_step,
    cosine_lr,
    evaluate_accuracy,
    train_toy,
    trace_to_csv,
)


class TestAdamW:
    def test_zero_grads_no_decay_leaves_params(self):
        p = np.array([1.0, -2.0, 3.0])
        state = AdamWState(lr=0.1, weight_decay=0.0)
        adamw_step([("p", p)], {"p": np.zeros(3)}, state)
        assert np.allclose(p, [1.0, -2.0, 3.0])

    def test_first_step_magnitude(self):
        # bias correction cancels at t=1, so the step is ~lr for unit gradient
        p = np.array([0.0])
        state = AdamWState(lr=1e-3)
        adamw_step([("p", p)], {"p": np.array([1.0])}, state)
        assert p[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_missing_grad(self):
        state = AdamWState()
        with pytest.raises(StateError):
            adamw_step([("p", np.zeros(2))], {}, state)

    def test_matches_scalar_reference_trace(self):
        # independent 20-step scalar AdamW simulation with constant gradient
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
        theta, m, v = 0.5, 0.0, 0.0
        trace = []
        for t in range(1, 21):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta -= lr * (mhat / (math.sqrt(vhat) + eps) + wd * theta)
            trace.append(theta)

        p = np.array([0.5])
        state = AdamWState(lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        got = []
        for _ in range(20):
            adamw_step([("p", p)], {"p": np.array([1.0])}, state)
            got.append(float(p[0]))
        assert np.allclose(got, trace, rtol=1e-10)

    def test_decoupled_weight_decay(self):
        # with zero gradient, decay shrinks the parameter multiplicatively
        p = np.array([2.0])
        state = AdamWState(lr=0.1, weight_decay=0.5)
        adamw_step([("p", p)], {"p": np.array([0.0])}, state)
        assert p[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 2e-3) == pytest.approx(2e-3)
        assert cosine_lr(100, 100, 2e-3) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decrease(self):
        values = [cosine_lr(t, 50, 1.0) for t in range(51)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSyntheticDataset:
    def test_deterministic(self):
        a = SyntheticDataset(16, seed=3)
        b = SyntheticDataset(16, seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_match_blob_quadrant(self, monkeypatch):
        monkeypatch.setattr(SyntheticDataset, "NOISE", 0.0)
        ds = SyntheticDataset(32, seed=4)
        half = ds.images.shape[2] // 2
        for img, label in zip(ds.images, ds.labels):
            cy, cx = np.unravel_index(np.argmax(img[0]), img[0].shape)
            assert (cy >= half) * 2 + (cx >= half) == label

    def test_shapes_and_classes(self):
        ds = SyntheticDataset(8, seed=0)
        assert ds.images.shape == (8, 3, 32, 32)
        assert ds.num_classes == 4
        assert set(ds.labels.tolist()) <= {0, 1, 2, 3}


class TestTrainToy:
    def test_zero_lr_constant_loss(self):
        ds = SyntheticDataset(8, seed=5)
        result = train_toy(default_config("micro"), ds, steps=5, lr=0.0,
                           schedule="constant")
        losses = [row.loss for row in result.trace]
        assert max(losses) - min(losses) < 1e-6

    def test_deterministic_trace(self):
        ds = SyntheticDataset(8, seed=6)
        cfg = replace(default_config("micro"), seed=7)
        a = train_toy(cfg, ds, steps=5, lr=1e-3)
        b = train_toy(cfg, ds, steps=5, lr=1e-3)
        assert [r.loss for r in a.trace] == [r.loss for r in b.trace]

    def test_loss_decreases(self):
        ds = SyntheticDataset(8, seed=8)
        result = train_toy(default_config("micro"), ds, steps=40, lr=2e-3)
        assert result.trace[-1].loss < result.trace[0].loss

    def test_losses_finite_and_traced(self):
        ds = SyntheticDataset(8, seed=9)
        result = train_toy(default_config("micro"), ds, steps=10, lr=2e-3)
        assert isinstance(result, TrainResult)
        assert len(result.trace) == 10
        assert all(math.isfinite(r.loss) for r in result.trace)
        assert [r.step for r in result.trace] == list(range(10))

    def test_bad_schedule(self):
        ds = SyntheticDataset(4, seed=0)
        with pytest.raises(ValueError):
            train_toy(default_config("micro"), ds, steps=1, schedule="linear")

    def test_accuracy_evaluation(self):
        ds = SyntheticDataset(8, seed=10)
        result = train_toy(default_config("micro"), ds, steps=60, lr=2e-3)
        acc = evaluate_accuracy(result.model, ds)
        assert 0.0 <= acc <= 1.0

    def test_csv_format(self):
        ds = SyntheticDataset(4, seed=11)
        result = train_toy(default_config("micro"), ds, steps=3, lr=1e-3)
        lines = trace_to_csv(result.trace).strip().split("\n")
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 4
        step, lr, loss = lines[1].split(",")
        assert step == "0"
        float(lr), float(loss)
