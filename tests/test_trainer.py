import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rapidnet.errors import StateError
from rapidnet.model import build_model, default_config
from rapidnet.ops import softmax_cross_entropy
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


def train_micro(dtype="f32"):
    """A micro model in train mode and a seeded batch for it."""
    net = build_model(replace(default_config("micro"), num_classes=4), dtype=dtype)
    net.set_mode("train")
    ds = SyntheticDataset(16, seed=2)
    return net, ds.images.astype(net.dtype), ds.labels


def backward_step(net, x, y, **kw):
    loss, grad = softmax_cross_entropy(net.forward(x), y)
    net.zero_grad()
    return net.backward(grad, **kw)


class TestFlatAdamW:
    """A model's arena views take one in-place pass; the per-tensor loop is its oracle."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("wd", [0.0, 0.05])
    def test_bitwise_equal_to_per_tensor_loop(self, dtype, wd):
        net, x, y = train_micro(dtype)
        params = net.iter_params()
        copies = [(name, p.value.copy()) for name, p in params]
        flat, loop = AdamWState(lr=3e-3, weight_decay=wd), AdamWState(lr=3e-3, weight_decay=wd)
        for _ in range(3):
            backward_step(net, x, y)
            grads = {name: p.grad for name, p in params}
            adamw_step([(name, p.value) for name, p in params], grads, flat)
            adamw_step(copies, {name: g.copy() for name, g in grads.items()}, loop)
            assert flat._flat is not None and loop._flat is None
            for (name, p), (_, ref) in zip(params, copies):
                assert p.value.tobytes() == ref.tobytes(), name
                assert flat.m[name].tobytes() == loop.m[name].tobytes(), name
                assert flat.v[name].tobytes() == loop.v[name].tobytes(), name
        assert flat.step == loop.step == 3

    def test_moments_are_views_of_the_flat_state(self):
        net, x, y = train_micro()
        params = net.iter_params()
        state = AdamWState()
        for _ in range(2):
            backward_step(net, x, y)
            adamw_step([(n, p.value) for n, p in params], {n: p.grad for n, p in params}, state)
        assert all(np.shares_memory(state.m[n], state._flat.m) for n, _ in params)
        assert all(np.shares_memory(state.v[n], state._flat.v) for n, _ in params)

    def test_every_param_stays_an_aligned_arena_view(self, tmp_path):
        from rapidnet.tensor import ARENA_ALIGN
        from rapidnet.weights_io import load, save

        source, x, y = train_micro()
        save(source, str(tmp_path / "m.rpdn"))
        for net in (source, load(str(tmp_path / "m.rpdn"))):
            net.set_mode("train")
            params = net.iter_params()
            base = params[0][1].value.base
            state = AdamWState()
            for _ in range(3):
                backward_step(net, x, y)
                adamw_step([(n, p.value) for n, p in params], {n: p.grad for n, p in params},
                           state)
            spans = sorted((p.value.ctypes.data, p.value.ctypes.data + p.value.nbytes)
                           for _, p in params)
            assert all(p.value.base is base and p.value.ctypes.data % ARENA_ALIGN == 0
                       for _, p in params)
            assert all(p.grad is p.slot and p.slot.ctypes.data % ARENA_ALIGN == 0
                       for _, p in params)
            assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
            assert state._flat is not None

    def test_flat_step_allocates_nothing_after_the_first(self):
        net, x, y = train_micro()
        params = net.iter_params()
        state = AdamWState()
        backward_step(net, x, y)
        pairs = [(n, p.value) for n, p in params]
        grads = {n: p.grad for n, p in params}
        adamw_step(pairs, grads, state)
        tracemalloc.start()
        try:
            adamw_step(pairs, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1e6

    def test_negative_zero_gradient_survives(self):
        net, x, y = train_micro()
        backward_step(net, x, y)  # binds the grad arena
        _, p = net.iter_params()[0]
        assert p.slot is not None
        p.slot[...] = 1.0  # stale values the first accumulate must not add onto
        p.zero_grad()
        g = np.zeros(p.shape, dtype=p.value.dtype)
        g.flat[0] = -0.0
        p.accumulate(g)
        assert p.grad is p.slot and np.signbit(p.grad.flat[0]) and not p.grad.any()
        p.accumulate(np.ones_like(g))
        assert p.grad is p.slot and (p.grad == 1).all()

    def test_param_without_gradient_reads_none_and_is_refused(self):
        net, x, y = train_micro()
        backward_step(net, x, y)
        params = net.iter_params()
        net.zero_grad()
        assert all(p.grad is None and p.slot is not None for _, p in params)
        before = [p.value.copy() for _, p in params]
        state = AdamWState()
        with pytest.raises(StateError, match="missing gradient"):
            adamw_step([(n, p.value) for n, p in params], {n: p.grad for n, p in params}, state)
        assert all(np.array_equal(p.value, b) for (_, p), b in zip(params, before))


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

    @pytest.mark.parametrize("size", [0, -32, 16, 48])
    def test_image_size_must_be_a_positive_multiple_of_32(self, size):
        with pytest.raises(ValueError, match=f"image_size {size}"):
            SyntheticDataset(2, image_size=size)

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

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_accuracy_restores_the_mode(self, mode):
        net, x, y = train_micro()
        net.set_mode(mode)
        evaluate_accuracy(net, SyntheticDataset(4, seed=1))
        assert net.mode == mode
        if mode == "train":
            backward_step(net, x, y)  # no StateError: the model still trains

    def test_accuracy_restores_the_mode_when_a_forward_fails(self, monkeypatch):
        net, _, _ = train_micro()
        monkeypatch.setattr(net, "forward", lambda x: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            evaluate_accuracy(net, SyntheticDataset(4, seed=1))
        assert net.mode == "train"

    def test_csv_format(self):
        ds = SyntheticDataset(4, seed=11)
        result = train_toy(default_config("micro"), ds, steps=3, lr=1e-3)
        lines = trace_to_csv(result.trace).strip().split("\n")
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 4
        step, lr, loss = lines[1].split(",")
        assert step == "0"
        float(lr), float(loss)
