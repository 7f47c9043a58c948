import contextlib
import hashlib
import os
import signal
import sys
import threading
import time
import warnings
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import layers
from rapidnet import blas
from rapidnet import model as model_mod
from rapidnet.analysis import count_macs, count_params
from rapidnet.blocks import LkFfnBlock, MldcBlock
from rapidnet.errors import ConfigError, GeometryError, ShapeError, StateError
from rapidnet.model import (
    ModelConfig,
    StageConfig,
    VARIANTS,
    build_model,
    default_config,
)
from rapidnet.ops import Param, softmax_cross_entropy
from rapidnet.reparam import fuse_model, recalibrate_bn
from rapidnet.tensor import Rng


class TestConfigRegistry:
    def test_variant_tables(self):
        # golden copy of the published stage tables
        expected = {
            "ti": [(32, 2, 0), (64, 2, 0), (112, 6, 2), (224, 2, 2)],
            "s": [(32, 3, 0), (64, 3, 0), (112, 9, 3), (224, 3, 3)],
            "m": [(32, 3, 0), (64, 3, 0), (160, 9, 3), (320, 3, 3)],
            "b": [(64, 3, 0), (128, 3, 0), (224, 9, 3), (416, 3, 3)],
        }
        for variant, stages in expected.items():
            cfg = default_config(variant)
            assert [(s.channels, s.n_irb, s.n_dcb) for s in cfg.stages] == stages
            assert cfg.mixer_mode == "mldc"
            assert cfg.dilations == (2, 3)
            assert cfg.use_cpe and cfg.lk_ffn

    def test_ti_stage3(self):
        cfg = default_config("ti")
        assert cfg.stages[2] == StageConfig(channels=112, n_irb=6, n_dcb=2)

    def test_b_stage4(self):
        cfg = default_config("b")
        assert cfg.stages[3] == StageConfig(channels=416, n_irb=3, n_dcb=3)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            default_config("xl")

    def test_validation_rejects_dcb_in_early_stage(self):
        cfg = ModelConfig(stages=(StageConfig(8, 1, 1), StageConfig(16, 1, 0),
                                  StageConfig(24, 1, 0), StageConfig(32, 1, 0)))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_validation_rejects_bad_dilations(self):
        base = default_config("micro")
        with pytest.raises(ConfigError):
            replace(base, dilations=(3, 2)).validate()
        with pytest.raises(ConfigError):
            replace(base, dilations=(1, 3)).validate()
        # non-mldc modes are free to use any positive dilation
        replace(base, mixer_mode="sldc", dilations=(1, 2)).validate()

    @pytest.mark.parametrize("dilations", [(2, 3, 4), (2,), (), 2, None])
    def test_validation_rejects_dilations_not_a_pair(self, dilations):
        with pytest.raises(ConfigError, match="dilations"):
            replace(default_config("micro"), dilations=dilations).validate()

    def test_validation_accepts_numpy_integers(self):
        base = default_config("micro")
        cfg = replace(base, stages=tuple(StageConfig(*map(np.int64, astuple(s)))
                                         for s in base.stages),
                      num_classes=np.int32(8), dilations=(np.int64(2), np.int64(3)),
                      mixer_kernel=np.int64(3), head_hidden=np.int64(16), seed=np.uint8(5))
        cfg.validate()
        assert build_model(cfg).forward(np.zeros((1, 3, 32, 32), np.float32)).shape == (1, 8)

    def test_config_roundtrip(self):
        cfg = default_config("ti")
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestBuild:
    def test_deterministic(self):
        cfg = replace(default_config("micro"), seed=1)
        a = build_model(cfg)
        b = build_model(cfg)
        for (name_a, pa), (name_b, pb) in zip(a.iter_params(), b.iter_params()):
            assert name_a == name_b
            assert np.array_equal(pa.value, pb.value)

    def test_seed_changes_weights(self):
        cfg = default_config("micro")
        a = build_model(replace(cfg, seed=1))
        b = build_model(replace(cfg, seed=2))
        wa, wb = (dict(m.iter_params())["stem.conv1.weight"].value for m in (a, b))
        assert not np.array_equal(wa, wb)

    def test_ti_block_counts(self):
        model = build_model(default_config("ti"))
        names = [name for name, _ in model.named_blocks()]
        assert sum(".irb" in name for name in names) == 2 + 2 + 6 + 2
        # each dilated conv block is two entries: its MLDC block and its FFN
        assert sum(name.endswith(".mldc") for name in names) == 2 + 2
        assert sum(name.endswith(".ffn") for name in names) == 2 + 2
        assert sum(".dcb" in name for name in names) == 2 * (2 + 2)

    def test_micro_block_names(self):
        model = build_model(default_config("micro"))
        assert [name for name, _ in model.named_blocks()] == [
            "stem", "stage1.irb0", "down1", "stage2.irb0", "down2",
            "stage3.irb0", "stage3.dcb0.mldc", "stage3.dcb0.ffn", "down3",
            "stage4.irb0", "stage4.dcb0.mldc", "stage4.dcb0.ffn", "head"]
        kinds = {name: type(blk) for name, blk in model.named_blocks()}
        assert kinds["stage3.dcb0.mldc"] is MldcBlock
        assert kinds["stage3.dcb0.ffn"] is LkFfnBlock

    def test_sldc_single_branch(self):
        cfg = replace(default_config("micro"), mixer_mode="sldc")
        model = build_model(cfg)
        mldc = [blk for name, blk in model.named_blocks() if name.endswith(".mldc")]
        assert len(mldc) == 2
        for blk in mldc:
            assert len(layers(blk, "branch_")) == 1

    def test_mixer_mode_structure(self):
        for mode, (k, d) in [("conv3x3", (3, 1)), ("pointwise", (1, 1))]:
            cfg = replace(default_config("micro"), mixer_mode=mode)
            model = build_model(cfg)
            mldc = [blk for name, blk in model.named_blocks() if name.endswith(".mldc")]
            assert len(mldc) == 2
            for blk in mldc:
                (conv,) = layers(blk, "branch_")
                assert conv.kernel_size == k
                assert conv.dilation == d

    def test_invalid_dilations_rejected_by_builder(self):
        cfg = replace(default_config("micro"), dilations=(2, 2))
        with pytest.raises(ConfigError):
            build_model(cfg)


class TestForward:
    def test_ti_224(self):
        model = build_model(default_config("ti"))
        x = Rng(0).normal((2, 3, 224, 224))
        assert model.forward(x).shape == (2, 1000)

    def test_fully_convolutional_256(self):
        model = build_model(default_config("ti"))
        x = Rng(0).normal((1, 3, 256, 256))
        assert model.forward(x).shape == (1, 1000)

    def test_indivisible_resolution(self):
        model = build_model(default_config("micro"))
        with pytest.raises(GeometryError):
            model.forward(Rng(0).normal((1, 3, 100, 100)))

    def test_eval_mode_pure_and_deterministic(self):
        model = build_model(default_config("micro"))
        model.set_mode("eval")
        x = Rng(3).normal((1, 3, 32, 32))
        rm = [b.copy() for _, b in model.iter_buffers()]
        a = model.forward(x)
        b = model.forward(x)
        assert np.array_equal(a, b)
        for before, (_, after) in zip(rm, model.iter_buffers()):
            assert np.array_equal(before, after)

    def test_train_mode_updates_running_stats(self):
        model = build_model(default_config("micro"))
        model.set_mode("train")
        bn = dict(dict(model.named_blocks())["stem"].named_layers())["bn1"]
        before = bn.running_mean.copy()
        model.forward(Rng(3).normal((2, 3, 32, 32)))
        assert not np.array_equal(before, bn.running_mean)


class TestTape:
    """The model owns the one tape: a train forward records it, backward
    consumes it, and set_mode drops it."""

    @staticmethod
    def trained_forward():
        model = build_model(default_config("micro"))
        model.set_mode("train")
        logits = model.forward(Rng(3).normal((2, 3, 32, 32)))
        return model, softmax_cross_entropy(logits, [1, 5])[1]

    def test_backward_consumes_the_tape(self):
        model, grad = self.trained_forward()
        assert model.backward(grad).shape == (2, 3, 32, 32)
        with pytest.raises(StateError):
            model.backward(grad)  # a second call

    def test_backward_without_train_forward(self):
        model = build_model(default_config("micro"))
        with pytest.raises(StateError):
            model.backward(np.zeros((2, 8), np.float32))
        model.forward(Rng(3).normal((2, 3, 32, 32)))  # eval mode records nothing
        with pytest.raises(StateError):
            model.backward(np.zeros((2, 8), np.float32))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_set_mode_drops_the_tape(self, mode):
        model, grad = self.trained_forward()
        model.set_mode(mode)
        with pytest.raises(StateError):
            model.backward(grad)

    def test_recalibrate_bn_leaves_nothing_recorded(self):
        model, grad = self.trained_forward()
        recalibrate_bn(model, Rng(4).normal((2, 3, 32, 32)))
        assert model.mode == "train"
        with pytest.raises(StateError):
            model.backward(grad)

    def test_unrecorded_train_forward(self):
        # record=False: batch statistics and running estimates as a recorded
        # forward takes them, and no tape, not even the last one
        model, grad = self.trained_forward()
        twin = build_model(default_config("micro"))
        twin.set_mode("train")
        x = Rng(3).normal((2, 3, 32, 32))
        twin.forward(x)
        assert np.array_equal(model.forward(x, record=False), twin.forward(x))
        assert all(np.array_equal(a, b) for (_, a), (_, b) in
                   zip(model.iter_buffers(), twin.iter_buffers()))
        with pytest.raises(StateError):
            model.backward(grad)

    @pytest.mark.parametrize("variant, size, dtype", [
        ("micro", 32, "f32"), ("micro", 32, "f64"), ("ti", 64, "f32")])
    def test_recorded_arrays_are_never_overwritten(self, variant, size, dtype):
        # a recording forward allocates every result: each array on the tape
        # still holds, at the end of the forward, the bits it was appended
        # with, so backward reads what it always read
        def digests(entry):
            if isinstance(entry, np.ndarray):
                return [hashlib.sha256(entry.tobytes()).hexdigest()]
            return [d for part in (entry or ()) for d in digests(part)]

        class HashingTape(list):
            def __init__(self):
                super().__init__()
                self.appended = []

            def append(self, entry):
                super().append(entry)
                self.appended.append(digests(entry))

        model = build_model(default_config(variant), dtype)
        h, tape = Rng(2).normal((2, 3, size, size), dtype=model.dtype), HashingTape()
        for _, block in model.named_blocks():
            h = block.forward(h, tape)
        assert len(tape) > 10 and [digests(e) for e in tape] == tape.appended

    def test_failed_train_forward_drops_the_last_tape(self, monkeypatch):
        model, grad = self.trained_forward()

        def fail(h, tape):
            raise RuntimeError("head failed")

        monkeypatch.setattr(model.named_blocks()[-1][1], "forward", fail)
        with pytest.raises(RuntimeError, match="head failed"):
            model.forward(Rng(3).normal((2, 3, 32, 32)))
        with pytest.raises(StateError):
            model.backward(grad)


class TestInputContract:
    """Bad input raises a rapidnet error before any BN buffer or tape changes."""

    @pytest.mark.parametrize("bad", [
        np.zeros((0, 3, 32, 32), np.float32),
        np.zeros((2, 3, 32, 32), np.float32).tolist(),
        (np.zeros((3, 32, 32), np.float32),),
    ], ids=["batch0", "list", "tuple"])
    def test_refused_before_anything_changes(self, bad):
        model, grad = TestTape.trained_forward()
        buffers = [b.copy() for _, b in model.iter_buffers()]
        with pytest.raises(ShapeError):
            model.forward(bad)
        assert all(np.array_equal(b, a) for b, (_, a) in zip(buffers, model.iter_buffers()))
        assert model.backward(grad).shape == (2, 3, 32, 32)  # the tape survived

    def test_batch0_in_eval_mode(self):
        model = build_model(default_config("micro"))
        with pytest.raises(ShapeError, match="no samples"):
            model.forward(np.zeros((0, 3, 32, 32), np.float32))

    @pytest.fixture(scope="class")
    def micro(self):
        """An eval and a train micro model, and each mode's canonical logits by N.

        Train-mode logits take BN's batch statistics, so the running ones
        the train model's forwards move do not change them."""
        models = {mode: build_model(default_config("micro")) for mode in ("eval", "train")}
        models["train"].set_mode("train")
        base = Rng(4).normal((2, 3, 32, 32)).astype(np.float32)
        logits = {(mode, n): m.forward(base[:n].copy()) for mode, m in models.items() for n in (1, 2)}
        return models, base, logits

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(mode=st.sampled_from(["eval", "train"]),
           dtype=st.sampled_from([np.float16, np.float32, np.float64, np.int32, np.bool_,
                                  np.complex64]),
           n=st.sampled_from([0, 1, 2]), h=st.sampled_from([0, 20, 32]),
           w=st.sampled_from([0, 20, 32]), layout=st.sampled_from(["C", "F", "strided"]),
           container=st.sampled_from([None, list, tuple]))
    @example(mode="train", dtype=np.float32, n=1, h=0, w=32, layout="C", container=None)
    @example(mode="train", dtype=np.float64, n=2, h=32, w=32, layout="C", container=None)
    @example(mode="eval", dtype=np.float32, n=2, h=32, w=32, layout="F", container=None)
    @example(mode="eval", dtype=np.float32, n=2, h=32, w=32, layout="strided", container=None)
    def test_canonical_logits_or_refused_untouched(self, micro, mode, dtype, n, h, w, layout,
                                                   container):
        models, base, logits = micro
        model = models[mode]
        values = np.resize(base, (n, 3, h, w)).astype(dtype)
        if layout == "F":
            x = np.asfortranarray(values)
        elif layout == "strided":
            x = np.zeros((n, 3, h, 2 * w), dtype)[..., ::2]
            x[...] = values
        else:
            x = values
        if container is not None:
            x = x.tolist() if container is list else tuple(x)
        valid = container is None and dtype == np.float32 and n >= 1 and h == w == 32
        if mode == "train":
            model.forward(base)  # a tape the refused call must leave in place
        buffers = [b.copy() for _, b in model.iter_buffers()]
        try:
            got = model.forward(x)
        except (ShapeError, GeometryError):
            assert not valid
            assert all(np.array_equal(b, a) for b, (_, a) in zip(buffers, model.iter_buffers()))
            if mode == "train":
                assert model.backward(np.ones_like(logits[mode, 2])).shape == base.shape
            return
        assert valid
        want = logits[mode, n]
        assert got.dtype == want.dtype and np.array_equal(got, want)


def unsliced(model, x, monkeypatch) -> np.ndarray:
    """The forward as one slice, at one BLAS thread."""
    with monkeypatch.context() as m, blas.one_thread():
        m.setattr(model_mod, "_usable_cpus", lambda: 1)
        assert model.workers(len(x)) == 1
        return model.forward(x)


class TestSlicedForward:
    """An eval forward of N >= 2 runs one batch slice per CPU, BLAS at one thread."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # slice even on a one-CPU host
        monkeypatch.setattr(model_mod, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize("variant, n, size", [
        ("micro", 2, 32), ("micro", 3, 32), ("micro", 5, 32), ("ti", 2, 64)])
    def test_bitwise_equal_to_unsliced(self, variant, n, size, two_cpus, monkeypatch):
        model = build_model(default_config(variant))
        x = Rng(n).normal((n, 3, size, size)).astype(np.float32)
        before = blas.threads()
        got = model.forward(x)
        if before is not None:
            assert model.workers(n) == 2
        assert blas.threads() == before
        assert np.array_equal(got, unsliced(model, x, monkeypatch))

    def test_workers(self, two_cpus, monkeypatch):
        model = build_model(default_config("micro"))
        if blas.threads() is None:
            assert model.workers(8) == 1
            return
        assert [model.workers(n) for n in (1, 2, 8)] == [1, 2, 2]
        model.set_mode("train")  # BN's batch statistics couple the samples
        assert model.workers(8) == 1
        model.set_mode("eval")
        monkeypatch.setattr(model_mod, "_usable_cpus", lambda: 1)
        assert model.workers(8) == 1
        monkeypatch.setattr(model_mod, "_usable_cpus", lambda: 4)
        assert [model.workers(n) for n in (3, 8)] == [3, 4]
        monkeypatch.setattr(blas, "_functions", lambda: None)
        assert model.workers(8) == 1

    def test_without_blas_or_with_one_cpu_the_same_logits(self, two_cpus, monkeypatch):
        model = build_model(default_config("micro"))
        x = Rng(7).normal((4, 3, 32, 32)).astype(np.float32)
        sliced = model.forward(x)
        with monkeypatch.context() as m:
            m.setattr(model_mod, "_usable_cpus", lambda: 1)
            one_cpu = model.forward(x)
        with monkeypatch.context() as m:
            m.setattr(blas, "_functions", lambda: None)
            assert model.workers(4) == 1 and blas.threads() is None
            no_blas = model.forward(x)
        assert np.array_equal(one_cpu, no_blas)
        assert np.allclose(sliced, one_cpu, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("failing", ["caller", "pool"])
    def test_slice_error_raised_after_every_slice(self, failing, two_cpus, monkeypatch):
        # the failing slice fails at once; the other one is slow
        model = build_model(default_config("micro"))
        name, block = model.named_blocks()[-2]
        finished = []

        class SliceError(Exception):
            pass

        def forward(h, tape=None):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing == "caller"):
                raise SliceError(name)
            time.sleep(0.3)
            finished.append(len(h))
            return type(block).forward(block, h, tape)

        monkeypatch.setattr(block, "forward", forward)
        before = blas.threads()
        if before is None:
            pytest.skip("numpy carries no OpenBLAS library: the forward is not sliced")
        with pytest.raises(SliceError):
            model.forward(Rng(8).normal((4, 3, 32, 32)).astype(np.float32))
        assert finished == [2]  # the slow slice had finished
        assert blas.threads() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_sliced_forward(self, two_cpus):
        model = build_model(default_config("micro"))
        x = Rng(9).normal((2, 3, 32, 32)).astype(np.float32)
        ref = model.forward(x)  # a sliced forward in the parent first
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads alive
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(model.forward(x), ref) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's forward did not finish within 60 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("raises", [False, True])
    def test_no_slice_thread_outlives_the_call(self, raises, two_cpus, monkeypatch):
        if blas.threads() is None:
            pytest.skip("numpy carries no OpenBLAS library: the forward is not sliced")
        model = build_model(default_config("micro"))
        if raises:
            name, block = model.named_blocks()[-2]

            def forward(h, tape=None):
                if threading.current_thread() is not threading.main_thread():
                    raise ValueError(name)
                return type(block).forward(block, h, tape)

            monkeypatch.setattr(block, "forward", forward)
        x = Rng(11).normal((4, 3, 32, 32)).astype(np.float32)
        with pytest.raises(ValueError) if raises else contextlib.nullcontext():
            model.forward(x)
        assert not [t.name for t in threading.enumerate() if t.name.startswith("rapidnet-slice")]

    def test_concurrent_callers(self, two_cpus):
        # more callers than cores, switching often: each gets its own logits,
        # and the last one out restores the BLAS thread count
        model = build_model(default_config("micro"))
        xs = [Rng(10 + i).normal((3, 3, 32, 32)).astype(np.float32) for i in range(4)]
        refs = [model.forward(x) for x in xs]
        before = blas.threads()
        results = {}

        def caller(i):
            results[i] = all(np.array_equal(model.forward(xs[i]), refs[i]) for _ in range(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: True for i in range(len(xs))}
        assert blas.threads() == before


def bn_state(model) -> list:
    """Per BN, each attribute's object and (for tensors) its bytes."""
    def snap(v):
        arr = v.value if isinstance(v, Param) else v
        return v, arr.tobytes() if isinstance(arr, np.ndarray) else arr
    return [{k: snap(v) for k, v in vars(bn).items()} for bn in model.iter_batchnorms()]


def changed(before: dict, after: dict) -> set:
    assert before.keys() == after.keys()
    return {k for k in before if before[k][0] is not after[k][0] or before[k][1] != after[k][1]}


class TestInputUntouched:
    """No forward writes into the caller's x: batch slices are views of it, and
    each block's first stage, identity skip and residual read its input."""

    @pytest.fixture(scope="class")
    def models(self):
        nets = {}
        for variant in ("micro", "ti"):
            for dtype in ("f32", "f64"):
                net = build_model(default_config(variant), dtype)
                nets[variant, False, dtype], nets[variant, True, dtype] = net, fuse_model(net)[0]
        return nets

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(["micro", "ti"]), fused=st.booleans(),
           dtype=st.sampled_from(["f32", "f64"]), mode=st.sampled_from(["eval", "train", "discard"]),
           n=st.integers(1, 4), cpus=st.sampled_from([1, 2]))
    def test_forward_leaves_x_bitwise_unchanged(self, models, variant, fused, dtype, mode, n,
                                                cpus):
        model = models[variant, fused, dtype]
        model.set_mode("eval" if mode == "eval" else "train")
        x = Rng(n).normal((n, 3, 64, 64), std=2.0, dtype=model.dtype)
        before = x.tobytes()
        with mock.patch.object(model_mod, "_usable_cpus", lambda: cpus):
            model.forward(x, record=mode != "discard")
        assert x.tobytes() == before


class TestBatchNormWrites:
    """A forward writes nothing to a BN but, in train mode, its running statistics."""

    def test_eval_forward_writes_nothing(self):
        model = build_model(default_config("micro"))
        before = bn_state(model)
        model.forward(Rng(3).normal((2, 3, 32, 32)))
        assert all(not changed(b, a) for b, a in zip(before, bn_state(model)))

    def test_train_forward_writes_only_running_stats(self):
        model = build_model(default_config("micro"))
        model.set_mode("train")
        before = bn_state(model)
        model.forward(Rng(3).normal((2, 3, 32, 32)))
        after = bn_state(model)
        assert len(after) == len(before) > 0
        assert all(changed(b, a) == {"running_mean", "running_var"}
                   for b, a in zip(before, after))


class TestIterParams:
    def test_name_uniqueness_all_variants(self):
        for variant in VARIANTS:
            model = build_model(default_config(variant))
            names = [name for name, _ in model.iter_params()]
            assert len(names) == len(set(names)), variant

    def test_tensor_count_matches_config_arithmetic(self):
        # stem: 2 convs + 2 BNs = 6 tensors; IRB: 3 convs + 3 BNs = 9;
        # MLDC: cpe w+b, pw+BN, 2 branches + 2 BNs, pw+BN = 14; FFN: dw+BN,
        # fc1 w+b, fc2, BN = 8; downsample: conv + BN = 3; hidden head = 4
        cfg = default_config("ti")
        n_irb = sum(s.n_irb for s in cfg.stages)
        n_dcb = sum(s.n_dcb for s in cfg.stages)
        expected = 6 + 9 * n_irb + (14 + 8) * n_dcb + 3 * 3 + 4
        model = build_model(cfg)
        assert len(model.iter_params()) == expected

    def test_numels_sum_to_count_params(self):
        model = build_model(default_config("micro"))
        total = sum(p.value.size for _, p in model.iter_params())
        assert total == count_params(model)

    def test_documented_naming_scheme(self):
        model = build_model(default_config("ti"))
        names = {name for name, _ in model.iter_params()}
        assert "stem.conv1.weight" in names
        assert "stage3.dcb0.mldc.branch_a.weight" in names
        assert "stage3.dcb0.mldc.branch_b.weight" in names
        assert "stage4.irb1.dw.weight" in names
        assert "down2.conv.weight" in names
        assert "head.fc1.weight" in names


class TestScaling:
    def test_monotone_params_and_macs(self):
        params = {}
        macs = {}
        for v in ("ti", "s", "m", "b"):
            model = build_model(default_config(v))
            params[v] = count_params(model)
            macs[v] = count_macs(model, 224)
        assert params["ti"] < params["s"] < params["m"] < params["b"]
        assert macs["ti"] < macs["s"] < macs["m"] < macs["b"]
