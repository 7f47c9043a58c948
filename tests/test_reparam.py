import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings

from conftest import ABLATION_FLAGS, randomize_bn_stats
from rapidnet.analysis import report as analysis_report
from rapidnet.blocks import MldcBlock, Parallel, Stage, stages
from rapidnet.errors import FusionError, ShapeError, StateError
from rapidnet.model import build_model, default_config
from rapidnet.ops import BatchNorm2d, Conv2dLayer, batchnorm_forward, conv2d
from rapidnet.reparam import (
    _fuse_block,
    count_batchnorms,
    fold_bn_into_conv,
    fuse_identity_into_dw,
    fuse_model,
    recalibrate_bn,
    reparameterize_model,
)
from rapidnet.tensor import Rng


class TestSkipFusion:
    def test_zero_weight_becomes_identity(self, rng):
        dw = Conv2dLayer.create(4, 4, 7, padding=3, groups=4)
        fused = fuse_identity_into_dw(dw)
        x = rng.normal((1, 4, 8, 8))
        assert np.allclose(conv2d(x, fused), x)

    def test_matches_explicit_skip(self, rng):
        dw = Conv2dLayer.create(6, 6, 7, padding=3, groups=6, rng=rng)
        dw.bias.value[:] = rng.normal((6,))
        fused = fuse_identity_into_dw(dw)
        x = rng.normal((2, 6, 9, 9))
        assert np.max(np.abs(conv2d(x, fused) - (x + conv2d(x, dw)))) < 1e-6

    def test_stride_two_rejected(self, rng):
        dw = Conv2dLayer.create(4, 4, 7, stride=2, padding=3, groups=4, rng=rng)
        with pytest.raises(FusionError):
            fuse_identity_into_dw(dw)

    def test_non_depthwise_rejected(self, rng):
        conv = Conv2dLayer.create(4, 4, 3, padding=1, rng=rng)
        with pytest.raises(FusionError):
            fuse_identity_into_dw(conv)

    def test_even_kernel_rejected(self, rng):
        w = np.zeros((4, 1, 2, 2), dtype=np.float32)
        dw = Conv2dLayer(w, stride=1, padding=0, groups=4)
        with pytest.raises(FusionError):
            fuse_identity_into_dw(dw)


class TestBnFolding:
    def test_identity_stats_near_noop(self, rng):
        conv = Conv2dLayer.create(3, 5, 3, padding=1, rng=rng)
        bn = BatchNorm2d.create(5)
        folded = fold_bn_into_conv(conv, bn)
        # only the 1/sqrt(1+eps) scaling remains
        assert np.max(np.abs(folded.weight.value - conv.weight.value)) < 1e-5

    def test_matches_bn_of_conv(self, rng):
        conv = Conv2dLayer.create(3, 5, 3, padding=1, bias=True, rng=rng)
        conv.bias.value[:] = rng.normal((5,))
        bn = BatchNorm2d.create(5)
        bn.running_mean[:] = rng.normal((5,))
        bn.running_var[:] = rng.uniform((5,), 0.5, 2.0)
        bn.gamma.value[:] = rng.uniform((5,), 0.5, 1.5)
        bn.beta.value[:] = rng.normal((5,))
        folded = fold_bn_into_conv(conv, bn)
        x = rng.normal((2, 3, 6, 6))
        want = batchnorm_forward(conv2d(x, conv), bn)
        assert np.max(np.abs(conv2d(x, folded) - want)) < 1e-5

    def test_channel_mismatch(self, rng):
        conv = Conv2dLayer.create(3, 5, 3, rng=rng)
        with pytest.raises(ShapeError):
            fold_bn_into_conv(conv, BatchNorm2d.create(4))


class TestRecalibrate:
    def test_one_pass_at_momentum_one_then_defaults_restored(self):
        model = build_model(default_config("micro"), dtype="f64")
        x = Rng(4).normal((4, 3, 32, 32), dtype=np.float64)
        recalibrate_bn(model, x)
        assert model.mode == "eval"
        stem = dict(model.named_blocks())["stem"]
        conv1 = stem.plan[0].stages[0]
        y = conv2d(x, conv1.conv)
        assert np.allclose(conv1.bn.running_mean, y.mean(axis=(0, 2, 3)), atol=1e-12)
        for bn in model.iter_batchnorms():
            assert "momentum" not in vars(bn) and bn.momentum == 0.1

    @staticmethod
    def recorded_recalibration(model, x):
        """Recalibration as a recorded train-mode forward at momentum 1, then the mode restored."""
        bns = list(model.iter_batchnorms())
        for bn in bns:
            bn.momentum = 1.0
        prev = model.mode
        model.set_mode("train")
        model.forward(x)
        model.set_mode(prev)
        for bn in bns:
            del bn.momentum

    @pytest.mark.parametrize("variant, dtype, shape", [("micro", "f32", (4, 3, 32, 32)),
                                                       ("micro", "f64", (4, 3, 64, 64)),
                                                       ("ti", "f32", (2, 3, 64, 64))])
    def test_running_stats_bitwise_those_of_a_recorded_pass(self, variant, dtype, shape):
        fresh, recorded = (build_model(default_config(variant), dtype) for _ in range(2))
        x = Rng(6).normal(shape, dtype=fresh.dtype)
        recalibrate_bn(fresh, x)
        self.recorded_recalibration(recorded, x)
        got, want = fresh.iter_buffers(), recorded.iter_buffers()
        assert [n for n, _ in got] == [n for n, _ in want]
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for (_, a), (_, b) in zip(got, want))

    def test_peak_memory_far_below_a_recorded_pass(self):
        # ti at 64 px: the recorded pass's tape is ~10 MB, the pass itself ~2 MB
        model = build_model(default_config("ti"))
        x = Rng(6).normal((2, 3, 64, 64))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.recorded_recalibration(model, x)
            recorded = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            recalibrate_bn(model, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < recorded / 3, (peak, recorded)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("bad", [
        np.zeros((2, 3, 32, 32), np.float64),   # another dtype
        np.zeros((0, 3, 32, 32), np.float32),   # no samples
        np.zeros((2, 3, 32, 32), np.float32).tolist(),
        np.zeros((2, 4, 32, 32), np.float32),   # another channel count
    ], ids=["f64", "batch0", "list", "channels4"])
    def test_bad_batch_is_refused_with_nothing_changed(self, mode, bad):
        model = build_model(default_config("micro"))
        model.set_mode(mode)
        before = [buf.copy() for _, buf in model.iter_buffers()]
        with pytest.raises(ShapeError):
            recalibrate_bn(model, bad)
        assert model.mode == mode
        assert all(np.array_equal(b, a) for b, (_, a) in zip(before, model.iter_buffers()))
        for bn in model.iter_batchnorms():
            assert "momentum" not in vars(bn) and bn.momentum == 0.1


class TestMldcBlockEquivalence:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-8)])
    def test_fused_mode_matches_train_form(self, rng, dtype, tol):
        block = MldcBlock(4, rng=rng, dtype=dtype)
        # non-trivial BN stats so folding is exercised
        named = dict(block.named_layers())
        for bn in [named[n] for n in ("bn_in", "bn_out", "bn_a", "bn_b")]:
            bn.running_mean[:] = rng.normal((4,), std=0.2, dtype=dtype)
            bn.running_var[:] = rng.uniform((4,), 0.5, 1.5, dtype=dtype)
        fused = _fuse_block(block)
        x = rng.normal((1, 4, 9, 9), dtype=dtype)
        want = block.forward(x)
        got = fused.forward(x)
        assert np.max(np.abs(got - want)) < tol


class TestModelReparam:
    def test_ti_f32_equivalence(self):
        # BN statistics re-estimated on a calibration batch first: a fresh
        # network's placeholder stats let activations grow out of the f32
        # regime the tolerance assumes (a trained model never has that).
        model = build_model(replace(default_config("ti"), seed=11))
        recalibrate_bn(model, Rng(99).normal((2, 3, 224, 224)))
        fused, report = reparameterize_model(model)
        x = Rng(17).normal((1, 3, 224, 224))
        diff = float(np.max(np.abs(model.forward(x) - fused.forward(x))))
        assert diff < 1e-4
        assert report.fused_skips == 4
        assert report.folded_bns > 0

    def test_micro_f64_equivalence(self):
        model = build_model(replace(default_config("micro"), seed=2), dtype="f64")
        randomize_bn_stats(model, seed=6)
        fused, report = reparameterize_model(model)
        x = Rng(23).normal((1, 3, 64, 64), dtype=np.float64)
        diff = float(np.max(np.abs(model.forward(x) - fused.forward(x))))
        assert diff < 1e-8
        assert report.max_abs_logit_diff < 1e-8

    def test_no_batchnorms_left(self):
        model = build_model(default_config("micro"))
        fused, _ = reparameterize_model(model)
        assert count_batchnorms(model) > 0
        assert count_batchnorms(fused) == 0

    def test_fewer_stored_tensors(self):
        model = build_model(default_config("micro"))
        fused, _ = reparameterize_model(model)
        n_before = len(model.iter_params()) + len(model.iter_buffers())
        n_after = len(fused.iter_params()) + len(fused.iter_buffers())
        assert n_after < n_before
        assert len(fused.iter_buffers()) == 0

    def test_idempotent(self):
        model = build_model(default_config("micro"))
        fused, first = reparameterize_model(model)
        again, second = reparameterize_model(fused)
        assert first.fused_skips == 2 and first.folded_bns > 0
        assert second.fused_skips == 0 and second.folded_bns == 0
        x = Rng(1).normal((1, 3, 32, 32))
        assert np.array_equal(fused.forward(x), again.forward(x))

    def test_train_mode_rejected(self):
        model = build_model(default_config("micro"))
        model.set_mode("train")
        with pytest.raises(StateError):
            reparameterize_model(model)

    def test_source_model_not_mutated(self):
        model = build_model(default_config("micro"))
        x = Rng(4).normal((1, 3, 32, 32))
        before = model.forward(x)
        reparameterize_model(model)
        assert np.array_equal(model.forward(x), before)
        assert count_batchnorms(model) > 0

    def test_report_diff_recorded(self):
        model = build_model(default_config("micro"))
        _, report = reparameterize_model(model)
        assert report.max_abs_logit_diff >= 0.0
        assert report.max_abs_logit_diff < 1e-4

    @settings(max_examples=32, derandomize=True, deadline=None)
    @given(ABLATION_FLAGS)
    def test_ablation_architectures_equivalent(self, flags):
        # every ablation flag combination must fuse cleanly, and fusion and
        # the cost trace must agree with the stage plans they walk
        cfg = replace(default_config("micro"), **flags)
        model = build_model(cfg, dtype="f64")
        randomize_bn_stats(model, seed=9)
        fused, report = reparameterize_model(model)
        assert report.max_abs_logit_diff < 1e-8
        assert count_batchnorms(fused) == 0
        assert report.folded_bns == count_batchnorms(model)
        n_dcb = sum(s.n_dcb for s in cfg.stages)
        assert report.fused_skips == (n_dcb if cfg.use_cpe else 0)
        for net in (model, fused):
            prefixes = [name.rsplit(".", 1)[0] for name, _ in net.iter_params()]
            layers = [layer.name for layer in analysis_report(cfg, 64, model=net).layers]
            assert layers == list(dict.fromkeys(prefixes))


def assert_plans_are_groups(model):
    """Every plan item of the model and of its fusion is a group of stages;
    `stages` yields the conv and linear layers in `named_layers` order; fusion
    keeps each group's branch count and GeLU."""
    fused, _, _ = fuse_model(model)
    for (name, blk), (_, fblk) in zip(model.named_blocks(), fused.named_blocks()):
        for net_blk in (blk, fblk):
            assert all(isinstance(g, Parallel) for g in net_blk.plan), name
            assert all(isinstance(st, Stage) for st in stages(net_blk.plan)), name
            named = [n for n, layer in net_blk.named_layers() if not isinstance(layer, BatchNorm2d)]
            assert [st.name for st in stages(net_blk.plan) if st.conv is not None] == named
        assert ([(len(g.stages), g.act) for g in fblk.plan]
                == [(len(g.stages), g.act) for g in blk.plan]), name


class TestPlanGroups:
    @pytest.mark.parametrize("variant", ["ti", "micro"])
    def test_every_plan_item_is_a_group(self, variant):
        assert_plans_are_groups(build_model(default_config(variant), init=False))

    @settings(max_examples=16, derandomize=True, deadline=None)
    @given(ABLATION_FLAGS)
    def test_ablation_plans_are_groups(self, flags):
        assert_plans_are_groups(build_model(replace(default_config("micro"), **flags)))

    def test_only_the_mixer_has_two_branches(self):
        # a lone stage is a group of one branch and no GeLU
        model = build_model(default_config("micro"), init=False)
        widths = {f"{name}.{g.stages[0].name}": (len(g.stages), g.act)
                  for name, blk in model.named_blocks() for g in blk.plan}
        wide = {k: v for k, v in widths.items() if v != (1, False)}
        assert wide == {k: (2, True) for k in widths if k.endswith(".mldc.branch_a")}
        assert wide
