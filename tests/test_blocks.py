import tracemalloc

import numpy as np
import pytest

from conftest import layers, randomize_bn_stats
from rapidnet import blocks as blocks_mod
from rapidnet.blocks import (
    DISCARD,
    DilatedConvBlock,
    DownsampleBlock,
    HeadBlock,
    InvertedResidualBlock,
    LkFfnBlock,
    MldcBlock,
    Parallel,
    StemBlock,
    stages,
)
from rapidnet.errors import GeometryError, ShapeError
from rapidnet.tensor import Rng


class TestStem:
    def test_quarter_resolution_ti_width(self, rng):
        stem = StemBlock(3, 32, rng=rng)
        out = stem.forward(rng.normal((1, 3, 224, 224)))
        assert out.shape == (1, 32, 56, 56)

    def test_minimum_size(self, rng):
        stem = StemBlock(3, 8, rng=rng)
        assert stem.forward(rng.normal((1, 3, 4, 4))).shape == (1, 8, 1, 1)

    def test_indivisible_resolution(self, rng):
        stem = StemBlock(3, 8, rng=rng)
        with pytest.raises(GeometryError):
            stem.forward(rng.normal((1, 3, 226, 224)))


class TestInvertedResidual:
    def test_zero_weights_is_identity(self, rng):
        block = InvertedResidualBlock(4)  # zero-initialized convs, identity BN stats
        x = rng.normal((2, 4, 6, 6))
        assert np.allclose(block.forward(x), x)

    def test_shape_preserved_stage3_width(self, rng):
        block = InvertedResidualBlock(112, rng=rng)
        x = rng.normal((1, 112, 14, 14))
        assert block.forward(x).shape == (1, 112, 14, 14)

    def test_channel_mismatch(self, rng):
        block = InvertedResidualBlock(4, rng=rng)
        with pytest.raises(ShapeError):
            block.forward(rng.normal((1, 5, 6, 6)))


class TestMldc:
    def test_zero_weights_is_identity(self, rng):
        block = MldcBlock(4)
        x = rng.normal((1, 4, 9, 9))
        # cpe weights are zero and the skip carries x through; pw convs are
        # zero so the outer residual dominates
        assert np.allclose(block.forward(x), x)

    def test_shape_preserved_stage4_width(self, rng):
        block = MldcBlock(224, rng=rng)
        x = rng.normal((1, 224, 7, 7))
        assert block.forward(x).shape == (1, 224, 7, 7)

    def test_small_inputs_permitted(self, rng):
        block = MldcBlock(4, rng=rng)
        assert block.forward(rng.normal((1, 4, 2, 2))).shape == (1, 4, 2, 2)

    def test_branch_symmetry(self, rng):
        # swapping both branch weights and their dilations leaves the sum unchanged
        block = MldcBlock(4, rng=rng)
        x = rng.normal((1, 4, 8, 8))
        out = block.forward(x)
        i, mixer = next((i, group) for i, group in enumerate(block.plan)
                        if len(group.stages) == 2)
        block.plan[i] = mixer._replace(stages=mixer.stages[::-1])
        assert np.allclose(block.forward(x), out)

    def test_branch_counts_per_mode(self, rng):
        assert len(layers(MldcBlock(4, mixer_mode="mldc", rng=rng), "branch_")) == 2
        assert len(layers(MldcBlock(4, mixer_mode="sldc", rng=rng), "branch_")) == 1
        assert len(layers(MldcBlock(4, mixer_mode="conv3x3", rng=rng), "branch_")) == 1
        assert len(layers(MldcBlock(4, mixer_mode="pointwise", rng=rng), "branch_")) == 1

    def test_dilations_and_kernels(self, rng):
        block = MldcBlock(4, dilations=(3, 4), kernel=5, rng=rng)
        branches = layers(block, "branch_")
        assert [c.dilation for c in branches] == [3, 4]
        assert [c.kernel_size for c in branches] == [5, 5]
        assert [c.padding for c in branches] == [6, 8]
        x = rng.normal((1, 4, 10, 10))
        assert block.forward(x).shape == x.shape


class TestLkFfn:
    def test_zero_weights_is_identity(self, rng):
        block = LkFfnBlock(4)
        x = rng.normal((1, 4, 8, 8))
        assert np.allclose(block.forward(x), x)

    def test_shape_preserved_m_stage3(self, rng):
        block = LkFfnBlock(160, rng=rng)
        x = rng.normal((2, 160, 14, 14))
        assert block.forward(x).shape == (2, 160, 14, 14)

    def test_small_kernel_flag(self, rng):
        block = LkFfnBlock(4, large_kernel=False, rng=rng)
        assert dict(block.named_layers())["dw"].kernel_size == 1
        x = rng.normal((1, 4, 6, 6))
        assert block.forward(x).shape == x.shape


class TestComposites:
    def test_dcb_shape(self, rng):
        dcb = DilatedConvBlock(MldcBlock(112, rng=rng), LkFfnBlock(112, rng=rng))
        x = rng.normal((1, 112, 14, 14))
        assert dcb.forward(x).shape == (1, 112, 14, 14)

    def test_downsample_ti_stage3_to_4(self, rng):
        block = DownsampleBlock(112, 224, rng=rng)
        x = rng.normal((1, 112, 14, 14))
        assert block.forward(x).shape == (1, 224, 7, 7)

    def test_head_shape(self, rng):
        head = HeadBlock(224, 1000, rng=rng)
        x = rng.normal((1, 224, 7, 7))
        assert head.forward(x).shape == (1, 1000)

    def test_head_hidden_shape(self, rng):
        head = HeadBlock(224, 1000, hidden=1280, rng=rng)
        x = rng.normal((2, 224, 7, 7))
        assert head.forward(x).shape == (2, 1000)


class TestResidualPassthrough:
    # any residual block with zero non-skip weights and identity BN stats is identity
    @pytest.mark.parametrize("factory", [
        lambda: InvertedResidualBlock(4),
        lambda: MldcBlock(4),
        lambda: MldcBlock(4, mixer_mode="sldc"),
        lambda: MldcBlock(4, use_cpe=False),
        lambda: LkFfnBlock(4),
    ])
    def test_identity(self, factory, rng):
        block = factory()
        x = rng.normal((1, 4, 8, 8))
        assert np.allclose(block.forward(x), x, atol=1e-6)


class TestTape:
    """Blocks hold no state: a train forward records on the caller's tape, and
    backward pops exactly what that forward pushed."""

    @pytest.mark.parametrize("factory, shape", [
        (lambda: StemBlock(3, 4), (2, 3, 8, 8)),
        (lambda: InvertedResidualBlock(4), (2, 4, 4, 4)),
        (lambda: DownsampleBlock(4, 6), (2, 4, 4, 4)),
        (lambda: MldcBlock(4), (2, 4, 6, 6)),
        (lambda: MldcBlock(4, gelu_per_branch=True), (2, 4, 6, 6)),
        (lambda: LkFfnBlock(4), (2, 4, 6, 6)),
        (lambda: LkFfnBlock(4, large_kernel=False), (2, 4, 6, 6)),
        (lambda: HeadBlock(4, 3, hidden=5), (2, 4, 3, 3)),
        (lambda: DilatedConvBlock(MldcBlock(4), LkFfnBlock(4)), (2, 4, 6, 6)),
    ], ids=["stem", "irb", "down", "mldc", "mldc_gelu_per_branch", "lkffn", "lkffn_1x1",
            "head", "dcb"])
    def test_backward_empties_the_tape(self, factory, shape, rng):
        block = factory()
        x = rng.normal(shape)
        tape = []
        out = block.forward(x, tape)
        assert tape
        grad = block.backward(rng.normal(out.shape), tape)
        assert tape == [] and grad.shape == x.shape

    @pytest.mark.parametrize("factory, shape", [
        (lambda r: StemBlock(3, 4, rng=r), (2, 3, 8, 8)),
        (lambda r: InvertedResidualBlock(4, rng=r), (2, 4, 4, 4)),
        (lambda r: MldcBlock(4, rng=r), (2, 4, 6, 6)),
        (lambda r: MldcBlock(4, gelu_per_branch=True, rng=r), (2, 4, 6, 6)),
        (lambda r: LkFfnBlock(4, rng=r), (2, 4, 6, 6)),
        (lambda r: HeadBlock(4, 3, hidden=5, rng=r), (2, 4, 3, 3)),
    ], ids=["stem", "irb", "mldc", "mldc_gelu_per_branch", "lkffn", "head"])
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_tape_holds_what_backward_reads(self, factory, shape, dt):
        # each stage keeps its input, its BN input and statistics when it has
        # a BN, its GeLU input and Phi when it has a GeLU; a group with a
        # GeLU keeps its sum and Phi.  Backward from that tape is bitwise the
        # backward that takes the statistics and Phi again.
        rng = Rng(5)
        block = factory(rng)
        tape = []
        out = block.forward(rng.normal(shape, dtype=dt), tape)
        g = rng.normal(out.shape, dtype=dt)
        want = []
        for item in block.plan:
            for st in stages([item]):
                want.append((True, st.bn is not None, st.bn is not None, st.act, st.act))
            if isinstance(item, Parallel) and item.act:
                want.append((True, True))
        assert [tuple(v is not None for v in e) for e in tape] == want
        again = [(e[0], None) if len(e) == 2 else (e[0], e[1], None, e[3], None) for e in tape]

        def grads(t):
            for _, p in block.named_params():
                p.zero_grad()
            gx = block.backward(g, t)
            return [gx] + [p.grad.copy() for _, p in block.named_params()]

        kept, recomputed = grads(tape), grads(again)
        assert tape == [] and again == []
        assert all(np.array_equal(a, b) for a, b in zip(kept, recomputed))

    @pytest.mark.parametrize("factory, shape", [
        (lambda: StemBlock(3, 4, rng=Rng(2)), (2, 3, 8, 8)),
        (lambda: MldcBlock(4, rng=Rng(2)), (2, 4, 6, 6)),
        (lambda: DilatedConvBlock(MldcBlock(4, rng=Rng(2)), LkFfnBlock(4, rng=Rng(3))),
         (2, 4, 6, 6)),
    ], ids=["stem", "mldc", "dcb"])
    def test_discard_runs_train_mode_and_records_nothing(self, factory, shape, rng):
        x = rng.normal(shape)
        recorded, discarded = factory(), factory()
        want = recorded.forward(x, [])
        assert np.array_equal(discarded.forward(x, DISCARD), want)
        assert DISCARD == []
        parts = (lambda b: [b.mldc, b.ffn] if isinstance(b, DilatedConvBlock) else [b])
        bufs = [[buf for p in parts(b) for _, buf in p.named_buffers()]
                for b in (recorded, discarded)]
        assert all(np.array_equal(a, b) for a, b in zip(*bufs))
        assert not np.array_equal(bufs[0][0], np.zeros_like(bufs[0][0]))  # train-mode BN ran

    @pytest.mark.parametrize("factory", [
        lambda: DownsampleBlock(4, 6),
        lambda: DilatedConvBlock(MldcBlock(4), LkFfnBlock(4)),
    ], ids=["down", "dcb"])
    @pytest.mark.parametrize("tape", [False, True, (), {}])
    def test_tape_that_is_not_a_list_is_refused_first(self, factory, tape, rng):
        # a bool in the tape slot once ran BN in train mode before failing
        block = factory()
        parts = [block.mldc, block.ffn] if isinstance(block, DilatedConvBlock) else [block]
        before = [buf.copy() for b in parts for _, buf in b.named_buffers()]
        with pytest.raises(TypeError, match="tape"):
            block.forward(rng.normal((2, 4, 6, 6)), tape)
        after = [buf for b in parts for _, buf in b.named_buffers()]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))

    @pytest.mark.parametrize("tape", [None, []])
    def test_forward_sets_no_block_attribute(self, tape, rng):
        block = MldcBlock(4)
        block.forward(rng.normal((2, 4, 6, 6)), tape)
        assert list(vars(block)) == ["plan"]


class TestInPlace:
    """A forward that records nothing writes each post-op into the buffer it
    consumes, with the bits of the forward that allocates every result, and
    never writes into the block's input."""

    @pytest.mark.parametrize("factory, shape", [
        (lambda r, dt: StemBlock(3, 4, rng=r, dtype=dt), (2, 3, 8, 8)),
        (lambda r, dt: InvertedResidualBlock(6, rng=r, dtype=dt), (2, 6, 9, 7)),
        (lambda r, dt: DownsampleBlock(4, 6, rng=r, dtype=dt), (2, 4, 4, 4)),
        (lambda r, dt: MldcBlock(4, rng=r, dtype=dt), (2, 4, 6, 6)),
        (lambda r, dt: MldcBlock(4, gelu_per_branch=True, mixer_mode="sldc", rng=r, dtype=dt),
         (2, 4, 6, 6)),
        (lambda r, dt: MldcBlock(4, use_cpe=False, mixer_mode="conv3x3", rng=r, dtype=dt),
         (2, 4, 6, 6)),
        (lambda r, dt: LkFfnBlock(4, rng=r, dtype=dt), (2, 4, 6, 6)),
        (lambda r, dt: HeadBlock(4, 3, hidden=5, rng=r, dtype=dt), (2, 4, 3, 3)),
    ], ids=["stem", "irb", "down", "mldc", "sldc_gelu_per_branch", "conv3x3_no_cpe", "lkffn",
            "head"])
    @pytest.mark.parametrize("tape", [None, DISCARD], ids=["eval", "discard"])
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_bitwise_the_forward_that_allocates(self, factory, shape, tape, dt, monkeypatch):
        x = Rng(7).normal(shape, std=2.0, dtype=dt)
        x0 = x.copy()
        pair = [factory(Rng(5), dt) for _ in range(2)]
        for block in pair:
            randomize_bn_stats(block, 6)
        got = pair[0].forward(x, tape)
        with monkeypatch.context() as m:
            for name in ("conv2d", "batchnorm_forward", "gelu", "add"):
                fn = getattr(blocks_mod, name)
                m.setattr(blocks_mod, name, lambda *a, _fn=fn, out=None, **kw: _fn(*a, **kw))
            want = pair[1].forward(x, tape)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(x, x0)
        bufs = [[buf for _, buf in b.named_buffers()] for b in pair]
        assert all(np.array_equal(a, b) for a, b in zip(*bufs))

    def test_irb_eval_forward_peak_is_input_plus_hidden(self):
        # ti's stage-1 IRB on a 4-image slice at 224 px: the 4x hidden map is
        # expanded, normalized, activated and convolved in one buffer
        block = InvertedResidualBlock(32, rng=Rng(0))
        x = Rng(1).normal((4, 32, 56, 56))
        block.forward(x)
        tracemalloc.start()
        try:
            block.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (x.nbytes + 4 * x.nbytes)
