import numpy as np
import pytest

from conftest import layers
from rapidnet.blocks import (
    DilatedConvBlock,
    DownsampleBlock,
    HeadBlock,
    InvertedResidualBlock,
    LkFfnBlock,
    MldcBlock,
    Parallel,
    StemBlock,
)
from rapidnet.errors import GeometryError, ShapeError


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
        i, mixer = next((i, item) for i, item in enumerate(block.plan)
                        if isinstance(item, Parallel))
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
