import numpy as np
import pytest

from rapidnet import tensor
from rapidnet.errors import ShapeError
from rapidnet.tensor import ARENA_ALIGN, Rng, add, arena, arena_span, randn

BLOCK = tensor._DRAW_BLOCK
# sizes on both sides of one and several draw blocks
STRADDLING = [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3, BLOCK + 5), (2, 3, BLOCK // 3 + 2),
              (4 * BLOCK - 7,)]


class TestRandn:
    def test_same_seed_bitwise_identical(self):
        a = randn([3, 4, 5], Rng(42))
        b = randn([3, 4, 5], Rng(42))
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(randn([100], Rng(1)), randn([100], Rng(2)))

    def test_law_of_large_numbers(self):
        # sample mean/std of 10^6 draws should sit within 0.01 of (0, 1)
        samples = randn([10 ** 6], Rng(7), mean=0.0, std=1.0, dtype="f64")
        assert abs(float(samples.mean())) < 0.01
        assert abs(float(samples.std()) - 1.0) < 0.01

    def test_mean_std_applied(self):
        samples = randn([10 ** 5], Rng(7), mean=3.0, std=0.5, dtype="f64")
        assert abs(float(samples.mean()) - 3.0) < 0.01
        assert abs(float(samples.std()) - 0.5) < 0.01

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            randn([4], Rng(0), std=-1.0)

    def test_dtypes(self):
        assert randn([2], Rng(0), dtype="f32").dtype == np.float32
        assert randn([2], Rng(0), dtype="f64").dtype == np.float64

    def test_zero_dimension_rejected(self):
        with pytest.raises(ShapeError):
            randn([1, 0, 2], Rng(0))

    def test_negative_dimension_rejected(self):
        with pytest.raises(ShapeError):
            randn([2, -1], Rng(0))


class TestStreamedDraws:
    """Draws go through one reused block; the bits and the stream position are
    those of one numpy draw over the whole shape."""

    @pytest.mark.parametrize("shape", STRADDLING)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_randn_is_one_shot_draw(self, shape, dtype):
        gen = np.random.Generator(np.random.PCG64(11))
        want = (gen.standard_normal(shape) * 0.3 + 1.5).astype(dtype)
        rng = Rng(11)
        got = randn(shape, rng, mean=1.5, std=0.3, dtype=dtype)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert rng._gen.standard_normal(5).tobytes() == gen.standard_normal(5).tobytes()

    @pytest.mark.parametrize("shape", STRADDLING)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uniform_is_one_shot_draw(self, shape, dtype):
        gen = np.random.Generator(np.random.PCG64(12))
        want = gen.uniform(-0.7, 2.5, size=shape).astype(dtype)
        rng = Rng(12)
        got = rng.uniform(shape, -0.7, 2.5, dtype=dtype)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert rng._gen.random(5).tobytes() == gen.random(5).tobytes()

    def test_draw_into_out(self):
        out = np.full((3, BLOCK + 1), np.nan, dtype=np.float32)
        assert randn(out.shape, Rng(3), std=2.0, out=out) is out
        assert out.tobytes() == randn(out.shape, Rng(3), std=2.0).tobytes()
        with pytest.raises(ValueError):
            randn(out.shape, Rng(3), dtype="f64", out=out)

    def test_transient_is_one_block(self):
        import tracemalloc
        tracemalloc.start()
        try:
            x = randn((64, BLOCK), Rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - x.nbytes < 8 * BLOCK + 64 * 1024

    def test_uniform_range_must_be_finite(self):
        with pytest.raises(OverflowError):
            Rng(0).uniform((2,), -1e308, 1e308)


class TestArena:
    def test_aligned_disjoint_zeroed_views_in_order(self):
        shapes = [(3,), (5, 7), (1,), (16,), (2, 3, 4, 5)]
        for dtype in ("f32", "f64"):
            views = arena(shapes, dtype)
            assert [v.shape for v in views] == shapes
            base = views[0].base
            starts = [v.ctypes.data for v in views]
            assert all(v.base is base and not v.any() for v in views)
            assert all(s % ARENA_ALIGN == 0 for s in starts)
            assert all(v.ctypes.data + v.nbytes <= nxt for v, nxt in zip(views, starts[1:]))
            span = arena_span(views)
            assert span.base is base and span.ctypes.data == starts[0]
            assert span.ctypes.data + span.nbytes == starts[-1] + views[-1].nbytes

    def test_span_refuses_other_layouts(self):
        views = arena([(3,), (5,), (8,)], "f32")
        assert arena_span(views[::-1]) is None          # out of order
        assert arena_span([views[0], views[2]]) is None  # a slot left out
        assert arena_span([np.zeros(3, np.float32)]) is None  # owns its data
        assert arena_span([views[0], np.zeros(5, np.float32), views[2]]) is None
        assert arena_span([]) is None


class TestElementwise:
    def test_additive_identity(self, rng):
        x = rng.normal((2, 3, 4, 4))
        assert np.array_equal(add(x, np.zeros_like(x)), x)

    def test_add_values(self):
        out = add(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(out, np.array([4.0, 6.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_inputs_not_mutated(self, rng):
        x = rng.normal((3, 3))
        x0 = x.copy()
        add(x, x)
        add(x, 2.0)
        assert np.array_equal(x, x0)

    def test_round_trip_with_zeros(self, rng):
        x = rng.normal((2, 5))
        assert np.array_equal(add(np.zeros(x.shape, dtype=x.dtype), x), x)
