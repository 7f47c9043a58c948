import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import rapidnet
from rapidnet.analysis import block_conv_macs, conv_macs, count_macs
from rapidnet.bench import BenchProtocol, bench_case, blas_threads, trimmed_stats
from rapidnet.blocks import MldcBlock
from rapidnet.model import build_model, default_config
from rapidnet.ops import Conv2dLayer
from rapidnet.tensor import Rng

FAST = BenchProtocol(rounds=5, iters_per_round=1, trim=1, warmup=1)


class TestTrimmedStats:
    def test_one_to_fifty_trim_ten(self):
        mean, median, tmin = trimmed_stats(list(range(1, 51)), 10)
        assert mean == 25.5  # mean of 11..40
        assert median == 25.5
        assert tmin == 1

    def test_all_equal(self):
        mean, median, tmin = trimmed_stats([7.0] * 12, 3)
        assert mean == median == tmin == 7.0

    def test_over_trim(self):
        with pytest.raises(ValueError):
            trimmed_stats(list(range(50)), 25)

    def test_permutation_invariant(self):
        times = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        base = trimmed_stats(times, 2)
        shuffled = [times[i] for i in Rng(0).permutation(len(times))]
        assert trimmed_stats(shuffled, 2) == base

    def test_trim_zero(self):
        mean, median, tmin = trimmed_stats([1.0, 2.0, 3.0], 0)
        assert mean == 2.0 and median == 2.0 and tmin == 1.0


class TestProtocol:
    def test_defaults(self):
        p = BenchProtocol()
        assert (p.rounds, p.iters_per_round, p.trim) == (50, 50, 10)
        p.validate()

    def test_invalid_trim(self):
        with pytest.raises(ValueError):
            BenchProtocol(rounds=10, trim=5).validate()

    def test_negative_warmup(self):
        BenchProtocol(warmup=0).validate()
        with pytest.raises(ValueError, match="warmup"):
            BenchProtocol(warmup=-1).validate()


class TestBenchCase:
    def test_dilated_vs_dense_mac_ratio(self):
        shape = (1, 16, 14, 14)
        dilated = bench_case("dilated3x3", shape, FAST, dilation=3)
        dense = bench_case("dense_kxk", shape, FAST, kernel=7)
        assert dilated.macs * 49 == dense.macs * 9

    def test_mac_annotation_matches_analysis(self):
        n, c, h, w = 2, 8, 12, 12
        result = bench_case("dilated3x3", (n, c, h, w), FAST, dilation=3)
        conv = Conv2dLayer.create(c, c, 3, padding=3, dilation=3)
        assert result.macs == conv_macs(conv, h, w, n)

        result = bench_case("mldc_block", (1, c, h, w), FAST)
        block = MldcBlock(c)
        assert result.macs == block_conv_macs(block, h, w)

    def test_model_mac_annotation_matches_analysis(self):
        result = bench_case("model", (1, 3, 32, 32), FAST, variant="micro")
        model = build_model(default_config("micro"))
        assert result.macs == count_macs(model, 32)

    def test_depthwise_mac_annotation(self):
        n, c, h, w = 2, 6, 10, 10
        for k, d in ((3, 1), (7, 1), (3, 2)):
            result = bench_case("depthwise", (n, c, h, w), FAST, kernel=k, dilation=d)
            conv = Conv2dLayer.create(c, c, k, padding=d * (k - 1) // 2, dilation=d, groups=c)
            assert result.macs == conv_macs(conv, h, w, n) == n * c * h * w * k * k
            assert result.label == f"depthwise_{k}x{k}(d={d})"

    def test_depthwise_needs_two_channels(self):
        with pytest.raises(ValueError, match="C >= 2"):
            bench_case("depthwise", (1, 1, 8, 8), FAST, kernel=3, dilation=1)

    def test_pw_mixer_cheaper_than_mldc(self):
        shape = (1, 16, 10, 10)
        pw = bench_case("pw_mixer", shape, FAST)
        mldc = bench_case("mldc_block", shape, FAST)
        assert pw.macs < mldc.macs

    def test_result_fields_and_json(self):
        result = bench_case("dilated3x3", (1, 4, 8, 8), FAST)
        assert len(result.round_times_ns) == FAST.rounds
        assert result.min_ns <= result.median_ns
        assert all(t > 0 for t in result.round_times_ns)
        data = json.loads(result.to_json_line())
        assert list(data) == ["label", "shape", "macs", "round_times_ns", "trimmed_mean_ns",
                              "median_ns", "min_ns", "threads", "workers", "melems_per_s",
                              "peak_alloc_mb"]
        assert data["threads"] == blas_threads()
        assert data["workers"] is None  # an op case runs no batch slices
        assert data["melems_per_s"] is None  # a conv case counts MACs instead

    def test_gelu_reports_elements_per_second(self):
        proto = BenchProtocol(rounds=5, iters_per_round=3, trim=1, warmup=1)
        result = bench_case("gelu", (2, 4, 8, 8), proto)
        assert (result.label, result.macs, result.workers) == ("gelu", 0, None)
        assert result.melems_per_s == 2 * 4 * 8 * 8 * 3 / result.median_ns * 1e3

    @pytest.mark.parametrize("case, shape, out_bytes", [
        ("gelu", (2, 4, 8, 8), 2 * 4 * 8 * 8 * 4),
        ("dilated3x3", (1, 4, 8, 8), 1 * 4 * 8 * 8 * 4),
        ("model", (2, 3, 32, 32), 2 * 8 * 4),
    ])
    def test_peak_alloc_counts_the_call(self, case, shape, out_bytes):
        # at least the result the call allocates, far below a 224 px model
        result = bench_case(case, shape, FAST, variant="micro")
        assert out_bytes <= result.peak_alloc_mb * 1e6 < 16e6
        assert not tracemalloc.is_tracing()

    @pytest.mark.parametrize("n", [1, 3])
    def test_model_workers_are_the_slices_that_ran(self, n):
        result = bench_case("model", (n, 3, 32, 32), FAST, variant="micro")
        assert result.workers == build_model(default_config("micro")).workers(n)
        assert result.threads == blas_threads()  # restored after the timed forwards

    def test_threads_follow_openblas(self):
        # the count comes from OpenBLAS, so it follows the thread variable
        # set before numpy loads
        if blas_threads() is None:
            pytest.skip("numpy carries no OpenBLAS library")
        src = os.path.dirname(os.path.dirname(rapidnet.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c",
                              "from rapidnet.bench import blas_threads; print(blas_threads())"],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "1"

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            bench_case("winograd", (1, 4, 8, 8), FAST)

    def test_model_case_shape_validated(self):
        with pytest.raises(ValueError):
            bench_case("model", (1, 4, 32, 32), FAST, variant="micro")
