import json

import numpy as np
import pytest

from conftest import (
    DEFECTIVE_CONFIGS,
    DEFECTIVE_ENTRIES,
    damage_entry,
    rewrite_config,
    widen_stage4,
)
from rapidnet import cli, reparam
from rapidnet.cli import main
from rapidnet.reparam import count_batchnorms
from rapidnet.tensor import Rng
from rapidnet.weights_io import MAGIC, load, save


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# The least argv each command parses, for the unread-flag cases below.
_MINIMAL_ARGV = {
    "analyze": ["--variant", "micro"],
    "bench": ["--case", "dilated3x3"],
    "train-toy": ["--steps", "1"],
    "infer": ["--model", "m", "--input", "x", "--shape", "1,3,32,32"],
    "export": ["--model", "m", "--out", "o"],
}


@pytest.mark.parametrize("command, flag", [
    ("analyze", "--seed=1"), ("analyze", "--dtype=f64"),
    ("bench", "--dtype=f64"), ("bench", "--json"), ("bench", "--threads=4"),
    ("train-toy", "--dtype=f64"),
    ("infer", "--seed=1"), ("infer", "--dtype=f64"), ("infer", "--json"),
    ("export", "--seed=1"), ("export", "--dtype=f64"),
])
def test_unread_flag_exits_one(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *_MINIMAL_ARGV[command], flag])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err


class TestBuild:
    def test_build_micro(self, tmp_path, capsys):
        out = tmp_path / "m.rpdn"
        code, _, _ = run(["build", "--variant", "micro", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_bytes()[:4] == MAGIC

    def test_build_with_classes(self, tmp_path, capsys):
        out = tmp_path / "m.rpdn"
        code, _, _ = run(["build", "--variant", "micro", "--classes", "10",
                          "--out", str(out)], capsys)
        assert code == 0
        head = dict(load(str(out)).named_blocks())["head"]
        assert dict(head.named_layers())["fc"].out_features == 10

    def test_build_ablation_dilations(self, tmp_path, capsys):
        out = tmp_path / "m.rpdn"
        code, _, _ = run(["build", "--variant", "micro", "--dilations", "3,4",
                          "--out", str(out)], capsys)
        assert code == 0
        model = load(str(out))
        assert model.config.dilations == (3, 4)

    def test_unknown_variant_exits_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--variant", "xl", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1

    def test_invalid_dilation_combo_exits_one(self, tmp_path, capsys):
        code, _, err = run(["build", "--variant", "micro", "--dilations", "3,2",
                            "--out", str(tmp_path / "x")], capsys)
        assert code == 1


class TestUnallocatable:
    # Each request's first array lies between 128 PiB (2**57 bytes) and 8 EiB
    # (2**63): past any host's address space, so numpy raises MemoryError
    # without mapping a page.  10**18 classes overflow numpy's byte count
    # instead, a ValueError.  Both are one error line and exit 1.
    @pytest.mark.parametrize("argv", [
        ["build", "--variant", "micro", "--classes", str(2 ** 52)],    # (2**52, 32) f64: 1 EiB
        ["build", "--variant", "micro", "--mixer-kernel", str(2 ** 24 + 1)],  # 1.1 EiB
        ["build", "--variant", "micro", "--classes", str(10 ** 18)],   # too big for numpy
        ["train-toy", "--samples", str(2 ** 46), "--steps", "1"],      # 1.5 EiB
    ], ids=["classes", "mixer_kernel", "classes_too_big", "samples"])
    def test_one_error_line_exit_one(self, argv, tmp_path, capsys):
        out_path = tmp_path / "m.rpdn"
        if argv[0] == "build":
            argv = argv + ["--out", str(out_path)]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == "" and not out_path.exists()
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestAnalyze:
    def test_ti_gmacs_near_reference(self, capsys):
        code, out, _ = run(["analyze", "--variant", "ti", "--resolution", "224",
                            "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert abs(data["total_gmacs"] - 0.6) / 0.6 < 0.10

    def test_nonstandard_resolution_runs(self, capsys):
        code, out, _ = run(["analyze", "--variant", "micro", "--resolution", "512",
                            "--json"], capsys)
        assert code == 0
        assert json.loads(out)["resolution"] == 512

    def test_bad_resolution_exits_one(self, capsys):
        code, _, _ = run(["analyze", "--variant", "ti", "--resolution", "100"], capsys)
        assert code == 1

    def test_needs_variant_or_model(self, capsys):
        code, _, _ = run(["analyze", "--resolution", "224"], capsys)
        assert code == 1


class TestVerify:
    def test_micro_f64_passes(self, capsys):
        code, out, _ = run(["verify", "--variant", "micro", "--dtype", "f64"], capsys)
        assert code == 0
        assert "PASSED" in out
        assert "FAIL" not in out

    def test_injected_fault_exits_two(self, capsys):
        code, out, _ = run(["verify", "--variant", "micro", "--dtype", "f64",
                            "--inject-fault"], capsys)
        assert code == 2
        assert "FAIL" in out

    def test_json_output(self, capsys):
        code, out, _ = run(["verify", "--variant", "micro", "--dtype", "f64",
                            "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert all(c["pass"] for c in data["checks"])
        # the f64 finite-difference rows for the live-tap im2col, the row-GEMM
        # depthwise kernel on one width tile and on two, and closed-form BN
        labels = {c["label"] for c in data["checks"]}
        for row in ("grad conv2d input (dilated dense on 2x2, batch 2)",
                    "grad conv2d weight (dilated dense on 2x2, batch 2)",
                    "grad conv2d input (7x7 depthwise on 7x7, batch 2)",
                    "grad conv2d weight (7x7 depthwise on 7x7, batch 2)",
                    "grad conv2d input (3x3 depthwise on 6x20, batch 2)",
                    "grad conv2d weight (3x3 depthwise on 6x20, batch 2)",
                    "grad batchnorm input/gamma/beta (train, batch 2)"):
            assert f"{row}: rel err" in labels

    def test_non_finite_logits_fail_their_own_row(self, capsys, monkeypatch):
        real = reparam.reparameterize_model

        def nan_fused(model):
            fused, report = real(model)
            fused.forward = lambda x: np.full((x.shape[0], fused.config.num_classes), np.nan)
            return fused, report

        monkeypatch.setattr(reparam, "reparameterize_model", nan_fused)
        code, out, _ = run(["verify", "--variant", "micro", "--dtype", "f64"], capsys)
        assert code == 2
        row = [line for line in out.splitlines() if "fused logits finite" in line]
        assert len(row) == 1 and row[0].startswith("[FAIL]")


    def test_json_prints_non_finite_values_as_null(self, capsys, monkeypatch):
        real = reparam.reparameterize_model

        def nan_fused(model):
            fused, report = real(model)
            fused.forward = lambda x: np.full((x.shape[0], fused.config.num_classes), np.nan)
            return fused, report

        def refuse(constant):
            raise AssertionError(f"bare {constant} in --json output")

        monkeypatch.setattr(reparam, "reparameterize_model", nan_fused)
        code, out, _ = run(["verify", "--variant", "micro", "--dtype", "f64", "--json"], capsys)
        assert code == 2
        checks = json.loads(out, parse_constant=refuse)["checks"]
        row = [c for c in checks if c["label"].startswith("reparam equivalence")]
        assert len(row) == 1 and row[0]["value"] is None and row[0]["pass"] is False


class TestBench:
    def test_emits_json_line_with_macs(self, capsys):
        code, out, _ = run(["bench", "--case", "dilated3x3", "--dilation", "3",
                            "--shape", "1,8,16,16", "--rounds", "4", "--iters", "1",
                            "--trim", "1", "--warmup", "0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["macs"] > 0
        assert len(data["round_times_ns"]) == 4

    def test_depthwise_case(self, capsys):
        code, out, _ = run(["bench", "--case", "depthwise", "--kernel", "3", "--dilation", "2",
                            "--shape", "2,4,8,8", "--rounds", "4", "--iters", "1",
                            "--trim", "1", "--warmup", "0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["label"] == "depthwise_3x3(d=2)"
        assert data["macs"] == 2 * 4 * 8 * 8 * 9
        code, out, err = run(["bench", "--case", "depthwise", "--shape", "1,1,8,8"], capsys)
        assert code == 1
        assert out == "" and err.startswith("error:") and "C >= 2" in err

    def test_negative_warmup_exits_one(self, capsys):
        code, out, err = run(["bench", "--case", "dilated3x3", "--shape", "1,2,8,8",
                              "--rounds", "4", "--iters", "1", "--trim", "1",
                              "--warmup", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "warmup" in err

    @pytest.mark.parametrize("shape", ["1,2,8", "1,2,0,8", "1,2,8,8,8"])
    def test_shape_not_four_positive_dims_exits_one(self, shape, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--case", "dilated3x3", "--shape", shape])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --shape" in err and "N,C,H,W" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case, flag", [("dense_kxk", "--kernel"),
                                            ("dilated3x3", "--dilation"),
                                            ("depthwise", "--kernel"),
                                            ("depthwise", "--dilation")])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_kernel_or_dilation_exits_one(self, case, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--case", case, "--shape", "1,2,8,8", flag, value])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument {flag}: must be >= 1" in err
        assert "Traceback" not in err


class TestTrainToy:
    def test_csv_with_decreasing_cosine_lr(self, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        code, _, _ = run(["train-toy", "--steps", "6", "--samples", "4",
                          "--out", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "step,lr,loss"
        lrs = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(lrs) == 6
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_json_output(self, capsys):
        code, out, _ = run(["train-toy", "--steps", "3", "--samples", "4",
                            "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["trace"]) == 3
        assert 0.0 <= data["final_accuracy"] <= 1.0

    @pytest.mark.parametrize("flag", ["--steps", "--samples", "--batch-size"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_non_positive_counts_exit_one(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train-toy", "--steps", "2", "--samples", "4", "--json", flag, value])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize("size", ["0", "-32", "16"])
    def test_image_size_below_32_exits_one(self, size, capsys):
        code, out, err = run(["train-toy", "--steps", "1", "--samples", "4",
                              "--image-size", size], capsys)
        assert code == 1 and out == ""
        assert err == f"error: image_size {size} must be a positive multiple of 32\n"

    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    def test_non_positive_or_non_finite_lr_exits_one(self, lr, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train-toy", "--steps", "2", "--samples", "4", "--json", "--lr", lr])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --lr" in err and "Traceback" not in err


class TestInferExport:
    @pytest.fixture
    def checkpoint(self, tmp_path, capsys):
        path = tmp_path / "m.rpdn"
        code, _, _ = run(["build", "--variant", "micro", "--out", str(path)], capsys)
        assert code == 0
        return path

    def test_infer_roundtrip(self, checkpoint, tmp_path, capsys):
        raw = tmp_path / "input.bin"
        x = Rng(3).normal((1, 3, 32, 32)).astype("<f4")
        raw.write_bytes(x.tobytes())
        argv = ["infer", "--model", str(checkpoint), "--input", str(raw),
                "--shape", "1,3,32,32"]
        code, out1, _ = run(argv, capsys)
        assert code == 0
        data = json.loads(out1)
        assert len(data["topk"]) == 1
        assert len(data["topk"][0]) == 5
        code, out2, _ = run(argv, capsys)
        assert out2 == out1  # eval determinism

    def test_infer_wrong_byte_count_exits_one(self, checkpoint, tmp_path, capsys):
        raw = tmp_path / "short.bin"
        raw.write_bytes(b"\x00" * 100)
        code, _, _ = run(["infer", "--model", str(checkpoint), "--input", str(raw),
                          "--shape", "1,3,32,32"], capsys)
        assert code == 1

    @pytest.mark.parametrize("shape, expected", [
        ("4294967296,4294967296,1,1", 4 * 2 ** 64),  # the int64 product wraps to 0
        ("4611686018427387904,3,1,1", 4 * 3 * 2 ** 62),  # the int64 byte count goes negative
    ])
    def test_infer_huge_shape_refused_unread(self, shape, expected, checkpoint, tmp_path,
                                             capsys, monkeypatch):
        raw = tmp_path / "empty.bin"
        raw.write_bytes(b"")

        class Unread:
            """The input file, with its size readable and its contents not."""

            def __init__(self, path, mode):
                self.fh = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def read(self, *args):
                raise AssertionError("the input file was read")

        monkeypatch.setattr(cli, "open", Unread, raising=False)
        code, out, err = run(["infer", "--model", str(checkpoint), "--input", str(raw),
                              "--shape", shape], capsys)
        assert code == 1 and out == ""
        assert f"has 0 bytes, expected {expected} " in err
        assert len(err.strip().splitlines()) == 1

    def test_infer_three_dim_shape_exits_one(self, checkpoint, tmp_path, capsys):
        raw = tmp_path / "input.bin"
        raw.write_bytes(Rng(3).normal((1, 3, 32, 32)).astype("<f4").tobytes())
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--model", str(checkpoint), "--input", str(raw),
                  "--shape", "3,32,32"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --shape" in err and "N,C,H,W" in err
        assert "Traceback" not in err

    def test_export_fused_has_no_bn(self, checkpoint, tmp_path, capsys):
        fused_path = tmp_path / "fused.rpdn"
        code, _, _ = run(["export", "--model", str(checkpoint), "--fused",
                          "--out", str(fused_path)], capsys)
        assert code == 0
        assert count_batchnorms(load(str(fused_path))) == 0

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_export_fused_non_finite_check_exits_two(self, json_flag, checkpoint, tmp_path,
                                                      capsys):
        model = load(str(checkpoint))
        dict(model.iter_params())["stage3.dcb0.mldc.pw_in.weight"].value[0, 0] = np.nan
        save(model, str(checkpoint))
        fused_path = tmp_path / "fused.rpdn"
        code, out, err = run(["export", "--model", str(checkpoint), "--fused",
                              "--out", str(fused_path), *json_flag], capsys)
        assert code == 2
        assert out == "" and not fused_path.exists()
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "nan" in err and "Traceback" not in err

    def test_infer_on_fused_matches_unfused(self, checkpoint, tmp_path, capsys):
        fused_path = tmp_path / "fused.rpdn"
        run(["export", "--model", str(checkpoint), "--fused", "--out", str(fused_path)],
            capsys)
        raw = tmp_path / "input.bin"
        raw.write_bytes(Rng(5).normal((1, 3, 32, 32)).astype("<f4").tobytes())
        _, out_a, _ = run(["infer", "--model", str(checkpoint), "--input", str(raw),
                           "--shape", "1,3,32,32", "--topk", "3"], capsys)
        _, out_b, _ = run(["infer", "--model", str(fused_path), "--input", str(raw),
                           "--shape", "1,3,32,32", "--topk", "3"], capsys)
        top_a = [e["class"] for e in json.loads(out_a)["topk"][0]]
        top_b = [e["class"] for e in json.loads(out_b)["topk"][0]]
        assert top_a == top_b

    def test_infer_non_finite_logits_exits_two(self, checkpoint, tmp_path, capsys):
        raw = tmp_path / "nan.bin"
        raw.write_bytes(np.full((1, 3, 32, 32), np.nan, dtype="<f4").tobytes())
        code, out, err = run(["infer", "--model", str(checkpoint), "--input", str(raw),
                              "--shape", "1,3,32,32"], capsys)
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("defect", list(DEFECTIVE_CONFIGS))
    def test_infer_defective_config_exits_two(self, defect, checkpoint, tmp_path, capsys):
        rewrite_config(checkpoint, DEFECTIVE_CONFIGS[defect])
        raw = tmp_path / "input.bin"
        raw.write_bytes(Rng(3).normal((1, 3, 32, 32)).astype("<f4").tobytes())
        code, _, err = run(["infer", "--model", str(checkpoint), "--input", str(raw),
                            "--shape", "1,3,32,32"], capsys)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_infer_entry_dtype_mismatch_exits_two(self, checkpoint, tmp_path, capsys):
        rewrite_config(checkpoint, lambda b: {**b, "dtype": "f64"})
        raw = tmp_path / "input.bin"
        raw.write_bytes(Rng(3).normal((1, 3, 32, 32)).astype("<f8").tobytes())
        code, out, err = run(["infer", "--model", str(checkpoint), "--input", str(raw),
                              "--shape", "1,3,32,32"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "stem.conv1.weight" in err

    @pytest.mark.parametrize("defect", list(DEFECTIVE_ENTRIES))
    def test_infer_defective_entry_exits_two(self, defect, checkpoint, tmp_path, capsys):
        damage_entry(checkpoint, defect)
        raw = tmp_path / "input.bin"
        raw.write_bytes(Rng(3).normal((1, 3, 32, 32)).astype("<f4").tobytes())
        code, out, err = run(["infer", "--model", str(checkpoint), "--input", str(raw),
                              "--shape", "1,3,32,32"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("topk", ["0", "-2", "two"])
    def test_infer_bad_topk_exits_one(self, topk, checkpoint, tmp_path, capsys):
        raw = tmp_path / "input.bin"
        raw.write_bytes(Rng(3).normal((1, 3, 32, 32)).astype("<f4").tobytes())
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--model", str(checkpoint), "--input", str(raw),
                  "--shape", "1,3,32,32", "--topk", topk])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --topk" in err and "Traceback" not in err

    def test_infer_unallocatable_config_exits_two(self, checkpoint, tmp_path, capsys):
        rewrite_config(checkpoint, widen_stage4(2 ** 24))
        raw = tmp_path / "input.bin"
        raw.write_bytes(Rng(3).normal((1, 3, 32, 32)).astype("<f4").tobytes())
        code, out, err = run(["infer", "--model", str(checkpoint), "--input", str(raw),
                              "--shape", "1,3,32,32"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_missing_model_file_exits_two(self, tmp_path, capsys):
        code, _, _ = run(["infer", "--model", str(tmp_path / "nope.rpdn"),
                          "--input", str(tmp_path / "nope.bin"),
                          "--shape", "1,3,32,32"], capsys)
        assert code == 2
