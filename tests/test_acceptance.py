"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances are fixed here and nowhere else: cost reproduction within 10% of
the published figures, reparameterization equivalence below 1e-4 (f32) and
1e-8 (f64), gradient and convolution-oracle agreement below 1e-5 relative.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import fd_grad, rel_err
from rapidnet.analysis import (
    block_conv_macs,
    count_macs,
    count_params,
    layer_trf,
)
from rapidnet.bench import BenchProtocol, bench_case, trimmed_stats
from rapidnet.blocks import DilatedConvBlock, LkFfnBlock, MldcBlock
from rapidnet.errors import CorruptFileError, FormatError
from rapidnet.model import build_model, default_config
from rapidnet.ops import (
    BatchNorm2d,
    Conv2dLayer,
    LinearLayer,
    batchnorm_backward,
    batchnorm_forward,
    conv2d,
    conv2d_backward,
    conv2d_naive,
    gelu,
    gelu_backward,
    global_avg_pool,
    global_avg_pool_backward,
    linear,
    linear_backward,
    softmax_cross_entropy,
)
from rapidnet.reparam import recalibrate_bn, reparameterize_model
from rapidnet.tensor import Rng
from rapidnet.trainer import SyntheticDataset, evaluate_accuracy, train_toy
from rapidnet.weights_io import load, save

PARAM_TARGETS = {"ti": 6.6e6, "s": 9.2e6, "m": 17.3e6, "b": 30.5e6}
MAC_TARGETS = {"ti": 0.6e9, "s": 0.9e9, "m": 1.6e9, "b": 3.4e9}


def report_line(n, ok, text):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_c01_parameter_reproduction():
    details = []
    ok = True
    for variant, target in PARAM_TARGETS.items():
        t0 = time.perf_counter()
        got = count_params(build_model(default_config(variant)))
        elapsed = time.perf_counter() - t0
        rel = abs(got - target) / target
        ok = ok and rel < 0.10 and elapsed < 1.0
        details.append(f"{variant}={got / 1e6:.2f}M ({rel * 100:+.1f}%, {elapsed * 1e3:.0f}ms)")
    report_line(1, ok, "params within 10% of published: " + ", ".join(details))


def test_c02_mac_reproduction():
    details = []
    got = {}
    ok = True
    for variant, target in MAC_TARGETS.items():
        t0 = time.perf_counter()
        got[variant] = count_macs(build_model(default_config(variant)), 224)
        elapsed = time.perf_counter() - t0
        rel = abs(got[variant] - target) / target
        ok = ok and rel < 0.10 and elapsed < 1.0
        details.append(f"{variant}={got[variant] / 1e9:.3f}G ({rel * 100:+.1f}%)")
    ok = ok and got["ti"] < got["s"] < got["m"] < got["b"]
    report_line(2, ok, "MACs@224 within 10%, ordering ti<s<m<b: " + ", ".join(details))


def test_c03_trf_table():
    table = {(3, 1): 3, (3, 2): 5, (3, 3): 7}
    ok = all(layer_trf(k, d) == want for (k, d), want in table.items())
    report_line(3, ok, f"theoretical receptive fields {table}")


def test_c04_reparam_equivalence():
    t0 = time.perf_counter()
    model = build_model(replace(default_config("ti"), seed=11))
    recalibrate_bn(model, Rng(99).normal((2, 3, 224, 224)))
    fused, _ = reparameterize_model(model)
    x = Rng(17).normal((1, 3, 224, 224))
    diff32 = float(np.max(np.abs(model.forward(x) - fused.forward(x))))

    micro = build_model(replace(default_config("micro"), seed=3), dtype="f64")
    recalibrate_bn(micro, Rng(98).normal((4, 3, 64, 64), dtype=np.float64))
    fused64, _ = reparameterize_model(micro)
    x64 = Rng(16).normal((1, 3, 64, 64), dtype=np.float64)
    diff64 = float(np.max(np.abs(micro.forward(x64) - fused64.forward(x64))))
    elapsed = time.perf_counter() - t0

    ok = diff32 < 1e-4 and diff64 < 1e-8 and elapsed < 120.0
    report_line(4, ok, f"fusion equivalence: ti f32 diff {diff32:.2e} (<1e-4), "
                       f"micro f64 diff {diff64:.2e} (<1e-8), {elapsed:.1f}s")


def test_c05_gradient_correctness():
    t0 = time.perf_counter()
    rng = Rng(55)
    worst = {}

    def fd_check(label, forward, x, grad_of_input):
        gy = rng.normal(forward(x).shape, dtype=np.float64)
        analytical = grad_of_input(x, gy)
        numerical = fd_grad(lambda t: float(np.sum(forward(t) * gy)), x.copy())
        worst[label] = rel_err(analytical, numerical)

    conv = Conv2dLayer.create(4, 4, 3, padding=3, dilation=3, groups=4, bias=True,
                              rng=rng, dtype=np.float64)
    fd_check("conv2d", lambda t: conv2d(t, conv), rng.normal((2, 4, 8, 8), dtype=np.float64),
             lambda x, gy: conv2d_backward(x, conv, gy).grad_input)

    bn = BatchNorm2d.create(4, dtype=np.float64)
    fd_check("batchnorm", lambda t: batchnorm_forward(t, bn, train=True),
             rng.normal((2, 4, 8, 8), dtype=np.float64),
             lambda x, gy: batchnorm_backward(x, bn, gy).grad_input)

    fd_check("gelu", gelu, rng.normal((2, 4, 8, 8), dtype=np.float64), gelu_backward)

    lin = LinearLayer.create(8, 4, rng=rng, dtype=np.float64)
    fd_check("linear", lambda t: linear(t, lin), rng.normal((2, 8), dtype=np.float64),
             lambda x, gy: linear_backward(x, lin, gy).grad_input)

    fd_check("global_avg_pool", global_avg_pool,
             rng.normal((2, 4, 8, 8), dtype=np.float64), global_avg_pool_backward)

    logits = rng.normal((2, 4), dtype=np.float64)
    labels = [1, 3]
    _, grad = softmax_cross_entropy(logits, labels)
    num = fd_grad(lambda t: softmax_cross_entropy(t, labels)[0], logits.copy())
    worst["softmax_xent"] = rel_err(grad, num)

    dcb = DilatedConvBlock(MldcBlock(2, rng=rng, dtype=np.float64),
                           LkFfnBlock(2, rng=rng, dtype=np.float64))
    x = rng.normal((1, 2, 8, 8), dtype=np.float64)
    gy = rng.normal(x.shape, dtype=np.float64)
    tape = []
    dcb.forward(x, tape)
    analytical = dcb.backward(gy, tape)
    numerical = fd_grad(lambda t: float(np.sum(dcb.forward(t, []) * gy)), x.copy())
    worst["dilated_conv_block"] = rel_err(analytical, numerical)

    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-5 for v in worst.values()) and elapsed < 300.0
    summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report_line(5, ok, f"f64 finite-difference agreement < 1e-5: {summary} ({elapsed:.1f}s)")


def test_c06_conv_oracle_equivalence():
    t0 = time.perf_counter()
    rng = Rng(2024)
    kernels = (1, 3, 5, 7)
    seen = set()
    worst = 0.0
    n_cases = 200
    for _ in range(n_cases):
        k = kernels[int(rng.integers(0, 4))]
        d = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        c = int(rng.integers(1, 5))
        depthwise = int(rng.integers(0, 2)) == 1
        groups = c if depthwise else 1
        p = int(rng.integers(0, 3))
        k_eff = (k - 1) * d + 1
        h = k_eff + int(rng.integers(0, 4))
        w = k_eff + int(rng.integers(0, 4))
        n = int(rng.integers(1, 3))
        seen.add((k, d, s, depthwise))
        conv = Conv2dLayer.create(c, c, k, stride=s, padding=p, dilation=d,
                                  groups=groups, bias=True, rng=rng)
        conv.bias.value[:] = rng.normal((c,))
        x = rng.normal((n, c, h, w))
        worst = max(worst, rel_err(conv2d(x, conv), conv2d_naive(x, conv)))
    elapsed = time.perf_counter() - t0
    full_span = {(k, d, s, g) for k in kernels for d in (1, 2, 3)
                 for s in (1, 2) for g in (False, True)}
    ok = worst < 1e-5 and seen == full_span and elapsed < 120.0
    report_line(6, ok, f"{n_cases} random configs, full (k,d,s,groups) span, "
                       f"worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_c07_learning_check():
    t0 = time.perf_counter()
    cfg = replace(default_config("micro"), seed=12)
    tiny = SyntheticDataset(8, seed=3)
    overfit = train_toy(cfg, tiny, steps=500, lr=2e-3, schedule="cosine")
    acc = evaluate_accuracy(overfit.model, tiny)

    bigger = SyntheticDataset(256, seed=4)
    run = train_toy(cfg, bigger, steps=200, lr=2e-3, schedule="cosine", batch_size=32)
    first, last = run.trace[0].loss, run.trace[-1].loss
    elapsed = time.perf_counter() - t0

    ok = acc >= 0.99 and last <= 0.5 * first and elapsed < 300.0
    report_line(7, ok, f"8-sample overfit acc {acc:.2f} (>=0.99) within 500 steps; "
                       f"256-sample loss {first:.3f}->{last:.3f} "
                       f"(<=50%) within 200 steps ({elapsed:.0f}s)")


def test_c08_serialization(tmp_path):
    results = []
    for dtype in ("f32", "f64"):
        model = build_model(replace(default_config("micro"), seed=1), dtype=dtype)
        path = tmp_path / f"m_{dtype}.rpdn"
        save(model, str(path))
        loaded = load(str(path))
        bitwise = all(np.array_equal(p.value, q.value)
                      for (_, p), (_, q) in zip(model.iter_params(), loaded.iter_params()))
        bitwise &= all(np.array_equal(a, b)
                       for (_, a), (_, b) in zip(model.iter_buffers(), loaded.iter_buffers()))
        results.append(bitwise)

    path = tmp_path / "bad.rpdn"
    good = (tmp_path / "m_f32.rpdn").read_bytes()
    path.write_bytes(b"XXXX" + good[4:])
    try:
        load(str(path))
        magic_ok = False
    except FormatError:
        magic_ok = True

    path.write_bytes(good[: len(good) // 2])
    try:
        load(str(path))
        trunc_ok = False
    except CorruptFileError:
        trunc_ok = True

    ok = all(results) and magic_ok and trunc_ok
    report_line(8, ok, f"bitwise round trip f32/f64 = {results}, "
                       f"bad magic -> FormatError, truncation -> CorruptFileError")


def test_c09_ablation_buildability():
    base = default_config("micro")
    ablations = {
        "mixer=mldc": base,
        "mixer=sldc": replace(base, mixer_mode="sldc"),
        "mixer=conv3x3": replace(base, mixer_mode="conv3x3"),
        "mixer=pointwise": replace(base, mixer_mode="pointwise"),
        "dilations=(2,3)": replace(base, dilations=(2, 3)),
        "dilations=(3,4)": replace(base, dilations=(3, 4)),
        "kernel=3": replace(base, mixer_kernel=3),
        "kernel=5": replace(base, mixer_kernel=5),
        "cpe=off": replace(base, use_cpe=False),
        "lkffn=off": replace(base, lk_ffn=False),
    }
    failures = []
    for label, cfg in ablations.items():
        model = build_model(cfg, dtype="f64")
        x = Rng(7).normal((2, 3, 64, 64), dtype=np.float64)
        # calibration batch large enough that every BN sees non-degenerate
        # per-channel statistics (the deepest stage runs at 2x2 here)
        recalibrate_bn(model, Rng(8).normal((4, 3, 64, 64), dtype=np.float64))
        if model.forward(x).shape != (2, cfg.num_classes):
            failures.append(f"{label}: bad output shape")
            continue
        fused, _ = reparameterize_model(model)
        diff = float(np.max(np.abs(model.forward(x) - fused.forward(x))))
        if diff >= 1e-8:
            failures.append(f"{label}: fusion diff {diff:.2e}")
    ok = not failures
    report_line(9, ok, f"{len(ablations)} ablation architectures build, keep shape, "
                       f"and fuse exactly" + (f"; failures: {failures}" if failures else ""))


def test_c10_bench_harness():
    mean, _, _ = trimmed_stats(list(range(1, 51)), 10)
    exact_mean = mean == 25.5

    fast = BenchProtocol(rounds=4, iters_per_round=1, trim=1, warmup=0)
    shape = (1, 8, 14, 14)
    dilated = bench_case("dilated3x3", shape, fast, dilation=3)
    dense = bench_case("dense_kxk", shape, fast, kernel=7)
    exact_ratio = dilated.macs * 49 == dense.macs * 9

    mldc = bench_case("mldc_block", shape, fast)
    agrees = mldc.macs == block_conv_macs(MldcBlock(8), 14, 14)
    model_case = bench_case("model", (1, 3, 32, 32), fast, variant="micro")
    agrees &= model_case.macs == count_macs(build_model(default_config("micro")), 32)

    ok = exact_mean and exact_ratio and agrees
    report_line(10, ok, f"trimmed mean(1..50, trim 10) = {mean}; dilated-d3 vs dense-7x7 "
                        f"MAC ratio 9/49 exact; bench annotations match analysis")
