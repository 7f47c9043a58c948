"""Command-line interface.

Commands: build, analyze, verify, bench, train-toy, infer, export.
Exit codes: 0 success, 1 usage error (bad flags or arguments), 2 runtime or
verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import analysis, bench, reparam, trainer, weights_io
from .blocks import DISCARD, MIXER_MODES
from .errors import (
    CheckpointError,
    ConfigError,
    GeometryError,
    ShapeError,
    TrainingDiverged,
)
from .model import VARIANTS, build_model, default_config
from .ops import (
    BatchNorm2d,
    Conv2dLayer,
    batchnorm_backward,
    batchnorm_forward,
    conv2d,
    conv2d_backward,
    conv2d_naive,
    effective_kernel,
)
from .tensor import DTYPES, Rng, resolve_dtype

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_int_pair(text: str) -> tuple:
    fields = text.split(",")
    if len(fields) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated ints, got {text!r}")
    return (int(fields[0]), int(fields[1]))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _parse_shape(text: str) -> tuple:
    try:
        shape = tuple(int(p) for p in text.split(","))
    except ValueError:
        shape = ()
    if len(shape) != 4 or min(shape) < 1:
        raise argparse.ArgumentTypeError(f"expected N,C,H,W: four ints >= 1, got {text!r}")
    return shape


def _config_from_args(args) -> object:
    cfg = default_config(args.variant)
    overrides = {"seed": args.seed}
    if args.classes is not None:
        overrides["num_classes"] = args.classes
    if args.mixer is not None:
        overrides["mixer_mode"] = args.mixer
    if args.dilations is not None:
        overrides["dilations"] = args.dilations
    if args.mixer_kernel is not None:
        overrides["mixer_kernel"] = args.mixer_kernel
    if args.no_cpe:
        overrides["use_cpe"] = False
    if args.no_lkffn:
        overrides["lk_ffn"] = False
    if args.head_hidden is not None:
        overrides["head_hidden"] = args.head_hidden or None
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def cmd_build(args) -> int:
    cfg = _config_from_args(args)
    model = build_model(cfg, dtype=args.dtype)
    weights_io.save(model, args.out)
    n_params = analysis.count_params(model)
    if args.json:
        print(json.dumps({"variant": cfg.variant, "out": args.out, "params": n_params}))
    else:
        print(f"built {cfg.variant} ({n_params / 1e6:.2f} M params) -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    model = weights_io.load(args.model) if args.model else None
    cfg = model.config if model is not None else default_config(args.variant)
    rep = analysis.report(cfg, args.resolution, model=model)
    if args.json:
        print(rep.to_json(indent=2))
    else:
        print(f"variant={rep.variant} resolution={rep.resolution}")
        print(f"total params: {rep.total_params:,} ({rep.total_params / 1e6:.2f} M)")
        print(f"total MACs:   {rep.total_macs:,} ({rep.total_gmacs} G)")
        print(f"composite receptive field: {rep.composite_rf}")
        print(f"elementwise ops: {rep.elementwise_ops:,}")
        print(f"{'layer':<42}{'params':>12}{'macs':>16}{'k':>3}{'d':>3}{'trf':>5}")
        for layer in rep.layers:
            print(f"{layer.name:<42}{layer.params:>12}{layer.macs:>16}"
                  f"{layer.k:>3}{layer.d:>3}{layer.trf:>5}")
    return 0


def _verify_gradients() -> List[tuple]:
    """Quick f64 finite-difference spot checks; returns (label, max rel err, ok)."""
    from .blocks import DilatedConvBlock, LkFfnBlock, MldcBlock

    rng = Rng(7)
    results = []

    def fd_grad(fn, x, gy, h=1e-5):
        """Central differences of sum(fn(x) * gy), perturbing x in place and
        restoring each element bitwise, so x may be an array fn reads itself."""
        loss = lambda t: float(np.sum(fn(t) * gy))
        g = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            old = x[i]
            x[i] = old + h
            up = loss(x)
            x[i] = old - h
            down = loss(x)
            x[i] = old
            g[i] = (up - down) / (2 * h)
            it.iternext()
        return g

    def rel_err(ana, num):
        return float(np.max(np.abs(ana - num)) / max(np.max(np.abs(num)), 1e-8))

    # batch 2, so the depthwise kernel's tiled rows span two images.  The
    # 7x7 pad-3 depthwise conv on a 2x2 map is micro's stage-3 geometry: 40
    # of its 49 taps read only padding and are skipped.  On a 7x7 map it is
    # ti's stage-4 geometry.  The 3x3 depthwise conv on a 6x20 map takes two
    # width tiles of 10 columns, in the forward and in the input gradient.
    # The dense 3x3 dilation-2 conv on a 2x2 map is micro's MLDC branch: 8 of
    # 9 taps skipped.
    for geometry, k, pad, dil, (h, w), groups in (
            ("dilated depthwise", 3, 3, 3, (6, 6), 2),
            ("7x7 depthwise on 2x2", 7, 3, 1, (2, 2), 2),
            ("7x7 depthwise on 7x7", 7, 3, 1, (7, 7), 2),
            ("3x3 depthwise on 6x20", 3, 1, 1, (6, 20), 2),
            ("dilated dense on 2x2", 3, 2, 2, (2, 2), 1)):
        x = rng.normal((2, 2, h, w), dtype=np.float64)
        conv = Conv2dLayer.create(2, 2, k, padding=pad, dilation=dil, groups=groups,
                                  bias=True, rng=rng, dtype=np.float64)
        gy = rng.normal(conv2d(x, conv).shape, dtype=np.float64)
        r = conv2d_backward(x, conv, gy)
        num_x = fd_grad(lambda t: conv2d(t, conv), x.copy(), gy)
        num_w = fd_grad(lambda _: conv2d(x, conv), conv.weight.value, gy)
        for part, ana, num in (("input", r.grad_input, num_x),
                               ("weight", r.grad_params["weight"], num_w)):
            err = rel_err(ana, num)
            results.append((f"grad conv2d {part} ({geometry}, batch 2)", err, err < 1e-5))

    # train-mode BN on inputs offset from zero; the error is the worst of the three
    bn = BatchNorm2d.create(3, dtype=np.float64)
    bn.gamma.value[:] = rng.normal((3,), dtype=np.float64)
    bn.beta.value[:] = rng.normal((3,), dtype=np.float64)
    x = rng.normal((2, 3, 3, 3), mean=2.0, dtype=np.float64)
    gy = rng.normal(x.shape, dtype=np.float64)
    r = batchnorm_backward(x, bn, gy)
    errs = [rel_err(r.grad_input,
                    fd_grad(lambda t: batchnorm_forward(t, bn, train=True), x.copy(), gy))]
    for name, param in bn.named_params():
        num = fd_grad(lambda _: batchnorm_forward(x, bn, train=True), param.value, gy)
        errs.append(rel_err(r.grad_params[name], num))
    err = max(errs)
    results.append(("grad batchnorm input/gamma/beta (train, batch 2)", err, err < 1e-5))

    mldc = MldcBlock(2, rng=rng, dtype=np.float64)
    ffn = LkFfnBlock(2, rng=rng, dtype=np.float64)
    dcb = DilatedConvBlock(mldc, ffn)
    x = rng.normal((1, 2, 8, 8), dtype=np.float64)
    gy = rng.normal(x.shape, dtype=np.float64)
    num = fd_grad(lambda t: dcb.forward(t, DISCARD), x.copy(), gy)
    tape: list = []
    dcb.forward(x, tape)
    err = rel_err(dcb.backward(gy, tape), num)
    results.append(("grad dilated conv block", err, err < 1e-5))
    return results


def cmd_verify(args) -> int:
    dt = resolve_dtype(args.dtype)
    tol = 1e-8 if dt == np.float64 else 1e-4
    resolution = 224 if args.variant in ("ti", "s", "m", "b") else 64
    checks = []

    cfg = replace(default_config(args.variant), seed=args.seed)
    model = build_model(cfg, dtype=dt)
    rng = Rng(args.seed)
    # fresh networks need their BN statistics re-estimated before the f32
    # tolerance is meaningful; use a batch distinct from the test input
    reparam.recalibrate_bn(model, rng.normal((4, 3, resolution, resolution), dtype=dt))
    fused, _ = reparam.reparameterize_model(model)
    if args.inject_fault:
        _, first = fused.iter_params()[0]
        first.value.flat[0] += 1.0
    x = rng.normal((1, 3, resolution, resolution), dtype=dt)
    ref, out = model.forward(x), fused.forward(x)
    diff = float(np.max(np.abs(ref - out)))
    checks.append({"label": f"reparam equivalence ({args.variant}, {args.dtype} "
                            f"@ {resolution}): max-abs logit diff",
                   "value": diff, "tol": tol, "pass": bool(diff < tol)})
    # a NaN diff already fails the row above; this one names the cause
    bad = int(np.count_nonzero(~np.isfinite(ref)) + np.count_nonzero(~np.isfinite(out)))
    checks.append({"label": "fused logits finite: non-finite logits (unfused + fused)",
                   "value": bad, "tol": 0, "pass": bad == 0})

    oracle_rng = Rng(args.seed ^ 0xC0FFEE)
    worst = 0.0
    for _ in range(30):
        k = (1, 3, 5, 7)[int(oracle_rng.integers(0, 4))]
        d = int(oracle_rng.integers(1, 4))
        s = int(oracle_rng.integers(1, 3))
        c = int(oracle_rng.integers(1, 5))
        groups = 1 if oracle_rng.integers(0, 2) == 0 else c
        h = effective_kernel(k, d) + int(oracle_rng.integers(0, 4))
        conv = Conv2dLayer.create(c, c, k, stride=s, padding=int(oracle_rng.integers(0, 3)),
                                  dilation=d, groups=groups, bias=True,
                                  rng=oracle_rng, dtype=dt)
        n = int(oracle_rng.integers(1, 4))
        xin = oracle_rng.normal((n, c, h, h), dtype=dt)
        a = conv2d(xin, conv)
        b = conv2d_naive(xin, conv)
        denom = max(float(np.max(np.abs(b))), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - b))) / denom)
    checks.append({"label": "conv oracle equivalence: worst rel err",
                   "value": worst, "tol": 1e-5, "pass": bool(worst < 1e-5)})

    for label, err, passed in _verify_gradients():
        checks.append({"label": f"{label}: rel err", "value": err,
                       "tol": 1e-5, "pass": passed})

    ok = all(c["pass"] for c in checks)
    if args.json:  # JSON has no NaN or Infinity: a non-finite value is null
        rows = [{**c, "value": c["value"] if math.isfinite(c["value"]) else None} for c in checks]
        print(json.dumps({"passed": ok, "checks": rows}))
    else:
        for c in checks:
            print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['label']} "
                  f"{c['value']:.3e} (tol {c['tol']:g})")
        print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else RUNTIME_ERROR


def cmd_bench(args) -> int:
    protocol = bench.BenchProtocol(rounds=args.rounds, iters_per_round=args.iters,
                                   trim=args.trim, warmup=args.warmup)
    result = bench.bench_case(args.case, args.shape, protocol, dilation=args.dilation,
                              kernel=args.kernel, variant=args.variant,
                              fused=args.fused, seed=args.seed)
    print(result.to_json_line())
    return 0


def cmd_train_toy(args) -> int:
    cfg = replace(default_config("micro"), seed=args.seed)
    dataset = trainer.SyntheticDataset(args.samples, seed=args.seed,
                                       image_size=args.image_size)
    result = trainer.train_toy(cfg, dataset, args.steps, lr=args.lr,
                               schedule=args.schedule, batch_size=args.batch_size)
    acc = trainer.evaluate_accuracy(result.model, dataset)
    if args.json:
        print(json.dumps({
            "trace": [[r.step, r.lr, r.loss] for r in result.trace],
            "final_loss": result.trace[-1].loss,
            "final_accuracy": acc,
        }))
    else:
        csv = trainer.trace_to_csv(result.trace)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(csv)
        else:
            sys.stdout.write(csv)
        print(f"final accuracy: {acc:.3f}", file=sys.stderr)
    if args.save_model:
        weights_io.save(result.model, args.save_model)
    return 0


def cmd_infer(args) -> int:
    model = weights_io.load(args.model)
    shape = args.shape
    expected = math.prod(shape) * np.dtype(model.dtype).itemsize  # exact: no int64 wrap
    with open(args.input, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != expected:  # refused before a byte is read
            print(f"error: input file has {size} bytes, expected {expected} "
                  f"for shape {shape} ({np.dtype(model.dtype).name})", file=sys.stderr)
            return USAGE_ERROR
        raw = fh.read()
    le = np.dtype(model.dtype).newbyteorder("<")
    x = np.frombuffer(raw, dtype=le).reshape(shape).astype(model.dtype)
    logits = model.forward(x)
    if not np.all(np.isfinite(logits)):
        print("error: the model produced non-finite logits", file=sys.stderr)
        return RUNTIME_ERROR
    k = min(args.topk, logits.shape[1])
    out = []
    for row in logits:
        top = np.argsort(row)[::-1][:k]
        out.append([{"class": int(i), "logit": float(row[i])} for i in top])
    print(json.dumps({"topk": out}))
    return 0


def cmd_export(args) -> int:
    model = weights_io.load(args.model)
    info = {"out": args.out, "fused": args.fused}
    if args.fused:
        model, rep = reparam.reparameterize_model(model)
        if not math.isfinite(rep.max_abs_logit_diff):
            print(f"error: the fusion check's max-abs logit diff is {rep.max_abs_logit_diff}; "
                  "nothing written", file=sys.stderr)
            return RUNTIME_ERROR
        info.update(fused_skips=rep.fused_skips, folded_bns=rep.folded_bns,
                    max_abs_logit_diff=rep.max_abs_logit_diff)
        print(f"fused {rep.fused_skips} skips, folded {rep.folded_bns} BN layers "
              f"(max-abs logit diff {rep.max_abs_logit_diff:.3e})", file=sys.stderr)
    weights_io.save(model, args.out)
    if args.json:
        print(json.dumps(info))
    else:
        print(f"wrote {args.out}")
    return 0


_COMMON_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--dtype": dict(choices=tuple(DTYPES), default="f32"),
    "--json": dict(action="store_true"),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """Add the shared flags a command reads, each declared once in `_COMMON_FLAGS`."""
    for flag in flags:
        p.add_argument(flag, **_COMMON_FLAGS[flag])


def build_parser() -> _Parser:
    parser = _Parser(prog="rapidnet",
                     description="Dilated-convolution mobile backbone toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a model and save a checkpoint")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--mixer", choices=MIXER_MODES, default=None)
    p.add_argument("--dilations", type=_parse_int_pair, default=None, metavar="A,B")
    p.add_argument("--mixer-kernel", type=int, default=None)
    p.add_argument("--no-cpe", action="store_true")
    p.add_argument("--no-lkffn", action="store_true")
    p.add_argument("--head-hidden", type=int, default=None,
                   help="hidden width of the classifier head (0 = plain linear head)")
    _add_common(p, "--seed", "--dtype", "--json")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("analyze", help="parameter/MAC/receptive-field report")
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--model", default=None, help="analyze a saved checkpoint instead")
    p.add_argument("--resolution", type=int, default=224)
    _add_common(p, "--json")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="reparam equivalence, conv oracle, gradient checks")
    p.add_argument("--variant", choices=VARIANTS, default="micro")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    _add_common(p, "--seed", "--dtype", "--json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="micro-benchmarks with trimmed statistics")
    p.add_argument("--case", required=True, choices=bench.BENCH_CASES)
    p.add_argument("--shape", type=_parse_shape, default=(1, 64, 32, 32), metavar="N,C,H,W")
    p.add_argument("--dilation", type=_positive_int, default=3)
    p.add_argument("--kernel", type=_positive_int, default=7)
    p.add_argument("--variant", choices=VARIANTS, default="ti")
    p.add_argument("--fused", action="store_true")
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--trim", type=int, default=10)
    p.add_argument("--warmup", type=int, default=3)
    _add_common(p, "--seed")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train-toy", help="train the micro variant on synthetic blobs")
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--lr", type=_positive_float, default=2e-3)
    p.add_argument("--schedule", choices=("constant", "cosine"), default="cosine")
    p.add_argument("--samples", type=_positive_int, default=64)
    p.add_argument("--batch-size", type=_positive_int, default=None)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--out", default=None, help="write the step,lr,loss CSV here")
    p.add_argument("--save-model", default=None)
    _add_common(p, "--seed", "--json")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("infer", help="run a checkpoint on a raw tensor file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="raw little-endian scalar file")
    p.add_argument("--shape", type=_parse_shape, required=True, metavar="N,C,H,W")
    p.add_argument("--topk", type=_positive_int, default=5)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("export", help="re-save a checkpoint, optionally reparameterized")
    p.add_argument("--model", required=True)
    p.add_argument("--fused", action="store_true")
    p.add_argument("--out", required=True)
    _add_common(p, "--json")
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and not args.model and not args.variant:
        print("error: analyze needs --variant or --model", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except (ConfigError, GeometryError, ShapeError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CheckpointError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
