"""In-memory span tracer for the benchmark's traced runs.

While a `Tracer` is installed, the functions and block methods that rapidnet's
layers call through module attributes are swapped for timing wrappers, so
every call becomes a span: (name, start, end, parent, operation, phase) plus
the layer it served and, for convolutions, its exact MACs and computed bytes.
Nothing under `src/` is edited; `uninstall` puts the originals back.

Spans stay in memory and are written once, when the run ends.  `layer_metrics`
turns them into the per-layer metrics listed in BENCHMARK.json.  Bytes are
computed from array shapes (input, im2col columns, weights, output); they are
what the algorithm touches at least once, not measured memory traffic.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from rapidnet import analysis, blocks, model, ops, reparam, trainer, weights_io

# span fields
NAME, START, END, PARENT, OP, PHASE, LAYER, MACS, BYTES, ELEMS, KIND = range(11)

CONV_KINDS = ("pw1x1", "dw3x3", "dw7x7", "dense3x3")
BLOCK_KINDS = {
    "stem": blocks.StemBlock,
    "irb": blocks.InvertedResidualBlock,
    "down": blocks.DownsampleBlock,
    "mldc": blocks.MldcBlock,
    "lkffn": blocks.LkFfnBlock,
    "head": blocks.HeadBlock,
}
# Primitives the blocks call through `rapidnet.blocks` module attributes.
BLOCK_OPS = {
    "conv2d": "ops.conv2d",
    "conv2d_backward": "ops.conv2d_backward",
    "batchnorm_forward": "ops.batchnorm_forward",
    "batchnorm_backward": "ops.batchnorm_backward",
    "gelu": "ops.gelu",
    "gelu_backward": "ops.gelu_backward",
    "add": "tensor.add",
    "linear": "ops.linear",
    "linear_backward": "ops.linear_backward",
    "global_avg_pool": "ops.global_avg_pool",
    "global_avg_pool_backward": "ops.global_avg_pool_backward",
}
# Layer entry points, by the module attribute that callers go through.
# weights_io.load reaches build_model through its own module global and
# reparameterize_model through a call-time import from rapidnet.reparam.
LAYER_FUNCS = (
    (model, "build_model", "model.build_model"),
    (weights_io, "build_model", "model.build_model"),
    (reparam, "reparameterize_model", "reparam.reparameterize_model"),
    (reparam, "recalibrate_bn", "reparam.recalibrate_bn"),
    (weights_io, "save", "weights_io.save"),
    (weights_io, "load", "weights_io.load"),
    (analysis, "report", "analysis.report"),
    (trainer, "adamw_step", "trainer.adamw_step"),
    (ops, "softmax_cross_entropy", "ops.softmax_cross_entropy"),
)


def conv_kind(conv) -> str:
    k, g = conv.kernel_size, conv.groups
    if g == 1:
        return "pw1x1" if k == 1 else f"dense{k}x{k}"
    if g == conv.in_channels == conv.out_channels:
        return f"dw{k}x{k}"
    return f"grouped{k}x{k}"


class Tracer:
    """Collects spans while installed; `op` and `phase` tag each new span."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.phase = "setup"
        self._stack: list = []
        self._saved: list = []
        self._names: dict = {}       # id(Param or block) -> analysis.report name
        self._last_layer: dict = {}  # parent span -> last conv/BN layer under it

    # -- span recording ----------------------------------------------------

    def open(self, name: str, layer=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, self.phase,
                           layer, 0, 0, 0, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def register(self, net) -> None:
        """Name the layers and blocks of a model that outlives the trace.

        Only models alive for the whole run may be registered: lookups go by
        object id, which a freed object could hand to a new one.
        """
        for name, p in net.iter_params():
            self._names[id(p)] = name.rsplit(".", 1)[0]
        for name, blk in net.named_blocks():
            if isinstance(blk, blocks.DilatedConvBlock):
                self._names[id(blk.mldc)] = f"{name}.mldc"
                self._names[id(blk.ffn)] = f"{name}.ffn"
            else:
                self._names[id(blk)] = name

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for attr, name in BLOCK_OPS.items():
            self._patch(blocks, attr, self._wrap(getattr(blocks, attr), name, attr))
        for mod, attr, name in LAYER_FUNCS:
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name, attr))
        for kind, cls in BLOCK_KINDS.items():
            for meth in ("forward", "backward"):
                self._patch(cls, meth, self._wrap_block(getattr(cls, meth),
                                                        f"blocks.{kind}.{meth}", kind))
        for meth in ("forward", "backward"):
            self._patch(model.RapidNetModel, meth,
                        self._wrap(getattr(model.RapidNetModel, meth), f"model.{meth}", meth))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name, attr):
        annotate = getattr(self, f"_note_{attr}", None)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if annotate is not None:
                annotate(self.spans[idx], args, out)
            return out

        return traced

    def _wrap_block(self, fn, name, kind):
        def traced(block, *args, **kwargs):
            idx = self.open(name, self._names.get(id(block), kind))
            try:
                return fn(block, *args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # -- per-call annotations (taken after the span closed) ----------------

    def _parent_layer(self, span) -> str:
        parent = span[PARENT]
        return self.spans[parent][LAYER] if parent >= 0 else "model"

    def _note_conv2d(self, span, args, out) -> None:
        x, conv = args[0], args[1]
        n, _, oh, ow = out.shape
        k = conv.kernel_size
        col = x.shape[0] * x.shape[1] * k * k * oh * ow * x.itemsize
        span[LAYER] = self._names.get(id(conv.weight), "transient.conv")
        span[MACS] = analysis.conv_macs(conv, oh, ow, n)
        span[BYTES] = x.nbytes + col + conv.weight.value.nbytes + out.nbytes
        span[KIND] = conv_kind(conv)
        self._last_layer[span[PARENT]] = span[LAYER]

    def _note_conv2d_backward(self, span, args, out) -> None:
        x, conv, grad_out = args[0], args[1], args[2]
        n, _, oh, ow = grad_out.shape
        span[LAYER] = self._names.get(id(conv.weight), "transient.conv") + ".bwd"
        # grad_weight and grad_input are one forward-sized matmul each
        span[MACS] = 2 * analysis.conv_macs(conv, oh, ow, n)
        span[KIND] = conv_kind(conv)

    def _note_batchnorm_forward(self, span, args, out) -> None:
        span[LAYER] = self._names.get(id(args[1].gamma), "transient.bn")
        self._last_layer[span[PARENT]] = span[LAYER]

    def _note_batchnorm_backward(self, span, args, out) -> None:
        span[LAYER] = self._names.get(id(args[1].gamma), "transient.bn") + ".bwd"

    def _note_gelu(self, span, args, out) -> None:
        prev = self._last_layer.get(span[PARENT], self._parent_layer(span))
        span[LAYER] = f"{prev}.gelu"
        span[ELEMS] = args[0].size

    def _note_gelu_backward(self, span, args, out) -> None:
        span[LAYER] = f"{self._parent_layer(span)}.gelu.bwd"
        span[ELEMS] = args[0].size

    def _note_add(self, span, args, out) -> None:
        span[LAYER] = f"{self._parent_layer(span)}.add"

    def _note_linear(self, span, args, out) -> None:
        span[LAYER] = self._names.get(id(args[1].weight), "transient.linear")
        span[MACS] = analysis.linear_macs(args[1], args[0].shape[0])

    def _note_save(self, span, args, out) -> None:
        span[BYTES] = os.path.getsize(args[1])

    def _note_load(self, span, args, out) -> None:
        span[BYTES] = os.path.getsize(args[0])

    # -- output ------------------------------------------------------------

    def write(self, path: str, layer_table: list) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "op", "phase", "layer",
                  "macs", "bytes_computed", "elems", "kind"]
        with open(path, "w") as fh:
            json.dump({"layer_table": layer_table, "fields": fields, "spans": self.spans},
                      fh, separators=(",", ":"))


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int) -> tuple:
    """Per-layer metrics and the per-layer table from a finished trace.

    Each metric is normalised per unit of the phase it ran in: per timed
    operation when the layer ran in the timed phase, otherwise per set-up
    (weights_io.load on the infer workloads, build_model on train_micro).
    Returns (metrics, table) where table rows are sorted by time.
    """
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    by_phase = {"run": defaultdict(list), "setup": defaultdict(list)}
    for i, s in enumerate(spans):
        by_phase[s[PHASE]][s[NAME]].append(i)

    def pick(name):
        run = by_phase["run"].get(name)
        if run:
            return run, n_ops
        return by_phase["setup"].get(name, []), n_setups

    def total_ms(name, idxs=None):
        idxs, units = pick(name) if idxs is None else idxs
        return _ms(sum(dur[i] for i in idxs)) / units if idxs else 0.0

    def per_s(numer, idxs):
        ns = sum(dur[i] for i in idxs)
        return numer / (ns / 1e9) if ns else 0.0

    m = {}
    gelu, units = pick("ops.gelu")
    m["ops.gelu.ms"] = total_ms("ops.gelu")
    m["ops.gelu.calls"] = len(gelu) / units if gelu else 0.0
    m["ops.gelu.melems_per_s"] = per_s(sum(spans[i][ELEMS] for i in gelu) / 1e6, gelu)

    conv, units = pick("ops.conv2d")
    groups = [("ops.conv2d", conv)] + [
        (f"ops.conv2d.{k}", [i for i in conv if spans[i][KIND] == k]) for k in CONV_KINDS]
    for prefix, idxs in groups:
        macs = sum(spans[i][MACS] for i in idxs)
        nbytes = sum(spans[i][BYTES] for i in idxs)
        m[f"{prefix}.ms"] = _ms(sum(dur[i] for i in idxs)) / units if idxs else 0.0
        m[f"{prefix}.calls"] = len(idxs) / units if idxs else 0.0
        m[f"{prefix}.gmacs_per_s"] = per_s(macs / 1e9, idxs)
        m[f"{prefix}.mb_computed"] = nbytes / 1e6 / units if idxs else 0.0
        m[f"{prefix}.macs_per_byte"] = macs / nbytes if nbytes else 0.0

    m["tensor.add.ms"] = total_ms("tensor.add")
    m["model.forward.ms"] = total_ms("model.forward")
    m["model.forward.op_coverage"] = _op_coverage(spans, dur)

    bwd, units = pick("ops.conv2d_backward")
    m["ops.conv2d_backward.ms"] = total_ms("ops.conv2d_backward")
    m["ops.conv2d_backward.calls"] = len(bwd) / units if bwd else 0.0
    m["ops.conv2d_backward.gmacs_per_s"] = per_s(sum(spans[i][MACS] for i in bwd) / 1e9, bwd)
    for name in ("ops.batchnorm_forward", "ops.batchnorm_backward", "ops.gelu_backward",
                 "ops.softmax_cross_entropy", "model.backward", "trainer.adamw_step"):
        m[f"{name}.ms"] = total_ms(name)

    is_op = [s[NAME].startswith(("ops.", "tensor.")) for s in spans]
    op_child_ns = defaultdict(int)
    for i, s in enumerate(spans):
        if is_op[i] and s[PARENT] >= 0:
            op_child_ns[s[PARENT]] += dur[i]
    glue_ns = 0
    for kind in BLOCK_KINDS:
        for meth in ("forward", "backward"):
            m[f"blocks.{kind}.{meth}_ms"] = total_ms(f"blocks.{kind}.{meth}")
            idxs = by_phase["run"].get(f"blocks.{kind}.{meth}", [])
            glue_ns += sum(dur[i] - op_child_ns[i] for i in idxs)
    m["blocks.glue_ms"] = _ms(glue_ns) / n_ops if n_ops else 0.0

    m["reparam.reparameterize_model.ms"] = total_ms("reparam.reparameterize_model")
    for name in ("weights_io.save", "weights_io.load"):
        idxs, _ = pick(name)
        m[f"{name}.ms"] = total_ms(name)
        m[f"{name}.mb_per_s"] = per_s(sum(spans[i][BYTES] for i in idxs) / 1e6, idxs)
    loads, units = pick("weights_io.load")
    child = {"model.build_model": 0, "reparam.reparameterize_model": 0}
    load_set = set(loads)
    for i, s in enumerate(spans):
        if s[PARENT] in load_set and s[NAME] in child:
            child[s[NAME]] += dur[i]
    load_ns = sum(dur[i] for i in loads)
    m["weights_io.load.build_model_ms"] = _ms(child["model.build_model"]) / units if loads else 0.0
    m["weights_io.load.reparam_ms"] = (
        _ms(child["reparam.reparameterize_model"]) / units if loads else 0.0)
    m["weights_io.load.self_ms"] = _ms(load_ns - sum(child.values())) / units if loads else 0.0
    m["weights_io.load.rebuild_share"] = sum(child.values()) / load_ns if load_ns else 0.0
    m["model.build_model.ms"] = total_ms("model.build_model")
    m["analysis.report.ms"] = total_ms("analysis.report")
    return m, _layer_table(spans, dur, n_ops)


def _op_coverage(spans, dur) -> float:
    """Share of timed-phase model.forward time covered by op spans beneath it."""
    root = [-1] * len(spans)
    fwd_ns = covered = 0
    for i, s in enumerate(spans):
        if s[NAME] == "model.forward" and s[PHASE] == "run":
            root[i] = i
            fwd_ns += dur[i]
        elif s[PARENT] >= 0:
            root[i] = root[s[PARENT]]
            if root[i] >= 0 and s[NAME].startswith(("ops.", "tensor.")):
                covered += dur[i]
    return covered / fwd_ns if fwd_ns else 0.0


def _layer_table(spans, dur, n_ops) -> list:
    """Timed-phase op spans grouped by analysis.report layer name."""
    rows = defaultdict(lambda: {"calls": 0, "ns": 0, "macs": 0, "op": ""})
    op_ns = 0
    for i, s in enumerate(spans):
        if s[PHASE] != "run":
            continue
        if s[PARENT] < 0:
            op_ns += dur[i]
        if s[LAYER] is None or not s[NAME].startswith(("ops.", "tensor.")):
            continue
        row = rows[s[LAYER]]
        row["op"] = s[NAME]
        row["calls"] += 1
        row["ns"] += dur[i]
        row["macs"] += s[MACS]
    table = []
    for layer, r in rows.items():
        table.append({
            "layer": layer,
            "op": r["op"],
            "calls_per_op": r["calls"] / n_ops,
            "ms_per_op": _ms(r["ns"]) / n_ops,
            "macs_per_op": r["macs"] / n_ops,
            "gmacs_per_s": r["macs"] / r["ns"] if r["ns"] else 0.0,
            "share": r["ns"] / op_ns if op_ns else 0.0,
        })
    table.sort(key=lambda r: -r["ms_per_op"])
    return table
