"""The benchmark's tracer still finds every rapidnet name it patches and reports.

`perfbench/tracing.py` swaps rapidnet module attributes and block methods for
timing wrappers and names spans after `analysis.report` layers.  A rename in
`src/` that breaks it would otherwise show only in a traced benchmark run.
The tracer is imported by path and nothing under `perfbench/` is edited; no
timing is asserted.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from rapidnet import analysis, model, ops, reparam, trainer, weights_io
from rapidnet.tensor import Rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def patched_attributes(tracing):
    """(owner, attribute) for everything `Tracer.install` swaps."""
    attrs = [(tracing.blocks, attr) for attr in tracing.BLOCK_OPS]
    attrs += [(mod, attr) for mod, attr, _ in tracing.LAYER_FUNCS]
    attrs += [(cls, meth) for cls in tracing.BLOCK_KINDS.values()
              for meth in ("forward", "backward")]
    attrs += [(model.RapidNetModel, meth) for meth in ("forward", "backward")]
    return attrs


def test_trace_of_load_forward_and_train_step(tracing, tmp_path):
    net = model.build_model(model.default_config("micro"))
    fused, _, _ = reparam.fuse_model(net)
    path = str(tmp_path / "fused.rpdn")
    weights_io.save(fused, path)
    rng = Rng(5)
    x = rng.normal((2, 3, 32, 32))
    labels = rng.integers(0, net.config.num_classes, size=2)

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in
                 patched_attributes(tracing)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        loaded = weights_io.load(path)
        for m in (loaded, net):
            tracer.register(m)
        tracer.phase = "run"
        tracer.op = 0
        root = tracer.open("contract.op")
        loaded.forward(x)
        net.set_mode("train")
        _, grad = ops.softmax_cross_entropy(net.forward(x), labels)
        net.zero_grad()
        net.backward(grad)
        params = net.iter_params()
        trainer.adamw_step([(name, p.value) for name, p in params],
                           {name: p.grad for name, p in params}, trainer.AdamWState(lr=1e-3))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)

    metrics, table = tracing.layer_metrics(tracer, 1, 1)
    traced = {row["layer"] for row in table}
    assert not [name for name in traced if name.startswith("transient.")]
    reported = {layer.name for m in (loaded, net)
                for layer in analysis.report(m.config, 32, m).layers}
    assert any(".bn" in name for name in reported)
    assert reported <= traced, sorted(reported - traced)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {entry["name"] for entry in json.load(fh)["per_layer"]}
    assert set(metrics) | {"trace_overhead_pct"} == declared
    assert np.isfinite(list(metrics.values())).all()
