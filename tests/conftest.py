import json
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from rapidnet.blocks import MIXER_MODES
from rapidnet.ops import BatchNorm2d
from rapidnet.tensor import Rng


def layers(block, prefix: str) -> list:
    """The block's layers whose names start with `prefix`, in forward order."""
    return [layer for name, layer in block.named_layers() if name.startswith(prefix)]


def rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max-abs difference scaled by the magnitude of the expected value."""
    denom = max(float(np.max(np.abs(expected))), 1e-8)
    return float(np.max(np.abs(actual - expected))) / denom


def fd_grad(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function, element by element.

    Each element of x is perturbed in place and restored bitwise, so x may be
    an array that loss_fn reads itself, such as a parameter's value.
    """
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + h
        up = loss_fn(x)
        x[i] = old - h
        down = loss_fn(x)
        x[i] = old
        g[i] = (up - down) / (2.0 * h)
        it.iternext()
    return g


def without(key: str):
    """Config mutation for `rewrite_config`: drop `key` from the blob."""
    return lambda b: {k: v for k, v in b.items() if k != key}


# Config-blob defects a checkpoint can carry: each must load as a CorruptFileError.
DEFECTIVE_CONFIGS = {
    "two_element_stage": lambda b: {**b, "stages": [b["stages"][0][:2]] + b["stages"][1:]},
    "null_dilations": lambda b: {**b, "dilations": None},
    "three_dilations": lambda b: {**b, "dilations": [2, 3, 4]},
    "one_dilation": lambda b: {**b, "dilations": [2]},
    "list_blob": lambda b: [b],
    "bogus_mixer_mode": lambda b: {**b, "mixer_mode": "bogus"},
    "missing_dtype": lambda b: {k: v for k, v in b.items() if k != "dtype"},
    "missing_fused": lambda b: {k: v for k, v in b.items() if k != "fused"},
    "missing_variant": lambda b: {k: v for k, v in b.items() if k != "variant"},
    # every other ModelConfig field is required too
    **{f"missing_{key}": without(key)
       for key in ("stages", "num_classes", "mixer_mode", "dilations", "mixer_kernel",
                   "use_cpe", "lk_ffn", "gelu_per_branch", "head_hidden", "seed")},
    # JSON types that compare or convert like the right ones but are not
    "float_num_classes": lambda b: {**b, "num_classes": 8.0},
    "bool_num_classes": lambda b: {**b, "num_classes": True},
    "float_stage_width": lambda b: {**b, "stages": [[8.0, 1, 0]] + b["stages"][1:]},
    "float_block_count": lambda b: {**b, "stages": [[8, 1.0, 0]] + b["stages"][1:]},
    "float_dilation": lambda b: {**b, "dilations": [2.5, 3]},
    "float_mixer_kernel": lambda b: {**b, "mixer_kernel": 3.0},
    "float_head_hidden": lambda b: {**b, "head_hidden": 4.0},
    "float_seed": lambda b: {**b, "seed": 1.5},
    "str_seed": lambda b: {**b, "seed": "7"},
    "str_use_cpe": lambda b: {**b, "use_cpe": "no"},
    # truthy and falsy non-bools would pick fused or unfused; a non-str variant would re-save
    "str_fused": lambda b: {**b, "fused": "false"},
    "int_fused": lambda b: {**b, "fused": 1},
    "null_fused": lambda b: {**b, "fused": None},
    "int_variant": lambda b: {**b, "variant": 7},
    "null_variant": lambda b: {**b, "variant": None},
}


# Entry-header defects a checkpoint can carry, as (offset from the start of the
# `stem.conv1.weight` name, byte written there): each must load as a CorruptFileError.
DEFECTIVE_ENTRIES = {
    "name_not_utf8": (0, 0xFF),
    "ndim_132": (len("stem.conv1.weight") + 1, 132),
}


def damage_entry(path, defect: str) -> None:
    """Write one DEFECTIVE_ENTRIES defect into a checkpoint's first entry header."""
    offset, value = DEFECTIVE_ENTRIES[defect]
    data = bytearray(path.read_bytes())
    data[data.index(b"stem.conv1.weight") + offset] = value
    path.write_bytes(bytes(data))


def widen_stage4(channels: int):
    """Config mutation for `rewrite_config`: declare `channels` in stage 4."""
    return lambda b: {**b, "stages": b["stages"][:3] + [[channels] + b["stages"][3][1:]]}


def rewrite_config(path, mutate) -> None:
    """Replace a checkpoint's JSON config blob with mutate(blob), keeping the entries."""
    data = path.read_bytes()
    (n,) = struct.unpack("<I", data[6:10])
    blob = json.dumps(mutate(json.loads(data[10:10 + n]))).encode("utf-8")
    path.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob + data[10 + n:])


# The seven ablation fields of ModelConfig, drawn jointly.
ABLATION_FLAGS = st.fixed_dictionaries({
    "mixer_mode": st.sampled_from(MIXER_MODES),
    "dilations": st.sampled_from([(2, 3), (3, 4)]),
    "mixer_kernel": st.sampled_from([3, 5]),
    "use_cpe": st.booleans(),
    "lk_ffn": st.booleans(),
    "gelu_per_branch": st.booleans(),
    "head_hidden": st.sampled_from([None, 16]),
})


def randomize_bn_stats(net, seed=0):
    """Give every BN layer of a model or a block non-trivial statistics and affine parameters."""
    rng = Rng(seed)
    bns = (net.iter_batchnorms() if hasattr(net, "iter_batchnorms")
           else (layer for _, layer in net.named_layers() if isinstance(layer, BatchNorm2d)))
    for bn in bns:
        c = bn.channels
        bn.running_mean[:] = rng.normal((c,), std=0.2, dtype=bn.running_mean.dtype)
        bn.running_var[:] = rng.uniform((c,), 0.5, 1.5, dtype=bn.running_var.dtype)
        bn.gamma.value[:] = rng.uniform((c,), 0.8, 1.2, dtype=bn.gamma.value.dtype)
        bn.beta.value[:] = rng.normal((c,), std=0.1, dtype=bn.beta.value.dtype)


@pytest.fixture
def rng():
    return Rng(1234)
