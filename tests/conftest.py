import json
import struct

import numpy as np
import pytest

from rapidnet.tensor import Rng


def rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max-abs difference scaled by the magnitude of the expected value."""
    denom = max(float(np.max(np.abs(expected))), 1e-8)
    return float(np.max(np.abs(actual - expected))) / denom


def fd_grad(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function, element by element."""
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


# Config-blob defects a checkpoint can carry: each must load as a CorruptFileError.
DEFECTIVE_CONFIGS = {
    "two_element_stage": lambda b: {**b, "stages": [b["stages"][0][:2]] + b["stages"][1:]},
    "null_dilations": lambda b: {**b, "dilations": None},
    "list_blob": lambda b: [b],
    "bogus_mixer_mode": lambda b: {**b, "mixer_mode": "bogus"},
}


def rewrite_config(path, mutate) -> None:
    """Replace a checkpoint's JSON config blob with mutate(blob), keeping the entries."""
    data = path.read_bytes()
    (n,) = struct.unpack("<I", data[6:10])
    blob = json.dumps(mutate(json.loads(data[10:10 + n]))).encode("utf-8")
    path.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob + data[10 + n:])


@pytest.fixture
def rng():
    return Rng(1234)
