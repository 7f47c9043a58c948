import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import DEFECTIVE_CONFIGS, rewrite_config
from rapidnet.errors import CorruptFileError, FormatError, IntegrityError, VersionError
from rapidnet.model import build_model, default_config
from rapidnet.reparam import count_batchnorms, reparameterize_model
from rapidnet.tensor import Rng
from rapidnet.weights_io import MAGIC, load, save


def assert_models_equal(a, b):
    pa, pb = a.iter_params(), b.iter_params()
    assert [n for n, _ in pa] == [n for n, _ in pb]
    for (_, x), (_, y) in zip(pa, pb):
        assert x.value.dtype == y.value.dtype
        assert np.array_equal(x.value, y.value)
    for (na, ba), (nb, bb) in zip(a.iter_buffers(), b.iter_buffers()):
        assert na == nb
        assert np.array_equal(ba, bb)


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_bitwise_identity(self, dtype, tmp_path):
        model = build_model(replace(default_config("micro"), seed=5), dtype=dtype)
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        assert_models_equal(model, load(str(path)))

    def test_magic_bytes(self, tmp_path):
        model = build_model(default_config("micro"))
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        assert path.read_bytes()[:4] == MAGIC

    def test_trained_stats_survive(self, tmp_path):
        model = build_model(default_config("micro"))
        model.set_mode("train")
        model.forward(Rng(0).normal((2, 3, 32, 32)))
        model.set_mode("eval")
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        assert_models_equal(model, load(str(path)))

    def test_fused_round_trip(self, tmp_path):
        model = build_model(default_config("micro"))
        fused, _ = reparameterize_model(model)
        path = tmp_path / "fused.rpdn"
        save(fused, str(path))
        loaded = load(str(path))
        assert loaded.fused
        assert count_batchnorms(loaded) == 0
        assert_models_equal(fused, loaded)
        x = Rng(9).normal((1, 3, 32, 32))
        assert np.array_equal(fused.forward(x), loaded.forward(x))

    def test_loaded_model_runs(self, tmp_path):
        model = build_model(default_config("micro"))
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        loaded = load(str(path))
        x = Rng(1).normal((1, 3, 32, 32))
        assert np.array_equal(model.forward(x), loaded.forward(x))


class TestErrorCases:
    def make_checkpoint(self, tmp_path):
        model = build_model(default_config("micro"))
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load(str(path))

    def test_unknown_version(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load(str(path))

    def test_truncated_mid_payload(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CorruptFileError):
            load(str(path))

    def test_truncated_header(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:5])
        with pytest.raises(CorruptFileError):
            load(str(path))

    def test_tensor_name_mismatch(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        data = path.read_bytes()
        # corrupt the first tensor entry's name in place
        idx = data.index(b"stem.conv1.weight")
        patched = data[:idx] + b"stem.convX.weight" + data[idx + 17:]
        path.write_bytes(patched)
        with pytest.raises(IntegrityError):
            load(str(path))

    @pytest.mark.parametrize("defect", list(DEFECTIVE_CONFIGS))
    def test_defective_config(self, defect, tmp_path):
        path = self.make_checkpoint(tmp_path)
        rewrite_config(path, DEFECTIVE_CONFIGS[defect])
        with pytest.raises(CorruptFileError):
            load(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load(str(tmp_path / "nope.rpdn"))
