import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rapidnet
from conftest import (
    ABLATION_FLAGS,
    DEFECTIVE_CONFIGS,
    DEFECTIVE_ENTRIES,
    damage_entry,
    randomize_bn_stats,
    rewrite_config,
    widen_stage4,
)
from rapidnet import reparam, weights_io
from rapidnet.blocks import stages
from rapidnet.errors import (
    CheckpointError,
    CorruptFileError,
    FormatError,
    IntegrityError,
    VersionError,
)
from rapidnet.model import RapidNetModel, StageConfig, build_model, default_config
from rapidnet.ops import Conv2dLayer
from rapidnet.reparam import count_batchnorms, reparameterize_model
from rapidnet.tensor import ARENA_ALIGN, Rng, resolve_dtype
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

    # sha256 of `save(build_model(default_config("micro"), dtype))`: pins the
    # seeded init order, the entry order and every entry name, so a structural
    # refactor that changes any of them shows up here.
    @pytest.mark.parametrize("dtype,digest", [
        ("f32", "df923c11a3da283eaf2fa74ffff96794dff87b23260f75ca9e00f01c0e2054bb"),
        ("f64", "16c32aac3d96e9ecbd9c5743b34f385bd2fee8156b8109768f8c65fa29dcef7d"),
    ])
    def test_micro_checkpoint_bytes_pinned(self, dtype, digest, tmp_path):
        path = tmp_path / "model.rpdn"
        save(build_model(default_config("micro"), dtype=dtype), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_numpy_integers_in_config_save_as_plain_ints(self, tmp_path):
        # validate accepts numpy integers, so save must write them as JSON ints
        plain = replace(default_config("micro"), num_classes=8, dilations=(2, 3))
        stages = tuple(replace(st, channels=np.int64(st.channels)) for st in plain.stages)
        numpy_ints = replace(plain, stages=stages, num_classes=np.int64(8),
                             dilations=(np.int32(2), np.int64(3)), seed=np.uint8(0))
        paths = [tmp_path / "plain.rpdn", tmp_path / "numpy.rpdn"]
        for cfg, path in zip((plain, numpy_ints), paths):
            save(build_model(cfg), str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        loaded = load(str(paths[1]))
        assert loaded.config == plain
        assert type(loaded.config.num_classes) is int

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

    def test_overwrite_cuts_a_longer_file_to_length(self, tmp_path):
        model = build_model(default_config("micro"))
        fresh, stale = tmp_path / "fresh.rpdn", tmp_path / "stale.rpdn"
        save(model, str(fresh))
        stale.write_bytes(b"x" * (2 * fresh.stat().st_size))
        save(model, str(stale))
        assert stale.read_bytes() == fresh.read_bytes()

    def test_save_cut_short_is_rejected(self, tmp_path, monkeypatch):
        model = build_model(default_config("micro"))
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        write_entry, written = weights_io._write_entry, []

        def fail_midway(fh, name, arr):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(name)
            write_entry(fh, name, arr)

        monkeypatch.setattr(weights_io, "_write_entry", fail_midway)
        with pytest.raises(OSError):
            save(model, str(path))
        with pytest.raises(FormatError):
            load(str(path))

    def test_loaded_model_runs(self, tmp_path):
        model = build_model(default_config("micro"))
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        loaded = load(str(path))
        x = Rng(1).normal((1, 3, 32, 32))
        assert np.array_equal(model.forward(x), loaded.forward(x))


def conv_geometry(model):
    return [(bname, lname, layer.stride, layer.padding, layer.dilation, layer.groups,
             layer.bias is None)
            for bname, blk in model.named_blocks()
            for lname, layer in blk.named_layers() if isinstance(layer, Conv2dLayer)]


class TestFastLoad:
    """`load` builds zero-filled, fuses without a check forward, then fills."""

    @settings(max_examples=24, derandomize=True, deadline=None)
    @given(flags=ABLATION_FLAGS, dtype=st.sampled_from(["f32", "f64"]), fused=st.booleans())
    def test_round_trip_matches_source(self, tmp_path_factory, flags, dtype, fused):
        model = build_model(replace(default_config("micro"), seed=3, **flags), dtype=dtype)
        randomize_bn_stats(model, seed=4)
        if fused:
            model, _ = reparameterize_model(model)
        path = tmp_path_factory.mktemp("ckpt") / "m.rpdn"
        save(model, str(path))
        loaded = load(str(path))
        assert loaded.fused == fused
        assert loaded.dtype == model.dtype
        assert_models_equal(model, loaded)
        assert conv_geometry(loaded) == conv_geometry(model)
        # params are writeable aligned views of one arena; buffers own their data
        params = [p.value for _, p in loaded.iter_params()]
        assert all(t.flags.writeable and t.ctypes.data % ARENA_ALIGN == 0 for t in params)
        assert len({id(t.base) for t in params}) == 1 and params[0].base.flags.owndata
        assert all(buf.flags.writeable and buf.flags.owndata for _, buf in loaded.iter_buffers())
        x = Rng(8).normal((2, 3, 32, 32), dtype=model.dtype)
        assert model.forward(x).tobytes() == loaded.forward(x).tobytes()

    def test_fused_load_runs_no_forward_and_no_random_init(self, tmp_path, monkeypatch):
        fused, _ = reparameterize_model(build_model(default_config("micro")))
        path = tmp_path / "fused.rpdn"
        save(fused, str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("load must not call this")

        monkeypatch.setattr(RapidNetModel, "forward", refuse)
        monkeypatch.setattr(reparam, "reparameterize_model", refuse)
        monkeypatch.setattr(Rng, "normal", refuse)
        loaded = load(str(path))
        assert loaded.fused
        assert_models_equal(fused, loaded)

    def test_fused_load_folds_nothing(self, tmp_path, monkeypatch):
        # the fill overwrites every tensor, so folding BN into the zero-filled
        # structure first would be thrown away
        fused, _ = reparameterize_model(build_model(default_config("micro")))
        path = tmp_path / "fused.rpdn"
        save(fused, str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("load must not call this")

        monkeypatch.setattr(reparam, "fold_bn_into_conv", refuse)
        monkeypatch.setattr(reparam, "fuse_identity_into_dw", refuse)
        loaded = load(str(path))
        assert loaded.fused
        assert_models_equal(fused, loaded)

    @settings(max_examples=16, derandomize=True, deadline=None)
    @given(flags=ABLATION_FLAGS, dtype=st.sampled_from(["f32", "f64"]))
    def test_fused_structure_is_the_fused_model_unfilled(self, flags, dtype):
        # same names, shapes, dtypes and conv geometry as `fuse_model`, with
        # the source model's tensors left unfolded
        source = build_model(replace(default_config("micro"), **flags), dtype=dtype)
        randomize_bn_stats(source, seed=5)
        weights = {name: p.value for name, p in source.iter_params()}
        fused, _, _ = reparam.fuse_model(source)
        shell = reparam.fused_structure(source)
        assert shell.fused and shell.dtype == fused.dtype
        assert [(n, p.shape, p.value.dtype) for n, p in shell.iter_params()] == \
            [(n, p.shape, p.value.dtype) for n, p in fused.iter_params()]
        assert shell.iter_buffers() == [] == fused.iter_buffers()
        assert conv_geometry(shell) == conv_geometry(fused)
        # a bias that folding would add is the tensor of the BN it replaces
        betas = {f"{bname}.{stage.name}.bias": stage.bn.beta.value
                 for bname, blk in source.named_blocks() for stage in stages(blk.plan)
                 if stage.bn is not None}
        for name, p in shell.iter_params():
            assert p.value is (weights[name] if name in weights else betas[name])


class TestDerivedState:
    """`fused` and `dtype` are read off the blocks, so they always agree with them."""

    @settings(max_examples=16, derandomize=True, deadline=None)
    @given(flags=ABLATION_FLAGS, dtype=st.sampled_from(["f32", "f64"]))
    def test_fused_and_dtype_follow_the_blocks(self, tmp_path_factory, flags, dtype):
        model = build_model(replace(default_config("micro"), **flags), dtype=dtype)
        fused, _, _ = reparam.fuse_model(model)
        assert not model.fused and fused.fused
        path = tmp_path_factory.mktemp("ckpt") / "m.rpdn"
        for net in (model, fused):
            save(net, str(path))
            for m in (net, load(str(path))):
                assert m.fused == net.fused
                assert m.dtype == resolve_dtype(dtype)
                tensors = [p.value for _, p in m.iter_params()]
                tensors += [buf for _, buf in m.iter_buffers()]
                assert all(t.dtype == m.dtype for t in tensors)


def fused_micro_with_stage4_channels(tmp_path, channels):
    fused, _ = reparameterize_model(build_model(default_config("micro")))
    path = tmp_path / "fused.rpdn"
    save(fused, str(path))
    rewrite_config(path, widen_stage4(channels))
    return path


# Load a checkpoint in a fresh interpreter; print the error type and the
# peak-RSS growth (KiB) across the load.
_RSS_PROBE = """
import resource, sys
from rapidnet.errors import CheckpointError
from rapidnet.weights_io import load
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    load(sys.argv[1])
    kind = "loaded"
except CheckpointError as exc:
    kind = type(exc).__name__
print(kind, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


class TestCraftedConfig:
    """A small file whose config declares a huge model must not allocate it."""

    def test_widened_config_fails_before_touching_memory(self, tmp_path):
        path = fused_micro_with_stage4_channels(tmp_path, 2048)
        src = os.path.dirname(os.path.dirname(os.path.abspath(rapidnet.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _RSS_PROBE, str(path)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        kind, grew_kib = out.stdout.split()
        assert kind == "IntegrityError"
        assert int(grew_kib) < 100 * 1024

    @pytest.mark.parametrize("channels", [2 ** 24, 2 ** 62])
    def test_unallocatable_config_is_corrupt(self, tmp_path, channels):
        # 2**24 asks numpy for more memory than a host has (MemoryError);
        # 2**62 for more elements than an array can index (ValueError)
        path = fused_micro_with_stage4_channels(tmp_path, channels)
        with pytest.raises(CorruptFileError):
            load(str(path))

    def test_misshapen_weight_is_integrity_error(self, tmp_path):
        model = build_model(default_config("micro"))
        path = tmp_path / "m.rpdn"
        save(model, str(path))
        rewrite_config(path, lambda b: {**b, "num_classes": 9})
        with pytest.raises(IntegrityError, match="head.fc.weight"):
            load(str(path))


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

    @pytest.mark.parametrize("dims", [(65535, 65535, 3, 3), (2 ** 32 - 1,) * 4])
    def test_entry_declaring_more_than_the_file_holds(self, dims, tmp_path):
        path = self.make_checkpoint(tmp_path)
        data = bytearray(path.read_bytes())
        at = data.index(b"stem.conv1.weight") + len(b"stem.conv1.weight") + 2  # past dtype, ndim
        data[at:at + 16] = struct.pack("<4I", *dims)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError):
            load(str(path))

    @pytest.mark.parametrize("defect", list(DEFECTIVE_CONFIGS))
    def test_defective_config(self, defect, tmp_path):
        path = self.make_checkpoint(tmp_path)
        rewrite_config(path, DEFECTIVE_CONFIGS[defect])
        with pytest.raises(CorruptFileError):
            load(str(path))

    @pytest.mark.parametrize("saved,declared", [("f64", "f32"), ("f32", "f64")])
    def test_entry_dtype_differs_from_config(self, saved, declared, tmp_path):
        # loading would round f64 entries to f32, or widen f32 ones: not bitwise
        path = tmp_path / "model.rpdn"
        save(build_model(default_config("micro"), dtype=saved), str(path))
        rewrite_config(path, lambda b: {**b, "dtype": declared})
        with pytest.raises(IntegrityError, match="stem.conv1.weight"):
            load(str(path))

    @pytest.mark.parametrize("defect", list(DEFECTIVE_ENTRIES))
    def test_defective_entry_header(self, defect, tmp_path):
        path = self.make_checkpoint(tmp_path)
        damage_entry(path, defect)
        with pytest.raises(CorruptFileError):
            load(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load(str(tmp_path / "nope.rpdn"))

    @pytest.mark.parametrize("name, value", [
        ("stem.bn1.running_var", -4.0),
        ("stem.bn1.running_var", np.nan),
        ("stage4.dcb0.ffn.bn2.running_var", np.inf),
        ("stem.bn2.running_mean", np.nan),
        ("stage3.irb0.bn1.running_mean", -np.inf),
    ])
    def test_bad_bn_statistics_are_integrity_errors(self, name, value, tmp_path):
        # the statistics BatchNorm2d requires: finite, with variances >= 0
        model = build_model(default_config("micro"))
        dict(model.iter_buffers())[name][1] = value
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        with pytest.raises(IntegrityError, match=name):
            load(str(path))

    def test_negative_running_mean_loads(self, tmp_path):
        model = build_model(default_config("micro"))
        dict(model.iter_buffers())["stem.bn1.running_mean"][:] = -4.0
        path = tmp_path / "model.rpdn"
        save(model, str(path))
        assert_models_equal(model, load(str(path)))


class TestStreamingLoad:
    """`load` reads each payload straight into its tensor: one copy in flight."""

    def test_fused_ti_load_holds_one_copy_of_the_weights(self, tmp_path):
        fused, _ = reparameterize_model(build_model(default_config("ti")))
        path = tmp_path / "ti.rpdn"
        save(fused, str(path))
        tensor_bytes = sum(p.value.nbytes for _, p in fused.iter_params())
        del fused
        tracemalloc.start()
        try:
            loaded = load(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # reading every payload into bytes first, then copying, peaks at 2x
        assert peak <= 1.25 * tensor_bytes, (peak, tensor_bytes)
        assert loaded.fused

    @pytest.mark.parametrize("keep", ["header", "half", "all but one byte"])
    def test_file_cut_between_the_passes_is_corrupt(self, keep, tmp_path, monkeypatch):
        # the table is read, then the file shrinks while the model is built:
        # the fill must raise, not hand back a model with zero-filled tensors
        model = build_model(default_config("micro"))
        randomize_bn_stats(model, seed=6)
        path = tmp_path / "m.rpdn"
        save(model, str(path))
        data = path.read_bytes()
        size = {"header": header_byte_ranges(data)[0][1], "half": len(data) // 2,
                "all but one byte": len(data) - 1}[keep]
        build = weights_io.build_model

        def cut_then_build(*args, **kwargs):
            with open(path, "r+b") as fh:
                fh.truncate(size)
            return build(*args, **kwargs)

        monkeypatch.setattr(weights_io, "build_model", cut_then_build)
        with pytest.raises(CorruptFileError, match="truncated"):
            load(str(path))


def header_byte_ranges(data: bytes):
    """(start, stop) spans of every non-payload byte of a checkpoint, walked
    independently of `weights_io`: magic, version, config length and blob,
    entry count, then each entry's name length, name, dtype, ndim and dims."""
    (cfg_len,) = struct.unpack_from("<I", data, 6)
    spans = [(0, 14 + cfg_len)]
    at = 14 + cfg_len
    (count,) = struct.unpack_from("<I", data, at - 4)
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, at)
        code, ndim = data[at + 2 + name_len], data[at + 3 + name_len]
        dims = struct.unpack_from(f"<{ndim}I", data, at + 4 + name_len)
        stop = at + 4 + name_len + 4 * ndim
        spans.append((at, stop))
        at = stop + int(np.prod(dims)) * (4 if code == 0 else 8)
    assert at == len(data)
    return spans


class TestFuzz:
    """Every damaged checkpoint loads or raises a CheckpointError subclass."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        # every block kind (stem, downsample, both DCB halves, head) at width 2
        stages = tuple(StageConfig(2, 0, n_dcb) for n_dcb in (0, 0, 1, 0))
        model = build_model(replace(default_config("micro"), stages=stages, num_classes=2))
        path = tmp_path / "tiny.rpdn"
        save(model, str(path))
        return path, path.read_bytes()

    @staticmethod
    def load_each(path, variants):
        """Labels of the variants that loaded, and of those that raised
        anything other than a CheckpointError."""
        loaded, leaked = [], []
        for label, data in variants:
            path.write_bytes(data)
            try:
                load(str(path))
                loaded.append(label)
            except CheckpointError:
                pass
            except Exception as exc:  # noqa: BLE001 - the leak is the finding
                leaked.append(f"{label}: {type(exc).__name__}: {exc}")
        return loaded, leaked

    def test_every_truncation_raises(self, checkpoint):
        path, data = checkpoint
        loaded, leaked = self.load_each(
            path, ((f"cut {n}", data[:n]) for n in range(0, len(data), 7)))
        assert not loaded, f"truncated files loaded: {loaded[:5]}"
        assert not leaked, f"{len(leaked)} leaked: {leaked[:5]}"

    def test_every_header_bit_flip_loads_or_raises(self, checkpoint):
        path, data = checkpoint

        def flipped():
            for start, stop in header_byte_ranges(data):
                for i in range(start, stop):
                    for bit in (0, 7):
                        out = bytearray(data)
                        out[i] ^= 1 << bit
                        yield f"byte {i} bit {bit}", bytes(out)

        _, leaked = self.load_each(path, flipped())
        assert not leaked, f"{len(leaked)} leaked: {leaked[:5]}"
