"""Binary checkpoint serialization.

File layout (all integers little-endian):

    magic     4 bytes   b"RPDN"
    version   u16       1
    cfg_len   u32       length of the UTF-8 JSON config blob
    cfg       bytes     model config (plus "fused" and "dtype" keys)
    count     u32       number of tensor entries
    entry*    repeated  name_len: u16, name: UTF-8 bytes,
                        dtype: u8 (0 = f32, 1 = f64), ndim: u8,
                        dims: u32 * ndim, payload: little-endian scalars

Entries carry every learnable parameter and every BN running-statistics
buffer, named exactly as `iter_params` / `iter_buffers` name them, so a
round trip reproduces the model bitwise.  The config blob makes the file
self-describing.  `load` makes two passes over the file and holds one copy
of the weights.  The first reads the entry table (name, dtype, dims and
where each payload starts) and seeks over the payloads.  It then builds a
zero-filled structure from the config (no random init), whose parameters
are views of one arena (`model.build_model`), checks every conv
and linear weight's name and shape against the table, and gives the
structure the fused form when the file is fused (`reparam.fused_structure`:
no BN is folded, since the fill overwrites every tensor; the equivalence
forward lives in `reparam.reparameterize_model`, which export and verify
run; a folded bias is the BN's beta view).  The second pass reads each
payload straight into its tensor, in file order: a byte copy of
little-endian scalars into an arena view for every parameter, and into its
own array for every BN buffer.
The blob must carry every config field plus "fused" (a JSON bool) and
"dtype", which every entry must have; `save` writes them all, so a missing
or mistyped key is a `CorruptFileError` and an entry of another dtype an
`IntegrityError`.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from typing import BinaryIO, Dict, NamedTuple, Tuple

import numpy as np

from .errors import CorruptFileError, FormatError, IntegrityError, VersionError
from .model import ModelConfig, RapidNetModel, build_model
from .reparam import fused_structure
from .tensor import resolve_dtype

MAGIC = b"RPDN"
VERSION = 1

_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_MAX_NDIM = 4  # conv weights; every other tensor has fewer


def _write_entry(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<BB", _DTYPE_CODE[arr.dtype], arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CorruptFileError(f"file truncated: wanted {n} bytes, got {len(data)}")
    return data


def _check_declared(fh: BinaryIO, n: int, end: int) -> None:
    """Refuse a length the file declares that runs past its `end`."""
    if n > end - fh.tell():
        raise CorruptFileError(f"file truncated: wanted {n} bytes, {end - fh.tell()} remain")


class _Entry(NamedTuple):
    """One entry of the table `load` reads first: its payload is read later."""

    dtype: np.dtype
    shape: Tuple[int, ...]
    offset: int  # where the payload starts in the file


def _read_entry(fh: BinaryIO, end: int) -> Tuple[str, _Entry]:
    """Read one entry's header and seek over its payload."""
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    try:
        name = _read_exact(fh, name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"entry name is not UTF-8: {exc}") from exc
    code, ndim = struct.unpack("<BB", _read_exact(fh, 2))
    if code not in _CODE_DTYPE:
        raise CorruptFileError(f"entry {name!r} has unknown dtype code {code}")
    if ndim > _MAX_NDIM:
        raise CorruptFileError(f"entry {name!r} declares {ndim} dimensions, "
                               f"at most {_MAX_NDIM} exist")
    dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
    dtype = _CODE_DTYPE[code]
    nbytes = math.prod(dims) * dtype.itemsize  # Python ints: a crafted shape cannot wrap
    _check_declared(fh, nbytes, end)
    entry = _Entry(dtype, dims, fh.tell())
    fh.seek(nbytes, os.SEEK_CUR)
    return name, entry


def save(model: RapidNetModel, path: str) -> None:
    """Write the model's config, parameters, and BN buffers to `path`.

    Entries go straight to the file.  An existing file is overwritten in
    place and then cut to length, never truncated to zero first: on ext4
    (auto_da_alloc) a file truncated to zero and rewritten is written out to
    disk when it is closed, and the next save's truncate waits for that
    write, so repeated exports to one path ran at disk speed.  The magic goes
    in last, so `load` rejects a file whose save was cut short.
    """
    blob = model.config.to_dict()
    blob["fused"] = model.fused
    blob["dtype"] = "f64" if model.dtype == np.float64 else "f32"
    cfg_bytes = json.dumps(blob).encode("utf-8")

    entries = [(name, p.value) for name, p in model.iter_params()]
    entries += model.iter_buffers()

    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with os.fdopen(fd, "wb") as fh:
        fh.write(bytes(len(MAGIC)))
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            _write_entry(fh, name, arr)
        fh.truncate()
        fh.seek(0)
        fh.write(MAGIC)


def load(path: str) -> RapidNetModel:
    """Rebuild a model from a checkpoint; every tensor is restored bitwise.

    The first pass reads the header and the entry table and raises every
    error of the file's layout: truncation, an unknown dtype code, too many
    dimensions, a name that is not UTF-8, a duplicate name, an entry dtype
    other than the blob's.  The model is then built and its weights checked
    against the table.  The second pass walks the entries in file order,
    checks each one's name and shape and reads its payload into the tensor
    (a byte copy of the little-endian scalars), so no second copy of the
    weights is ever held.  BN statistics are checked once they are in: they
    must be finite, with variances >= 0.  A file that is cut short between
    the passes is a `CorruptFileError`.  Any error drops the half-filled model.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<H", _read_exact(fh, 2))
        if version != VERSION:
            raise VersionError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4))
        _check_declared(fh, cfg_len, end)
        try:
            blob = json.loads(_read_exact(fh, cfg_len).decode("utf-8"))
            cfg = ModelConfig.from_dict(blob)
            cfg.validate()
            # `save` writes both keys, so a missing one is damage, not a default
            dtype = resolve_dtype(blob["dtype"])
            fused = blob["fused"]
            if not isinstance(fused, bool):
                raise TypeError(f"fused must be a bool, got {fused!r}")
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptFileError(f"unreadable config blob: {exc}") from exc
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        table: Dict[str, _Entry] = {}
        for _ in range(count):
            name, entry = _read_entry(fh, end)
            if name in table:
                raise IntegrityError(f"duplicate tensor entry {name!r}")
            if entry.dtype != dtype.newbyteorder("<"):
                raise IntegrityError(f"entry {name!r} is {entry.dtype.name}, not {dtype.name}")
            table[name] = entry

        try:
            model = build_model(cfg, dtype=dtype, init=False)
        except (MemoryError, ValueError) as exc:
            # numpy raises MemoryError past what the host can give, ValueError
            # past what an array can index
            raise CorruptFileError(f"config declares a model too large to allocate: {exc}") from exc
        # Fusion keeps every conv and linear weight, so this check bounds what a
        # crafted config makes the fill below write to.
        for name, p in model.iter_params():
            if name.endswith(".weight"):
                entry = table.get(name)
                if entry is None or entry.shape != p.shape:
                    found = "missing" if entry is None else f"shape {entry.shape}"
                    raise IntegrityError(f"weight {name!r} is {found}, the "
                                         f"{cfg.variant!r} config declares {p.shape}")
        if fused:
            model = fused_structure(model)

        expected = {name: p.value for name, p in model.iter_params()}
        buffers = dict(model.iter_buffers())
        for name, entry in table.items():
            target = expected.pop(name, None)
            is_buffer = target is None
            if is_buffer:
                if name not in buffers:
                    raise IntegrityError(f"checkpoint entry {name!r} does not exist in the "
                                         f"{cfg.variant!r} model structure")
                target = buffers.pop(name)
            if target.shape != entry.shape:
                raise IntegrityError(f"entry {name!r} has shape {entry.shape}, "
                                     f"model expects {target.shape}")
            fh.seek(entry.offset)
            got = fh.readinto(target)  # C-contiguous: its buffer is its bytes
            if got != target.nbytes:
                raise CorruptFileError(f"file truncated: entry {name!r} wanted "
                                       f"{target.nbytes} bytes, got {got}")
            if sys.byteorder != "little":  # the tensor has the host's byte order
                target.byteswap(inplace=True)
            # BN statistics are a few KB: check them, not the weights, on every load
            if is_buffer and (not np.isfinite(target).all()
                              or (name.endswith(".running_var") and (target < 0).any())):
                raise IntegrityError(f"BN buffer {name!r} is non-finite or a negative variance")
    missing = list(expected) + list(buffers)
    if missing:
        raise IntegrityError(f"checkpoint is missing tensors: {missing[:5]}"
                             + ("..." if len(missing) > 5 else ""))
    return model
