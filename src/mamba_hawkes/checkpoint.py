"""Self-describing model checkpoints.

A checkpoint, version 3, is one binary file laid out like a safetensors
file (https://github.com/huggingface/safetensors): the 8 bytes of `MAGIC`,
the header's length in bytes as an 8-byte little-endian integer, a JSON
header, then the data section. The header holds `format`, `version`, the
architecture tag `arch`, the full `config`, the metadata `meta`, and
`params`, each parameter's name mapped to its shape in write order. The data
section is each parameter's little-endian float64 bytes (C order) in that
order, 8 bytes per value and nothing more. So parameters round-trip
bit-exactly, a save/load/save cycle writes byte-identical files, and loading
takes each parameter with one copy.

Versions 1 and 2 were JSON documents whose `params` map each name to
{shape, data}: `data` is a list of JSON numbers in version 1 and the base64
text of the float64 bytes in version 2. `load_checkpoint` tells a container
from a JSON document by the magic, reads both older versions to the same
bits, and `save_checkpoint` writes version 3 again.

Loading rejects, as DataError naming the file, anything that would only
fail later: a header that runs past the end of the file, a data section
that is not exactly 8 bytes for each value the header's shapes hold
(checked before any parameter is read), a malformed JSON document or
header, a `version` that is not the integer 3 in a container or 1 or 2 in
a JSON document, a `config` that fails the checks a config file gets
(`MhpConfig.from_dict`: types, bounds and unknown keys), parameters that do
not match the architecture, non-finite parameter values (in version 1, also
values that are not JSON numbers or that no float holds), a `meta` that is
not an object, a `meta.time_scale` that is not a finite positive number and
a `meta.best_epoch` that is not a non-negative integer.
"""

from __future__ import annotations

import base64
import json
import math
import os
from itertools import accumulate

import numpy as np

from .data import DataError, finite_float, read_json
from .hybrid import MambaHawkesHybrid, MhpEConfig
from .model import MambaHawkes, MhpConfig

FORMAT = "mamba-hawkes-checkpoint"
VERSION = 3
# as PNG's signature: a non-ASCII first byte, which no JSON text starts with,
# and the line endings that a text-mode copy would rewrite
MAGIC = b"\x89MHP\r\n\x1a\n"
_HEADER_AT = len(MAGIC) + 8     # the header follows the magic and its length

_ARCHS = {"mhp": (MhpConfig, MambaHawkes), "mhp-e": (MhpEConfig, MambaHawkesHybrid)}


def config_class(arch):
    """The model config dataclass of an arch tag."""
    if arch not in _ARCHS:
        raise ValueError(f"unknown arch {arch!r}; expected one of {sorted(_ARCHS)}")
    return _ARCHS[arch][0]


def build_model(arch, config_dict, seed=0):
    cfg = config_class(arch).from_dict(config_dict)
    return _ARCHS[arch][1](cfg, seed=seed)


def save_checkpoint(model, path, meta=None):
    """Write the checkpoint to a temporary file beside `path`, then rename it
    over `path`, so an exception or a killed process never leaves a
    half-written checkpoint behind."""
    params = model.named_parameters()
    header = json.dumps({
        "format": FORMAT, "version": VERSION, "arch": model.arch,
        "config": model.cfg.to_dict(), "meta": dict(meta or {}),
        "params": {name: list(p.shape) for name, p in params},
    }).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + len(header).to_bytes(8, "little") + header)
            for _, p in params:
                fh.write(np.ascontiguousarray(p.data, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_container(path, raw):
    """The header document of the container `raw` and its data section."""
    size = int.from_bytes(raw[len(MAGIC):_HEADER_AT], "little")
    if len(raw) < _HEADER_AT + size:
        raise DataError(f"{path}: checkpoint header runs past the end of the file "
                        f"({len(raw)} bytes)")
    return (read_json(raw[_HEADER_AT:_HEADER_AT + size], path, "checkpoint JSON"),
            memoryview(raw)[_HEADER_AT + size:])


def _container_records(path, shapes, data):
    """name -> {shape, data} of a container's parameters: each shape in the
    header and its slice of the data section, whose length is checked first."""
    sizes = []
    for name, shape in shapes.items():
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"{path}: invalid shape for {name} ({shape!r})")
        sizes.append(8 * math.prod(shape))
    if len(data) != sum(sizes):
        raise DataError(f"{path}: the data section holds {len(data)} bytes, "
                        f"the header's shapes need {sum(sizes)}")
    ends = list(accumulate(sizes, initial=0))
    return {name: {"shape": shape, "data": data[a:b]}
            for (name, shape), a, b in zip(shapes.items(), ends, ends[1:])}


def _stored_values(rec, version):
    """The flat float64 values of one parameter record."""
    if version == 1:
        values = rec["data"]
        if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
            raise TypeError("version-1 data must be a list of JSON numbers")
        return np.array(values, dtype=np.float64)
    raw = rec["data"] if version == VERSION else base64.b64decode(rec["data"], validate=True)
    return np.frombuffer(raw, "<f8").astype(np.float64)  # owned, writable copy of read-only bytes


def _check_meta(path, meta):
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint 'meta' must be an object")
    scale = meta.get("time_scale", 1.0)
    if finite_float(scale) is None or scale <= 0:
        raise DataError(f"{path}: meta.time_scale must be a finite positive number, got {scale!r}")
    epoch = meta.get("best_epoch", 0)
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
        raise DataError(f"{path}: meta.best_epoch must be a non-negative integer, got {epoch!r}")
    return meta


def load_checkpoint(path):
    """Rebuild the model from a checkpoint file; returns (model, meta)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    container = raw.startswith(MAGIC)
    payload, data = (_read_container(path, raw) if container
                     else (read_json(raw, path, "checkpoint JSON"), None))
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise DataError(f"{path}: not a {FORMAT} file")
    version = payload.get("version")
    # True == 1 == 1.0, hence the type test
    if type(version) is not int or version not in ((VERSION,) if container else (1, 2)):
        raise DataError(f"{path}: unsupported checkpoint version {version!r} (this build "
                        f"reads version {VERSION} in a container, 1 and 2 as JSON)")
    config, stored = payload.get("config"), payload.get("params")
    if not isinstance(config, dict) or not isinstance(stored, dict):
        raise DataError(f"{path}: checkpoint needs 'config' and 'params' objects")
    if container:
        stored = _container_records(path, stored, data)
    meta = _check_meta(path, payload.get("meta", {}))
    try:
        model = build_model(payload.get("arch"), config)
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: invalid checkpoint config ({e})") from None
    expected = dict(model.named_parameters())
    missing = sorted(set(expected) - set(stored))
    extra = sorted(set(stored) - set(expected))
    if missing or extra:
        raise DataError(
            f"{path}: parameter names do not match the architecture "
            f"(missing={missing[:3]}, unexpected={extra[:3]})")
    for name, p in expected.items():
        rec = stored[name]
        try:
            arr = _stored_values(rec, version)
            shape = list(rec["shape"])
        # binascii.Error is a ValueError; a version-1 value that no float holds, an OverflowError
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataError(f"{path}: invalid record for {name} ({e!r})") from None
        if list(p.shape) != shape or arr.size != p.size:
            raise DataError(
                f"{path}: shape mismatch for {name}: stored {shape} with {arr.size} "
                f"values, model expects {list(p.shape)}")
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: parameter {name} holds non-finite values")
        p.data = arr.reshape(p.shape)
    return model, meta
