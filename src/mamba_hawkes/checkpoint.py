"""Self-describing model checkpoints.

A checkpoint is one JSON document holding the architecture tag, the full
config, optional metadata, and a flat name -> {shape, data} map of every
parameter. In version 2, which `save_checkpoint` writes, `data` is the
base64 text of the parameter's little-endian float64 bytes (C order), so
parameters round-trip bit-exactly and a save/load/save cycle writes
byte-identical files. Version 1 stored `data` as a list of JSON numbers;
`load_checkpoint` still reads it to the same bits.

Loading rejects, as DataError naming the file, anything that would only
fail later: a malformed document, a `config` that fails the checks a config
file gets (`MhpConfig.from_dict`: types, bounds and unknown keys), parameters
that do not match the architecture, non-finite parameter values, a `meta`
that is not an object, a `meta.time_scale` that is not a finite positive
number and a `meta.best_epoch` that is not a non-negative integer.
"""

from __future__ import annotations

import base64
import json
import math
import os

import numpy as np

from .data import DataError
from .hybrid import MambaHawkesHybrid, MhpEConfig
from .model import MambaHawkes, MhpConfig

FORMAT = "mamba-hawkes-checkpoint"
VERSION = 2

_ARCHS = {
    "mhp": (MhpConfig, MambaHawkes),
    "mhp-e": (MhpEConfig, MambaHawkesHybrid),
}


def config_class(arch):
    """The model config dataclass of an arch tag."""
    if arch not in _ARCHS:
        raise ValueError(f"unknown arch {arch!r}; expected one of {sorted(_ARCHS)}")
    return _ARCHS[arch][0]


def build_model(arch, config_dict, seed=0):
    cfg = config_class(arch).from_dict(config_dict)
    return _ARCHS[arch][1](cfg, seed=seed)


def checkpoint_payload(model, meta=None):
    return {
        "format": FORMAT,
        "version": VERSION,
        "arch": model.arch,
        "config": model.cfg.to_dict(),
        "meta": dict(meta or {}),
        "params": {
            name: {"shape": list(p.shape),
                   "data": base64.b64encode(p.data.astype("<f8").tobytes()).decode("ascii")}
            for name, p in model.named_parameters()
        },
    }


def save_checkpoint(model, path, meta=None):
    """Write the checkpoint to a temporary file beside `path`, then rename it
    over `path`, so an exception or a killed process never leaves a
    half-written checkpoint behind."""
    text = json.dumps(checkpoint_payload(model, meta))  # C encoder; same bytes as json.dump
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _stored_values(rec, version):
    """The flat float64 values of one parameter record."""
    if version == 1:
        return np.asarray(rec["data"], dtype=np.float64).reshape(-1)
    raw = base64.b64decode(rec["data"], validate=True)
    return np.frombuffer(raw, "<f8").astype(np.float64)  # owned, writable copy of read-only bytes


def _check_meta(path, meta):
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint 'meta' must be an object")
    if "time_scale" in meta:
        scale = meta["time_scale"]
        if (isinstance(scale, bool) or not isinstance(scale, (int, float))
                or not math.isfinite(scale) or scale <= 0):
            raise DataError(f"{path}: meta.time_scale must be a finite positive "
                            f"number, got {scale!r}")
    epoch = meta.get("best_epoch", 0)
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
        raise DataError(f"{path}: meta.best_epoch must be a non-negative integer, got {epoch!r}")
    return meta


def load_checkpoint(path):
    """Rebuild the model from a checkpoint file; returns (model, meta)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: invalid checkpoint JSON ({e.msg})") from None
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: checkpoint is not UTF-8 ({e.reason})") from None
        except RecursionError:
            raise DataError(f"{path}: invalid checkpoint JSON (nested too deeply)") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise DataError(f"{path}: not a {FORMAT} file")
    version = payload.get("version")
    if version not in (1, VERSION):
        raise DataError(f"{path}: unsupported checkpoint version {version!r} "
                        f"(this build reads 1 and {VERSION})")
    config, stored = payload.get("config"), payload.get("params")
    if not isinstance(config, dict) or not isinstance(stored, dict):
        raise DataError(f"{path}: checkpoint needs 'config' and 'params' objects")
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
        except (KeyError, TypeError, ValueError) as e:  # binascii.Error is a ValueError
            raise DataError(f"{path}: invalid record for {name} ({e!r})") from None
        if list(p.shape) != shape or arr.size != p.size:
            raise DataError(
                f"{path}: shape mismatch for {name}: stored {shape} with {arr.size} "
                f"values, model expects {list(p.shape)}")
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: parameter {name} holds non-finite values")
        p.data = arr.reshape(p.shape)
    return model, meta
