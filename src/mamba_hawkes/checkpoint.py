"""Self-describing model checkpoints.

A checkpoint is one JSON document holding the architecture tag, the full
config, optional metadata, and a flat name -> {shape, data} map of every
parameter. Values are serialized with Python's shortest-round-trip float
repr, so a save/load/save cycle is bit-exact at 64-bit precision.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .data import DataError
from .hybrid import MambaHawkesHybrid, MhpEConfig
from .model import MambaHawkes, MhpConfig

FORMAT = "mamba-hawkes-checkpoint"

_ARCHS = {
    "mhp": (MhpConfig, MambaHawkes),
    "mhp-e": (MhpEConfig, MambaHawkesHybrid),
}


def build_model(arch, config_dict, seed=0):
    if arch not in _ARCHS:
        raise ValueError(f"unknown arch {arch!r}; expected one of {sorted(_ARCHS)}")
    cfg_cls, model_cls = _ARCHS[arch]
    return model_cls(cfg_cls(**config_dict), seed=seed)


def checkpoint_payload(model, meta=None):
    return {
        "format": FORMAT,
        "version": 1,
        "arch": model.arch,
        "config": model.cfg.to_dict(),
        "meta": dict(meta or {}),
        "params": {
            name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
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


def load_checkpoint(path):
    """Rebuild the model from a checkpoint file; returns (model, meta)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: invalid checkpoint JSON ({e.msg})") from None
    if payload.get("format") != FORMAT:
        raise DataError(f"{path}: not a {FORMAT} file")
    model = build_model(payload["arch"], payload["config"])
    stored = payload["params"]
    expected = dict(model.named_parameters())
    missing = sorted(set(expected) - set(stored))
    extra = sorted(set(stored) - set(expected))
    if missing or extra:
        raise DataError(
            f"{path}: parameter names do not match the architecture "
            f"(missing={missing[:3]}, unexpected={extra[:3]})")
    for name, p in expected.items():
        rec = stored[name]
        arr = np.asarray(rec["data"], dtype=np.float64)
        if list(p.shape) != list(rec["shape"]) or arr.size != p.size:
            raise DataError(
                f"{path}: shape mismatch for {name}: stored {rec['shape']}, "
                f"model expects {list(p.shape)}")
        p.data = arr.reshape(p.shape)
    return model, payload.get("meta", {})
