import base64
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (container, edit_container, json_checkpoint, read_container,
                     write_v1_checkpoint)
from mamba_hawkes.checkpoint import load_checkpoint, save_checkpoint
from mamba_hawkes.cli import main
from mamba_hawkes.data import MAX_TYPES, EventSequence, load_jsonl
from mamba_hawkes.hybrid import MambaHawkesHybrid, MhpEConfig
from mamba_hawkes.model import MambaHawkes, MhpConfig


def run(args):
    return main([str(a) for a in args])


def run_process(args, cwd):
    """Run the CLI as a process, so that its stderr is the real one."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "mamba_hawkes.cli", *map(str, args)],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)


def small_train_config(tmp_path, **kw):
    cfg = dict(arch="mhp", d_model=8, d_state=4,
               lr=1e-3, batch_size=4, epochs=2, eval_quad_points=128, seed=0)
    cfg.update(kw)
    if cfg["arch"] == "mhp":
        cfg.setdefault("n_layers", 1)   # mhp-e takes its depth from mamba_layers
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_pipeline_generate_train_eval_predict(tmp_path, capsys):
    data = tmp_path / "data"
    out = tmp_path / "run"
    assert run(["generate", "--seed", 7, "--out", data,
                "--n-train", 10, "--n-dev", 3, "--n-test", 3]) == 0
    assert sorted(os.listdir(data)) == ["dev.jsonl", "test.jsonl", "train.jsonl"]

    cfg = small_train_config(tmp_path)
    assert run(["train", "--config", cfg, "--data", data, "--out", out]) == 0
    assert os.path.exists(out / "checkpoint.ckpt")
    assert os.path.exists(out / "metrics.csv")

    evald = tmp_path / "evald"
    assert run(["eval", "--checkpoint", out / "checkpoint.ckpt", "--data", data,
                "--split", "test", "--out", evald]) == 0
    assert os.path.exists(evald / "eval_metrics.csv")
    lines = (evald / "eval_metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,split,ll_per_event,accuracy,rmse,seconds"
    assert ",test," in lines[1]

    capsys.readouterr()
    assert run(["predict", "--checkpoint", out / "checkpoint.ckpt",
                "--events", data / "test.jsonl", "--line", 2]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(payload["probs"]) == 5
    np.testing.assert_allclose(sum(payload["probs"]), 1.0, atol=1e-9)
    assert payload["next_type"] == int(np.argmax(payload["probs"])) + 1
    assert np.isfinite(payload["next_time"])


def test_train_on_ties_at_epoch_scale_timestamps(tmp_path):
    # ties at 1e8 and 1.7e9 (Unix-epoch seconds) are nudged apart by one ulp
    data = tmp_path / "data"
    data.mkdir()
    for split, t0 in (("train", 1e8), ("dev", 1.7e9)):
        events = [{"t": t0, "k": 1}, {"t": t0, "k": 2}, {"t": t0 + 30.0, "k": 1},
                  {"t": t0 + 30.0, "k": 3}, {"t": t0 + 45.0, "k": 2}]
        (data / f"{split}.jsonl").write_text(json.dumps({"K": 3, "events": events}) + "\n")
    cfg = small_train_config(tmp_path, epochs=1)
    assert run(["train", "--config", cfg, "--data", data, "--out", tmp_path / "out"]) == 0
    assert json.loads((tmp_path / "out" / "metrics.json").read_text())["tie_nudges"] == 4


def test_train_arch_flag_selects_hybrid(tmp_path):
    data = tmp_path / "data"
    run(["generate", "--seed", 1, "--out", data,
         "--n-train", 6, "--n-dev", 2, "--n-test", 2])
    # n_layers at its default, the only value mhp-e takes
    cfg = small_train_config(tmp_path, n_layers=4, attn_blocks=1, n_heads=2, mamba_layers=1,
                             epochs=1)
    out = tmp_path / "run"
    assert run(["train", "--config", cfg, "--data", data, "--out", out,
                "--arch", "mhp-e"]) == 0
    ckpt, _ = read_container(out / "checkpoint.ckpt")
    assert ckpt["arch"] == "mhp-e"
    assert any(name.startswith("attn_layers.0.") for name in ckpt["params"])


def test_missing_data_path_exits_2(tmp_path, capsys):
    cfg = small_train_config(tmp_path)
    code = run(["train", "--config", cfg, "--data", tmp_path / "nope", "--out",
                tmp_path / "out"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_missing_split_file_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.jsonl").write_text('{"K": 1, "events": [{"t": 1.0, "k": 1}]}\n')
    cfg = small_train_config(tmp_path)
    code = run(["train", "--config", cfg, "--data", data, "--out", tmp_path / "o"])
    assert code == 2
    assert "dev.jsonl" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(["train", "--no-such-flag"]) == 1
    assert run(["generate"]) == 1  # --out is required
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"learning_rate": 0.1}')
    assert run(["train", "--config", cfg, "--data", tmp_path, "--out", tmp_path]) == 1
    assert "unknown config field" in capsys.readouterr().err


def test_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["train", "--config", cfg, "--data", tmp_path,
                "--out", tmp_path]) == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("reader,code", [("data", 2), ("config", 1), ("checkpoint", 2)])
def test_deeply_nested_json_exits_with_one_line(tmp_path, capsys, reader, code):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "\n")
    data = tmp_path / "test.jsonl"
    data.write_text('{"K": 2, "events": [{"t": 1.0, "k": 1}, {"t": 1.5, "k": 2}]}\n')
    if reader == "config":
        args = ["train", "--config", nested, "--data", tmp_path, "--out", tmp_path / "o"]
    else:
        checkpoint = nested if reader == "checkpoint" else tiny_checkpoint(tmp_path)
        args = ["eval", "--checkpoint", checkpoint, "--data", nested if reader == "data" else data]
    assert run(args) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "nested too deeply" in err, err
    assert str(nested) in err, err


def test_train_with_K_beyond_the_bound_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for split in ("train", "dev"):
        (data / f"{split}.jsonl").write_text(
            '{"K": %d, "events": [{"t": 1.0, "k": 1}, {"t": 2.0, "k": 1}]}\n' % 10**30)
    cfg = small_train_config(tmp_path)
    assert run(["train", "--config", cfg, "--data", data, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and f"1..{MAX_TYPES}" in err, err


def test_corrupt_data_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.jsonl").write_text(
        '{"K": 2, "events": [{"t": 2.0, "k": 1}, {"t": 1.0, "k": 1}]}\n')
    (data / "dev.jsonl").write_text('{"K": 2, "events": [{"t": 1.0, "k": 1}]}\n')
    cfg = small_train_config(tmp_path)
    code = run(["train", "--config", cfg, "--data", data, "--out", tmp_path / "o"])
    assert code == 2
    assert "decreasing timestamps" in capsys.readouterr().err


def test_predict_line_out_of_range_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    run(["generate", "--seed", 2, "--out", data,
         "--n-train", 2, "--n-dev", 1, "--n-test", 1])
    cfg = small_train_config(tmp_path, epochs=1)
    out = tmp_path / "run"
    run(["train", "--config", cfg, "--data", data, "--out", out])
    code = run(["predict", "--checkpoint", out / "checkpoint.ckpt",
                "--events", data / "test.jsonl", "--line", 99])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


def test_predict_line_counts_sequences_not_lines(tmp_path, capsys):
    # blank lines do not count: with line 2 blank, --line 2 is the sequence
    # on line 3, and --line 3 is past the file's two sequences
    first = '{"K": 2, "events": [{"t": 1.0, "k": 1}, {"t": 1.5, "k": 2}]}'
    second = '{"K": 2, "events": [{"t": 0.5, "k": 2}, {"t": 2.0, "k": 2}, {"t": 4.0, "k": 1}]}'
    data = tmp_path / "events.jsonl"
    data.write_text(f"{first}\n\n{second}\n")
    ckpt = tiny_checkpoint(tmp_path)
    assert run(["predict", "--checkpoint", ckpt, "--events", data, "--line", 2]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    third = EventSequence(np.array([0.5, 2.0, 4.0]), np.array([2, 2, 1]), 2)
    want = load_checkpoint(ckpt)[0].predict_next(third)
    assert printed == {"probs": [float(p) for p in want.probs],
                       "next_type": want.next_type, "next_time": want.next_time}
    assert run(["predict", "--checkpoint", ckpt, "--events", data, "--line", 3]) == 1
    assert capsys.readouterr().err == "error: --line 3 out of range (file has 2 sequences)\n"


@pytest.mark.parametrize("bad", [
    {"clip_norm": 0}, {"batch_size": 0}, {"d_model": 0},
    {"eval_quad_points": 1}, {"lr": -1}, {"epochs": 0}, {"K": 3},
    {"d_model": 8.5}, {"mlp_hidden": -1},
    {"arch": "mhp-e", "d_model": 10}, {"arch": "mhp-e", "ff_width": -1},
    {"arch": "mhp-e", "n_layers": 1},
], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_bad_config_value_exits_1_with_one_line(tmp_path, capsys, bad):
    cfg = small_train_config(tmp_path, **bad)
    code = run(["train", "--config", cfg, "--data", tmp_path, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: "), err
    assert list(bad)[-1] in err, err


@pytest.mark.parametrize("field,value", [("mamba_layers", 7), ("attn_blocks", 9),
                                         ("n_heads", 3), ("ff_width", 32)])
def test_mhp_refuses_a_hybrid_field(tmp_path, capsys, field, value):
    # arch mhp reads none of the hybrid fields, so setting one is an error
    cfg = small_train_config(tmp_path, **{field: value})
    assert run(["train", "--config", cfg, "--data", tmp_path, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config field {field} is not used by arch mhp (got {value})\n", err


def test_epochs_flag_zero_exits_1(tmp_path, capsys):
    cfg = small_train_config(tmp_path)
    assert run(["train", "--config", cfg, "--data", tmp_path, "--out", tmp_path / "o",
                "--epochs", 0]) == 1
    assert "epochs" in capsys.readouterr().err


# breakage -> what the one stderr line must name; a "container" breakage is of
# a version-3 file, the others of a version-2 (or, "v1", version-1) document
MALFORMED_CHECKPOINTS = {
    "unknown config key": "d_modle",
    "no params": "'params'",
    "unknown arch": "mhp-x",
    "record without data": "embedding",
    "data not base64": "embedding",
    "byte count off shape": "embedding",
    "unknown version": "checkpoint version 3 ",
    "version true": "version True",
    "version 1.0": "version 1.0",
    "version 2.0": "version 2.0",
    "nan parameter v1": "embedding holds non-finite",
    "nan parameter v2": "embedding holds non-finite",
    "bool value v1": "invalid record for embedding",
    "string value v1": "invalid record for embedding",
    "list meta": "'meta'",
    "time_scale x": "time_scale",
    "time_scale nan": "time_scale",
    "time_scale 0": "time_scale",
    "best_epoch x": "meta.best_epoch",
    "best_epoch inf": "meta.best_epoch",
    "best_epoch list": "meta.best_epoch",
    "best_epoch 2.7": "meta.best_epoch",
    "best_epoch -1": "meta.best_epoch",
    "best_epoch true": "meta.best_epoch",
    "container wrong magic": "invalid checkpoint JSON (not UTF-8",
    "container header past the end": "checkpoint header runs past the end of the file",
    "container data one float short": "the data section holds 7728 bytes, "
                                      "the header's shapes need 7736",
    "container data one float long": "the data section holds 7744 bytes, "
                                     "the header's shapes need 7736",
    "container nan value": "embedding holds non-finite",
    "container version 2": "checkpoint version 2 ",
    "container version true": "checkpoint version True",
    "container missing name": "missing=['embedding']",
}


def broken_container(model, breakage, path):
    """Write model's version-3 checkpoint to path with one container breakage."""
    save_checkpoint(model, path)
    header, data = read_container(path)
    if breakage == "container nan value":
        data = data[:24] + struct.pack("<d", float("nan")) + data[32:]
    elif breakage.startswith("container version"):
        header["version"] = {"container version 2": 2, "container version true": True}[breakage]
    elif breakage == "container missing name":
        del header["params"]["embedding"]
        data = data[8 * model.embedding.size:]     # the first bytes of the data section
    elif breakage.startswith("container data"):
        data = data[:-8] if breakage.endswith("short") else data + data[-8:]
    raw = container(header, data)
    if breakage == "container wrong magic":
        raw = bytes([raw[0] ^ 1]) + raw[1:]
    elif breakage == "container header past the end":
        raw = raw[:8] + struct.pack("<Q", len(raw) - 15) + raw[16:]
    path.write_bytes(raw)


@pytest.mark.parametrize("breakage", list(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_exits_2(tmp_path, capsys, breakage):
    model = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=5), seed=0)
    payload = json_checkpoint(model, 2)
    embedding = payload["params"]["embedding"]
    if breakage.startswith("container"):
        pass
    elif breakage == "unknown config key":
        payload["config"]["d_modle"] = 8
    elif breakage == "no params":
        del payload["params"]
    elif breakage == "unknown arch":
        payload["arch"] = "mhp-x"
    elif breakage == "record without data":
        del embedding["data"]
    elif breakage == "data not base64":
        embedding["data"] = "not base64!"
    elif breakage == "byte count off shape":
        embedding["data"] = base64.b64encode(model.embedding.data.tobytes()[:-8]).decode()
    elif breakage == "unknown version":
        payload["version"] = 3
    elif breakage.startswith("version"):
        payload["version"] = {"version true": True, "version 1.0": 1.0,
                              "version 2.0": 2.0}[breakage]
    elif breakage.endswith("v1"):
        write_v1_checkpoint(model, tmp_path / "v1.json")
        payload = json.loads((tmp_path / "v1.json").read_text())
        payload["params"]["embedding"]["data"][3] = {"nan parameter v1": float("nan"),
                                                     "bool value v1": True,
                                                     "string value v1": "1e3"}[breakage]
    elif breakage == "nan parameter v2":
        poisoned = model.embedding.data.copy()
        poisoned[1, 2] = np.nan
        embedding["data"] = base64.b64encode(poisoned.tobytes()).decode()
    elif breakage == "list meta":
        payload["meta"] = []
    elif breakage.startswith("best_epoch"):
        payload["meta"]["best_epoch"] = {"best_epoch x": "x", "best_epoch inf": float("inf"),
                                         "best_epoch list": [1], "best_epoch 2.7": 2.7,
                                         "best_epoch -1": -1, "best_epoch true": True}[breakage]
    else:
        payload["meta"]["time_scale"] = {"time_scale x": "x", "time_scale nan": float("nan"),
                                         "time_scale 0": 0}[breakage]
    if breakage.startswith("container"):
        path = tmp_path / "checkpoint.ckpt"
        broken_container(model, breakage, path)
    else:
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(payload))
    for command in (["eval", "--checkpoint", path, "--data", tmp_path],
                    ["predict", "--checkpoint", path, "--events", tmp_path / "e.jsonl"]):
        assert run(command) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and str(path) in err, err
        assert MALFORMED_CHECKPOINTS[breakage] in err, err


def test_diverged_training_exits_3_naming_epoch(tmp_path, capsys):
    data = tmp_path / "data"
    run(["generate", "--seed", 1, "--out", data,
         "--n-train", 4, "--n-dev", 2, "--n-test", 2])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lr": 10, "d_model": 8, "n_layers": 1,
                               "eval_quad_points": 64}))
    code = run(["train", "--config", cfg, "--data", data, "--out", tmp_path / "o",
                "--epochs", 3])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.strip().splitlines()) == 1 and "at epoch 1" in err, err


@pytest.mark.parametrize("flag", ["--seed", "--n-train", "--n-dev", "--n-test"])
def test_generate_refuses_negative_values(tmp_path, capsys, flag):
    out = tmp_path / "data"
    assert run(["generate", "--out", out, flag, -1]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{flag} must be >= 0, got -1" in err
    assert not out.exists()


def test_numeric_abort_prints_one_line_and_no_numpy_warning(tmp_path):
    # timestamps near the float maximum overflow in the forward pass; run as a
    # process so that stderr is the real one, not pytest's warning capture
    data = tmp_path / "data"
    data.mkdir()
    for split in ("train", "dev"):
        lines = [json.dumps({"K": 2, "events": [{"t": 1e308 * (0.5 + 0.1 * i + 0.01 * j),
                                                 "k": 1 + i % 2} for i in range(4)]})
                 for j in range(2)]
        (data / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
    proc = run_process(["train", "--config", small_train_config(tmp_path, epochs=1),
                        "--data", data, "--out", tmp_path / "o"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric abort: "), proc.stderr
    assert "Warning" not in proc.stderr


# a gap of 1e300 that the best model cannot score (its intensity underflows
# to 0 there), and one of 1e200 that a model with alpha at 0 scores with a
# finite LL but whose squared time error overflows, so its rmse is infinite;
# a learning rate of 1e-300 keeps alpha within 1e-300 of 0
UNSCORABLE = '{"K": 5, "events": [{"t": 0.0, "k": 1}, {"t": 1e300, "k": 2}]}\n'
RMSE_INF = '{"K": 5, "events": [{"t": 0.0, "k": 1}, {"t": 1e200, "k": 2}]}\n'


@pytest.mark.parametrize("split,line,lr,fragment", [
    ("test", UNSCORABLE, 1e-4,
     "numeric abort: test evaluation failed: log of non-positive value"),
    ("test", RMSE_INF, 1e-300, "numeric abort: test evaluation failed: rmse must be finite"),
    ("dev", RMSE_INF, 1e-300,
     "numeric abort: dev evaluation failed at epoch 1: rmse must be finite")],
    ids=["test-unscorable", "test-rmse-inf", "dev-rmse-inf"])
def test_train_evaluation_that_fails_exits_3_with_one_line(tmp_path, capsys, split, line, lr,
                                                            fragment):
    data = tmp_path / "data"
    run(["generate", "--seed", 1, "--out", data, "--n-train", 4, "--n-dev", 2, "--n-test", 0])
    (data / f"{split}.jsonl").write_text(line)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d_model": 8, "n_layers": 1, "epochs": 1, "lr": lr}))
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--data", data, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(fragment), err


def test_generate_skips_empty_split_and_train_runs(tmp_path):
    data = tmp_path / "data"
    assert run(["generate", "--seed", 3, "--out", data,
                "--n-train", 4, "--n-dev", 2, "--n-test", 0]) == 0
    assert sorted(os.listdir(data)) == ["dev.jsonl", "train.jsonl"]
    out = tmp_path / "run"
    assert run(["train", "--config", small_train_config(tmp_path, epochs=1),
                "--data", data, "--out", out]) == 0
    splits = [ln.split(",")[1] for ln in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert splits == ["train", "dev"]


def tiny_checkpoint(tmp_path, K=2):
    path = tmp_path / "checkpoint.ckpt"
    save_checkpoint(MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=K), seed=0), path)
    return path


@pytest.mark.parametrize("event", ['{"t": NaN, "k": 1}', '{"t": Infinity, "k": 1}',
                                   '{"t": 2.0, "k": true}', '{"t": "abc", "k": 1}'],
                         ids=["nan", "infinity", "bool-type", "string-time"])
def test_malformed_event_exits_2_naming_line_and_event(tmp_path, capsys, event):
    data = tmp_path / "test.jsonl"
    data.write_text('{"K": 2, "events": [{"t": 1.0, "k": 1}, {"t": 1.5, "k": 2}]}\n'
                    '{"K": 2, "events": [{"t": 1.0, "k": 1}, %s]}\n' % event)
    assert run(["eval", "--checkpoint", tiny_checkpoint(tmp_path), "--data", data]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert f"{data}:2:" in err and "at event 1" in err, err


@pytest.mark.parametrize("split", ["train", "dev", "test"])
def test_train_rejects_one_event_sequence(tmp_path, capsys, split):
    data = tmp_path / "data"
    run(["generate", "--seed", 4, "--out", data, "--n-train", 3, "--n-dev", 2, "--n-test", 2])
    path = data / f"{split}.jsonl"
    lines = path.read_text().splitlines()
    lines.insert(1, '{"K": 5, "events": [{"t": 1.0, "k": 2}]}')
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(["train", "--config", small_train_config(tmp_path, epochs=1),
                "--data", data, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and f"{path}: sequence 2" in err, err
    # predict still takes a one-event prefix
    assert run(["predict", "--checkpoint", tiny_checkpoint(tmp_path, K=5),
                "--events", path, "--line", 2]) == 0
    assert len(json.loads(capsys.readouterr().out.splitlines()[-1])["probs"]) == 5


def test_generate_removes_a_split_it_does_not_write(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["generate", "--seed", 1, "--out", data,
                "--n-train", 3, "--n-dev", 2, "--n-test", 2]) == 0
    assert run(["generate", "--seed", 2, "--out", data,
                "--n-train", 3, "--n-dev", 2, "--n-test", 0]) == 0
    assert sorted(os.listdir(data)) == ["dev.jsonl", "train.jsonl"]
    assert f"removed {data / 'test.jsonl'}" in capsys.readouterr().out


def test_eval_one_event_sequence_exits_2_naming_file_and_sequence(tmp_path, capsys):
    data = tmp_path / "test.jsonl"
    data.write_text('{"K": 2, "events": [{"t": 1.0, "k": 1}, {"t": 1.5, "k": 2}]}\n'
                    '{"K": 2, "events": [{"t": 1.0, "k": 2}]}\n')
    assert run(["eval", "--checkpoint", tiny_checkpoint(tmp_path), "--data", data]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert f"{data}: sequence 2 has one event" in err, err


def test_huge_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    # one data line of 10^5 events (3.4 MB) through eval and predict with a
    # desk mhp checkpoint; a config file of more than 8 MB with an unknown
    # key; and the data line cut off inside a number
    rng = np.random.default_rng(11)
    n = 10 ** 5
    t, k = np.cumsum(rng.uniform(0.01, 2.0, size=n)), rng.integers(1, 6, size=n)
    line = json.dumps({"K": 5, "events": [{"t": float(a), "k": int(b)} for a, b in zip(t, k)]})
    data, ckpt = tmp_path / "long.jsonl", tmp_path / "desk.ckpt"
    data.write_text(line + "\n")
    save_checkpoint(MambaHawkes(MhpConfig(d_model=16, n_layers=2, K=5), seed=0), ckpt)
    assert run(["eval", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "ev"]) == 0
    metrics = json.loads((tmp_path / "ev" / "eval_metrics.json").read_text())["metrics"]
    assert np.isfinite(metrics["ll_per_event"]) and np.isfinite(metrics["rmse"])
    capsys.readouterr()
    assert run(["predict", "--checkpoint", ckpt, "--events", data]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert np.isfinite(printed["probs"]).all() and np.isfinite(printed["next_time"])

    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"d_model": 8, "padding": "x" * (9 * 2 ** 20)}))
    assert config.stat().st_size > 8 * 2 ** 20
    assert run(["train", "--config", config, "--data", tmp_path, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == "error: unknown config field(s): padding\n"

    cut = line[:line.index(".", len(line) // 2) + 3]
    data.write_text(cut + "\n")
    for args in (["eval", "--data", data], ["predict", "--events", data]):
        assert run([args[0], "--checkpoint", ckpt, *args[1:]]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and str(data) in err, err


def test_train_seed_beyond_int64_exits_0(tmp_path):
    data = tmp_path / "data"
    run(["generate", "--seed", 2, "--out", data, "--n-train", 4, "--n-dev", 2, "--n-test", 0])
    assert run(["train", "--config", small_train_config(tmp_path, epochs=1), "--data", data,
                "--out", tmp_path / "o", "--seed", 2 ** 63]) == 0


# fields that are gone, each with the value a config or checkpoint once held
REMOVED_FIELDS = {"mc_samples": 100, "loglik_mode": "marked", "delta_transform": "softplus_clamp",
                  "delta_clamp_min": 1e-6, "delta_clamp_max": 1e4, "wall_clock_csv": False}


@pytest.mark.parametrize("field", REMOVED_FIELDS)
def test_config_setting_a_removed_field_exits_1(tmp_path, capsys, field):
    cfg = small_train_config(tmp_path, **{field: REMOVED_FIELDS[field]})
    assert run(["train", "--config", cfg, "--data", tmp_path, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == f"error: unknown config field(s): {field}\n"


@pytest.mark.parametrize("field", [f for f in REMOVED_FIELDS if f != "wall_clock_csv"])
def test_eval_checkpoint_with_a_removed_field_exits_2(tmp_path, capsys, field):
    # a checkpoint written while the model config still had the field
    path = tiny_checkpoint(tmp_path)
    edit_container(path, lambda header: header["config"].update({field: REMOVED_FIELDS[field]}))
    data = tmp_path / "test.jsonl"
    data.write_text('{"K": 2, "events": [{"t": 1.0, "k": 1}, {"t": 1.5, "k": 2}]}\n')
    assert run(["eval", "--checkpoint", path, "--data", data]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(path) in err and field in err, err


def test_normalize_times_train_eval_predict_agree(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    run(["generate", "--seed", 6, "--out", data, "--n-train", 6, "--n-dev", 2, "--n-test", 3])
    assert run(["train", "--config", small_train_config(tmp_path, normalize_times=True),
                "--data", data, "--out", out]) == 0
    summary = json.loads((out / "metrics.json").read_text())
    model, meta = load_checkpoint(out / "checkpoint.ckpt")
    scale = meta["time_scale"]
    assert scale > 0.0 and scale != 1.0

    # eval rescales the raw test split by the checkpoint's time_scale
    assert run(["eval", "--checkpoint", out / "checkpoint.ckpt", "--data", data,
                "--out", tmp_path / "evald"]) == 0
    evald = json.loads((tmp_path / "evald" / "eval_metrics.json").read_text())
    assert evald["metrics"] == summary["test"]

    # predict runs on the scaled sequence and reports its time in raw units
    capsys.readouterr()
    assert run(["predict", "--checkpoint", out / "checkpoint.ckpt",
                "--events", data / "test.jsonl", "--line", 2]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    seq = load_jsonl(data / "test.jsonl").sequences[1]
    want = model.predict_next(EventSequence(seq.timestamps * scale, seq.types, seq.K))
    assert printed == {"probs": [float(p) for p in want.probs],
                       "next_type": want.next_type, "next_time": want.next_time / scale}


# -- hostile invocations, each run as a process --------------------------------
# In process, pytest's log and warning capture take what would reach the real
# stderr, so only a process shows whether a failure prints exactly one line.

GOOD = '{"K": 5, "events": [{"t": 1.0, "k": 1}, {"t": 1.5, "k": 5}, {"t": 2.5, "k": 2}]}\n'
TIED = '{"K": 5, "events": [{"t": 1.0, "k": 1}, {"t": 1.0, "k": 2}, {"t": 2.0, "k": 3}]}\n'
DECREASING = '{"K": 5, "events": [{"t": 2.0, "k": 1}, {"t": 1.0, "k": 2}]}\n'
ALL_TIED = '{"K": 5, "events": [{"t": 1.0, "k": 1}, {"t": 1.0, "k": 2}]}\n'
T_1E10 = '{"K": 5, "events": [{"t": 1e10, "k": 1}, {"t": 2e10, "k": 2}]}\n'


@pytest.fixture(scope="module")
def hostile_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    save_checkpoint(MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=5), seed=0),
                    root / "ckpt.ckpt")
    (root / "data").mkdir()
    (root / "tied").mkdir()
    (root / "a_dir").mkdir()
    for split in ("train", "dev", "test"):
        (root / "data" / f"{split}.jsonl").write_text(GOOD * 2)
    (root / "tied" / "train.jsonl").write_text(TIED + GOOD)
    (root / "tied" / "dev.jsonl").write_text(DECREASING)
    (root / "all_tied").mkdir()
    (root / "all_tied" / "train.jsonl").write_text(ALL_TIED)
    (root / "all_tied" / "dev.jsonl").write_text(GOOD)
    (root / "normalize_times.json").write_text(json.dumps({"normalize_times": True}))
    (root / "tie_then_decreasing.jsonl").write_text(TIED + DECREASING)
    (root / "a_file").write_text("x\n")
    (root / "not_utf8").write_bytes(b'{"K": 5, "events": []}\xff\n')
    (root / "k7.jsonl").write_text('{"K": 7, "events": [{"t": 1.0, "k": 6}, {"t": 2.0, "k": 1}]}\n')
    (root / "k7_low.jsonl").write_text('{"K": 7, "events": [{"t": 1.0, "k": 5}]}\n')
    for name, fields in HOSTILE_FIELDS.items():
        (root / f"{name}.json").write_text(json.dumps(fields))
    save_checkpoint(MambaHawkesHybrid(MhpEConfig(d_model=8, d_state=4, mamba_layers=1,
                                                 attn_blocks=1, n_heads=2, K=5), seed=0),
                    root / "ckpt_e.ckpt")
    (root / "lr_401_digits.json").write_text(json.dumps({"lr": 10**400}))  # beyond float range
    # time scales that take timestamps past the float range or merge two of
    # them: stored in a checkpoint, or drawn from a train split by normalize_times
    for name, scale in (("huge", 1e300), ("tiny", 5e-324), ("401_digits", 10**400)):
        edit_container(root / "ckpt.ckpt", lambda header: header["meta"].update(time_scale=scale),
                       root / f"ckpt_scale_{name}.ckpt")
    (root / "t_1e10.jsonl").write_text(T_1E10)
    # finite parameters whose logits overflow: every hidden entry is about
    # 1e308 and every logit a sum of 8 of them, so the probabilities are NaN
    overflowing = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=5), seed=0)
    overflowing.mlp.b2.data[:] = 1e308
    overflowing.pred.P_e.data[:] = 1.0
    save_checkpoint(overflowing, root / "ckpt_overflowing.ckpt")
    (root / "one_event.jsonl").write_text('{"K": 5, "events": [{"t": 1.0, "k": 2}]}\n')
    (root / "gap_1.jsonl").write_text(
        '{"K": 5, "events": [{"t": 1.0, "k": 1}, {"t": 2.0, "k": 2}]}\n')
    (root / "good.jsonl").write_text(GOOD)
    (root / "good_then_t_1e10.jsonl").write_text(GOOD + T_1E10)
    for name, train_line, dev_line in (
            ("subnormal_gaps", '{"K": 5, "events": [{"t": 1e-310, "k": 1}, {"t": 2e-310, "k": 2}]}',
             GOOD),
            ("merged_dev", '{"K": 5, "events": [{"t": 1.0, "k": 1}, {"t": 1e308, "k": 2}]}',
             '{"K": 5, "events": [{"t": 1e-16, "k": 1}, {"t": 1.2e-16, "k": 2}]}\n')):
        (root / name).mkdir()
        (root / name / "train.jsonl").write_text(train_line + "\n")
        (root / name / "dev.jsonl").write_text(dev_line)
    # integer literals longer than the interpreter converts (4300 digits by default)
    huge = "1" + "0" * 5000
    (root / "huge_int.json").write_text(f'{{"lr": {huge}}}')
    (root / "huge_int.jsonl").write_text(f'{{"K": 5, "events": [{{"t": {huge}, "k": 1}}]}}\n')
    header, data = read_container(root / "ckpt.ckpt")
    text = json.dumps(header).replace('"d_model": 8', f'"d_model": {huge}', 1)
    (root / "ckpt_huge_int.ckpt").write_bytes(container(text.encode(), data))
    model, _ = load_checkpoint(root / "ckpt.ckpt")
    write_v1_checkpoint(model, root / "ckpt_v1_401_digits.json")
    payload = json.loads((root / "ckpt_v1_401_digits.json").read_text())
    payload["params"]["embedding"]["data"][0] = 10**400     # beyond float range
    (root / "ckpt_v1_401_digits.json").write_text(json.dumps(payload))
    for name, fields in [*((name, HOSTILE_FIELDS[name]) for name in HOSTILE_MODEL_FIELDS),
                         *((name, f) for name, (f, _) in HOSTILE_CHECKPOINT_CONFIGS.items())]:
        fields = dict(fields)
        base = "ckpt_e.ckpt" if fields.pop("arch", "mhp") == "mhp-e" else "ckpt.ckpt"
        edit_container(root / base, lambda header: header["config"].update(fields),
                       root / f"ckpt_{name}.ckpt")
    return root


# config values refused where they enter, naming the field: each is written as
# a config file, and those of a model's config into copies of ckpt.ckpt (mhp)
# or ckpt_e.ckpt (mhp-e)
HOSTILE_FIELDS = {
    "d_model": {"d_model": 10**9},
    "d_state": {"d_state": 10**8},
    "d_conv": {"d_conv": 10**9},
    "expand": {"expand": 10**9},
    "n_layers": {"n_layers": 10**8},
    "mlp_hidden": {"mlp_hidden": 10**10},
    "mamba_layers": {"arch": "mhp-e", "mamba_layers": 10**8},
    "attn_blocks": {"arch": "mhp-e", "attn_blocks": 10**8},
    "n_heads": {"arch": "mhp-e", "d_model": 256, "n_heads": 128},
    "ff_width": {"arch": "mhp-e", "ff_width": 10**10},
    "eval_quad_points": {"eval_quad_points": 10**11},
    "event_loss_weight": {"event_loss_weight": -1},
    "time_loss_weight": {"time_loss_weight": float("nan")},
    "lr": {"lr": float("inf")},
    "adam_eps": {"adam_eps": float("inf")},
    "clip_norm": {"clip_norm": float("inf")},
}
HOSTILE_MODEL_FIELDS = [name for name in HOSTILE_FIELDS
                        if name in {f.name for f in dataclasses.fields(MhpEConfig)}]

# checkpoint configs that no config file holds, or of the wrong type, written
# into copies of ckpt.ckpt or ckpt_e.ckpt: name -> (config fields, stderr fragment)
HOSTILE_CHECKPOINT_CONFIGS = {
    "K-huge": ({"K": 10**9}, "config field K"),
    "n_heads-float": ({"arch": "mhp-e", "n_heads": 2.0}, "config field n_heads"),
    "time_loss_weight-401-digits": ({"time_loss_weight": 10**400},
                                    "config field time_loss_weight"),
    "unknown-key": ({"colour": "red"}, "unknown config field(s): colour"),
}


# (case, arguments, documented exit code, a fragment of the stderr line)
HOSTILE = [
    ("generate-out-is-a-file", ["generate", "--out", "a_file", "--n-train", 1], 2, "a_file"),
    ("train-out-is-a-file", ["train", "--data", "data", "--out", "a_file"], 2, "a_file"),
    ("eval-out-is-a-file",
     ["eval", "--checkpoint", "ckpt.ckpt", "--data", "data", "--out", "a_file"], 2, "a_file"),
    ("checkpoint-is-a-directory", ["eval", "--checkpoint", "a_dir", "--data", "data"], 2, "a_dir"),
    ("events-is-a-directory", ["predict", "--checkpoint", "ckpt.ckpt", "--events", "a_dir"],
     2, "a_dir"),
    ("config-is-a-directory", ["train", "--config", "a_dir"], 1, "a_dir"),
    ("config-is-missing", ["train", "--config", "no_such.json"], 1, "no_such.json"),
    ("data-not-utf8", ["eval", "--checkpoint", "ckpt.ckpt", "--data", "not_utf8"], 2, "not_utf8"),
    ("checkpoint-not-utf8", ["eval", "--checkpoint", "not_utf8", "--data", "data"], 2,
     "not_utf8"),
    ("config-not-utf8", ["train", "--config", "not_utf8"], 1, "not_utf8"),
    ("eval-K7", ["eval", "--checkpoint", "ckpt.ckpt", "--data", "k7.jsonl"], 2, "k7.jsonl"),
    ("predict-K7-type6", ["predict", "--checkpoint", "ckpt.ckpt", "--events", "k7.jsonl"], 2,
     "k7.jsonl"),
    ("predict-K7-types-within-5",
     ["predict", "--checkpoint", "ckpt.ckpt", "--events", "k7_low.jsonl"], 2, "k7_low.jsonl"),
    ("eval-tie-then-decreasing",
     ["eval", "--checkpoint", "ckpt.ckpt", "--data", "tie_then_decreasing.jsonl"], 2,
     "decreasing timestamps"),
    ("train-tie-then-dev-decreasing", ["train", "--data", "tied", "--out", "o"], 2,
     "decreasing timestamps"),
    # every train gap a nudged tie: the data leave normalize_times no time scale
    ("train-normalize-times-all-ties",
     ["train", "--config", "normalize_times.json", "--data", "all_tied", "--out", "o"], 2,
     "all_tied/train.jsonl: every gap is a tied timestamp"),
    # a time scale that overflows a timestamp or merges two of them
    *((f"{cmd}-time-scale-{name}", [cmd, "--checkpoint", f"ckpt_scale_{name}.ckpt", flag, data],
       2, f"{data}: sequence 1: time scale")
      for cmd, flag in (("eval", "--data"), ("predict", "--events"))
      for name, data in (("huge", "t_1e10.jsonl"), ("tiny", "data/test.jsonl"))),
    # a prediction or a score that overflows, in data units or in the model
    ("predict-time-scale-tiny-next-time-inf",
     ["predict", "--checkpoint", "ckpt_scale_tiny.ckpt", "--events", "one_event.jsonl"], 2,
     "ckpt_scale_tiny.ckpt: prediction is not finite (next time -inf, meta.time_scale 5e-324)"),
    ("predict-logits-overflow",
     ["predict", "--checkpoint", "ckpt_overflowing.ckpt", "--events", "one_event.jsonl"], 2,
     "ckpt_overflowing.ckpt: prediction is not finite"),
    ("eval-time-scale-huge-rmse-inf",
     ["eval", "--checkpoint", "ckpt_scale_huge.ckpt", "--data", "gap_1.jsonl", "--out", "o"],
     2, "gap_1.jsonl: rmse must be finite and non-negative, got inf"),
    # predict scales only its line: line 1 of this file scales, line 2 does not
    ("predict-time-scale-huge-line-2",
     ["predict", "--checkpoint", "ckpt_scale_huge.ckpt", "--events", "good_then_t_1e10.jsonl",
      "--line", 2], 2, "good_then_t_1e10.jsonl: sequence 2: time scale"),
    *((f"{cmd}-time-scale-401-digits",
       [cmd, "--checkpoint", "ckpt_scale_401_digits.ckpt", flag, "data/test.jsonl"], 2,
       "ckpt_scale_401_digits.ckpt: meta.time_scale must be a finite positive number")
      for cmd, flag in (("eval", "--data"), ("predict", "--events"))),
    ("checkpoint-v1-value-401-digits",
     ["eval", "--checkpoint", "ckpt_v1_401_digits.json", "--data", "data"], 2,
     "ckpt_v1_401_digits.json: invalid record for embedding"),
    *((f"train-normalize-times-{data}",
       ["train", "--config", "normalize_times.json", "--data", data, "--out", "o"], 2,
       f"{data}/{split}.jsonl: sequence 1: time scale")
      for data, split in (("subnormal_gaps", "train"), ("merged_dev", "dev"))),
    *((f"config-{name}", ["train", "--config", f"{name}.json", "--data", "data", "--out", "o"],
       1, f"config field {name}") for name in HOSTILE_FIELDS),
    # argparse refusals, each one line: the flag --quad-points is gone
    ("eval-quad-points-huge",
     ["eval", "--checkpoint", "ckpt.ckpt", "--data", "data", "--quad-points", 10**11], 1,
     "unrecognized arguments: --quad-points"),
    ("eval-unknown-flag", ["eval", "--checkpoint", "x", "--data", "y", "--bogus", 3], 1,
     "mamba-hawkes: error: unrecognized arguments: --bogus 3"),
    ("generate-seed-not-an-integer", ["generate", "--seed", "abc", "--out", "z"], 1,
     "argument --seed: invalid int value: 'abc'"),
    ("train-unknown-arch", ["train", "--arch", "foo"], 1, "argument --arch: invalid choice: 'foo'"),
    ("no-command", [], 1, "the following arguments are required: command"),
    *((f"checkpoint-{name}", ["eval", "--checkpoint", f"ckpt_{name}.ckpt", "--data", "data"],
       2, f"config field {name}") for name in HOSTILE_MODEL_FIELDS),
    ("config-lr-401-digits",
     ["train", "--config", "lr_401_digits.json", "--data", "data", "--out", "o"], 1,
     "config field lr"),
    ("config-integer-5001-digits",
     ["train", "--config", "huge_int.json", "--data", "data", "--out", "o"], 1,
     "config file huge_int.json: invalid JSON (integer literal too long)"),
    ("checkpoint-integer-5001-digits",
     ["eval", "--checkpoint", "ckpt_huge_int.ckpt", "--data", "data"], 2,
     "ckpt_huge_int.ckpt: invalid checkpoint JSON (integer literal too long)"),
    ("data-integer-5001-digits",
     ["eval", "--checkpoint", "ckpt.ckpt", "--data", "huge_int.jsonl"], 2,
     "huge_int.jsonl:1: invalid JSON (integer literal too long)"),
    *((f"checkpoint-{name}", ["eval", "--checkpoint", f"ckpt_{name}.ckpt", "--data", "data"],
       2, fragment) for name, (_, fragment) in HOSTILE_CHECKPOINT_CONFIGS.items()),
    *((f"predict-checkpoint-{name}",
       ["predict", "--checkpoint", f"ckpt_{name}.ckpt", "--events", "data/test.jsonl"],
       2, fragment) for name, (_, fragment) in HOSTILE_CHECKPOINT_CONFIGS.items()),
]


@pytest.mark.parametrize("args,code,fragment", [case[1:] for case in HOSTILE],
                         ids=[case[0] for case in HOSTILE])
def test_hostile_invocation_exits_with_one_stderr_line(hostile_inputs, args, code, fragment):
    proc = run_process(args, hostile_inputs)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and fragment in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_predict_scales_only_its_line(hostile_inputs, capsys):
    # line 2's timestamps overflow at time scale 1e300; line 1's do not
    printed = []
    for events in ("good_then_t_1e10.jsonl", "good.jsonl"):
        assert run(["predict", "--checkpoint", hostile_inputs / "ckpt_scale_huge.ckpt",
                    "--events", hostile_inputs / events, "--line", 1]) == 0
        printed.append(capsys.readouterr().out.splitlines()[-1])
    assert printed[0] == printed[1]


def test_predict_logs_to_stdout_and_prints_its_json_last(hostile_inputs):
    (hostile_inputs / "tied_only.jsonl").write_text(TIED)
    proc = run_process(["predict", "--checkpoint", "ckpt.ckpt", "--events", "tied_only.jsonl"],
                       hostile_inputs)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert "nudged 1 duplicate timestamps" in lines[0]
    assert set(json.loads(lines[-1])) == {"probs", "next_type", "next_time"}
