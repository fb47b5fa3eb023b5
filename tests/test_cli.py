import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import write_v1_checkpoint
from mamba_hawkes.checkpoint import checkpoint_payload, load_checkpoint, save_checkpoint
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
    assert os.path.exists(out / "checkpoint.json")
    assert os.path.exists(out / "metrics.csv")

    evald = tmp_path / "evald"
    assert run(["eval", "--checkpoint", out / "checkpoint.json", "--data", data,
                "--split", "test", "--out", evald, "--quad-points", 128]) == 0
    assert os.path.exists(evald / "eval_metrics.csv")
    lines = (evald / "eval_metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,split,ll_per_event,accuracy,rmse,seconds"
    assert ",test," in lines[1]

    capsys.readouterr()
    assert run(["predict", "--checkpoint", out / "checkpoint.json",
                "--events", data / "test.jsonl", "--line", 2]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(payload["probs"]) == 5
    np.testing.assert_allclose(sum(payload["probs"]), 1.0, atol=1e-9)
    assert payload["next_type"] == int(np.argmax(payload["probs"])) + 1
    assert np.isfinite(payload["next_time"])


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
    ckpt = json.load(open(out / "checkpoint.json"))
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
    code = run(["predict", "--checkpoint", out / "checkpoint.json",
                "--events", data / "test.jsonl", "--line", 99])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


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


MALFORMED_CHECKPOINTS = {  # breakage -> what the one stderr line must name
    "unknown config key": "d_modle",
    "no params": "'params'",
    "unknown arch": "mhp-x",
    "record without data": "embedding",
    "data not base64": "embedding",
    "byte count off shape": "embedding",
    "unknown version": "version 3",
    "nan parameter v1": "embedding holds non-finite",
    "nan parameter v2": "embedding holds non-finite",
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
}


@pytest.mark.parametrize("breakage", list(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_exits_2(tmp_path, capsys, breakage):
    model = MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=5), seed=0)
    payload = checkpoint_payload(model)
    embedding = payload["params"]["embedding"]
    if breakage == "unknown config key":
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
    elif breakage == "nan parameter v1":
        write_v1_checkpoint(model, tmp_path / "v1.json")
        payload = json.loads((tmp_path / "v1.json").read_text())
        payload["params"]["embedding"]["data"][3] = float("nan")
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
    path = tmp_path / "checkpoint.json"
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
    payload = json.loads(path.read_text())
    payload["config"][field] = REMOVED_FIELDS[field]
    path.write_text(json.dumps(payload))
    data = tmp_path / "test.jsonl"
    data.write_text('{"K": 2, "events": [{"t": 1.0, "k": 1}, {"t": 1.5, "k": 2}]}\n')
    assert run(["eval", "--checkpoint", path, "--data", data]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(path) in err and field in err, err


@pytest.mark.parametrize("points", [1, 0, -3])
def test_eval_quad_points_below_2_exits_1(tmp_path, capsys, points):
    data = tmp_path / "test.jsonl"
    data.write_text('{"K": 2, "events": [{"t": 1.0, "k": 1}, {"t": 1.5, "k": 2}]}\n')
    assert run(["eval", "--checkpoint", tiny_checkpoint(tmp_path), "--data", data,
                "--quad-points", points]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "--quad-points" in err, err


def test_normalize_times_train_eval_predict_agree(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    run(["generate", "--seed", 6, "--out", data, "--n-train", 6, "--n-dev", 2, "--n-test", 3])
    assert run(["train", "--config", small_train_config(tmp_path, normalize_times=True),
                "--data", data, "--out", out]) == 0
    summary = json.loads((out / "metrics.json").read_text())
    model, meta = load_checkpoint(out / "checkpoint.json")
    scale = meta["time_scale"]
    assert scale > 0.0 and scale != 1.0

    # eval rescales the raw test split by the checkpoint's time_scale
    assert run(["eval", "--checkpoint", out / "checkpoint.json", "--data", data,
                "--out", tmp_path / "evald", "--quad-points", 128]) == 0
    evald = json.loads((tmp_path / "evald" / "eval_metrics.json").read_text())
    assert evald["metrics"] == summary["test"]

    # predict runs on the scaled sequence and reports its time in raw units
    capsys.readouterr()
    assert run(["predict", "--checkpoint", out / "checkpoint.json",
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


@pytest.fixture(scope="module")
def hostile_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    save_checkpoint(MambaHawkes(MhpConfig(d_model=8, d_state=4, n_layers=1, K=5), seed=0),
                    root / "ckpt.json")
    (root / "data").mkdir()
    (root / "tied").mkdir()
    (root / "a_dir").mkdir()
    for split in ("train", "dev", "test"):
        (root / "data" / f"{split}.jsonl").write_text(GOOD * 2)
    (root / "tied" / "train.jsonl").write_text(TIED + GOOD)
    (root / "tied" / "dev.jsonl").write_text(DECREASING)
    (root / "tie_then_decreasing.jsonl").write_text(TIED + DECREASING)
    (root / "a_file").write_text("x\n")
    (root / "not_utf8").write_bytes(b'{"K": 5, "events": []}\xff\n')
    (root / "k7.jsonl").write_text('{"K": 7, "events": [{"t": 1.0, "k": 6}, {"t": 2.0, "k": 1}]}\n')
    (root / "k7_low.jsonl").write_text('{"K": 7, "events": [{"t": 1.0, "k": 5}]}\n')
    for name, fields in HOSTILE_FIELDS.items():
        (root / f"{name}.json").write_text(json.dumps(fields))
    save_checkpoint(MambaHawkesHybrid(MhpEConfig(d_model=8, d_state=4, mamba_layers=1,
                                                 attn_blocks=1, n_heads=2, K=5), seed=0),
                    root / "ckpt_e.json")
    (root / "lr_401_digits.json").write_text(json.dumps({"lr": 10**400}))  # beyond float range
    for name, fields in [*((name, HOSTILE_FIELDS[name]) for name in HOSTILE_MODEL_FIELDS),
                         *((name, f) for name, (f, _) in HOSTILE_CHECKPOINT_CONFIGS.items())]:
        fields = dict(fields)
        base = "ckpt_e.json" if fields.pop("arch", "mhp") == "mhp-e" else "ckpt.json"
        payload = json.loads((root / base).read_text())
        payload["config"].update(fields)
        (root / f"ckpt_{name}.json").write_text(json.dumps(payload))
    return root


# config values refused where they enter, naming the field: each is written as
# a config file, and those of a model's config into copies of ckpt.json (mhp)
# or ckpt_e.json (mhp-e)
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
}
HOSTILE_MODEL_FIELDS = [name for name in HOSTILE_FIELDS if name != "eval_quad_points"]

# checkpoint configs that no config file holds, or of the wrong type, written
# into copies of ckpt.json or ckpt_e.json: name -> (config fields, stderr fragment)
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
     ["eval", "--checkpoint", "ckpt.json", "--data", "data", "--out", "a_file"], 2, "a_file"),
    ("checkpoint-is-a-directory", ["eval", "--checkpoint", "a_dir", "--data", "data"], 2, "a_dir"),
    ("events-is-a-directory", ["predict", "--checkpoint", "ckpt.json", "--events", "a_dir"],
     2, "a_dir"),
    ("config-is-a-directory", ["train", "--config", "a_dir"], 1, "a_dir"),
    ("config-is-missing", ["train", "--config", "no_such.json"], 1, "no_such.json"),
    ("data-not-utf8", ["eval", "--checkpoint", "ckpt.json", "--data", "not_utf8"], 2, "not_utf8"),
    ("checkpoint-not-utf8", ["eval", "--checkpoint", "not_utf8", "--data", "data"], 2,
     "not_utf8"),
    ("config-not-utf8", ["train", "--config", "not_utf8"], 1, "not_utf8"),
    ("eval-K7", ["eval", "--checkpoint", "ckpt.json", "--data", "k7.jsonl"], 2, "k7.jsonl"),
    ("predict-K7-type6", ["predict", "--checkpoint", "ckpt.json", "--events", "k7.jsonl"], 2,
     "k7.jsonl"),
    ("predict-K7-types-within-5",
     ["predict", "--checkpoint", "ckpt.json", "--events", "k7_low.jsonl"], 2, "k7_low.jsonl"),
    ("eval-tie-then-decreasing",
     ["eval", "--checkpoint", "ckpt.json", "--data", "tie_then_decreasing.jsonl"], 2,
     "decreasing timestamps"),
    ("train-tie-then-dev-decreasing", ["train", "--data", "tied", "--out", "o"], 2,
     "decreasing timestamps"),
    *((f"config-{name}", ["train", "--config", f"{name}.json", "--data", "data", "--out", "o"],
       1, f"config field {name}") for name in HOSTILE_FIELDS),
    ("eval-quad-points-huge",
     ["eval", "--checkpoint", "ckpt.json", "--data", "data", "--quad-points", 10**11], 1,
     "--quad-points"),
    *((f"checkpoint-{name}", ["eval", "--checkpoint", f"ckpt_{name}.json", "--data", "data"],
       2, f"config field {name}") for name in HOSTILE_MODEL_FIELDS),
    ("config-lr-401-digits",
     ["train", "--config", "lr_401_digits.json", "--data", "data", "--out", "o"], 1,
     "config field lr"),
    *((f"checkpoint-{name}", ["eval", "--checkpoint", f"ckpt_{name}.json", "--data", "data"],
       2, fragment) for name, (_, fragment) in HOSTILE_CHECKPOINT_CONFIGS.items()),
    *((f"predict-checkpoint-{name}",
       ["predict", "--checkpoint", f"ckpt_{name}.json", "--events", "data/test.jsonl"],
       2, fragment) for name, (_, fragment) in HOSTILE_CHECKPOINT_CONFIGS.items()),
]


@pytest.mark.parametrize("args,code,fragment", [case[1:] for case in HOSTILE],
                         ids=[case[0] for case in HOSTILE])
def test_hostile_invocation_exits_with_one_stderr_line(hostile_inputs, args, code, fragment):
    proc = run_process(args, hostile_inputs)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and fragment in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_predict_logs_to_stdout_and_prints_its_json_last(hostile_inputs):
    (hostile_inputs / "tied_only.jsonl").write_text(TIED)
    proc = run_process(["predict", "--checkpoint", "ckpt.json", "--events", "tied_only.jsonl"],
                       hostile_inputs)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert "nudged 1 duplicate timestamps" in lines[0]
    assert set(json.loads(lines[-1])) == {"probs", "next_type", "next_time"}
