"""Seeded fuzz of the file readers through the command line.

After Miller, Fredriksen & So, "An empirical study of the reliability of
UNIX utilities" (CACM 33(12), 1990): valid inputs (a JSONL line, a config
file, version-1 and version-2 JSON checkpoints and a version-3 checkpoint
container) are mutated, and `train`, `eval` and `predict` run on each mutant
in process. Every run must keep the exit-code contract: no exception
escapes, the code is 0, 1, 2 or 3, a nonzero code comes with exactly one
stderr line and no warning, and no run logs an error (the stderr line
reports it; log records go to stdout).

Each JSON document gets `RANDOM_CASES` mutations drawn from `SEED` (a
flipped bit, a truncation, a deleted key, a value of another type, or deep
nesting), and then every token of `TOKENS` in place of every number it
holds. A container's header gets the same mutations, each re-framed with
its correct length; then each section of the container (magic, length
field, header, data) gets `FRAME_CASES` bytes changed and is truncated at
its start, middle and last byte.

The flags get the same contract: `FLAG_CASES` argument lists per subcommand,
drawn from `SEED` out of `flag_values`, with flags left out, flags without a
value, unknown flags and those of other subcommands.
"""

import json
import logging
import logging.handlers
import random
import struct
import warnings

import pytest

from helpers import container, read_container, write_v1_checkpoint, write_v2_checkpoint
from mamba_hawkes.checkpoint import save_checkpoint
from mamba_hawkes.cli import main
from mamba_hawkes.model import MambaHawkes, MhpConfig

SEED = 1990
RANDOM_CASES = 40      # per input
FRAME_CASES = 8        # changed bytes per container section
TOKENS = ["1" + "0" * 400, "1e400", "-1e308", "1e-320", "-0.0", "NaN", "Infinity", "true",
          '"1"', "[]", "{}"]
SWAPS = ["x", 7, 2.5, True, None, [], {}]     # values of each JSON type
NESTING = 10000
MARK = "@@mutant@@"   # stands for the raw text that replaces a value

LINE = {"K": 2, "events": [{"t": 0.5, "k": 1}, {"t": 1.25, "k": 2}, {"t": 2.0, "k": 1}]}
CONFIG = {"d_model": 4, "d_state": 2, "n_layers": 1, "lr": 1e-3, "batch_size": 2,
          "adam_eps": 1e-8, "clip_norm": 5.0, "time_loss_weight": 1e-4,
          "eval_quad_points": 8, "seed": 0, "normalize_times": True}


def sites(doc, path=()):
    """Paths to the values of doc: every key of an object, but only the first
    two elements of an array and the first record of `params`, whose other
    entries are alike."""
    if isinstance(doc, dict):
        keys = list(doc)[:1] if path == ("params",) else list(doc)
        children = [(k, doc[k]) for k in keys]
    elif isinstance(doc, list):
        children = list(enumerate(doc[:2]))
    else:
        children = []
    out = [path]
    for key, value in children:
        out += sites(value, path + (key,))
    return out


def replaced(doc, path, value):
    """JSON text of doc with the value at path replaced by `value`; a str
    value that starts with MARK goes in as raw text."""
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = value
    text = json.dumps(doc)
    if isinstance(value, str) and value.startswith(MARK):
        text = text.replace(json.dumps(value), value[len(MARK):])
    return text


def number_sites(doc):
    return [p for p in sites(doc) if p and isinstance(_at(doc, p), (int, float))
            and not isinstance(_at(doc, p), bool)]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def random_mutant(doc, rng):
    """(description, bytes) of one mutation of doc drawn from rng."""
    raw = json.dumps(doc).encode()
    kind = rng.choice(["flip", "truncate", "delete", "swap", "nest"])
    if kind == "flip":
        i, bit = rng.randrange(len(raw)), rng.randrange(8)
        return f"flip bit {bit} of byte {i}", raw[:i] + bytes([raw[i] ^ 1 << bit]) + raw[i + 1:]
    if kind == "truncate":
        n = rng.randrange(len(raw))
        return f"truncate to {n} bytes", raw[:n]
    if kind == "delete":
        path = rng.choice([p for p in sites(doc) if isinstance(_at(doc, p), dict)
                           and _at(doc, p)])
        key = rng.choice(list(_at(doc, path)))
        mutant = json.loads(raw)
        del _at(mutant, path)[key]
        return f"delete {path + (key,)}", json.dumps(mutant).encode()
    path = rng.choice(sites(doc)[1:])
    if kind == "swap":
        old = _at(doc, path)
        value = rng.choice([v for v in SWAPS if type(v) is not type(old)])
        return f"{path} = {value!r}", replaced(doc, path, value).encode()
    nested = MARK + "[" * NESTING + "]" * NESTING
    return f"{path} nested {NESTING} deep", replaced(doc, path, nested).encode()


def mutants(doc):
    """Every (description, bytes) mutant of doc: the random ones, then the tokens."""
    rng = random.Random(SEED)
    out = [random_mutant(doc, rng) for _ in range(RANDOM_CASES)]
    for path in number_sites(doc):
        out += [(f"{path} = {token if len(token) < 20 else f'{len(token)}-digit integer'}",
                 replaced(doc, path, MARK + token).encode()) for token in TOKENS]
    return out


def frame_mutants(raw):
    """Every (description, bytes) mutant of the container raw's framing: a
    byte of each section changed to another value, and truncations."""
    rng = random.Random(SEED)
    header_end = 16 + struct.unpack_from("<Q", raw, 8)[0]
    out = []
    for name, (a, b) in {"magic": (0, 8), "length": (8, 16), "header": (16, header_end),
                         "data": (header_end, len(raw))}.items():
        for _ in range(FRAME_CASES):
            i, x = rng.randrange(a, b), rng.randrange(1, 256)
            out.append((f"{name}: byte {i} xor {x}", raw[:i] + bytes([raw[i] ^ x]) + raw[i + 1:]))
        out += [(f"{name}: truncate to {n} bytes", raw[:n])
                for n in sorted({a, (a + b) // 2, b - 1})]
    return out


def contract_breach(args, capsys):
    """What a run of the CLI on args breaks of the exit-code contract, or None.

    pytest takes warnings and log records before capsys sees them, so the
    run records them itself."""
    capsys.readouterr()
    handler, root = logging.handlers.BufferingHandler(capacity=10**6), logging.getLogger()
    root.addHandler(handler)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(a) for a in args])
    except Exception as e:     # an escaping exception is the finding
        return f"raised {type(e).__name__}: {e}"
    finally:
        root.removeHandler(handler)
    err = capsys.readouterr().err.splitlines()
    errors = [r.getMessage() for r in handler.buffer if r.levelno >= logging.ERROR]
    if code not in (0, 1, 2, 3):
        return f"exit code {code}"
    if errors:
        return f"logged errors {errors}"
    if code and (len(err) != 1 or caught) or len(err) > 1:
        return f"exit {code} with stderr {err} and warnings {[str(w.message) for w in caught]}"
    return None


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model = MambaHawkes(MhpConfig(d_model=4, d_state=2, n_layers=1, K=2), seed=0)
    meta = {"best_epoch": 1, "time_scale": 0.5}
    save_checkpoint(model, root / "v3.ckpt", meta=meta)
    write_v2_checkpoint(model, root / "v2.json", meta=meta)
    write_v1_checkpoint(model, root / "v1.json", meta=meta)
    (root / "data").mkdir()
    for split in ("train", "dev"):
        (root / "data" / f"{split}.jsonl").write_text(json.dumps(LINE) + "\n")
    (root / "config.json").write_text(json.dumps(CONFIG))
    return root


def breaches(root, cases, name, commands, capsys):
    """Each (description, bytes) case written to root/name, and what each
    command (a function of that path) breaks on it."""
    found = []
    for what, raw in cases:
        (root / name).write_bytes(raw)
        for args in commands(root / name):
            breach = contract_breach(args, capsys)
            if breach:
                found.append(f"{what}: {args[0]}: {breach}")
    return found


def _train(root, config, data):
    return ["train", "--config", config, "--data", data, "--out", root / "out", "--epochs", 1]


def test_fuzz_data_line(inputs, capsys):
    data = inputs / "mutant_data"
    data.mkdir()
    (data / "dev.jsonl").write_bytes((inputs / "data" / "dev.jsonl").read_bytes())

    def commands(path):
        (data / "train.jsonl").write_bytes(path.read_bytes() + b"\n")
        return [["eval", "--checkpoint", inputs / "v3.ckpt", "--data", path],
                ["predict", "--checkpoint", inputs / "v3.ckpt", "--events", path],
                _train(inputs, inputs / "config.json", data)]

    found = breaches(inputs, mutants(LINE), "mutant.jsonl", commands, capsys)
    assert not found, "\n".join(found[:10])


def test_fuzz_config(inputs, capsys):
    found = breaches(inputs, mutants(CONFIG), "mutant_config.json",
                     lambda path: [_train(inputs, path, inputs / "data")], capsys)
    assert not found, "\n".join(found[:10])


def _load(root):
    good = root / "data" / "dev.jsonl"
    return lambda path: [["eval", "--checkpoint", path, "--data", good],
                         ["predict", "--checkpoint", path, "--events", good]]


@pytest.mark.parametrize("version", [1, 2])
def test_fuzz_checkpoint(inputs, capsys, version):
    doc = json.loads((inputs / f"v{version}.json").read_text())
    found = breaches(inputs, mutants(doc), "mutant_checkpoint.json", _load(inputs), capsys)
    assert not found, "\n".join(found[:10])


def test_fuzz_checkpoint_container(inputs, capsys):
    header, data = read_container(inputs / "v3.ckpt")
    cases = [(f"header {what}", container(text, data)) for what, text in mutants(header)]
    cases += frame_mutants((inputs / "v3.ckpt").read_bytes())
    found = breaches(inputs, cases, "mutant_checkpoint.ckpt", _load(inputs), capsys)
    assert not found, "\n".join(found[:10])


# -- command-line flags ------------------------------------------------------

FLAG_CASES = 100       # argument lists per subcommand
KEEP_FLAG = 0.85       # the chance that a flag is drawn at all
GOOD_VALUE = 0.85      # the chance that a drawn flag takes a good value
# empty, non-numeric, negative and fractional values, then huge ones, the
# last beyond the digits that int() converts; --n-* counts and --epochs take
# only the first kind and at most 3, so that a run that takes them does
# little work
SMALL_BAD = ["", "abc", "-1", "2.5"]
BAD = SMALL_BAD + ["9" * 30, "1" + "0" * 5000]
COUNTS = ["0", "1", "3"]
TINY = {"d_model": 4, "d_state": 2, "batch_size": 2, "epochs": 1, "seed": 0}
STRANGE = ["--bogus", "-x", "--quad-points", "-h", "extra"]


def flag_values(root):
    """Each subcommand's flags, each with its good values and its bad ones:
    a path that does not exist, a file where a directory belongs or one of
    another kind, and the values of `BAD`."""
    missing, a_file, events = root / "no_such", root / "config.json", root / "data" / "dev.jsonl"
    paths, outs = [missing, a_file, ""], [a_file, ""]     # a missing out directory is made
    counts = (COUNTS, SMALL_BAD)
    return {
        "generate": {"--seed": (["0", "7", "9" * 30], BAD), "--out": ([root / "gen"], outs),
                     "--n-train": counts, "--n-dev": counts, "--n-test": counts},
        "train": {"--config": ([root / "tiny.json"], [missing, root / "data", events]),
                  "--data": ([root / "data"], paths), "--out": ([root / "run"], outs),
                  "--arch": (["mhp", "mhp-e"], ["foo", ""]), "--seed": (["0", "9" * 30], BAD),
                  "--epochs": (COUNTS[1:], ["0", *SMALL_BAD])},
        "eval": {"--checkpoint": ([root / "v3.ckpt"], [events, *paths]),
                 "--data": ([root / "data", events], paths),
                 "--split": (["dev", "train"], ["test", "", "../data/dev"]),
                 "--out": ([root / "evald"], outs)},
        "predict": {"--checkpoint": ([root / "v3.ckpt"], [events, *paths]),
                    "--events": ([events], [root / "data", *paths]),
                    "--line": (["1"], ["2", "0", *BAD])},
    }


# drawn in every list: without them generate writes 2000 sequences and
# train runs the default config for 50 epochs
ALWAYS = {"generate": ["--n-train", "--n-dev", "--n-test"], "train": ["--config"]}


def draw_argv(command, values, rng):
    """One argument list for command: each of its flags with a good or a
    bad value, or left out; maybe a strange token, and maybe the last value
    dropped."""
    argv = [command]
    for flag, (good, bad) in values[command].items():
        if flag in ALWAYS.get(command, []) or rng.random() < KEEP_FLAG:
            argv += [flag, str(rng.choice(good if rng.random() < GOOD_VALUE else bad))]
    if rng.random() < 0.1:
        argv.append(rng.choice(STRANGE + [f for v in values.values() for f in v]))
    if rng.random() < 0.05:
        argv.pop()
    return argv


@pytest.mark.parametrize("command", ["generate", "train", "eval", "predict"])
def test_fuzz_flags(inputs, capsys, command):
    (inputs / "tiny.json").write_text(json.dumps(TINY))
    rng, values = random.Random(f"{SEED}-{command}"), flag_values(inputs)
    found = []
    for _ in range(FLAG_CASES):
        argv = draw_argv(command, values, rng)
        breach = contract_breach(argv, capsys)
        if breach:
            found.append(f"{argv}: {breach}")
    assert not found, "\n".join(found[:10])
