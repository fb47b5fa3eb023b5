"""The README's code runs as written, and its tables match the code."""

import dataclasses
import pathlib
import re

from mamba_hawkes.hybrid import MhpEConfig
from mamba_hawkes.model import MhpConfig
from mamba_hawkes.training import TrainConfig

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs():
    code = re.search(r"```python\n(.*?)```", section("Library use"), flags=re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})


def test_configuration_table_names_every_settable_field():
    rows = [ln.split("|")[2] for ln in section("Configuration").splitlines()
            if ln.startswith("| ") and not ln.startswith("| group")]
    named = [name for row in rows for name in re.findall(r"`([^`]*)`", row)]
    settable = [f.name for f in dataclasses.fields(TrainConfig) if f.init]
    assert sorted(named) == sorted(settable)


def test_configuration_section_states_every_range_rule():
    # each `in lo..hi` rule of the config classes, as "`field` in lo..hi"
    text = " ".join(section("Configuration").split())
    for cfg in (MhpConfig(), MhpEConfig(), TrainConfig()):
        for name, _, rule in cfg.rules():
            if re.fullmatch(r"in \d+\.\.\d+", rule):
                assert f"`{name}` {rule}" in text, (type(cfg).__name__, name, rule)
