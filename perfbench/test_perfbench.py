"""Tests of the benchmark's own code. Run from the repository root:

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")         # 0 .. 10
    a = tracer.begin("child")             # 1 .. 3
    tracer.end(a)
    b = tracer.begin("child")             # 4 .. 6
    c = tracer.begin("grandchild")        # 4.5 .. 5
    tracer.end(c)
    tracer.end(b)
    tracer.end(outer)
    assert tracer.self_time(outer) == 10.0 - 2.0 - 2.0
    assert tracer.self_time(b) == 1.5
    assert tracer.self_time(c) == 0.5
    incl, own = tracer.totals("")
    assert incl == {"outer": 10.0, "child": 4.0, "grandchild": 0.5}
    assert own == {"outer": 6.0, "child": 3.5, "grandchild": 0.5}


def test_nested_same_name_spans_count_once_inclusive():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("data.generate")
    inner = tracer.begin("data.generate")
    tracer.end(inner)
    tracer.end(outer)
    incl, _ = tracer.totals("")
    assert incl["data.generate"] == 5.0


def test_union_length_merges_overlaps():
    assert spans.union_length([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0), (1.5, 2.5)]) == 4.0
    assert spans.union_length([]) == 0.0


def test_percentile_refuses_p90_without_ten_samples_beyond():
    with pytest.raises(ValueError, match="10 are needed"):
        run.percentile(list(range(99)), 90)
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0  # the median has no such floor


def test_lengths_follow_the_generator():
    from mamba_hawkes import data

    drawn = data.make_synthetic_benchmark(11, n_train=800, n_dev=0, n_test=0)["train"]
    lengths = np.array([len(s) for s in drawn])
    midpoints = np.quantile(lengths, [(2 * i + 1) / 16 for i in range(8)])
    assert np.all(np.abs(midpoints - workloads.LENGTHS) <= 4), midpoints
    assert abs(lengths.mean() - np.mean(workloads.LENGTHS)) < 2.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    digests = []
    for i, seed in enumerate((3, 3, 4)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        digests.append(workload.setup(seed, str(workdir))["digest"])
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _bindings():
    """Every module attribute and class attribute of the package."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("mamba_hawkes"):
            continue
        for attr, value in vars(module).items():
            out[(modname, attr)] = value
            if isinstance(value, type):
                for member, v in vars(value).items():
                    out[(modname, attr, member)] = v
    return out


def _changed(before, after):
    return sorted(str(k) for k in before.keys() | after.keys()
                  if before.get(k) is not after.get(k))


def test_traced_run_restores_every_wrapped_callable(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    workloads.install(tracer)
    try:
        assert "('mamba_hawkes.ssm', 'selective_scan')" in _changed(before, _bindings())
    finally:
        tracer.restore()
    assert _changed(before, _bindings()) == []

    tally = run.Tally()
    metrics, _, tracer = run.measure_traced(workloads.WORKLOADS["eval"], 5, 0.0,
                                            str(tmp_path), tally)
    assert _changed(before, _bindings()) == []
    assert tally.problems == [] and tally.failed == 0
    assert metrics["ssm.scan_steps"] > 0 and metrics["model.intensity_evals"] > 0


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_git_commit_reads_packed_refs(tmp_path, monkeypatch):
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\n"
                                     "0123abcd refs/heads/other\n"
                                     "4567cdef refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() == "4567cdef"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("89abef01\n")
    assert run.git_commit() == "89abef01"
