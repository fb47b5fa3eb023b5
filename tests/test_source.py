"""Rules the package source keeps."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so a check in the package must raise
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/: {', '.join(found)}"


def _json_reads(tree):
    """Line numbers of the calls json.load(...) and json.loads(...) under tree."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"}


def test_json_is_read_only_in_data_read_json():
    # read_json turns every refusal of json into one DataError; a second
    # reader would need its own exception chain
    found, reader = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = _json_reads(tree)
        if path.name == "data.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "read_json":
                    reader = _json_reads(node)
            calls -= reader
        found += [f"{path.relative_to(SRC)}:{lineno}" for lineno in sorted(calls)]
        found += [f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "json"]
    assert reader, "data.read_json calls no json reader"
    assert not found, f"json read outside data.read_json: {', '.join(found)}"


# numpy.random names that build a seeded Generator; every other name of the
# module draws from, seeds or reads numpy's global random state
SEEDED = {"default_rng", "SeedSequence"}


def _global_random_uses(tree):
    """Line numbers under tree of np.random.<name> / numpy.random.<name>
    and of imports from numpy.random, for a name outside SEEDED, and of
    `from numpy import random`."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr not in SEEDED
                and isinstance(node.value, ast.Attribute) and node.value.attr == "random"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "numpy.random" and {a.name for a in node.names} - SEEDED
                or node.module == "numpy" and "random" in {a.name for a in node.names}):
            found.add(node.lineno)
    return found


def test_src_draws_only_from_seeded_generators():
    # byte-identical seeded runs rest on every draw coming from a Generator
    # built from the run's seed: no np.random.seed, no np.random.<draw>
    found = [f"{path.relative_to(SRC)}:{lineno}" for path in sorted(SRC.rglob("*.py"))
             for lineno in sorted(_global_random_uses(ast.parse(path.read_text("utf-8"))))]
    assert not found, f"numpy's global random state used in src/: {', '.join(found)}"


def test_the_random_rule_sees_global_draws_and_seeds():
    tree = ast.parse("import numpy as np\n"
                     "rng = np.random.default_rng(np.random.SeedSequence(1))\n"
                     "np.random.seed(0)\n"
                     "x = np.random.normal(size=3)\n"
                     "from numpy.random import rand\n"
                     "from numpy import random\n")
    assert _global_random_uses(tree) == {3, 4, 5, 6}


# The array ops take and return arrays; `autograd.lift` alone makes a graph
# node of one, so none of them names the Tensor machinery
ARRAY_OPS = {"ssm.py": ("rms_norm", "selective_scan", "mamba_block"),
             "autograd.py": ("causal_conv1d",),
             "hybrid.py": ("multi_head_attention", "attention_block")}
GRAPH_NAMES = {"Tensor", "lift", "as_tensor", "any_tensor"}


def _graph_names(tree, name):
    """Line numbers in the top-level function `name` of tree of a name or
    attribute in GRAPH_NAMES; None if tree has no such function."""
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == name:
            return {node.lineno for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and node.id in GRAPH_NAMES
                    or isinstance(node, ast.Attribute) and node.attr in GRAPH_NAMES}
    return None


def test_array_ops_name_no_tensor_machinery():
    found = []
    for module, names in ARRAY_OPS.items():
        tree = ast.parse((SRC / "mamba_hawkes" / module).read_text("utf-8"))
        for name in names:
            lines = _graph_names(tree, name)
            assert lines is not None, f"no function {name} in {module}"
            found += [f"{module}:{lineno} ({name})" for lineno in sorted(lines)]
    assert not found, f"array ops naming Tensor, lift, as_tensor or any_tensor: {', '.join(found)}"


def test_the_array_op_rule_sees_tensor_machinery():
    tree = ast.parse("def op(x, pullback=False):\n"
                     "    if ag.any_tensor(x):\n"
                     "        return ag.lift(op, (x,))\n"
                     "    t = Tensor(x)\n"
                     "    y = as_tensor(x)\n"
                     "    return x, None\n"
                     "def lift(x):\n"
                     "    return x\n")
    assert _graph_names(tree, "op") == {2, 3, 4, 5}
    assert _graph_names(tree, "lift") == set() and _graph_names(tree, "other") is None
