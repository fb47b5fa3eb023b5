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
