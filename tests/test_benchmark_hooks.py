"""The benchmark's traced run patches qbundle names listed in
``perfbench/tracing.py``; a rename there would silently drop a layer."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_entries():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


@pytest.mark.parametrize("module, path, span", traced_entries())
def test_traced_name_resolves(module, path, span):
    owner = importlib.import_module(f"qbundle.{module}")
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        assert attr in vars(owner), f"{span}: {cls[0]} defines no {attr}"
    assert callable(getattr(owner, attr)), span
