"""Every name the package exports has a user.

A name in ``qbundle/__init__.py`` earns its place when the program uses it
(``src/`` outside its own definition and ``__init__``), when a demo or the
benchmark uses it (``demos/``, ``perfbench/`` and its ``TRACED`` table), when
an acceptance criterion imports it, or when :data:`ALLOWED` gives the reason
it stays public without one.
"""

import ast
from pathlib import Path

from test_benchmark_hooks import traced_entries

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qbundle"

#: exports with no user above, each with the reason it stays
ALLOWED = {
    "gauge_transform_connection": "the only code for A~ = g^-1 A g - i g^-1 dg",
    "hermitian_representation_via_physical": "the paper's second form of h, via H_ph",
    "split_pseudo": "the only code for the split into pseudo-Hermitian and anti parts",
    "tilde_eta": "the only code for eta~ = g^dag eta g",
    "transform_observable": "the only code for o~ = G^-1 o G with its unitarity check",
}


def exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced(paths) -> set[str]:
    """Names read, attributes taken and names imported in ``paths``; a def or
    class statement binds its name without reading it."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_export_is_used_or_allowlisted():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    users = referenced(paths) | {part for _, path, _ in traced_entries()
                                 for part in path.split(".")}
    names = exports()
    assert [n for n in names if n not in users and n not in ALLOWED] == []
    assert [n for n in ALLOWED if n in users or n not in names] == [], "stale ALLOWED entries"
