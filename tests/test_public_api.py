"""Every public definition has a user.

A public top-level function or class of ``src/qbundle/*.py`` earns its place
when something reads it outside its own definition: the program (``src/``),
a demo (``demos/``), the benchmark (``perfbench/`` and its ``TRACED`` table)
or an acceptance criterion (``tests/test_acceptance.py``).  Otherwise
:data:`ALLOWED` gives the reason it stays public without one.  The package
re-exports nothing, so each name has one import path: its module.
"""

import ast
from pathlib import Path

from test_benchmark_hooks import traced_entries

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qbundle"

#: public definitions with no reader above, each with the reason it stays
ALLOWED = {
    "gauge_transform_connection": "the only code for A~ = g^-1 A g - i g^-1 dg",
    "hermitian_representation_via_physical": "the paper's second form of h, via H_ph",
    "rho_dot_matrix": ("the closed rhodot as a matrix; the run path reads its code "
                       "(_ChartFrame.rho_dot) only inside ClosedForms' H, so the tests "
                       "check that factor through this wrapper"),
    "sigma_tilde": ("the paper's closed sigma~_j = G^dag sigma_j G as a matrix; the run "
                    "path reads its code (_ChartFrame.sigma) only inside the minus "
                    "chart's h, so the tests check that factor through this wrapper"),
    "split_pseudo": ("the only code for the general split m = m_ph + m_aph "
                     "(hermitian_representation_via_physical takes H_ph as H - H_A0)"),
    "tilde_eta": ("eta~ = g^dag eta g at a point; cli.run_checks codes it inline on its "
                  "shared evaluations"),
    "transform_observable": ("o~ = G^dag o G with its unitarity check; "
                             "check_section_compatibility and cli.run_checks code it "
                             "inline on a shared G"),
}


def definitions() -> dict[str, Path]:
    """Each public top-level function and class, with its module's path."""
    return {node.name: path for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def read_names(node) -> set[str]:
    """Names read, attributes taken and names imported under ``node``; a def
    or class statement binds its name without reading it."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def read() -> set[str]:
    """Names read in a reader file, outside the top-level definition that
    binds the name in its own module."""
    defined = definitions()
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    names = {part for _, path, _ in traced_entries() for part in path.split(".")}
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            names |= read_names(stmt) - ({own} if defined.get(own) == path else set())
    return names


def test_every_public_definition_is_read_or_allowlisted():
    defined, used = definitions(), read()
    assert sorted(n for n in defined if n not in used and n not in ALLOWED) == []
    assert sorted(n for n in ALLOWED if n in used or n not in defined) == [], "stale ALLOWED entries"


def test_the_package_re_exports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
