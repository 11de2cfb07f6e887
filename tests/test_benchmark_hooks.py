"""The benchmark's hooks into qbundle.

Its traced run patches qbundle names listed in ``perfbench/tracing.py``; a
rename there would silently drop a layer.  Its correctness gate checks every
job's outputs with ``perfbench/reference.py``; a job the gate refuses fails
the whole benchmark run.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qbundle.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("index", [1, 7])
def test_sweep_check_sweep_jobs_pass_the_reference_gate(tmp_path, capsys, index):
    """The adaptive great-circle sweeps of the sweep-check workload agree
    with the benchmark's independent reference."""
    workloads, reference = perfbench_module("workloads"), perfbench_module("reference")
    job = workloads.job("sweep-check", 1107, index)
    assert job.kind == "sweep"
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job.config))
    exit_code = main([job.command, str(cfg), "--output-dir", str(tmp_path), *job.extra_args])
    capsys.readouterr()
    assert reference.check_job(job, exit_code, tmp_path, "job", reference.Accuracy()) is None
