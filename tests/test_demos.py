"""Smoke test: every script in demos/ and README's library quick start runs
to the end and prints its output."""

import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert "np.float64" not in out  # numbers print as plain floats, not numpy reprs


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    code = section[section.index("```python\n") + len("```python\n"):section.index("\n```\n")]
    exec(compile(code, "README.md quick start", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("theta0", [0.2, 0.8, 1.8])
def test_loop_holonomy_is_the_spin_half_berry_phase(theta0):
    """The latitude-loop holonomy's eigenphases are +-pi (1 - cos theta0) mod
    2 pi (Berry, Proc. R. Soc. A 392 (1984) 45), within 1e-9."""
    demo = runpy.run_path(str(ROOT / "demos" / "loop_holonomy.py"))
    phases, _ = demo["holonomy_eigenphases"](theta0)
    a = np.pi * (1.0 - np.cos(theta0))
    for closed in (-a, a):
        assert np.min(np.abs(np.angle(np.exp(1j * (phases - closed))))) <= 1e-9
