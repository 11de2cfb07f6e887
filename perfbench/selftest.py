"""Self-test of the benchmark at minimal size.

    python3 perfbench/selftest.py

For each workload it runs one job untraced and one job traced (sweep-check
runs four untraced, to include a sweep and a defect check), and asserts that
every metric named in BENCHMARK.json is printed with its unit, that no job
fails, and that the traced module self times add up to the traced job wall
time.  It also checks that the benchmark refuses to run, with a non-zero
exit code and no result line, in a directory that holds only BENCHMARK.json
and the benchmark's own files.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNTRACED_JOBS = {"sweep-check": 4}


def _bench(cwd: Path, workload: str, trace: int, jobs: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--max-jobs", str(jobs)],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)


def _check_output(proc, specs: list[dict], what: str) -> dict:
    assert proc.returncode == 0, f"{what}: exit code {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{what}: {result['failed']}/{result['attempted']} jobs failed\n{proc.stderr}"
    assert set(result["metrics"]) == {s["name"] for s in specs}, what
    for s in specs:
        m = result["metrics"][s["name"]]
        assert m["unit"] == s["unit"] and isinstance(m["value"], (int, float)), (what, s)
        assert any(line.split()[:1] == [s["name"]] and line.split()[-1] == s["unit"]
                   for line in lines[:-1]), f"{what}: {s['name']} not printed with its unit"
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in bench["workloads"]):
        _check_output(_bench(ROOT, w, 0, UNTRACED_JOBS.get(w, 1)), bench["end_to_end"],
                      f"{w} untraced")
        layers = _check_output(_bench(ROOT, w, 1, 1), bench["per_layer"], f"{w} traced")
        self_sum = sum(v for k, v in layers.items() if k.startswith("self."))
        assert abs(self_sum - layers["trace.job_wall_s"]) <= 1e-9 * layers["trace.job_wall_s"], \
            f"{w}: module self times sum to {self_sum}, job wall is {layers['trace.job_wall_s']}"
        print(f"{w}: ok")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, bench["workloads"][0]["name"], 0, 1)
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the program"
    finally:
        shutil.rmtree(bare)
    print("without the program: refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
