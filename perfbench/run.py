"""qbundle benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload meridian-eta --seed 1 --seconds 25 --trace 0

Load model: closed loop, one client.  Jobs run back to back in one fresh
worker process, one at a time; BLAS threads are capped at the number of
usable cores.  Each job gets its own generated config JSON and output
directory under ``.perfbench_work/`` in the checkout, removed at the end.

``--trace 0`` prints the end-to-end metrics, measured untraced:

    setup_s      median over 3 fresh interpreters of: import qbundle.cli, then
                 build_from_config on every config of the first batch
    job_p50_s    median wall time of one job, warm and in-process
    wall_s       median wall time of a whole batch of jobs
    peak_rss_mb  peak RSS of the worker that ran the jobs

``--trace 1`` runs the first TRACE_JOBS jobs untraced and then traced, each
pass in its own worker, and prints the per-layer metrics (means per job) plus
``trace.overhead_s``.  Every job's outputs are checked against an independent
closed-form reference (see reference.py); the last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh interpreters timed for setup_s
SETUP_REPEATS = 3
#: a run stops after this many batches even when time is left, which bounds
#: the reference checks and the disk the outputs take
MAX_BATCHES = 8
#: jobs of the traced run: the first four cover every job kind of each workload
TRACE_JOBS = 4
#: a worker that takes longer than this is stuck
WORKER_TIMEOUT_S = 150


def _worker(mode: str, plan: dict, work: Path, tag: str) -> dict:
    plan_path, result_path = work / f"{tag}_plan.json", work / f"{tag}_result.json"
    plan_path.write_text(json.dumps(dict(plan, src=str(SRC))))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(plan_path), str(result_path)],
        cwd=str(work), stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def _argv(job, cfg_path: Path, out_dir: Path) -> list[str]:
    return [job.command, str(cfg_path), "--output-dir", str(out_dir), *job.extra_args]


def _same_bytes(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def run(workload: str, seed: int, seconds: float, trace: bool, max_jobs: int | None) -> dict:
    from workloads import WORKLOADS, jobs as make_jobs
    import reference

    wl = WORKLOADS[workload]
    batch = min(wl.batch, TRACE_JOBS) if trace else wl.batch
    if max_jobs:
        batch = min(batch, max_jobs)
    jobs = make_jobs(workload, seed, batch if trace else batch * MAX_BATCHES)

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_work"))
    try:
        cfg_paths, argvs = [], []
        for i, job in enumerate(jobs):
            cfg_path = work / "configs" / f"job{i:03d}.json"
            cfg_path.parent.mkdir(parents=True, exist_ok=True)
            cfg_path.write_text(json.dumps(job.config, indent=2))
            cfg_paths.append(cfg_path)
            argvs.append(_argv(job, cfg_path, work / "out" / f"job{i:03d}"))
        plan = {"jobs": argvs, "batch": batch, "seconds": seconds, "trace": False}

        acc = reference.Accuracy()
        failures = []

        def check(result, repeat_ok=True):
            for i, code in enumerate(result["exits"]):
                reason = reference.check_job(jobs[i], code, work / "out" / f"job{i:03d}",
                                             cfg_paths[i].stem, acc)
                if i == 0 and not repeat_ok:
                    reason = reason or "repeated run did not reproduce the output bytes"
                if reason:
                    failures.append(f"job {i} ({jobs[i].kind}): {reason}")
            shutil.rmtree(work / "out", ignore_errors=True)
            return len(result["exits"])

        if trace:
            plain = _worker("jobs", plan, work, "plain")
            attempted = check(plain)
            out_trace = ROOT / ".perfbench_out"
            out_trace.mkdir(exist_ok=True)
            traced = _worker("jobs", dict(plan, trace=True,
                                          trace_file=str(out_trace / f"trace-{workload}.npz")),
                             work, "traced")
            attempted += check(traced)
        else:
            setup = statistics.median(
                _worker("setup", {"configs": [str(p) for p in cfg_paths[:batch]]},
                        work, f"setup{k}")["setup_s"]
                for k in range(SETUP_REPEATS))
            repeat_dir = work / "repeat"
            plain = _worker("jobs", dict(plan, repeat=_argv(jobs[0], cfg_paths[0], repeat_dir)),
                            work, "plain")
            repeat_ok = (plain["repeat_exit"] == plain["exits"][0]
                         and _same_bytes(work / "out" / "job000", repeat_dir))
            attempted = check(plain, repeat_ok)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if trace:
        layers = traced["layers"]
        layers["cli.import_s"] = traced["import_s"]
        layers["trace.overhead_s"] = (sum(traced["job_s"]) - sum(plain["job_s"])) / len(traced["job_s"])
        layers["accuracy.endpoint_err_max"] = acc.endpoint_err
        layers["accuracy.norm_drift_max"] = acc.norm_drift
        values = layers
        info = f"{len(traced['job_s'])} jobs run untraced and again traced"
    else:
        values = {
            "setup_s": setup,
            "job_p50_s": statistics.median(plain["job_s"]),
            "wall_s": statistics.median(plain["batch_s"]),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        info = f"{attempted} jobs in {len(plain['batch_s'])} batch(es) of {batch}"
    return {"values": values, "attempted": attempted, "failed": len(failures), "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="cap on the jobs of the run (for the self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "qbundle" / "cli.py").is_file():
        print(f"no qbundle sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # set before numpy is imported; the workers inherit the environment
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                      MKL_NUM_THREADS=threads, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.max_jobs)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {s["name"]: {"value": res["values"][s["name"]], "unit": s["unit"]} for s in specs}

    print(f"{args.workload} seed {args.seed}: {res['info']}, "
          f"failed/attempted {res['failed']}/{res['attempted']}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
