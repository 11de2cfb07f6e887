"""One fresh interpreter of the benchmark: set-up probe or job runner.

    python3 worker.py setup <plan.json> <result.json>
    python3 worker.py jobs  <plan.json> <result.json>

``setup`` times ``import qbundle.cli`` and then ``build_from_config`` on each
config of the plan.  ``jobs`` runs the plan's CLI jobs back to back through
``qbundle.cli.main``, one at a time, in batches, until the plan's time budget
is spent (always at least one batch), then re-runs job 0 into a separate
directory for the byte-determinism check.  With ``"trace": true`` it runs one
batch under the tracer instead.

Only ``sys`` and ``time`` are imported before the import of ``qbundle.cli``
is timed, so that import pays for everything it pulls in.
"""

import sys
import time


def main(mode: str, plan_path: str, result_path: str) -> int:
    t0 = time.perf_counter()
    import qbundle.cli as cli
    import_s = time.perf_counter() - t0

    import contextlib
    import json
    import os
    import resource

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"qbundle was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"import_s": import_s}

    if mode == "setup":
        configs = []
        for path in plan["configs"]:
            with open(path, encoding="utf-8") as fh:
                configs.append(json.load(fh))
        t1 = time.perf_counter()
        for cfg in configs:
            cli.build_from_config(cfg)
        result["setup_s"] = import_s + time.perf_counter() - t1
    else:
        tracer = None
        if plan["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        jobs = plan["jobs"]
        batch = plan["batch"]
        exits, seconds, batch_walls = [], [], []
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            start = time.perf_counter()
            while len(exits) + batch <= len(jobs):
                b0 = time.perf_counter()
                for argv in jobs[len(exits):len(exits) + batch]:
                    if tracer is not None:
                        tracer.job_id = len(exits)
                    j0 = time.perf_counter()
                    exits.append(_run(cli.main, argv))
                    seconds.append(time.perf_counter() - j0)
                now = time.perf_counter()
                batch_walls.append(now - b0)
                if tracer is not None or now - start + batch_walls[-1] > plan["seconds"]:
                    break
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if plan.get("repeat"):
                result["repeat_exit"] = _run(cli.main, plan["repeat"])
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            tracer.save(plan["trace_file"])
        result.update(exits=exits, job_s=seconds, batch_s=batch_walls)

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run(cli_main, argv):
    """Exit code of one CLI job; an escaped exception counts as code -1."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        import traceback

        traceback.print_exc()
        return -1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
