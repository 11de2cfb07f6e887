"""Seeded job generator for the benchmark workloads.

A workload is an endless, deterministic stream of CLI jobs drawn from the
workload seed.  Each job is a `qbundle` subcommand plus a config dictionary;
the program only ever sees the config JSON that the runner writes from it.
The same seed always yields the same jobs, and job ``i`` of a stream does not
depend on how many jobs are drawn after it.

Jobs are grouped into batches of ``WORKLOADS[name].batch`` jobs; one batch is
the unit a user submits and the unit ``wall_s`` times.  Today a
batch takes 25-35 s on a 2-core box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: the README's energy observable (eps = 0.8, direction (0.2, -0.3, 0.93))
README_ENERGY = {"epsilon": 0.8, "direction": [0.2, -0.3, 0.93]}

#: two-chart meridian from pi/6 to 5 pi/6: it leaves the plus chart
#: (theta < 2 pi/3) and the minus chart (theta > pi/3), so it needs a switch
MERIDIAN_FROM = math.pi / 6
MERIDIAN_TO = 5 * math.pi / 6

#: great circles tilted less than pi/6 stay inside the plus chart; steeper
#: ones need two chart switches, which the CLI rejects with exit code 2
INCLINATION_RANGE = (0.40, 0.45)

#: initial-state component swept by the sweep jobs, and how many values
SWEEP_PARAM = "initial_state.1.1"
SWEEP_VALUES = 2

#: planted connection defect of the negative-control check jobs
DEFECT = {"omega_anti_hermitian": 0.05}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``qbundle <command> <config> [extra args]``."""

    kind: str  # "run", "sweep", "check" or "defect-check"
    command: str
    config: dict
    extra_args: tuple = ()
    expected_exit: int = 0
    sweep_values: tuple = ()


@dataclass(frozen=True)
class Workload:
    batch: int
    kinds: tuple = ("run",)


WORKLOADS = {
    # The README job.  Exercises generator assembly (connection.contracted ->
    # twolevel.a_zero_closed / omega_lower), the per-sample metric
    # diagnostics in dynamics.evolve and the trajectory CSV writer, and
    # bypasses the Sylvester / Hermitian-generator path.  Every job has its
    # own phi0 and initial state, so no two jobs share a system and caching
    # across jobs cannot help.
    "meridian-eta": Workload(10),
    # The same job stream in the Hermitian picture.  Nearly half of each job
    # is dynamics.hermitian_representation (eigh and solve_sylvester per
    # stage) and it runs no per-sample diagnostics, so a closed-form
    # Hermitian generator moves this workload a lot and meridian-eta little,
    # and a cheaper diagnostics loop does the reverse.
    "meridian-hermitian": Workload(7),
    # A traffic mix on shared systems.  The only workload with adaptive step
    # control, the single-chart branch, the great-circle set-up grid, the
    # pointwise invariant battery and the negative control; and the only one
    # where many runs share one system (each sweep value rebuilds and
    # re-evolves it), so batching over initial states or caching builds shows
    # a gain here and nowhere else.  Checks are eight of the ten jobs, so the
    # median job falls in the middle of the check jobs; one check in eight
    # carries the planted defect.
    "sweep-check": Workload(10, ("check", "sweep", "check", "check", "defect-check",
                                 "check", "check", "sweep", "check", "check")),
}


def _state(rng: np.random.Generator) -> list:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    return [[float(c.real), float(c.imag)] for c in v]


def _meridian(rng: np.random.Generator) -> dict:
    return {
        "model": "s2-two-level",
        "curve": {"kind": "meridian", "phi0": float(rng.uniform(0.0, 2 * math.pi)),
                  "theta_from": MERIDIAN_FROM, "theta_to": MERIDIAN_TO},
        "energy": dict(README_ENERGY),
        "stepper": {"method": "rk4-fixed", "dt": 1e-3},
        "initial_state": _state(rng),
        "seed": int(rng.integers(0, 2**31)),
    }


def _run_job(rng, representation: str) -> Job:
    cfg = _meridian(rng)
    cfg["outputs"] = ["trajectory-csv", "summary"]
    if representation != "eta":
        cfg["representation"] = representation
    return Job("run", "run", cfg)


def _check_job(rng, defect: bool) -> Job:
    cfg = _meridian(rng)
    if defect:
        cfg["defect"] = dict(DEFECT)
        return Job("defect-check", "check", cfg, expected_exit=1)
    return Job("check", "check", cfg)


def _sweep_job(rng) -> Job:
    cfg = {
        "model": "s2-two-level",
        "curve": {"kind": "great-circle",
                  "inclination": float(rng.uniform(*INCLINATION_RANGE)),
                  "offset": float(rng.uniform(0.0, 2 * math.pi))},
        "energy": dict(README_ENERGY),
        "stepper": {"method": "rk4-adaptive", "dt": 1e-3, "target_local_error": 1e-12},
        "initial_state": _state(rng),
        "outputs": ["summary"],
        "seed": int(rng.integers(0, 2**31)),
    }
    values = tuple(float(v) for v in rng.uniform(-0.6, 0.6, SWEEP_VALUES))
    # one argument with "=", because a leading minus would read as an option
    extra = ("--param", SWEEP_PARAM, "--values=" + ",".join(repr(v) for v in values))
    return Job("sweep", "sweep", cfg, extra, sweep_values=values)


def job(workload: str, seed: int, index: int) -> Job:
    """Job ``index`` of the stream of ``workload`` for ``seed``."""
    # meridian-eta and meridian-hermitian draw from the same stream
    stream = 0 if workload.startswith("meridian") else 1
    rng = np.random.default_rng([seed, stream, index])
    if workload == "meridian-eta":
        return _run_job(rng, "eta")
    if workload == "meridian-hermitian":
        return _run_job(rng, "hermitian")
    kinds = WORKLOADS[workload].kinds
    kind = kinds[index % len(kinds)]
    if kind == "sweep":
        return _sweep_job(rng)
    return _check_job(rng, defect=(kind == "defect-check"))


def jobs(workload: str, seed: int, count: int) -> list[Job]:
    return [job(workload, seed, i) for i in range(count)]
