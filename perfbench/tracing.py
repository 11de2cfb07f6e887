"""Outside-in tracing of the qbundle layers, for the separate traced run.

``Tracer.install`` replaces public functions and methods of each qbundle
module with wrappers that record a span per call: name, start, end, parent
span and job id.  Module-level functions are replaced in every qbundle
module that holds a reference to them, so ``from .x import f`` call sites are
traced too.  Spans stay in memory (flat arrays, about 40 bytes each) until
``save`` writes them out at the end of the run.

A span's self time is its duration minus its child spans' durations, and
each span is charged to the module it wraps, so per job the module self
times add up to the job's wall time (the root span is ``cli.main``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute path, span name); the module is the layer charged
TRACED = [
    ("cli", "main", "cli.main"),
    ("cli", "build_from_config", "cli.build_from_config"),
    ("cli", "run_checks", "cli.run_checks"),
    ("bundle", "evolve_across_patches", "bundle.evolve_across_patches"),
    ("bundle", "transform_state", "bundle.transform_state"),
    ("bundle", "big_g", "bundle.big_g"),
    ("bundle", "SystemSpec.generator", "bundle.SystemSpec.generator"),
    ("bundle", "SystemSpec.hermitian_generator", "bundle.SystemSpec.hermitian_generator"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "hermitian_representation", "dynamics.hermitian_representation"),
    ("dynamics", "CurveMetric.rho_dot", "dynamics.CurveMetric.rho_dot"),
    ("stepping", "integrate", "stepping.integrate"),
    ("stepping", "rk4_step", "stepping.rk4_step"),
    ("connection", "ConnectionForm.contracted", "connection.ConnectionForm.contracted"),
    ("metric", "MetricField.operator", "metric.MetricField.operator"),
    ("metric", "MetricField.eta_dot", "metric.MetricField.eta_dot"),
    ("twolevel", "build_system", "twolevel.build_system"),
    ("twolevel", "a_zero_closed", "twolevel.a_zero_closed"),
    ("twolevel", "omega_lower", "twolevel.omega_lower"),
    ("twolevel", "energy_matrix", "twolevel.energy_matrix"),
    ("linalg", "as_square", "linalg.as_square"),
    ("linalg", "hermitian_sqrt", "linalg.hermitian_sqrt"),
]

MODULES = ("cli", "bundle", "dynamics", "stepping", "connection", "metric", "twolevel", "linalg")

#: the generator closures returned by these factories get spans of their own
_EVAL_SPANS = {
    "bundle.SystemSpec.generator": "bundle.generator_eval",
    "bundle.SystemSpec.hermitian_generator": "bundle.hermitian_generator_eval",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        #: span index of each stepping.integrate call -> (method, accepted steps)
        self.integrations: dict[int, tuple[str, int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        names, parents, jobs, starts, ends = self.name, self.parent, self.job, self.start, self.end
        stack = self.stack
        eval_name = _EVAL_SPANS.get(name)
        on_integrate = name == "stepping.integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if eval_name is not None:
                out = self.wrap(out, eval_name)
            elif on_integrate:
                config = args[4] if len(args) > 4 else kwargs.get("config")
                method = config.method if config is not None else "rk4-fixed"
                self.integrations[i] = (method, len(out[0]) - 1)
            return out

        return traced

    def install(self) -> None:
        """Patch every entry of TRACED; ``uninstall`` puts the originals back."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "qbundle" or n.startswith("qbundle."))]
        for mod_name, path, span in TRACED:
            owner = importlib.import_module(f"qbundle.{mod_name}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._patch(owner, attr, self.wrap(owner.__dict__[attr], span))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, span)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict:
        """Per-layer metrics, as means per traced job."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        ids = {n: i for i, n in enumerate(self.names)}
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def mask(span):
            return name == ids[span] if span in ids else np.zeros(name.shape, bool)

        def parent_is(m, span):
            out = np.zeros(name.shape, bool)
            out[has_parent] = mask(span)[parent[has_parent]]
            return m & out

        def total(span):
            return float(dur[mask(span)].sum())

        def calls(span):
            return int(mask(span).sum())

        roots = mask("cli.main")
        jobs = max(1, int(roots.sum()))
        module = np.array([n.split(".")[0] for n in self.names])[name] if len(name) else np.array([])

        checks = mask("cli.run_checks")
        build, evolve = mask("cli.build_from_config"), mask("bundle.evolve_across_patches")
        battery = total("cli.run_checks") - float(dur[parent_is(build | evolve, "cli.run_checks")].sum())
        accepted = sum(n for _, n in self.integrations.values())
        attempts = 0
        rk4 = mask("stepping.rk4_step")
        rk4_per_parent = np.bincount(parent[rk4], minlength=len(name)) if rk4.any() else None
        for i, (method, _) in self.integrations.items():
            steps = int(rk4_per_parent[i]) if rk4_per_parent is not None else 0
            attempts += steps // 3 if method == "rk4-adaptive" else steps
        evals = mask("bundle.hermitian_generator_eval")
        evals |= mask("bundle.generator_eval") & ~parent_is(
            np.ones(name.shape, bool), "bundle.hermitian_generator_eval")
        glue = parent_is(mask("bundle.transform_state") | mask("bundle.big_g"),
                         "bundle.evolve_across_patches")
        dyn = mask("dynamics.evolve")
        wall = float(dur[roots].sum())

        out = {
            "cli.build_s": total("cli.build_from_config"),
            "cli.output_s": wall - float(dur[build].sum()) - float(dur[evolve].sum()) - battery,
            "cli.check_battery_s": battery,
            "bundle.evolve_calls": calls("bundle.evolve_across_patches"),
            "bundle.evolve_s": total("bundle.evolve_across_patches"),
            "bundle.generator_evals": int(evals.sum()),
            "bundle.glue_calls": int(glue.sum()),
            "dynamics.evolve_s": float(dur[dyn].sum()),
            "dynamics.diagnostics_s": float(dur[dyn].sum())
            - float(dur[parent_is(mask("stepping.integrate"), "dynamics.evolve")].sum()),
            "dynamics.hermitian_generator_calls": calls("dynamics.hermitian_representation"),
            "dynamics.hermitian_generator_s": total("dynamics.hermitian_representation"),
            "dynamics.rho_dot_calls": calls("dynamics.CurveMetric.rho_dot"),
            "stepping.integrate_s": total("stepping.integrate"),
            "stepping.rk4_step_calls": calls("stepping.rk4_step"),
            "stepping.accepted_steps": accepted,
            "connection.contracted_calls": calls("connection.ConnectionForm.contracted"),
            "connection.contracted_s": total("connection.ConnectionForm.contracted"),
            "metric.factorisations": calls("metric.MetricField.operator"),
            "metric.factorisation_s": total("metric.MetricField.operator"),
            "metric.eta_dot_calls": calls("metric.MetricField.eta_dot"),
            "twolevel.build_system_s": total("twolevel.build_system"),
            "twolevel.a_zero_closed_s": total("twolevel.a_zero_closed"),
            "twolevel.omega_lower_s": total("twolevel.omega_lower"),
            "twolevel.energy_matrix_s": total("twolevel.energy_matrix"),
            "linalg.as_square_calls": calls("linalg.as_square"),
            "linalg.hermitian_sqrt_calls": calls("linalg.hermitian_sqrt"),
            "linalg.hermitian_sqrt_s": total("linalg.hermitian_sqrt"),
        }
        for mod in MODULES:
            out[f"self.{mod}_s"] = float(self_time[module == mod].sum()) if len(name) else 0.0
        out["trace.job_wall_s"] = wall
        out["trace.spans"] = len(name)
        out = {k: v / jobs for k, v in out.items()}
        out["stepping.acceptance_ratio"] = accepted / attempts if attempts else 1.0
        return out
