"""Command-line front end.

Subcommands
-----------

run <config.json>
    Integrate the configured evolution and write the requested outputs
    (trajectory CSV and/or a summary JSON that records the resolved
    configuration, every default filled in).

check <config.json>
    Run the configured evolution, as ``run`` does, and the invariant
    battery (metric compatibility, chart-gluing consistency, intertwiner
    unitarity, section compatibility, generator Hermiticity, the
    pseudo-Hermiticity defect law, the agreement of the run's closed-form
    generator with the generic one, norm conservation of that run) and
    write/print a report.  Exit code 1 when any check fails.

compare <a.json> <b.json> [--tol X]
    Run two configurations and compare the final states entrywise.  Exit
    code 1 when they differ beyond the tolerance.

sweep <config.json> --param dotted.path --values v1,v2,...
    Re-run the configuration with a parameter swept over the given values
    and tabulate the endpoints.  A sweep over ``initial_state.*`` builds the
    system once and evolves every value as a column of one state; a ``run``
    is the same evolution with one column.

Every configuration, and every sweep variant, is read through one schema
table (resolve_config) that states each key's type and default.  All outputs
are deterministic: a given configuration (including its seed) produces
byte-identical files.  Output files go to --output-dir, else
$QBUNDLE_OUTPUT_DIR, else the current directory.  Exit codes: 0 success,
1 invariant/comparison failure, 2 configuration error (a wrong type, a
missing required key or an unknown key is named by its dotted path),
3 unexpected internal error (one line on stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, twolevel
from .bundle import (
    ObservableSection,
    PatchData,
    SystemSpec,
    evolve_across_patches,
    unitarity_defect,
)
from .connection import ConnectionForm, CurvePath, compatibility_residual
from .dynamics import EvolutionResult
from .errors import ConfigError, QBundleError
from .linalg import dagger, is_hermitian, is_positive_definite, max_abs, stacked
from .metric import constant_metric_field
from .stepping import StepperConfig

#: default tolerances of the ``check`` battery, the keys of "check_tolerances"
CHECK_TOLERANCES = {
    "metric-compatibility": 1e-8,
    "transition-consistency": 1e-8,
    "intertwiner-unitarity": 1e-8,
    "section-compatibility": 1e-8,
    "generator-hermiticity": 1e-8,
    "no-go-defect": 1e-8,
    "closed-form-agreement": 1e-8,
    "norm-conservation": 1e-6,
}


# ---------------------------------------------------------- configuration
#
# A config is read through one table of nodes, each mapping its keys to
# (type, default); the default ``...`` marks a required key.  A type is a
# function (value, dotted path) -> value that raises a ConfigError naming the
# path; defaults go through it too.  A key feeding a library parameter of the
# same name takes that parameter's default (_params); value ranges the
# library constructors enforce are left to them.


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def _expected(path: str, what: str, value) -> ConfigError:
    return ConfigError(f"{path or 'config'}: expected {what}, got {value!r}")


def _scalar(what: str, accepts, convert=None):
    """A JSON value that ``accepts``, never a boolean, passed through ``convert``."""
    def scalar(value, path: str):
        if isinstance(value, bool) or not accepts(value):
            raise _expected(path, what, value)
        return value if convert is None else convert(value)
    return scalar


def _count(least: int):
    """Integers from ``least`` on; integral floats count, as ``sweep`` writes 3.0."""
    return _scalar(f"an integer >= {least}", lambda v: (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()) and v >= least, int)


def _choice(*options: str):
    return _scalar("one of " + ", ".join(options), lambda v: isinstance(v, str) and v in options)


_number = _scalar("a finite number", lambda v: isinstance(v, (int, float))
                  and abs(v) <= sys.float_info.max, float)
_string = _scalar("a string", lambda v: isinstance(v, str))


def _optional(kind):
    return lambda value, path: None if value is None else kind(value, path)


def _list_of(item, length: int | None = None):
    """A list, read into a tuple."""
    def list_of(value, path: str) -> tuple:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            raise _expected(path, "a list" if length is None else f"a list of {length}", value)
        return tuple(item(v, f"{path}[{k}]") for k, v in enumerate(value))
    return list_of


def _complex(value, path: str) -> complex:
    """A number, an [re, im] pair, or a finite complex (an array's entry)."""
    if isinstance(value, list):
        return complex(*_list_of(_number, 2)(value, path))
    if isinstance(value, complex) and np.isfinite(value):
        return value
    return complex(_number(value, path))


def _or_array(read):
    """``read``, which also takes an array, as a resolved config holds it: the
    array passes the checks of its ``tolist()`` and is kept as a complex
    array, so a resolved config resolves to itself."""
    @functools.wraps(read)
    def reader(value, where: str) -> np.ndarray:
        if isinstance(value, np.ndarray):
            read(value.tolist(), where)
            return np.asarray(value, dtype=complex)
        return read(value, where)
    return reader


@_or_array
def matrix_from_json(rows, where: str) -> np.ndarray:
    if not (isinstance(rows, list) and rows):
        raise _expected(where, "the rows of a square matrix", rows)
    return np.array(_list_of(_list_of(_complex, len(rows)), len(rows))(rows, where), dtype=complex)


@_or_array
def vector_from_json(entries, where: str) -> np.ndarray:
    if not (isinstance(entries, list) and entries):
        raise _expected(where, "a list of vector entries", entries)
    return np.array(_list_of(_complex)(entries, where), dtype=complex)


def _state(value, path: str):
    return value if isinstance(value, str) and value == "random" else vector_from_json(value, path)


def _key(node: dict, schema: dict, key: str, path: str):
    kind, default = schema[key]
    where = f"{path}.{key}" if path else key
    if key not in node and default is ...:
        raise ConfigError(f"{where}: missing required key")
    return kind(node.get(key, default), where)


class _ReadOnly(dict):
    """An object of a resolved config; it cannot be changed in place, so a
    config resolve_config returned stays valid.  Edit a ``dict(...)`` copy."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a resolved config is read-only; edit a dict(...) copy")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # copies and pickles are read-only too
        return type(self), (dict(self),)


def _object(schema: dict, tag: str | None = None, default=...):
    """An object with the keys of ``schema``, read into a read-only dict.
    With a ``tag``, ``schema`` maps each value of the tag key (``default`` if
    absent) to the other keys."""
    head = {} if tag is None else {tag: (_choice(*schema), default)}

    def walk(node, path: str) -> dict:
        if not isinstance(node, dict):
            raise _expected(path, "an object", node)
        keys = {**head, **(schema if tag is None else schema[_key(node, head, tag, path)])}
        for key in node:
            if key not in keys:
                raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
        return _ReadOnly({key: _key(node, keys, key, path) for key in keys})
    return walk


def _params(fn, **types) -> dict:
    """Keys named after parameters of ``fn``, each given as a type, taking
    the parameter's default (required if it has none), or as a (type, default) pair."""
    params = inspect.signature(fn).parameters
    return {name: kind if isinstance(kind, tuple) else (
                kind, ... if params[name].default is params[name].empty else params[name].default)
            for name, kind in types.items()}


_VECTOR3 = (_list_of(_number, 3), [0.0, 0.0, 0.0])

#: the two-level model's curves by ``curve.kind``: the constructor and the
#: types of its parameters, which are the curve's keys
_S2_CURVES = {
    "circle": (twolevel.circle_curve, dict(
        theta0=_number, t_start=_number, t_end=_number, revolutions=_number, phi0=_number)),
    "meridian": (twolevel.meridian_curve, dict(
        phi0=(_number, 0.0), theta_from=_number, theta_to=_number, t_start=_number, t_end=_number)),
    "great-circle": (twolevel.great_circle_curve, dict(
        inclination=_number, t_start=_number, t_end=_number, revolutions=_number, offset=_number)),
    "piecewise-waypoints": (twolevel.waypoint_curve, dict(
        waypoints=_list_of(_list_of(_number, 3)))),
}

#: the energy keys epsilon and direction feed constant_energy's eps and y
_ENERGY = inspect.signature(twolevel.constant_energy).parameters

#: keys passed on to twolevel.build_system as they are
_S2_CHARTS = _params(twolevel.build_system, theta_plus=_number, theta_minus=_number,
                     pole_margin=_number, pole_phi=_optional(_number))

_COMMON = {
    "representation": (_choice("eta", "hermitian"), "eta"),
    "seed": (_count(0), 0),
    "initial_state": (_state, "random"),
    "tau": (_optional(_number), None),
    "stepper": (_object(_params(StepperConfig, method=_string, dt=_number,
                                target_local_error=_number)), {}),
    "defect": (_object({"omega_anti_hermitian": (_number, 0.0)}), {}),
    "outputs": (_list_of(_choice("trajectory-csv", "summary", "invariant-report")),
                ["trajectory-csv", "summary"]),
    "check_tolerances": (_object({name: (_number, tol)
                                  for name, tol in CHECK_TOLERANCES.items()}), {}),
    "check_samples": (_count(1), 25),
}

_CONFIG = _object({
    "s2-two-level": {
        "curve": (_object({kind: _params(fn, **types) for kind, (fn, types) in _S2_CURVES.items()},
                          tag="kind"), ...),
        "scales": (_object({
            "default": {},
            "constant": _params(twolevel.constant_scales, xi=_number, zeta=_number,
                                xi_tilde=_number, zeta_tilde=_number),
        }, tag="kind", default="default"), {}),
        "alpha": (_object({"theta": _VECTOR3, "phi": _VECTOR3}), {}),
        "energy": (_optional(_object({
            "epsilon": (_number, _ENERGY["eps"].default),
            "direction": (_list_of(_number, 3), _ENERGY["y"].default),
        })), None),
        **_S2_CHARTS,
        **_COMMON,
    },
    "custom-matrix-fields": {
        "patch": (_string, "main"),
        "eta": (matrix_from_json, ...),
        "curve": (_object({"line": {
            "from": (_list_of(_number), ...),
            "to": (_list_of(_number), ...),
            "t_start": (_number, 0.0),
            "t_end": (_number, 1.0),
        }}, tag="kind"), ...),
        "connection": (_optional(_list_of(matrix_from_json)), None),
        "energy_hermitian": (_optional(matrix_from_json), None),
        **_COMMON,
    },
}, tag="model", default="s2-two-level")


class _Resolved(_ReadOnly):
    """A config as resolve_config returned it."""


def resolve_config(cfg) -> dict:
    """``cfg`` type-checked, with every default filled in, matrices and
    states read into complex arrays, lists into tuples and objects into
    read-only dicts; resolving it again changes nothing.  A wrong type, a
    missing required key or an unknown key is a ConfigError."""
    return _Resolved(_CONFIG(cfg, ""))


def _resolved(cfg) -> dict:
    """``cfg`` resolved; a config resolve_config returned is taken as it is,
    so each job resolves its config once.  It is read-only at every level,
    so it cannot have changed since; an edited ``dict(...)`` copy of it is
    resolved again."""
    return cfg if isinstance(cfg, _Resolved) else resolve_config(cfg)


# ---------------------------------------------------------- config -> model


def _args(node: dict) -> dict:
    return {key: value for key, value in node.items() if key != "kind"}


def _curve_from_config(node: dict) -> CurvePath:
    args = _args(node)
    if "t_start" in args and not args["t_end"] > args["t_start"]:
        raise ConfigError(f"curve needs t_end > t_start, got [{args['t_start']}, {args['t_end']}]")
    if node["kind"] != "line":
        return _S2_CURVES[node["kind"]][0](**args)
    r0, r1 = np.asarray(args["from"]), np.asarray(args["to"])
    if r0.shape != r1.shape or not r0.size:
        raise ConfigError("curve.from and curve.to must be coordinate vectors of equal length")
    t0, t1 = args["t_start"], args["t_end"]
    rate = (r1 - r0) / (t1 - t0)
    return CurvePath(t0, t1,
                     stacked(lambda t: r0 + rate * (np.asarray(t, dtype=float)[..., None] - t0)),
                     stacked(lambda t: np.tile(rate, np.shape(t) + (1,))))


def _custom_system(cfg: dict) -> SystemSpec:
    patch, eta, e_mat = cfg["patch"], cfg["eta"], cfg["energy_hermitian"]
    if not is_positive_definite(eta):
        raise ConfigError("'eta' must be a positive-definite Hermitian matrix")
    if e_mat is not None and not is_hermitian(e_mat):
        raise ConfigError("'energy_hermitian' must be a Hermitian matrix")
    curve = _curve_from_config(cfg["curve"])
    dim = curve.points(curve.t_start).shape[0]
    comps = cfg["connection"]
    if comps is not None and len(comps) != dim:
        raise ConfigError(f"'connection' must list one matrix per coordinate ({dim})")
    if any(m.shape != eta.shape for m in [*(comps or []), *([] if e_mat is None else [e_mat])]):
        raise ConfigError("'connection' and 'energy_hermitian' matrices must have the size of 'eta'")
    comps = np.array([np.zeros_like(eta)] * dim if comps is None else comps)
    form = ConnectionForm(
        patch, stacked(lambda r: np.broadcast_to(comps, (len(r),) + comps.shape)), dim=dim)
    return SystemSpec(
        patches={patch: PatchData(constant_metric_field(patch, eta, dim=dim), form)},
        curve=curve,
        charts=(patch,),
        energy=None if e_mat is None else ObservableSection(
            {patch: stacked(lambda r: np.broadcast_to(e_mat, (len(r),) + e_mat.shape))}),
    )


def _apply_connection_defect(system: SystemSpec, magnitude: float) -> SystemSpec:
    """Negative control: add  i * magnitude * identity  to every connection
    component, which breaks metric compatibility by exactly 2 * magnitude."""

    def defected(form: ConnectionForm) -> ConnectionForm:
        @stacked
        def components(r):
            c = form.components(r)
            return c + 1j * magnitude * np.eye(c.shape[-1], dtype=complex)

        return ConnectionForm(form.patch_id, components, dim=form.dim, domain=form.contains)

    patches = {
        pid: PatchData(pd.metric, defected(pd.connection))
        for pid, pd in system.patches.items()
    }
    return dataclasses.replace(system, patches=patches, closed=None)  # run the defect


def build_from_config(cfg: dict) -> SystemSpec:
    """Resolve a configuration dictionary into a ready SystemSpec."""
    cfg = _resolved(cfg)
    if cfg["model"] == "custom-matrix-fields":
        system = _custom_system(cfg)
    else:
        scales, alpha, energy = cfg["scales"], cfg["alpha"], cfg["energy"]
        system = twolevel.build_system(
            _curve_from_config(cfg["curve"]),
            scales=(None if scales["kind"] == "default"
                    else twolevel.constant_scales(**_args(scales))),
            alpha=twolevel.constant_alpha(alpha["theta"], alpha["phi"]),
            energy=(None if energy is None
                    else twolevel.constant_energy(energy["epsilon"], energy["direction"])),
            **{key: cfg[key] for key in _S2_CHARTS},
        )
    magnitude = cfg["defect"]["omega_anti_hermitian"]
    if magnitude != 0.0:
        system = _apply_connection_defect(system, magnitude)
    return system


def _initial_state(cfg: dict, system: SystemSpec, pid: str) -> np.ndarray:
    """The configured or seeded initial state on the first chart ``pid``.  Only
    a "random" state builds a generator, so a run with an explicit state never
    imports ``numpy.random`` (about 10 ms and 6 MB on first use)."""
    dim = system.patch(pid).metric.eta(system.curve.points(system.curve.t_start)).shape[0]
    psi = cfg["initial_state"]
    if isinstance(psi, str):  # "random"
        rng = np.random.default_rng(cfg["seed"])
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return psi / np.linalg.norm(psi)
    if psi.shape != (dim,):
        raise ConfigError(f"initial_state must have {dim} components, got {psi.shape[0]}")
    return psi


# ---------------------------------------------------------------- outputs


def _output_dir(args) -> Path:
    base = Path(args.output_dir or os.environ.get("QBUNDLE_OUTPUT_DIR") or Path.cwd())
    base.mkdir(parents=True, exist_ok=True)
    return base


def _write_trajectory_csv(path: Path, result) -> None:
    """One row per sample: t, patch, the state's real and imaginary parts,
    eta_norm and energy_expect; columns without data are left empty.  The
    rows are built column-wise by csv_rows, imported here so that jobs which
    write no trajectory never load it."""
    from .csvformat import csv_rows

    header = ["t", "patch"]
    for k in range(result.states.shape[1]):
        header += [f"re_psi_{k}", f"im_psi_{k}"]
    header += ["eta_norm", "energy_expect"]
    parts = np.ascontiguousarray(result.states, dtype=complex).view(np.float64).T  # re, im, ...
    rows = csv_rows([result.times, result.patch_trace, *parts,
                     result.eta_norm, result.energy_expect])
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        fh.write(rows)


def _write_json(path: Path, payload: dict) -> None:
    """``payload`` as JSON, with complex arrays as nested [re, im] pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=lambda a: np.stack([a.real, a.imag], axis=-1).tolist())
        fh.write("\n")


def _run_many(cfgs: list) -> tuple[SystemSpec, list]:
    """Build the system of ``cfgs[0]`` once and evolve the initial states of
    all the configs as the columns of one state, so they must differ in
    ``initial_state`` alone; a single run is a batch of one.  Returns the
    system and one (result, summary) per config."""
    cfgs = [_resolved(cfg) for cfg in cfgs]
    cfg = cfgs[0]
    system = build_from_config(cfg)
    try:
        stepper = StepperConfig(**cfg["stepper"])
    except ValueError as exc:
        raise ConfigError(f"bad stepper settings: {exc}") from exc
    segments = system.segments(cfg["tau"])
    psi0 = [_initial_state(c, system, segments[0][1]) for c in cfgs]
    batch = evolve_across_patches(system, np.stack(psi0, axis=1), tau=cfg["tau"],
                                  stepper=stepper, representation=cfg["representation"])
    results = [batch.column(j) for j in range(len(cfgs))]
    return system, [(result, _summary(c, stepper, segments, result, system))
                    for c, result in zip(cfgs, results)]


def _summary(cfg: dict, stepper: StepperConfig, segments, result, system: SystemSpec) -> dict:
    return {
        "config": {**cfg, "package_version": __version__},
        "final_time": float(result.times[-1]),
        "final_state": [[float(c.real), float(c.imag)] for c in result.final_state],
        "generator": "generic" if system.closed is None else "closed-form",
        "integrator": stepper.integrator,
        "norm_drift": (float(np.max(np.abs(result.eta_norm - result.eta_norm[0])))
                       if result.eta_norm is not None else None),
        "samples": int(len(result.times)),
        "schedule": [[list(map(float, iv)), pid] for iv, pid in segments],
        "tau": segments[1][0][0] if len(segments) > 1 else None,
    }


def _run_one(cfg: dict):
    """Build, evolve and summarize one configuration."""
    system, [(result, summary)] = _run_many([cfg])
    return system, result, summary


def _cmd_run(args) -> int:
    cfg = resolve_config(_load_config(args.config))
    system, result, summary = _run_one(cfg)
    stem, out_dir = Path(args.config).stem, _output_dir(args)
    written = []
    if "trajectory-csv" in cfg["outputs"]:
        written.append(out_dir / f"{stem}_trajectory.csv")
        _write_trajectory_csv(written[-1], result)
    if "summary" in cfg["outputs"]:
        written.append(out_dir / f"{stem}_summary.json")
        _write_json(written[-1], summary)
    if "invariant-report" in cfg["outputs"]:
        written.append(out_dir / f"{stem}_invariants.json")
        _write_json(written[-1], run_checks(cfg, system, result))
    drift = summary["norm_drift"]
    print(f"run: {len(result.times)} samples, final t = {summary['final_time']:g}, "
          f"norm drift = {drift:.3e}" if drift is not None else "run: done")
    for p in written:
        print(f"wrote {p}")
    return 0


# ----------------------------------------------------------------- checks


def _worst_entries(m: np.ndarray) -> np.ndarray:
    """Max-entry norm of each matrix of a stack."""
    return np.max(np.abs(m), axis=(-2, -1))


def run_checks(cfg: dict, system: SystemSpec | None = None,
               result: EvolutionResult | None = None) -> dict:
    """Run the invariant battery for a configuration; returns the report.
    ``system`` and ``result`` are the run it describes; without them the
    config is run first, exactly as ``run`` would run it.

    Each row reports the worst residual over its sample points.  Each chart's
    stack of ``check_samples`` curve samples is evaluated once
    (:meth:`SystemSpec.evaluate`), and every chart row and both generic
    generators read that evaluation; the three overlap rows share one g and
    one factorised metric per chart on ``check_samples`` overlap points.  The
    charts and their intervals are the run's segments for the config's ``tau``."""
    cfg = _resolved(cfg)
    if system is None or result is None:
        system, result, _ = _run_one(cfg)
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["check_samples"]
    segments = system.segments(cfg["tau"])
    evals = []  # each chart on n times drawn from its segment's interior, read by every chart row
    for (ta, tb), pid in segments:
        lo, hi = min(ta, tb), max(ta, tb)
        pad = 1e-9 * (hi - lo)
        evals.append(system.evaluate(pid, rng.uniform(lo + pad, hi - pad, n)))
    rows = []

    def add(name, values):  # one value per sample point
        values = np.ravel(values)
        worst, tol = float(np.max(values)), cfg["check_tolerances"][name]
        rows.append({"name": name, "samples": values.size,
                     "max_residual": worst, "tolerance": tol, "passed": bool(worst <= tol)})

    add("metric-compatibility", np.concatenate([
        compatibility_residual(ev.op.eta, ev.components, ev.partials) for ev in evals]))

    if len(segments) == 2 and system.overlap_window is not None:
        tr = system.transition  # the rows read g in its own orientation, whatever the run's
        pts = system.curve.points(rng.uniform(*system.overlap_window, n))
        g = tr.g(pts)
        op_a, op_b = (system.patch(p).metric.operator(pts) for p in (tr.from_patch, tr.to_patch))
        add("transition-consistency", _worst_entries(dagger(g) @ op_a.eta @ g - op_b.eta))
        # one G = rho g rho~^{-1} per overlap point serves both the unitarity and the section row
        gg = op_a.rho @ g @ op_b.rho_inv
        add("intertwiner-unitarity", unitarity_defect(gg))
        if system.energy is not None:
            o_a, o_b = (system.energy.matrix(pid, pts) for pid in (tr.from_patch, tr.to_patch))
            add("section-compatibility", _worst_entries(o_b - dagger(gg) @ o_a @ gg))

    # the generic generators: h must be Hermitian, and the pseudo-Hermiticity
    # defect of H equals i etadot eta^{-1}, compatibility along the velocity
    add("generator-hermiticity", [_worst_entries(ev.h - dagger(ev.h)) for ev in evals])
    add("no-go-defect", [compatibility_residual(ev.op.eta, ev.big_h[..., None, :, :],
                                                ev.eta_dot[..., None, :, :]) for ev in evals])

    if system.closed is not None:  # the run's closed-form generator against the generic one
        hermitian = cfg["representation"] == "hermitian"
        add("closed-form-agreement", [
            _worst_entries(system.run_generator(ev.patch_id, hermitian)(ev.t)
                           - (ev.h if hermitian else ev.big_h)) for ev in evals])

    # end-to-end norm conservation of the run
    add("norm-conservation",
        [float(np.max(np.abs(result.eta_norm - result.eta_norm[0])))])

    return {"checks": rows, "all_passed": all(r["passed"] for r in rows)}


def _print_report(report: dict) -> None:
    name_w = max(len(r["name"]) for r in report["checks"]) + 2
    print(f"{'check':<{name_w}}{'samples':>8}{'max residual':>15}{'tolerance':>12}  status")
    for r in report["checks"]:
        status = "pass" if r["passed"] else "FAIL"
        print(f"{r['name']:<{name_w}}{r['samples']:>8}"
              f"{r['max_residual']:>15.3e}{r['tolerance']:>12.1e}  {status}")
    print("all checks passed" if report["all_passed"] else "SOME CHECKS FAILED")


def _cmd_check(args) -> int:
    cfg = resolve_config(_load_config(args.config))
    system, result, _ = _run_one(cfg)
    report = run_checks(cfg, system, result)
    _print_report(report)
    path = _output_dir(args) / f"{Path(args.config).stem}_invariants.json"
    _write_json(path, report)
    print(f"wrote {path}")
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------- compare


def _cmd_compare(args) -> int:
    (_, res_a, sum_a), (_, res_b, sum_b) = (
        _run_one(_load_config(path)) for path in (args.config_a, args.config_b))
    if res_a.states.shape[1] != res_b.states.shape[1]:
        raise ConfigError("cannot compare runs with different state dimensions")
    # raw components are comparable only in one picture on one chart
    for what, a, b in (("representation", sum_a["config"]["representation"],
                        sum_b["config"]["representation"]),
                       ("final chart", sum_a["schedule"][-1][1], sum_b["schedule"][-1][1])):
        if a != b:
            raise ConfigError(f"cannot compare endpoints in different frames: {what} {a!r} vs {b!r}")
    delta = float(max_abs(res_a.final_state - res_b.final_state))
    print(f"final time:      {sum_a['final_time']:g} vs {sum_b['final_time']:g}")
    print(f"endpoint delta:  {delta:.6e}  (tolerance {args.tol:g})")
    if sum_a["norm_drift"] is not None and sum_b["norm_drift"] is not None:
        print(f"norm drift:      {sum_a['norm_drift']:.3e} vs {sum_b['norm_drift']:.3e}")
    if delta <= args.tol:
        print("endpoints agree")
        return 0
    print("ENDPOINTS DIFFER")
    return 1


# ------------------------------------------------------------------ sweep


def _set_by_path(cfg: dict, dotted: str, value) -> None:
    """Set the key or list index at ``dotted``, adding missing objects."""
    node, (*parents, last) = cfg, dotted.split(".")
    try:
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
        node[int(last) if isinstance(node, list) else last] = value
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot set sweep path {dotted!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError("--values produced an empty list")
    variants = []
    for v in values:
        variants.append(copy.deepcopy(cfg))
        _set_by_path(variants[-1], args.param, v)
    if args.param.split(".")[0] == "initial_state":  # one system, one run for every value
        runs = _run_many(variants)[1]
    else:
        runs = (_run_one(variant)[1:] for variant in variants)
    rows, first_final = [], None
    for v, (result, summary) in zip(values, runs):
        if first_final is None:
            first_final = result.final_state
            rows.append([args.param] + [f"{p}_psi_{k}" for k in range(len(first_final))
                                        for p in ("re", "im")]
                        + ["norm_drift", "delta_vs_first"])
        delta = float(max_abs(result.final_state - first_final))
        cells = [v, *(x for pair in summary["final_state"] for x in pair),
                 summary["norm_drift"], delta]
        rows.append(["" if x is None else f"{x:.17g}" for x in cells])
        print(f"{args.param} = {v:g}: endpoint delta vs first = {delta:.3e}")
    # written after every variant has run, so a failed sweep keeps the old file
    path = _output_dir(args) / f"{Path(args.config).stem}_sweep.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {path}")
    return 0


# ------------------------------------------------------------------- main


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbundle",
        description="Evolve states on charted bundles with moving fiber metrics.",
    )
    parser.add_argument("--version", action="version", version=f"qbundle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured evolution")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run the invariant battery")
    p_check.add_argument("config")
    p_check.add_argument("--output-dir", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_cmp = sub.add_parser("compare", help="compare the endpoints of two runs")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("--tol", type=float, default=1e-6)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="re-run over a range of one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         help="dotted path into the config, e.g. tau or stepper.dt")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QBundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug or an input no validator caught; not exit 1
        print(f"internal error: {type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
