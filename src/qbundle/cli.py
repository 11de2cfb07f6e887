"""Command-line front end.

Subcommands
-----------

run <config.json>
    Integrate the configured evolution and write the requested outputs
    (trajectory CSV and/or a summary JSON with the resolved configuration).

check <config.json>
    Run the configured evolution, as ``run`` does, and the invariant
    battery (metric compatibility, chart-gluing consistency, intertwiner
    unitarity, section compatibility, generator Hermiticity, the
    pseudo-Hermiticity defect law, norm conservation of that run) and
    write/print a report.  Exit code 1 when any check fails.

compare <a.json> <b.json> [--tol X]
    Run two configurations and compare the final states entrywise.  Exit
    code 1 when they differ beyond the tolerance.

sweep <config.json> --param dotted.path --values v1,v2,...
    Re-run the configuration with a parameter swept over the given values
    and tabulate the endpoints.

All outputs are deterministic: a given configuration (including its seed)
produces byte-identical files.  Output files go to --output-dir, else
$QBUNDLE_OUTPUT_DIR, else the current directory.  Exit codes: 0 success,
1 invariant/comparison failure, 2 configuration error, 3 unexpected
internal error (reported as one line on stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
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
    big_g,
    check_section_compatibility,
    evolve_across_patches,
    tilde_eta,
    unitarity_defect,
)
from .connection import ConnectionForm, CurvePath, check_metric_compatibility
from .dynamics import EvolutionResult
from .errors import ConfigError, QBundleError
from .linalg import dagger, is_hermitian, is_positive_definite, max_abs, stacked
from .metric import constant_metric_field
from .stepping import StepperConfig

#: default tolerances for the ``check`` battery, overridable per config
#: via a "check_tolerances" table
CHECK_TOLERANCES = {
    "metric-compatibility": 1e-8,
    "transition-consistency": 1e-8,
    "intertwiner-unitarity": 1e-8,
    "section-compatibility": 1e-8,
    "generator-hermiticity": 1e-8,
    "no-go-defect": 1e-8,
    "norm-conservation": 1e-6,
}


# ------------------------------------------------------------ JSON helpers


def _complex_from_json(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(isinstance(x, (int, float)) for x in entry)):
        return complex(entry[0], entry[1])
    raise ConfigError(f"{where}: expected a number or an [re, im] pair, got {entry!r}")


def matrix_from_json(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"{where}: expected a list of matrix rows")
    data = [[_complex_from_json(e, where) for e in row] for row in rows]
    m = np.array(data, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"{where}: matrix must be square, got shape {m.shape}")
    return m


def vector_from_json(entries, where: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{where}: expected a list of vector entries")
    return np.array([_complex_from_json(e, where) for e in entries], dtype=complex)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return cfg


def _take(cfg: dict, key: str, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"config is missing the required key {key!r}")
        return default
    return cfg[key]


# ---------------------------------------------------------- config -> model


def _curve_from_config(node: dict, model: str) -> CurvePath:
    if not isinstance(node, dict):
        raise ConfigError("'curve' must be an object with a 'kind'")
    kind = _take(node, "kind", required=True)
    t0 = float(_take(node, "t_start", 0.0))
    t1 = float(_take(node, "t_end", 1.0))
    if not t1 > t0:
        raise ConfigError(f"curve needs t_end > t_start, got [{t0}, {t1}]")
    if model == "custom-matrix-fields":
        if kind != "line":
            raise ConfigError(
                f"the custom model supports the 'line' curve, got {kind!r}")
        r0 = np.asarray(_take(node, "from", required=True), dtype=float)
        r1 = np.asarray(_take(node, "to", required=True), dtype=float)
        if r0.shape != r1.shape or r0.ndim != 1:
            raise ConfigError("'from' and 'to' must be coordinate vectors of equal length")
        rate = (r1 - r0) / (t1 - t0)
        return CurvePath(
            t0, t1,
            lambda t: r0 + rate * (t - t0),
            lambda t: rate.copy(),
            [],
        )
    if kind == "circle":
        return twolevel.circle_curve(
            float(_take(node, "theta0", required=True)),
            t_start=t0, t_end=t1,
            revolutions=float(_take(node, "revolutions", 1.0)),
            phi0=float(_take(node, "phi0", 0.0)),
        )
    if kind == "meridian":
        return twolevel.meridian_curve(
            float(_take(node, "phi0", 0.0)),
            float(_take(node, "theta_from", required=True)),
            float(_take(node, "theta_to", required=True)),
            t_start=t0, t_end=t1,
        )
    if kind == "great-circle":
        return twolevel.great_circle_curve(
            float(_take(node, "inclination", required=True)),
            t_start=t0, t_end=t1,
            revolutions=float(_take(node, "revolutions", 1.0)),
            offset=float(_take(node, "offset", 0.0)),
        )
    if kind == "piecewise-waypoints":
        return twolevel.waypoint_curve(_take(node, "waypoints", required=True))
    raise ConfigError(f"unknown curve kind {kind!r}")


def _scales_from_config(node) -> twolevel.ScaleFields | None:
    if node is None:
        return None
    kind = _take(node, "kind", "default")
    if kind == "default":
        return None
    if kind == "constant":
        return twolevel.constant_scales(
            float(_take(node, "xi", 1.0)),
            float(_take(node, "zeta", 1.0)),
            float(_take(node, "xi_tilde", 1.0)),
            float(_take(node, "zeta_tilde", 1.0)),
        )
    raise ConfigError(f"unknown scales kind {kind!r}")


def _alpha_from_config(node) -> twolevel.AlphaField | None:
    if node is None:
        return None
    theta_vec = _take(node, "theta", [0.0, 0.0, 0.0])
    phi_vec = _take(node, "phi", [0.0, 0.0, 0.0])
    if len(theta_vec) != 3 or len(phi_vec) != 3:
        raise ConfigError("'alpha' requires 3-component 'theta' and 'phi' vectors")
    return twolevel.constant_alpha(theta_vec, phi_vec)


def _energy_from_config(node) -> twolevel.EnergyFieldS2 | None:
    if node is None:
        return None
    return twolevel.constant_energy(
        float(_take(node, "epsilon", 1.0)),
        _take(node, "direction", (0.0, 0.0, 1.0)),
    )


def _stepper_from_config(node) -> StepperConfig:
    node = node or {}
    try:
        return StepperConfig(
            method=_take(node, "method", "rk4-fixed"),
            dt=float(_take(node, "dt", 1e-3)),
            target_local_error=float(_take(node, "target_local_error", 1e-10)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad stepper settings: {exc}") from exc


def _custom_system(cfg: dict) -> SystemSpec:
    patch = str(_take(cfg, "patch", "main"))
    eta = matrix_from_json(_take(cfg, "eta", required=True), "eta")
    if not is_positive_definite(eta):
        raise ConfigError("'eta' must be a positive-definite Hermitian matrix")
    curve = _curve_from_config(_take(cfg, "curve", required=True), "custom-matrix-fields")
    dim = curve.points(curve.t_start).shape[0]
    metric = constant_metric_field(patch, eta, dim=dim)

    conn_cfg = _take(cfg, "connection")
    if conn_cfg is None:
        comps = [np.zeros_like(eta) for _ in range(dim)]
    else:
        if not isinstance(conn_cfg, list) or len(conn_cfg) != dim:
            raise ConfigError(
                f"'connection' must list one matrix per coordinate ({dim})")
        comps = [matrix_from_json(c, f"connection[{a}]") for a, c in enumerate(conn_cfg)]
    comps = np.array(comps)
    form = ConnectionForm(
        patch, stacked(lambda r: np.broadcast_to(comps, (len(r),) + comps.shape)), dim=dim)

    energy = None
    if "energy_hermitian" in cfg:
        e_mat = matrix_from_json(cfg["energy_hermitian"], "energy_hermitian")
        if not is_hermitian(e_mat, tol=None):
            raise ConfigError("'energy_hermitian' must be a Hermitian matrix")
        energy = ObservableSection({patch: lambda r: e_mat.copy()}, patch)

    curve = CurvePath(curve.t_start, curve.t_end, curve.position, curve.velocity,
                      [((curve.t_start, curve.t_end), patch)])
    return SystemSpec(
        patches={patch: PatchData(metric, form)},
        curve=curve,
        energy=energy,
        metadata={"model": "custom-matrix-fields"},
    )


def _apply_connection_defect(system: SystemSpec, magnitude: float) -> SystemSpec:
    """Negative control: add  i * magnitude * identity  to every connection
    component, which breaks metric compatibility by exactly 2 * magnitude."""

    def defected(form: ConnectionForm) -> ConnectionForm:
        @stacked
        def components(r):
            c = form.components(r)
            return c + 1j * magnitude * np.eye(c.shape[-1], dtype=complex)

        return ConnectionForm(form.patch_id, components, dim=form.dim, domain=form._domain)

    patches = {
        pid: PatchData(pd.metric, defected(pd.connection))
        for pid, pd in system.patches.items()
    }
    return dataclasses.replace(system, patches=patches, metadata=dict(system.metadata))


def build_from_config(cfg: dict) -> SystemSpec:
    """Resolve a configuration dictionary into a ready SystemSpec."""
    model = _take(cfg, "model", "s2-two-level")
    if model == "s2-two-level":
        curve = _curve_from_config(_take(cfg, "curve", required=True), model)
        system = twolevel.build_system(
            curve,
            scales=_scales_from_config(_take(cfg, "scales")),
            alpha=_alpha_from_config(_take(cfg, "alpha")),
            energy=_energy_from_config(_take(cfg, "energy")),
            theta_plus=float(_take(cfg, "theta_plus", twolevel.THETA_PLUS_DEFAULT)),
            theta_minus=float(_take(cfg, "theta_minus", twolevel.THETA_MINUS_DEFAULT)),
            pole_margin=float(_take(cfg, "pole_margin", twolevel.POLE_MARGIN)),
            pole_phi=_take(cfg, "pole_phi", 0.0),
        )
    elif model == "custom-matrix-fields":
        system = _custom_system(cfg)
    else:
        raise ConfigError(f"unknown model {model!r}")

    defect = _take(cfg, "defect")
    if defect:
        mag = float(_take(defect, "omega_anti_hermitian", 0.0))
        if mag != 0.0:
            system = _apply_connection_defect(system, mag)
    return system


def _initial_state(cfg: dict, system: SystemSpec, rng: np.random.Generator) -> np.ndarray:
    node = _take(cfg, "initial_state", "random")
    pid = system.curve.patch_schedule[0][1]
    dim = system.patch(pid).metric.eta(system.curve.points(system.curve.t_start)).shape[0]
    if node == "random":
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return psi / np.linalg.norm(psi)
    psi = vector_from_json(node, "initial_state")
    if psi.shape != (dim,):
        raise ConfigError(f"initial_state must have {dim} components, got {psi.shape[0]}")
    return psi


def _resolved_config(cfg: dict) -> dict:
    out = copy.deepcopy(cfg)
    out.setdefault("model", "s2-two-level")
    out.setdefault("representation", "eta")
    out.setdefault("seed", 0)
    out.setdefault("outputs", ["trajectory-csv", "summary"])
    stepper = out.setdefault("stepper", {})
    stepper.setdefault("method", "rk4-fixed")
    stepper.setdefault("dt", 1e-3)
    out["package_version"] = __version__
    return out


# ---------------------------------------------------------------- outputs


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _output_dir(args) -> Path:
    if getattr(args, "output_dir", None):
        base = Path(args.output_dir)
    elif os.environ.get("QBUNDLE_OUTPUT_DIR"):
        base = Path(os.environ["QBUNDLE_OUTPUT_DIR"])
    else:
        base = Path.cwd()
    base.mkdir(parents=True, exist_ok=True)
    return base


def _csv_cell(text: str) -> str:
    """``text`` as a csv cell: quoted, as the csv module's default dialect
    quotes, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_trajectory_csv(path: Path, result, dim: int) -> None:
    """One row per sample: t, patch, the state's real and imaginary parts,
    eta_norm and energy_expect; columns without data are left empty."""
    header = ["t", "patch"]
    for k in range(dim):
        header += [f"re_psi_{k}", f"im_psi_{k}"]
    header += ["eta_norm", "energy_expect"]
    fields, columns = ["%.17g"], [result.times.tolist()]
    if result.patch_trace:
        fields.append("%s")
        cells = {p: _csv_cell(p) for p in set(result.patch_trace)}
        columns.append([cells[p] for p in result.patch_trace])
    else:
        fields.append("")
    for k in range(dim):
        fields += ["%.17g", "%.17g"]
        columns += [result.states[:, k].real.tolist(), result.states[:, k].imag.tolist()]
    for values in (result.eta_norm, result.energy_expect):
        fields.append("" if values is None else "%.17g")
        if values is not None:
            columns.append(np.asarray(values, dtype=float).tolist())
    row = ",".join(fields) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % values for values in zip(*columns))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_one(cfg: dict):
    """Build, evolve and summarize one configuration."""
    system = build_from_config(cfg)
    stepper = _stepper_from_config(_take(cfg, "stepper"))
    rng = np.random.default_rng(int(_take(cfg, "seed", 0)))
    psi0 = _initial_state(cfg, system, rng)
    representation = _take(cfg, "representation", "eta")
    if representation not in ("eta", "hermitian"):
        raise ConfigError(f"unknown representation {representation!r}")
    tau = _take(cfg, "tau")
    tau = None if tau is None else float(tau)
    result = evolve_across_patches(system, psi0, tau=tau, stepper=stepper,
                                   representation=representation)
    summary = {
        "config": _resolved_config(cfg),
        "final_time": float(result.times[-1]),
        "final_state": [[float(c.real), float(c.imag)] for c in result.final_state],
        "norm_drift": (float(np.max(np.abs(result.eta_norm - result.eta_norm[0])))
                       if result.eta_norm is not None else None),
        "samples": int(len(result.times)),
        "schedule": [[list(map(float, iv)), pid]
                     for iv, pid in system.curve.patch_schedule],
        "tau": (tau if tau is not None
                else (system.default_tau() if system.overlap_window else None)),
    }
    return system, result, summary


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    system, result, summary = _run_one(cfg)
    outputs = _take(cfg, "outputs", ["trajectory-csv", "summary"])
    stem = Path(args.config).stem
    out_dir = _output_dir(args)
    dim = result.states.shape[1]
    written = []
    if "trajectory-csv" in outputs:
        path = out_dir / f"{stem}_trajectory.csv"
        _write_trajectory_csv(path, result, dim)
        written.append(path)
    if "summary" in outputs:
        path = out_dir / f"{stem}_summary.json"
        _write_json(path, summary)
        written.append(path)
    if "invariant-report" in outputs:
        report = run_checks(cfg, system, result)
        path = out_dir / f"{stem}_invariants.json"
        _write_json(path, report)
        written.append(path)
    drift = summary["norm_drift"]
    print(f"run: {len(result.times)} samples, final t = {summary['final_time']:g}, "
          f"norm drift = {drift:.3e}" if drift is not None else "run: done")
    for p in written:
        print(f"wrote {p}")
    return 0


# ----------------------------------------------------------------- checks


def _schedule_samples(system: SystemSpec, rng, n: int):
    """(patch, times) for each scheduled interval: n times drawn uniformly
    from it."""
    out = []
    for (ta, tb), pid in system.curve.patch_schedule:
        lo, hi = min(ta, tb), max(ta, tb)
        pad = 1e-9 * (hi - lo)
        out.append((pid, rng.uniform(lo + pad, hi - pad, n)))
    return out


def _worst_entries(m: np.ndarray) -> np.ndarray:
    """Max-entry norm of each matrix of a stack."""
    return np.max(np.abs(m), axis=(-2, -1))


def run_checks(cfg: dict, system: SystemSpec | None = None,
               result: EvolutionResult | None = None) -> dict:
    """Run the invariant battery for a configuration; returns the report.
    ``system`` and ``result`` are the run it describes; without them the
    config is run first, exactly as ``run`` would run it.

    Each row reports the worst residual over its sample points.  The chart
    rows evaluate each chart's stack of curve samples in one call; the three
    overlap rows (transition consistency, intertwiner unitarity, section
    compatibility) evaluate the stack of ``check_samples`` overlap points in
    one call per chart pair."""
    if system is None or result is None:
        system, result, _ = _run_one(cfg)
    tolerances = dict(CHECK_TOLERANCES)
    for key, val in (_take(cfg, "check_tolerances") or {}).items():
        if key not in tolerances:
            raise ConfigError(f"unknown check name {key!r} in check_tolerances")
        tolerances[key] = float(val)
    rng = np.random.default_rng(int(_take(cfg, "seed", 0)))
    n = int(_take(cfg, "check_samples", 25))
    curve = system.curve
    samples = _schedule_samples(system, rng, n)
    rows = []

    def add(name, values, samples=None):  # samples: one per value unless given
        values = np.ravel(values)
        worst = float(np.max(values)) if values.size else 0.0
        tol = tolerances[name]
        rows.append({
            "name": name,
            "samples": values.size if samples is None else samples,
            "max_residual": worst,
            "tolerance": tol,
            "passed": bool(worst <= tol),
        })

    # metric compatibility of each chart's connection along the curve; the
    # pointwise residuals below are evaluated on each chart's stack of samples
    add("metric-compatibility", np.concatenate([
        check_metric_compatibility(system.patch(pid).connection,
                                   system.patch(pid).metric,
                                   curve.points(ts))
        for pid, ts in samples
    ]))

    two_chart = system.transition is not None and system.overlap_window is not None
    if two_chart:
        lo, hi = system.overlap_window
        overlap_ts = rng.uniform(lo, hi, n)
        (_, pid_a), (_, pid_b) = curve.patch_schedule[0], curve.patch_schedule[1]
        metric_a = system.patch(pid_a).metric
        metric_b = system.patch(pid_b).metric
        transition = system.transition_into(pid_b)
        pts = curve.points(overlap_ts)
        add("transition-consistency",
            _worst_entries(tilde_eta(transition, metric_a, pts) - metric_b.eta(pts)))
        add("intertwiner-unitarity",
            unitarity_defect(big_g(metric_a, metric_b, transition, pts, check_tol=None)))
        if system.energy is not None:
            add("section-compatibility",
                check_section_compatibility(system.energy, pid_a, pid_b,
                                            metric_a, metric_b, transition, pts),
                samples=len(pts))

    # Hermitian-representation generator must be Hermitian
    def hermiticity(pid, ts):
        h = system.hermitian_generator(pid)(ts)
        return _worst_entries(h - dagger(h))

    add("generator-hermiticity", np.concatenate([hermiticity(pid, ts) for pid, ts in samples]))

    # the pseudo-Hermiticity defect of the full generator equals i etadot eta^{-1}
    def no_go(pid, ts):
        cm = system.curve_metric(pid)
        h = system.generator(pid)(ts)
        op = cm.operator(ts)
        return _worst_entries(dagger(h) - op.eta @ h @ op.eta_inv
                              - 1j * cm.eta_dot(ts) @ op.eta_inv)

    add("no-go-defect", np.concatenate([no_go(pid, ts) for pid, ts in samples]))

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
    cfg = _load_config(args.config)
    system, result, _ = _run_one(cfg)
    report = run_checks(cfg, system, result)
    _print_report(report)
    out_dir = _output_dir(args)
    path = out_dir / f"{Path(args.config).stem}_invariants.json"
    _write_json(path, report)
    print(f"wrote {path}")
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------- compare


def _cmd_compare(args) -> int:
    cfg_a = _load_config(args.config_a)
    cfg_b = _load_config(args.config_b)
    _, res_a, sum_a = _run_one(cfg_a)
    _, res_b, sum_b = _run_one(cfg_b)
    if res_a.states.shape[1] != res_b.states.shape[1]:
        raise ConfigError("cannot compare runs with different state dimensions")
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
    node = cfg
    keys = dotted.split(".")
    for key in keys[:-1]:
        if isinstance(node, list):
            node = node[int(key)]
        else:
            node = node.setdefault(key, {})
        if not isinstance(node, (dict, list)):
            raise ConfigError(f"cannot descend into {key!r} of sweep path {dotted!r}")
    last = keys[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError("--values produced an empty list")
    out_dir = _output_dir(args)
    path = out_dir / f"{Path(args.config).stem}_sweep.csv"
    first_final = None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header_written = False
        for v in values:
            variant = copy.deepcopy(cfg)
            _set_by_path(variant, args.param, v)
            _, result, summary = _run_one(variant)
            dim = result.states.shape[1]
            if not header_written:
                header = [args.param]
                for k in range(dim):
                    header += [f"re_psi_{k}", f"im_psi_{k}"]
                header += ["norm_drift", "delta_vs_first"]
                writer.writerow(header)
                header_written = True
            if first_final is None:
                first_final = result.final_state
            delta = float(max_abs(result.final_state - first_final))
            row = [_fmt(v)]
            for c in result.final_state:
                row += [_fmt(float(c.real)), _fmt(float(c.imag))]
            drift = summary["norm_drift"]
            row.append(_fmt(drift) if drift is not None else "")
            row.append(_fmt(delta))
            writer.writerow(row)
            print(f"{args.param} = {v:g}: endpoint delta vs first = {delta:.3e}")
    print(f"wrote {path}")
    return 0


# ------------------------------------------------------------------- main


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
