"""Independent reference endpoints and the output checks of every job.

The reference integrates the scale-free closed-form Hermitian generator
``twolevel.hermitian_hamiltonian`` with this file's own RK4, and maps between
pictures and charts with the closed forms ``twolevel.rho_matrix``,
``rho_inverse_matrix`` and ``big_g_s2``.  It never calls ``bundle``,
``dynamics``, ``stepping`` or ``cli``, and it computes the curves and the
chart-switch time from their geometry, so it shares no code path with the
program's generic evolution.

Tolerance: RK4 at dt = 1e-3 leaves a truncation error of about 1e-12 on these
curves, and the reference and the program take their steps in different
pictures (and, for adaptive jobs, on different grids), so today they agree to
1e-11 or better.  ``TOL`` leaves a margin of 100 above that; a wrong generator,
gluing or diagnostic is off by 1e-6 or more.  Accuracy is a gate, not a timed
metric: rounding-level changes do not fail a job.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from pathlib import Path

import numpy as np
from qbundle import twolevel as tl

#: endpoint and eta-norm drift tolerance, relative to the initial state's norm
TOL = 1e-9

_SCALES = tl.default_scales()


def _energy(cfg: dict):
    e = cfg["energy"]
    return tl.constant_energy(float(e["epsilon"]), e["direction"])


def _state(entries) -> np.ndarray:
    return np.array([complex(re, im) for re, im in entries])


def _meridian(curve: dict):
    a, b = float(curve["theta_from"]), float(curve["theta_to"])
    phi0 = float(curve["phi0"])
    rate = b - a

    def pos(t):
        return a + rate * t, phi0

    def vel(t):
        return rate, 0.0

    # the overlap theta_minus < theta < theta_plus, crossed on a linear ramp
    t_in = (tl.THETA_MINUS_DEFAULT - a) / rate
    t_out = (tl.THETA_PLUS_DEFAULT - a) / rate
    return pos, vel, 0.5 * (t_in + t_out)


def _great_circle(curve: dict):
    inc = float(curve["inclination"])
    off = float(curve.get("offset", 0.0))
    rate = 2.0 * math.pi * float(curve.get("revolutions", 1.0))
    e1 = np.array([math.cos(inc), 0.0, -math.sin(inc)])
    e2 = np.array([0.0, 1.0, 0.0])

    def cart(t):
        s = off + rate * t
        return math.cos(s) * e1 + math.sin(s) * e2, rate * (-math.sin(s) * e1 + math.cos(s) * e2)

    # the generator is 2 pi-periodic in phi, so any branch of atan2 will do
    def pos(t):
        p, _ = cart(t)
        return math.acos(max(-1.0, min(1.0, p[2]))), math.atan2(p[1], p[0])

    def vel(t):
        p, dp = cart(t)
        s2 = p[0] * p[0] + p[1] * p[1]
        return -dp[2] / math.sqrt(s2), (p[0] * dp[1] - p[1] * dp[0]) / s2

    return pos, vel


def _rk4(h_of_t, phi: np.ndarray, t0: float, t1: float, dt: float) -> np.ndarray:
    n = max(1, int(round(abs(t1 - t0) / dt)))
    h = (t1 - t0) / n
    h_a = h_of_t(t0)
    for k in range(n):
        t = t0 + k * h
        h_m = h_of_t(t + 0.5 * h)
        h_b = h_of_t(t0 + (k + 1) * h)
        k1 = -1j * (h_a @ phi)
        k2 = -1j * (h_m @ (phi + 0.5 * h * k1))
        k3 = -1j * (h_m @ (phi + 0.5 * h * k2))
        k4 = -1j * (h_b @ (phi + h * k3))
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        h_a = h_b
    return phi


def _generator(pos, vel, energy, patch):
    def h(t):
        th, ph = pos(t)
        th_dot, ph_dot = vel(t)
        return tl.hermitian_hamiltonian(th, ph, th_dot, ph_dot, energy=energy, patch=patch)

    return h


def endpoint(cfg: dict) -> np.ndarray:
    """Reference final state of a run config, in the config's picture and
    on the final chart, over t in [0, 1]."""
    psi0 = _state(cfg["initial_state"])
    energy = _energy(cfg)
    dt = float(cfg["stepper"]["dt"])
    hermitian = cfg.get("representation", "eta") == "hermitian"
    curve = cfg["curve"]
    if curve["kind"] == "meridian":
        pos, vel, tau = _meridian(curve)
        phi = psi0 if hermitian else tl.rho_matrix(*pos(0.0), _SCALES, tl.PLUS) @ psi0
        phi = _rk4(_generator(pos, vel, energy, tl.PLUS), phi, 0.0, tau, dt)
        phi = np.linalg.solve(tl.big_g_s2(*pos(tau)), phi)
        phi = _rk4(_generator(pos, vel, energy, tl.MINUS), phi, tau, 1.0, dt)
        last = tl.MINUS
    elif curve["kind"] == "great-circle":
        pos, vel = _great_circle(curve)
        phi = psi0 if hermitian else tl.rho_matrix(*pos(0.0), _SCALES, tl.PLUS) @ psi0
        phi = _rk4(_generator(pos, vel, energy, tl.PLUS), phi, 0.0, 1.0, dt)
        last = tl.PLUS
    else:
        raise ValueError(f"no reference for curve kind {curve['kind']!r}")
    return phi if hermitian else tl.rho_inverse_matrix(*pos(1.0), _SCALES, last) @ phi


# ------------------------------------------------------------ job checks


class Accuracy:
    """Worst endpoint error and norm drift seen over the checked jobs."""

    def __init__(self):
        self.endpoint_err = 0.0
        self.norm_drift = 0.0

    def endpoint_error(self, got: np.ndarray, cfg: dict) -> float:
        err = float(np.max(np.abs(got - endpoint(cfg))))
        self.endpoint_err = max(self.endpoint_err, err)
        return err

    def drift(self, drift: float) -> float:
        self.norm_drift = max(self.norm_drift, drift)
        return drift


def _tol(cfg: dict) -> float:
    return TOL * max(1.0, float(np.linalg.norm(_state(cfg["initial_state"]))))


def check_job(job, exit_code, out_dir: Path, stem: str, acc: Accuracy) -> str | None:
    """Return None when the job's outputs are correct, else the reason."""
    if exit_code != job.expected_exit:
        return f"exit code {exit_code}, expected {job.expected_exit}"
    if job.kind == "run":
        return _check_run(job.config, out_dir, stem, acc)
    if job.kind == "sweep":
        return _check_sweep(job, out_dir, stem, acc)
    return _check_report(job, out_dir, stem, acc)


def _check_run(cfg, out_dir, stem, acc) -> str | None:
    summary = json.loads((out_dir / f"{stem}_summary.json").read_text())
    with open(out_dir / f"{stem}_trajectory.csv", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if summary["samples"] != rows:
        return f"summary says {summary['samples']} samples, CSV has {rows} rows"
    err = acc.endpoint_error(_state(summary["final_state"]), cfg)
    if err > _tol(cfg):
        return f"endpoint error {err:.3e} above {_tol(cfg):g}"
    if acc.drift(float(summary["norm_drift"])) > _tol(cfg):
        return f"norm drift {summary['norm_drift']:.3e} above {_tol(cfg):g}"
    return None


def _check_sweep(job, out_dir, stem, acc) -> str | None:
    with open(out_dir / f"{stem}_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if [float(r[0]) for r in rows] != list(job.sweep_values):
        return f"sweep CSV lists values {[r[0] for r in rows]}, expected {job.sweep_values}"
    for r in rows:
        cfg = copy.deepcopy(job.config)
        cfg["initial_state"][1][1] = float(r[0])  # the swept initial_state.1.1
        got = np.array([complex(float(r[1]), float(r[2])), complex(float(r[3]), float(r[4]))])
        err = acc.endpoint_error(got, cfg)
        if err > _tol(cfg):
            return f"sweep value {r[0]}: endpoint error {err:.3e} above {_tol(cfg):g}"
        if acc.drift(float(r[5])) > _tol(cfg):
            return f"sweep value {r[0]}: norm drift {r[5]} above {_tol(cfg):g}"
    return None


def _check_report(job, out_dir, stem, acc) -> str | None:
    report = json.loads((out_dir / f"{stem}_invariants.json").read_text())
    rows = {r["name"]: r for r in report["checks"]}
    if job.kind == "defect-check":
        if report["all_passed"] or rows["metric-compatibility"]["passed"]:
            return "the planted defect was not detected"
        return None
    if not report["all_passed"]:
        return "invariant battery failed: " + ", ".join(n for n, r in rows.items() if not r["passed"])
    drift = acc.drift(rows["norm-conservation"]["max_residual"])
    if drift > _tol(job.config):
        return f"norm drift {drift:.3e} above {_tol(job.config):g}"
    return None
