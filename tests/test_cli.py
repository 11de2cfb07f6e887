"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import qbundle
from qbundle.cli import (
    CHECK_TOLERANCES,
    _run_many,
    _run_one,
    _set_by_path,
    _write_trajectory_csv,
    build_from_config,
    main,
    resolve_config,
    run_checks,
)
from qbundle.dynamics import evolve
from qbundle.errors import ConfigError
from qbundle.linalg import max_abs
from qbundle.stepping import StepperConfig

THETA_FROM = math.pi / 6.0
THETA_TO = 5.0 * math.pi / 6.0


def base_config():
    return {
        "model": "s2-two-level",
        "curve": {"kind": "meridian", "phi0": 0.3,
                  "theta_from": THETA_FROM, "theta_to": THETA_TO},
        "energy": {"epsilon": 0.8, "direction": [0.2, -0.3, 0.93]},
        "alpha": {"theta": [0.1, -0.2, 0.3], "phi": [0.05, 0.4, -0.15]},
        "stepper": {"method": "rk4-fixed", "dt": 5e-3},
        "initial_state": [[0.8, 0.0], [-0.2, 0.4]],
        "outputs": ["trajectory-csv", "summary"],
        "seed": 11,
    }


def custom_config(connection=None):
    cfg = {
        "model": "custom-matrix-fields",
        "eta": [[[1, 0], [0, 0]], [[0, 0], [4, 0]]],
        "energy_hermitian": [[1, 0], [0, -1]],
        "curve": {"kind": "line", "from": [0.0], "to": [1.0]},
        "initial_state": [[1, 0], [0.3, 0.2]],
        "stepper": {"dt": 5e-3},
        "seed": 3,
    }
    if connection is not None:
        cfg["connection"] = connection
    return cfg


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------ run


def test_run_writes_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "job.json", base_config())
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "norm drift" in out
    traj = tmp_path / "job_trajectory.csv"
    summary = tmp_path / "job_summary.json"
    assert traj.exists() and summary.exists()
    lines = traj.read_text().splitlines()
    assert lines[0] == "t,patch,re_psi_0,im_psi_0,re_psi_1,im_psi_1,eta_norm,energy_expect"
    payload = json.loads(summary.read_text())
    assert payload["norm_drift"] < 1e-8
    assert len(payload["final_state"]) == 2
    assert payload["config"]["representation"] == "eta"
    assert payload["config"]["stepper"]["dt"] == 5e-3
    assert [pid for _, pid in payload["schedule"]] == ["plus", "minus"]
    assert len(lines) - 1 == payload["samples"]
    # the recorded switch time lies strictly inside the run window
    assert 0.0 < payload["tau"] < 1.0


def test_default_itinerary_is_pinned(tmp_path, monkeypatch):
    """The README meridian switches charts at the middle of its overlap dwell
    on the 2001-sample itinerary grid; a great circle on one chart records
    no switch."""
    monkeypatch.chdir(tmp_path)
    readme = {key: base_config()[key] for key in ("curve", "energy", "initial_state", "seed")}
    great = dict(readme, curve={"kind": "great-circle", "inclination": 0.43, "offset": 1.1})
    for name, cfg in (("readme", readme), ("great", great)):
        assert main(["run", write_config(tmp_path / f"{name}.json", cfg)]) == 0
    readme, great = (json.loads((tmp_path / f"{name}_summary.json").read_text())
                     for name in ("readme", "great"))
    assert readme["schedule"] == [[[0.0, 0.49975], "plus"], [[0.49975, 1.0], "minus"]]
    assert readme["tau"] == 0.49975
    assert great["schedule"] == [[[0.0, 1.0], "plus"]] and great["tau"] is None


def test_run_is_byte_deterministic(tmp_path, monkeypatch):
    cfg_dict = base_config()
    cfg_dict["initial_state"] = "random"
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    cfg = write_config(tmp_path / "job.json", cfg_dict)
    monkeypatch.chdir(tmp_path)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--output-dir", str(tmp_path / "b")]) == 0
    for name in ("job_trajectory.csv", "job_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_random_state_depends_on_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict["initial_state"] = "random"
    cfg_dict["outputs"] = ["summary"]
    a = write_config(tmp_path / "s1.json", cfg_dict)
    cfg_dict["seed"] = 12
    b = write_config(tmp_path / "s2.json", cfg_dict)
    assert main(["run", a]) == 0 and main(["run", b]) == 0
    fa = json.loads((tmp_path / "s1_summary.json").read_text())["final_state"]
    fb = json.loads((tmp_path / "s2_summary.json").read_text())["final_state"]
    assert np.max(np.abs(np.asarray(fa) - np.asarray(fb))) > 1e-3


def test_output_dir_env_var(tmp_path, monkeypatch):
    outdir = tmp_path / "collected"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QBUNDLE_OUTPUT_DIR", str(outdir))
    cfg = write_config(tmp_path / "job.json", base_config())
    assert main(["run", cfg]) == 0
    assert (outdir / "job_trajectory.csv").exists()


def test_run_hermitian_representation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict["representation"] = "hermitian"
    cfg_dict["outputs"] = ["summary"]
    cfg = write_config(tmp_path / "h.json", cfg_dict)
    assert main(["run", cfg]) == 0
    payload = json.loads((tmp_path / "h_summary.json").read_text())
    # the 2-norm of the Hermitian-representation state is conserved
    assert payload["norm_drift"] < 1e-8


def csv_module_trajectory(path, result, dim):
    """The trajectory CSV written cell by cell through the csv module."""
    fmt = lambda x: f"{x:.17g}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "patch"] + [f"{p}_psi_{k}" for k in range(dim) for p in ("re", "im")]
                        + ["eta_norm", "energy_expect"])
        for i in range(len(result.times)):
            row = [fmt(float(result.times[i])), result.patch_trace[i] if result.patch_trace else ""]
            for k in range(dim):
                row += [fmt(float(result.states[i][k].real)), fmt(float(result.states[i][k].imag))]
            row.append(fmt(float(result.eta_norm[i])) if result.eta_norm is not None else "")
            row.append(fmt(float(result.energy_expect[i]))
                       if result.energy_expect is not None else "")
            writer.writerow(row)


def test_trajectory_csv_matches_the_csv_module(tmp_path):
    """The row-format writer gives the csv module's bytes: a two-chart result,
    one without metric or patches, and patch labels that need quoting."""
    cfg_dict = base_config()
    cfg_dict["stepper"] = {"method": "rk4-fixed", "dt": 0.05}
    _, two_chart, _ = _run_one(cfg_dict)
    h = np.array([[1.0, 0.2j], [-0.2j, -0.5]])
    plain = evolve(lambda t: np.cos(t) * h, np.array([1.0, -0.0j]), 0.0, 1.0,
                   StepperConfig(dt=0.1))
    assert two_chart.eta_norm is not None and set(two_chart.patch_trace) == {"plus", "minus"}
    assert plain.eta_norm is None and plain.patch_trace is None
    labels = ["a,b", 'say "hi"', "line\nbreak", "plain"]
    quoted = dataclasses.replace(plain, patch_trace=[labels[i % 4] for i in range(len(plain.times))])
    for result in (two_chart, plain, quoted):
        _write_trajectory_csv(tmp_path / "rows.csv", result, 2)
        csv_module_trajectory(tmp_path / "cells.csv", result, 2)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


# ---------------------------------------------------------------- errors


def test_missing_and_malformed_configs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_validation_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def run_with(**overrides):
        cfg_dict = base_config()
        cfg_dict.update(overrides)
        cfg = write_config(tmp_path / "v.json", cfg_dict)
        return main(["run", cfg])

    assert run_with(model="tight-binding") == 2
    assert run_with(curve={"kind": "helix"}) == 2
    assert run_with(stepper={"dt": -1.0}) == 2
    assert run_with(representation="interaction") == 2
    assert run_with(initial_state=[[1, 0]]) == 2
    assert run_with(energy={"direction": [0, 0, 0]}) == 2
    assert run_with(tau=0.01) == 2  # outside the overlap dwell
    # a negative energy gap is legitimate
    assert run_with(energy={"epsilon": -0.5, "direction": [0, 0, 1]},
                    outputs=["summary"]) == 0


def test_pole_touching_curve_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict["curve"] = {"kind": "meridian", "phi0": 0.0,
                         "theta_from": 0.5, "theta_to": 1e-5}
    cfg = write_config(tmp_path / "pole.json", cfg_dict)
    assert main(["run", cfg]) == 2


# ----------------------------------------------------------------- check


def test_check_passes_and_writes_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "job.json", base_config())
    assert main(["check", cfg]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    report = json.loads((tmp_path / "job_invariants.json").read_text())
    names = {r["name"] for r in report["checks"]}
    assert {"metric-compatibility", "transition-consistency",
            "intertwiner-unitarity", "section-compatibility",
            "generator-hermiticity", "no-go-defect",
            "norm-conservation"} <= names
    assert report["all_passed"]
    assert all(r["max_residual"] <= r["tolerance"] for r in report["checks"])


@pytest.mark.parametrize("representation", ["eta", "hermitian"])
def test_check_fails_on_seeded_defect(tmp_path, monkeypatch, capsys, representation):
    """The defect empties the closed-form slot, so the run integrates the
    defected generic generator and breaks norm conservation in either picture."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict["defect"] = {"omega_anti_hermitian": 0.05}
    cfg_dict["representation"] = representation
    cfg = write_config(tmp_path / "broken.json", cfg_dict)
    assert main(["check", cfg]) == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "broken_invariants.json").read_text())
    by_name = {r["name"]: r for r in report["checks"]}
    # the planted anti-Hermitian term breaks compatibility by 2 x magnitude
    assert by_name["metric-compatibility"]["max_residual"] == pytest.approx(0.1, rel=1e-6)
    assert not by_name["metric-compatibility"]["passed"]
    assert not by_name["norm-conservation"]["passed"]


def test_check_custom_model(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    good = write_config(
        tmp_path / "good.json",
        custom_config(connection=[[[[0, 0], [2, 0]], [[0.5, 0], [0, 0]]]]),
    )
    assert main(["check", good]) == 0
    # this component is not pseudo-Hermitian for eta = diag(1, 4)
    bad = write_config(
        tmp_path / "bad.json",
        custom_config(connection=[[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]),
    )
    assert main(["check", bad]) == 1


def test_custom_model_rejects_indefinite_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_dict = custom_config()
    cfg_dict["eta"] = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
    del cfg_dict["energy_hermitian"]
    cfg = write_config(tmp_path / "indefinite.json", cfg_dict)
    assert main(["run", cfg]) == 2
    assert "positive-definite" in capsys.readouterr().err


def test_custom_energy_hermiticity_gate_scales_with_the_entries():
    def build_with(energy):
        cfg = custom_config()
        cfg["energy_hermitian"] = energy
        return build_from_config(cfg)

    # a last-digit asymmetry of large entries passes, a real one does not
    build_with([[2e6, 3e5 + 1e-5], [3e5, -1e6]])
    for energy in ([[2e6, 3e5 + 1e-2], [3e5, -1e6]], [[1, 1e-9], [0, -1]]):
        with pytest.raises(ConfigError, match="Hermitian"):
            build_with(energy)


def test_check_tolerance_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict["check_tolerances"] = {"norm-conservation": 1e-18}
    cfg = write_config(tmp_path / "strict.json", cfg_dict)
    assert main(["check", cfg]) == 1
    cfg_dict["check_tolerances"] = {"no-such-check": 1.0}
    cfg = write_config(tmp_path / "strict.json", cfg_dict)
    assert main(["check", cfg]) == 2


# --------------------------------------------------------------- compare


def test_compare_tau_choices_agree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict["tau"] = 0.35
    a = write_config(tmp_path / "a.json", cfg_dict)
    cfg_dict["tau"] = 0.65
    b = write_config(tmp_path / "b.json", cfg_dict)
    assert main(["compare", a, b]) == 0
    assert "endpoints agree" in capsys.readouterr().out
    # an absurdly tight tolerance flips the verdict
    assert main(["compare", a, b, "--tol", "1e-16"]) == 1


def test_compare_detects_different_physics(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    a = write_config(tmp_path / "a.json", base_config())
    cfg_dict = base_config()
    cfg_dict["energy"] = {"epsilon": 1.6, "direction": [0.2, -0.3, 0.93]}
    b = write_config(tmp_path / "b.json", cfg_dict)
    assert main(["compare", a, b]) == 1


def test_compare_refuses_runs_in_different_pictures(tmp_path, monkeypatch, capsys):
    """Psi and Phi = rho psi are different components of one state."""
    monkeypatch.chdir(tmp_path)
    a = write_config(tmp_path / "a.json", base_config())
    b = write_config(tmp_path / "b.json", {**base_config(), "representation": "hermitian"})
    assert main(["compare", a, b]) == 2
    assert "representation 'eta' vs 'hermitian'" in capsys.readouterr().err


def test_compare_refuses_runs_that_end_on_different_charts(tmp_path, monkeypatch, capsys):
    """A meridian that stops at theta = 1.2 ends on the plus chart, the README
    meridian on the minus chart."""
    monkeypatch.chdir(tmp_path)
    a = write_config(tmp_path / "a.json", base_config())
    cfg_dict = base_config()
    cfg_dict["curve"]["theta_to"] = 1.2
    b = write_config(tmp_path / "b.json", cfg_dict)
    assert main(["compare", a, b]) == 2
    assert "final chart 'minus' vs 'plus'" in capsys.readouterr().err


# ----------------------------------------------------------------- sweep


def test_sweep_over_tau(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "job.json", base_config())
    assert main(["sweep", cfg, "--param", "tau", "--values", "0.3,0.5,0.7"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "job_sweep.csv").read_text().splitlines()
    assert rows[0].startswith("tau,")
    assert len(rows) == 4
    first_delta = float(rows[1].split(",")[-1])
    assert first_delta == 0.0
    worst = max(float(r.split(",")[-1]) for r in rows[1:])
    assert worst < 1e-6


def test_sweep_nested_parameter(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "job.json", base_config())
    assert main(["sweep", cfg, "--param", "stepper.dt",
                 "--values", "0.005,0.0025"]) == 0
    rows = (tmp_path / "job_sweep.csv").read_text().splitlines()
    assert rows[0].startswith("stepper.dt,")
    # halving the step barely moves the endpoint
    assert float(rows[2].split(",")[-1]) < 1e-8


def test_failed_sweep_leaves_the_earlier_csv(tmp_path, monkeypatch, capsys):
    """The sweep CSV is written only after every variant has run."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "job.json", base_config())
    assert main(["sweep", cfg, "--param", "tau", "--values", "0.4,0.6"]) == 0
    good = (tmp_path / "job_sweep.csv").read_bytes()
    assert main(["sweep", cfg, "--param", "stepper.tdt", "--values", "0.01"]) == 2
    capsys.readouterr()
    assert (tmp_path / "job_sweep.csv").read_bytes() == good


def test_sweep_rejects_bad_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "job.json", base_config())
    assert main(["sweep", cfg, "--param", "tau", "--values", "a,b"]) == 2
    assert main(["sweep", cfg, "--param", "tau", "--values", ""]) == 2


# ------------------------------------------------------------- internals


def test_build_from_config_single_chart():
    cfg = {"model": "s2-two-level",
           "curve": {"kind": "circle", "theta0": 1.0}}
    system = build_from_config(cfg)
    assert system.charts == ("plus",)


def test_run_checks_report_shape():
    report = run_checks(custom_config())
    assert report["all_passed"]
    for row in report["checks"]:
        assert set(row) == {"name", "samples", "max_residual", "tolerance", "passed"}


def test_check_defect_on_three_level_custom_model(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_dict = custom_config()
    cfg_dict["eta"] = [[[1, 0], [0, 0], [0, 0]],
                       [[0, 0], [2, 0], [0, 0]],
                       [[0, 0], [0, 0], [3, 0]]]
    cfg_dict["energy_hermitian"] = [[[1, 0], [0, 0], [0, 0]],
                                    [[0, 0], [0, 0], [0, 0]],
                                    [[0, 0], [0, 0], [-1, 0]]]
    cfg_dict["initial_state"] = [[1, 0], [0.3, 0.2], [0, -0.5]]
    cfg_dict["defect"] = {"omega_anti_hermitian": 0.05}
    cfg = write_config(tmp_path / "three.json", cfg_dict)
    assert main(["check", cfg]) == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "three_invariants.json").read_text())
    by_name = {r["name"]: r for r in report["checks"]}
    assert by_name["metric-compatibility"]["max_residual"] == pytest.approx(0.1, rel=1e-6)
    assert not by_name["metric-compatibility"]["passed"]


def test_invariant_report_describes_the_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict.update(representation="hermitian", tau=0.45, initial_state="random",
                    stepper={"method": "rk4-fixed", "dt": 0.05},
                    outputs=["summary", "invariant-report"])
    cfg = write_config(tmp_path / "coarse.json", cfg_dict)
    assert main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "coarse_summary.json").read_text())
    report = json.loads((tmp_path / "coarse_invariants.json").read_text())
    by_name = {r["name"]: r for r in report["checks"]}
    assert by_name["norm-conservation"]["max_residual"] == summary["norm_drift"]


def test_check_evolves_the_configured_run(tmp_path, monkeypatch):
    """``check`` evolves in the config's representation, with its tau and its
    seeded state, so its norm row is the drift ``run`` reports."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict.update(representation="hermitian", tau=0.45, initial_state="random", seed=3,
                    stepper={"method": "rk4-fixed", "dt": 0.05}, outputs=["summary"])
    cfg = write_config(tmp_path / "coarse.json", cfg_dict)
    assert main(["run", cfg]) == 0
    assert main(["check", cfg]) == 0
    summary = json.loads((tmp_path / "coarse_summary.json").read_text())
    report = json.loads((tmp_path / "coarse_invariants.json").read_text())
    by_name = {r["name"]: r for r in report["checks"]}
    assert by_name["norm-conservation"]["max_residual"] == summary["norm_drift"]


def test_check_samples_the_overlap_inside_both_charts(tmp_path, monkeypatch):
    """A meridian that crosses the minus chart's edge within one ulp of an
    itinerary grid sample, where the intertwiner is degenerate: the battery
    must sample the overlap at least one sample inside both charts."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    del cfg_dict["alpha"]
    cfg_dict.update(
        curve={"kind": "meridian", "phi0": 6.087599174221093,
               "theta_from": THETA_FROM, "theta_to": THETA_TO},
        stepper={"method": "rk4-fixed", "dt": 1e-3}, outputs=["summary"],
        initial_state=[[-0.02748779677065662, 0.9757981291064066],
                       [-0.205642166208949, -0.06909219737439523]],
        seed=1527537352)
    cfg = write_config(tmp_path / "edge.json", cfg_dict)
    assert main(["check", cfg]) == 0
    report = json.loads((tmp_path / "edge_invariants.json").read_text())
    assert report["all_passed"]


def test_explicit_tau_is_the_switch_the_summary_records(tmp_path, monkeypatch):
    """With tau set, the summary's schedule and tau describe the switch the
    run made: the trajectory's last plus row and first minus row sit at tau."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict["tau"] = 0.3
    cfg = write_config(tmp_path / "early.json", cfg_dict)
    assert main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "early_summary.json").read_text())
    with open(tmp_path / "early_trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    plus = [float(r["t"]) for r in rows if r["patch"] == "plus"]
    minus = [float(r["t"]) for r in rows if r["patch"] == "minus"]
    assert summary["tau"] == plus[-1] == minus[0] == 0.3
    assert summary["schedule"] == [[[0.0, 0.3], "plus"], [[0.3, 1.0], "minus"]]


def test_check_chart_rows_sample_the_run_segments():
    """With tau set, the battery samples each chart on the run's segment,
    not on the default switch at the middle of the overlap dwell."""
    cfg = base_config()
    cfg["tau"] = 0.3
    system, result, _ = _run_one(cfg)
    seen, evaluate = [], system.evaluate

    def spy(pid, ts):
        seen.append((pid, np.asarray(ts)))
        return evaluate(pid, ts)

    system.evaluate = spy
    assert run_checks(cfg, system, result)["all_passed"]
    (pid_a, plus), (pid_b, minus) = seen
    assert (pid_a, pid_b) == ("plus", "minus") and plus.size == minus.size == 25
    assert 0.0 < plus.min() and plus.max() < 0.3 < minus.min() and minus.max() < 1.0


def test_single_chart_run_reports_no_switch(tmp_path, monkeypatch):
    """A curve inside one chart never switches, so a configured tau is
    ignored and the summary's tau is null."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "circle.json", {
        "curve": {"kind": "circle", "theta0": 1.0}, "tau": 0.3, "outputs": ["summary"]})
    assert main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "circle_summary.json").read_text())
    assert summary["tau"] is None
    assert summary["schedule"] == [[[0.0, 1.0], "plus"]]


@pytest.mark.parametrize("method", ["rk4-fixed", "rk4-adaptive"])
@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_a_dt_past_the_step_budget_exits_2(tmp_path, monkeypatch, capsys, dt, method):
    """A dt that asks for more than stepping.MAX_STEPS steps is refused before
    anything is allocated: exit 2, one line on stderr, no numpy warning."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict["stepper"] = {"method": method, "dt": dt}
    cfg = write_config(tmp_path / "tiny.json", cfg_dict)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", cfg]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "MAX_STEPS" in err


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(qbundle.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qbundle.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("overrides", [
    {},
    {"stepper": {"method": "rk4-adaptive", "target_local_error": 1e-8}},
])
def test_unexpected_errors_exit_3_without_traceback(tmp_path, monkeypatch, capsys, overrides):
    """A failure inside the program, not in the config, exits 3 with one line."""
    def boom(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(qbundle.cli, "evolve_across_patches", boom)
    cfg_dict = base_config()
    cfg_dict.update(overrides)
    cfg = write_config(tmp_path / "odd.json", cfg_dict)
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------- schema


def readme_config():
    """The README's minimal configuration, read from README.md."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"minimal configuration:\s*```json\n(.*?)```", text, re.S)[1])


def test_readme_minimal_configuration_runs(tmp_path):
    cfg = write_config(tmp_path / "readme.json", readme_config())
    assert main(["run", cfg, "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "readme_trajectory.csv").exists()


def test_run_with_explicit_state_leaves_numpy_random_unloaded(tmp_path):
    """Only a "random" initial state draws, so running the README meridian
    with its explicit state never imports numpy.random."""
    cfg = write_config(tmp_path / "readme.json", readme_config())
    env = dict(os.environ, PYTHONPATH=str(Path(qbundle.__file__).parents[1]))
    code = ("import sys; from qbundle.cli import main; "
            f"main(['run', {cfg!r}, '--output-dir', {str(tmp_path)!r}]); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("overrides, sweep, named", [
    ({"seed": "x"}, None, "seed"),
    ({"seed": -1}, None, "seed"),
    ({"seed": True}, None, "seed"),
    ({"tau": "x"}, None, "tau"),
    ({"theta_plus": "x"}, None, "theta_plus"),
    ({"curve.phi0": "x"}, None, "curve.phi0"),
    ({"curve.phi_0": 0.3}, None, "curve.phi_0"),
    ({"energy.direction": "ab"}, None, "energy.direction"),
    ({"energy.epsilon": math.nan}, None, "energy.epsilon"),
    ({"curve": {"kind": "piecewise-waypoints", "waypoints": "x"}}, None, "curve.waypoints"),
    ({"curve": {"kind": "piecewise-waypoints", "waypoints": [[0, 0.5, 0], [1, 1.0, 0]],
                "t_end": 1.0}}, None, "curve.t_end"),
    ({"check_samples": "x"}, None, "check_samples"),
    ({"check_samples": -1}, None, "check_samples"),
    ({"check_samples": 0}, None, "check_samples"),
    ({"scales": 5}, None, "scales"),
    ({"stepper": 5}, None, "stepper"),
    ({"stepper.methd": "rk4-fixed"}, None, "stepper.methd"),
    ({"energy": 5}, None, "energy"),
    ({"defect": 5}, None, "defect"),
    ({"outputs": 5}, None, "outputs"),
    ({"outputs": ["summry"]}, None, "outputs[0]"),
    ({"check_tolerances": 5}, None, "check_tolerances"),
    ({"alpha.theta": 5}, None, "alpha.theta"),
    ({"reprsentation": "eta"}, None, "reprsentation"),
    ({"eta": [[1, 0], [0, 1]]}, None, "eta"),
    ({}, "stepper.tdt", "stepper.tdt"),
])
def test_malformed_configs_exit_2_naming_the_key(tmp_path, monkeypatch, capsys,
                                                 overrides, sweep, named):
    """Each value changed on the README configuration is a configuration
    error that names its dotted key, for ``run`` and for ``sweep`` variants."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = readme_config()
    for dotted, value in overrides.items():
        *parents, last = dotted.split(".")
        node = cfg_dict
        for key in parents:
            node = node.setdefault(key, {})
        node[last] = value
    cfg = write_config(tmp_path / "bad.json", cfg_dict)
    argv = ["run", cfg] if sweep is None else ["sweep", cfg, "--param", sweep,
                                               "--values", "0.01,0.02"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: {named}")


def _readme_with(**overrides):
    cfg = readme_config()
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("cfg_dict", [
    _readme_with(),
    _readme_with(representation="hermitian"),
    _readme_with(initial_state="random", seed=7),
    custom_config(connection=[[[[0, 0], [2, 0]], [[0.5, 0], [0, 0]]]]),
], ids=["readme-eta", "readme-hermitian", "random-state", "custom-model"])
def test_summary_config_reproduces_the_run(tmp_path, cfg_dict):
    """The summary's config lists every value the run used: fed back to
    ``run``, it gives the same trajectory and summary, byte for byte."""
    (tmp_path / "again").mkdir()
    first = write_config(tmp_path / "job.json", cfg_dict)
    assert main(["run", first, "--output-dir", str(tmp_path / "a")]) == 0
    config = json.loads((tmp_path / "a" / "job_summary.json").read_text())["config"]
    assert config.pop("package_version") == qbundle.__version__
    again = write_config(tmp_path / "again" / "job.json", config)
    assert main(["run", again, "--output-dir", str(tmp_path / "b")]) == 0
    for name in ("job_trajectory.csv", "job_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("cfg_dict", [
    base_config(),
    _readme_with(scales={"kind": "constant", "xi": 2}, curve={"kind": "circle", "theta0": 1}),
    custom_config(connection=[[[[0, 0], [2, 0]], [[0.5, 0], [0, 0]]]]),
])
def test_resolving_a_resolved_config_changes_nothing(cfg_dict):
    resolved = resolve_config(cfg_dict)
    assert resolve_config(resolved) == resolved
    assert resolved["stepper"]["target_local_error"] == StepperConfig().target_local_error
    assert set(resolved["check_tolerances"]) == set(CHECK_TOLERANCES)


def test_sweep_over_an_integer_key(tmp_path, monkeypatch):
    """``sweep`` writes its values as floats; an integer key takes 3.0 as 3."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict.update(initial_state="random", outputs=["summary"])
    cfg = write_config(tmp_path / "job.json", cfg_dict)
    assert main(["sweep", cfg, "--param", "seed", "--values", "3,4"]) == 0
    rows = (tmp_path / "job_sweep.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["3", "4"]
    assert float(rows[2].split(",")[-1]) > 1e-3


# ----------------------------------------------- propagator-first sweeps


def great_circle_config():
    """The single-chart adaptive great circle of the benchmark's sweep jobs."""
    return {
        "model": "s2-two-level",
        "curve": {"kind": "great-circle", "inclination": 0.43, "offset": 1.1},
        "energy": {"epsilon": 0.8, "direction": [0.2, -0.3, 0.93]},
        "stepper": {"method": "rk4-adaptive", "dt": 1e-3, "target_local_error": 1e-12},
        "initial_state": [[0.6, 0.1], [0.3, -0.5]],
        "outputs": ["summary"],
        "seed": 5,
    }


def solo_sweep_csv(cfg_dict, param, values):
    """The sweep CSV of ``values`` written from one solo run per value, the
    way a sweep that rebuilds and re-runs each value writes it."""
    rows, first = [], None
    for v in values:
        variant = json.loads(json.dumps(cfg_dict))
        _set_by_path(variant, param, v)
        _, result, summary = _run_one(variant)
        if first is None:
            first = result.final_state
            rows.append([param] + [f"{p}_psi_{k}" for k in range(len(first)) for p in ("re", "im")]
                        + ["norm_drift", "delta_vs_first"])
        cells = [v, *(x for pair in summary["final_state"] for x in pair), summary["norm_drift"],
                 float(max_abs(result.final_state - first))]
        rows.append(["" if x is None else f"{x:.17g}" for x in cells])
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_initial_state_sweep_builds_the_system_once(tmp_path, monkeypatch, capsys):
    """A sweep over initial_state.* builds and evolves one system for all its
    values; a sweep over any other path rebuilds and re-runs each value."""
    monkeypatch.chdir(tmp_path)
    builds = counting(monkeypatch, qbundle.twolevel, "build_system")
    evolves = counting(monkeypatch, qbundle.cli, "evolve_across_patches")
    cfg = write_config(tmp_path / "job.json", great_circle_config())
    assert main(["sweep", cfg, "--param", "initial_state.1.1", "--values=-0.4,0.1,0.5"]) == 0
    assert (len(builds), len(evolves)) == (1, 1)
    builds.clear()
    evolves.clear()
    assert main(["sweep", cfg, "--param", "curve.offset", "--values", "1.1,1.2,1.3"]) == 0
    assert (len(builds), len(evolves)) == (3, 3)
    capsys.readouterr()


@pytest.mark.parametrize("cfg_dict", [
    great_circle_config(),
    dict(great_circle_config(), representation="hermitian"),
    dict(base_config(), outputs=["summary"]),
    dict(base_config(), stepper={"method": "rk4-adaptive", "dt": 5e-3}),
    dict(base_config(), representation="hermitian",
         stepper={"method": "rk4-adaptive", "dt": 5e-3}),
], ids=["circle-adaptive", "circle-adaptive-hermitian", "meridian-fixed",
        "meridian-adaptive", "meridian-adaptive-hermitian"])
def test_initial_state_sweep_rows_are_the_solo_runs(cfg_dict):
    """Evolved as columns of one state, each value accepts its solo step
    count here and gives its solo run bit for bit."""
    variants = []
    for v in (-0.5, 0.05, 0.45):
        variants.append(json.loads(json.dumps(cfg_dict)))
        _set_by_path(variants[-1], "initial_state.1.0", v)
    for variant, (result, summary) in zip(variants, _run_many(variants)[1]):
        _, solo, solo_summary = _run_one(variant)
        assert np.array_equal(result.times, solo.times)
        assert np.array_equal(result.states, solo.states)
        assert np.array_equal(result.eta_norm, solo.eta_norm)
        assert ({k: v for k, v in summary.items() if k != "config"}
                == {k: v for k, v in solo_summary.items() if k != "config"})


def test_a_batch_takes_the_step_count_of_its_worst_column():
    """Every column must meet the adaptive target, so a small state that
    alone is accepted at 100 steps runs at the 200 its batch needs, and stays
    within its own target of its solo run."""
    cfg_dict = great_circle_config()
    cfg_dict["stepper"] = {"method": "rk4-adaptive", "dt": 1e-2, "target_local_error": 1e-12}
    small = json.loads(json.dumps(cfg_dict))
    small["initial_state"] = [[0.006, 0.001], [0.003, -0.005]]
    [(big_row, _), (small_row, _)] = _run_many([cfg_dict, small])[1]
    _, big_solo, _ = _run_one(cfg_dict)
    _, small_solo, _ = _run_one(small)
    assert [len(r.times) - 1 for r in (big_solo, small_solo, big_row, small_row)] == [
        200, 100, 200, 200]
    assert np.array_equal(big_row.states, big_solo.states)
    assert max_abs(small_row.final_state - small_solo.final_state) <= 1e-12 * 100


@pytest.mark.parametrize("cfg_dict, param, values", [
    (base_config(), "tau", [0.3, 0.5, 0.7]),
    (base_config(), "stepper.dt", [0.005, 0.0025]),
    (great_circle_config(), "initial_state.1.1", [-0.4, 0.1, 0.5]),
], ids=["tau", "stepper.dt", "initial_state"])
def test_sweep_csv_is_the_rows_of_the_solo_runs(tmp_path, monkeypatch, capsys,
                                                cfg_dict, param, values):
    """Whether a sweep re-runs each value (tau, stepper.dt) or evolves them
    as columns of one state (initial_state), its CSV is byte for byte the
    one written from the solo runs."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "job.json", cfg_dict)
    assert main(["sweep", cfg, "--param", param,
                 "--values=" + ",".join(map(str, values))]) == 0
    capsys.readouterr()
    assert (tmp_path / "job_sweep.csv").read_bytes() == solo_sweep_csv(cfg_dict, param, values)


def test_successive_main_calls_parse_independently(tmp_path, monkeypatch, capsys):
    """The parser is built once per process, and each call parses its own
    arguments: no option or default carries over from an earlier call."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "job.json", base_config())
    other = base_config()
    other["energy"] = {"epsilon": 0.81, "direction": [0.2, -0.3, 0.93]}
    other = write_config(tmp_path / "other.json", other)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "elsewhere")]) == 0
    assert (tmp_path / "elsewhere" / "job_summary.json").exists()
    assert main(["sweep", cfg, "--param", "tau", "--values", "0.4,0.6"]) == 0
    assert (tmp_path / "job_sweep.csv").exists()
    assert not (tmp_path / "elsewhere" / "job_sweep.csv").exists()
    assert main(["compare", cfg, other, "--tol", "1"]) == 0
    assert main(["compare", cfg, other]) == 1  # the default tolerance, 1e-6, again
    capsys.readouterr()
    assert qbundle.cli._build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("representation", ["eta", "hermitian"])
def test_seeded_defect_fails_the_check_under_rk4_adaptive(tmp_path, monkeypatch, capsys,
                                                          representation):
    """Magnus-6 never makes Omega anti-Hermitian, so the planted defect still
    breaks norm conservation in either picture."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = base_config()
    cfg_dict.update(defect={"omega_anti_hermitian": 0.05}, representation=representation,
                    stepper={"method": "rk4-adaptive", "dt": 5e-3})
    cfg = write_config(tmp_path / "broken.json", cfg_dict)
    assert main(["check", cfg]) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "broken_invariants.json").read_text())
    by_name = {r["name"]: r for r in report["checks"]}
    assert not by_name["metric-compatibility"]["passed"]
    assert not by_name["norm-conservation"]["passed"]


def test_three_level_adaptive_run_exponentiates_through_scipy_expm(tmp_path, monkeypatch):
    """A 3x3 custom model under rk4-adaptive runs Magnus-6 with scipy's
    expm, as linalg.matrix_exp does, and agrees with a fine rk4-fixed run."""
    monkeypatch.chdir(tmp_path)
    cfg_dict = custom_config(connection=[[[[0, 0], [1, 0], [0, 0]],
                                          [[0.5, 0], [0, 0], [0, 0.25]],
                                          [[0, 0], [0, -1 / 6], [0, 0]]]])
    cfg_dict["eta"] = [[[1, 0], [0, 0], [0, 0]],
                       [[0, 0], [2, 0], [0, 0]],
                       [[0, 0], [0, 0], [3, 0]]]
    cfg_dict["energy_hermitian"] = [[[1, 0], [0.2, 0], [0, 0]],
                                    [[0.2, 0], [0, 0], [0, 0]],
                                    [[0, 0], [0, 0], [-1, 0]]]
    cfg_dict["initial_state"] = [[1, 0], [0.3, 0.2], [0, -0.5]]
    cfg_dict["stepper"] = {"method": "rk4-adaptive", "dt": 1e-2, "target_local_error": 1e-12}
    exps = counting(monkeypatch, scipy.linalg, "expm")
    _, result, summary = _run_one(cfg_dict)
    assert summary["integrator"] == "magnus-6" and len(exps) >= 2
    assert summary["norm_drift"] <= 1e-12
    fine = dict(cfg_dict, stepper={"method": "rk4-fixed", "dt": 1e-4})
    _, reference, reference_summary = _run_one(fine)
    assert reference_summary["integrator"] == "rk4"
    assert max_abs(result.final_state - reference.final_state) <= 1e-11
