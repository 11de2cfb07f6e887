"""The two-level model's closed-form generators, which a run integrates, against
the generic generators that stay their cross-check: runs with the slot filled
and emptied agree, the chart checks are the same, and ``check`` compares the
two on every run."""

import dataclasses
import math
import re

import numpy as np
import pytest

from qbundle import cli
from qbundle import twolevel as tl
from qbundle.bundle import evolve_across_patches
from qbundle.errors import OutOfPatch, PoleAmbiguity
from qbundle.linalg import max_abs, pauli_dot
from qbundle.stepping import StepperConfig

ALPHA = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.4, -0.15))
ENERGY = tl.constant_energy(0.8, (0.2, -0.3, 0.93))
PSI0 = np.array([0.8, -0.2 + 0.4j])
README_MERIDIAN = {"curve": {"kind": "meridian", "phi0": 0.3,
                             "theta_from": np.pi / 6, "theta_to": 5 * np.pi / 6},
                   "energy": {"epsilon": 0.8, "direction": [0.2, -0.3, 0.93]},
                   "stepper": {"method": "rk4-fixed", "dt": 0.001},
                   "initial_state": [[0.8, 0.0], [-0.2, 0.4]], "seed": 11}


def wavy_scales() -> tl.ScaleFields:
    return tl.ScaleFields(
        xi=tl.ScalarField(lambda th, ph: 1.2 + 0.3 * math.sin(th) * math.cos(ph),
                          lambda th, ph: 0.3 * math.cos(th) * math.cos(ph),
                          lambda th, ph: -0.3 * math.sin(th) * math.sin(ph)),
        zeta=tl.ScalarField(lambda th, ph: 0.8 + 0.2 * math.cos(th),
                            lambda th, ph: -0.2 * math.sin(th),
                            lambda th, ph: 0.0),
        xi_tilde=tl.ScalarField(lambda th, ph: 1.0 + 0.25 * math.sin(th) * math.sin(ph),
                                lambda th, ph: 0.25 * math.cos(th) * math.sin(ph),
                                lambda th, ph: 0.25 * math.sin(th) * math.cos(ph)),
        zeta_tilde=tl.ScalarField(lambda th, ph: 1.5 + 0.1 * math.cos(th) * math.sin(ph),
                                  lambda th, ph: -0.1 * math.sin(th) * math.sin(ph),
                                  lambda th, ph: 0.1 * math.cos(th) * math.cos(ph)),
    )


def wavy_system(curve=None):
    curve = curve or tl.meridian_curve(0.3, np.pi / 6, 5 * np.pi / 6)
    return tl.build_system(curve, scales=wavy_scales(), alpha=ALPHA, energy=ENERGY)


@pytest.mark.parametrize("stepper", [StepperConfig(dt=5e-3),
                                     StepperConfig("rk4-adaptive", dt=5e-3,
                                                   target_local_error=1e-10)],
                         ids=["rk4-fixed", "rk4-adaptive"])
@pytest.mark.parametrize("representation", ["eta", "hermitian"])
@pytest.mark.parametrize("charts", [(tl.PLUS, tl.MINUS), (tl.MINUS, tl.PLUS)],
                         ids=["plus-minus", "minus-plus"])
def test_closed_and_generic_runs_agree(charts, representation, stepper):
    """With wavy scales and a non-zero alpha, the run on the closed forms and
    the run with the slot emptied agree within 1e-12 over a two-chart
    meridian, switching either way: states, eta-norms and energy
    expectations."""
    ends = (np.pi / 6, 5 * np.pi / 6)
    closed = wavy_system(tl.meridian_curve(1.1, *(ends if charts[0] == tl.PLUS else ends[::-1])))
    generic = dataclasses.replace(closed, closed=None)
    a, b = (evolve_across_patches(s, PSI0, stepper=stepper, representation=representation)
            for s in (closed, generic))
    assert np.array_equal(a.times, b.times) and a.patch_trace == b.patch_trace
    assert (a.patch_trace[0], a.patch_trace[-1]) == charts
    for name in ("states", "eta_norm", "energy_expect"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert max_abs(x - y) <= 1e-12, name


@pytest.mark.parametrize("patch", [tl.PLUS, tl.MINUS])
def test_closed_generators_match_the_generic_ones(patch):
    """On a stack of the chart's segment, and at one time, each closed
    generator equals its generic twin: h, H and H_E."""
    system = wavy_system()
    generic = dataclasses.replace(system, closed=None)
    (ta, tb), _ = next(seg for seg in system.segments() if seg[1] == patch)
    ts = np.linspace(ta, tb, 33)
    pairs = [(system.run_generator(patch, True), generic.hermitian_generator(patch)),
             (system.run_generator(patch), generic.generator(patch)),
             (system.run_energy(patch), generic.energy_generator(patch))]
    for run, oracle in pairs:
        assert max_abs(run(ts) - oracle(ts)) <= 1e-12
        assert max_abs(run(ts[5]) - run(ts)[5]) <= 1e-14


def test_closed_rho_dot_solves_the_sylvester_equation():
    """tl.rho_dot_matrix equals the generic Sylvester rhodot on both charts."""
    system = wavy_system()
    for (ta, tb), pid in system.segments():
        ts = np.linspace(ta, tb, 17)
        (th, ph), (th_dot, ph_dot) = system.curve.points(ts).T, system.curve.velocities(ts).T
        closed = tl.rho_dot_matrix(th, ph, th_dot, ph_dot, wavy_scales(), pid)
        assert max_abs(closed - system.curve_metric(pid).rho_dot(ts)) <= 1e-12


@pytest.mark.parametrize("hermitian", [False, True])
def test_closed_path_names_the_first_node_off_the_chart(hermitian):
    """A closed-path generator at a stack with one node past theta_plus raises
    OutOfPatch with the generic generator's message."""
    system = tl.build_system(tl.meridian_curve(0.3, np.pi / 6, 5 * np.pi / 6), energy=ENERGY)
    generic = dataclasses.replace(system, closed=None)
    ts = np.array([0.1, 0.3, 0.5, 0.9])  # theta(0.9) = 2.41 > theta_plus
    messages = []
    for s in (system, generic):
        with pytest.raises(OutOfPatch) as info:
            s.run_generator(tl.PLUS, hermitian)(ts)
        messages.append(str(info.value))
    assert messages[0] == messages[1] and "2.408" in messages[0]
    with pytest.raises(OutOfPatch, match=re.escape(messages[0])):
        system.run_energy(tl.PLUS)(ts)


def test_minus_chart_h_contracts_sigma_tilde_once(monkeypatch):
    """On the minus chart h builds the sigma~ basis once, for e + alpha(Rdot)
    together, and equals the energy matrix plus the alpha contraction; on
    the plus chart alpha(Rdot) is one Pauli contraction."""
    rng = np.random.default_rng(3)
    th, ph = rng.uniform(1.2, 3.0, 20), rng.uniform(-3.0, 3.0, 20)
    th_dot, ph_dot = rng.uniform(-2.0, 2.0, (2, 20))
    calls, basis = [], tl._sigma_tilde_basis
    monkeypatch.setattr(tl, "_sigma_tilde_basis", lambda *a: calls.append(1) or basis(*a))
    h = tl.hermitian_hamiltonian(th, ph, th_dot, ph_dot, ALPHA, ENERGY, tl.MINUS)
    assert len(calls) == 1
    e = tl.energy_matrix(th, ph, ENERGY, tl.MINUS)
    alpha = tl._along(tl._alpha_matrices(th, ph, ALPHA, tl.MINUS), th_dot, ph_dot)
    gamma = 0.5 * tl._along(tl.gamma_minus_conjugated(th, ph), th_dot, ph_dot)
    assert max_abs(h - (e + alpha + gamma)) <= 1e-14
    plus = tl.hermitian_hamiltonian(th - 1.0, ph, th_dot, ph_dot, ALPHA, None, tl.PLUS)
    vec = th_dot[:, None] * np.array([0.1, -0.2, 0.3]) + ph_dot[:, None] * np.array(
        [0.05, 0.4, -0.15])
    rest = (-0.5 * tl._along(tl.gamma_plus(th - 1.0, ph), th_dot, ph_dot)
            - tl._along(tl.gamma_zero(th - 1.0, ph), th_dot, ph_dot))
    assert max_abs(plus - (pauli_dot(vec) + rest)) <= 1e-14


def test_minus_chart_h_keeps_the_energy_pole_convention():
    """At the south pole the merged sigma~ contraction takes pole_phi when
    there is an energy, as energy_matrix does, and pole_phi=None raises;
    without an energy no convention is needed."""
    gamma = 0.5 * tl._along(tl.gamma_minus_conjugated(np.pi, 2.5), 0.3, 0.0)
    h = tl.hermitian_hamiltonian(np.pi, 2.5, 0.3, 0.0, None, ENERGY, tl.MINUS, pole_phi=0.7)
    assert max_abs(h - tl.energy_matrix(np.pi, 2.5, ENERGY, tl.MINUS, 0.7) - gamma) <= 1e-14
    with pytest.raises(PoleAmbiguity):
        tl.hermitian_hamiltonian(np.pi, 2.5, 0.3, 0.0, None, ENERGY, tl.MINUS, pole_phi=None)
    h = tl.hermitian_hamiltonian(np.pi, 2.5, 0.3, 0.0, None, None, tl.MINUS, pole_phi=None)
    assert max_abs(h - gamma) == 0.0


@pytest.mark.parametrize("representation", ["eta", "hermitian"])
def test_check_compares_the_closed_form_with_the_generic_generator(representation):
    """The closed-form-agreement row appears when the slot is filled, in the
    run's picture, and the summary names the generator that ran; a defect
    run and a custom model integrate the generic generator and get no row."""
    cfg = dict(README_MERIDIAN, representation=representation,
               alpha={"theta": [0.1, -0.2, 0.3], "phi": [0.05, 0.4, -0.15]})
    system, result, summary = cli._run_one(cfg)
    report = cli.run_checks(cfg, system, result)
    rows = {r["name"]: r for r in report["checks"]}
    assert summary["generator"] == "closed-form" and report["all_passed"]
    row = rows["closed-form-agreement"]
    assert row["samples"] == 2 * 25 and row["max_residual"] <= 1e-13
    assert row["tolerance"] == cli.CHECK_TOLERANCES["closed-form-agreement"] == 1e-8
    defect = dict(cfg, defect={"omega_anti_hermitian": 0.05})
    custom = {"model": "custom-matrix-fields", "eta": [[[1, 0], [0, 0]], [[0, 0], [4, 0]]],
              "curve": {"kind": "line", "from": [0.0], "to": [1.0]},
              "representation": representation}
    for other in (defect, custom):
        system, result, summary = cli._run_one(other)
        assert system.closed is None and summary["generator"] == "generic"
        names = {r["name"] for r in cli.run_checks(other, system, result)["checks"]}
        assert "closed-form-agreement" not in names and "no-go-defect" in names
