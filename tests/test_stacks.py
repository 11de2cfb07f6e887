"""Stacked evaluation: every layer that takes a stack of points or times
returns exactly its row-by-row evaluation, applies the same checks to every
row, and lets the integrators evaluate a chart segment in one call."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paper_identities as paper
from qbundle import bundle, cli, linalg, stepping
from qbundle import twolevel as tl
from qbundle.bundle import (
    SystemSpec,
    TransitionFunctionField,
    big_g,
    check_section_compatibility,
    evolve_across_patches,
    tilde_eta,
    transform_observable,
    transform_state,
    unitarity_defect,
)
from qbundle.connection import ConnectionForm, gauge_transform_connection
from qbundle.dynamics import hermitian_representation
from qbundle.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotUnitary,
    OutOfOverlap,
    OutOfPatch,
)
from qbundle.linalg import (
    SIGMA3,
    contract,
    hermitian_sqrt,
    max_abs,
    over_points,
    pauli_dot,
    stacked,
)
from qbundle.metric import (
    MetricField,
    MetricOperator,
    pseudo_hermiticity_residual,
    split_pseudo,
)
from qbundle.stepping import StepperConfig

ALPHA = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.4, -0.15))
ENERGY = tl.constant_energy(0.8, (0.2, -0.3, 0.93))
EXAMPLES = settings(max_examples=20, deadline=None)


def wavy_scales() -> tl.ScaleFields:
    """Scale fields given as plain pointwise ``math`` lambdas (not stacked)."""
    return tl.ScaleFields(
        xi=tl.ScalarField(lambda th, ph: 1.2 + 0.3 * math.sin(th) * math.cos(ph),
                          lambda th, ph: 0.3 * math.cos(th) * math.cos(ph),
                          lambda th, ph: -0.3 * math.sin(th) * math.sin(ph)),
        zeta=tl.ScalarField(lambda th, ph: 0.8 + 0.2 * math.cos(th),
                            lambda th, ph: -0.2 * math.sin(th)),
        xi_tilde=tl.ScalarField(lambda th, ph: 1.0 + 0.25 * math.sin(th) * math.sin(ph)),
        zeta_tilde=tl.ScalarField(lambda th, ph: 1.5 + 0.1 * math.cos(th) * math.sin(ph),
                                  lambda th, ph: -0.1 * math.sin(th) * math.sin(ph),
                                  lambda th, ph: 0.1 * math.cos(th) * math.cos(ph)),
    )


SCALES = {"default": tl.default_scales(), "wavy": wavy_scales()}


def chart_points(patch):
    """Stacks (n, 2) of points inside the chart, away from its boundary."""
    if patch == tl.PLUS:
        theta = st.floats(0.05, tl.THETA_PLUS_DEFAULT - 0.05)
    else:
        theta = st.floats(tl.THETA_MINUS_DEFAULT + 0.05, np.pi - 0.05)
    point = st.tuples(theta, st.floats(-np.pi, 3.0 * np.pi))
    return st.lists(point, min_size=1, max_size=6).map(lambda p: np.array(p, dtype=float))


def overlap_points():
    """Stacks (n, 2) of points inside the chart overlap, away from its edges."""
    theta = st.floats(tl.THETA_MINUS_DEFAULT + 0.05, tl.THETA_PLUS_DEFAULT - 0.05)
    point = st.tuples(theta, st.floats(-np.pi, 3.0 * np.pi))
    return st.lists(point, min_size=1, max_size=6).map(lambda p: np.array(p, dtype=float))


def assert_rows(stack, rows):
    """The stacked result equals the row-by-row results to 1e-14 (relative to
    the size of the entries, floored at 1)."""
    rows = np.array(rows)
    assert np.shape(stack) == rows.shape
    assert max_abs(stack - rows) <= 1e-14 * max(1.0, max_abs(rows))


def assert_stacks_rows(fn, *stacks):
    """fn on whole stacks equals fn on each row of them."""
    assert_rows(fn(*stacks), [fn(*row) for row in zip(*stacks)])


# ------------------------------------------------------------- closed forms


@EXAMPLES
@given(data=st.data(), patch=st.sampled_from([tl.PLUS, tl.MINUS]),
       scales=st.sampled_from(sorted(SCALES)))
def test_closed_forms_broadcast_row_by_row(data, patch, scales):
    pts = data.draw(chart_points(patch))
    vel = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * len(pts),
                             max_size=2 * len(pts)))
    th, ph = pts[:, 0], pts[:, 1]
    th_dot, ph_dot = np.reshape(vel, (2, -1))
    s = SCALES[scales]
    for fn in (tl.eta_matrix, tl.eta_partials, tl.rho_matrix, tl.rho_inverse_matrix,
               tl.a_zero_closed):
        assert_stacks_rows(lambda t, p: fn(t, p, s, patch), th, ph)
    for fn in (tl.omega_hermitian, tl.omega_lower):
        assert_stacks_rows(lambda t, p: fn(t, p, s, ALPHA, patch), th, ph)
    for fn in (tl.gamma_plus, paper.gamma_minus, tl.gamma_zero, tl.gamma_minus_conjugated,
               tl.unit_vector, tl.unit_vector_mirror):
        assert_stacks_rows(fn, th, ph)
    for j in (1, 2, 3):
        assert_stacks_rows(lambda t, p: tl.sigma_tilde(j, t, p), th, ph)
    assert_stacks_rows(lambda t, p: paper.gamma_total(t, p, s), th, ph)
    assert_stacks_rows(lambda t, p: tl.energy_matrix(t, p, ENERGY, patch), th, ph)
    assert_stacks_rows(lambda t, p, td, pd: paper.h_rho_term(t, p, td, pd, s, patch),
                       th, ph, th_dot, ph_dot)
    assert_stacks_rows(lambda t, p, td, pd: tl.hermitian_hamiltonian(
        t, p, td, pd, ALPHA, ENERGY, patch), th, ph, th_dot, ph_dot)


@EXAMPLES
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), dim=st.integers(1, 4))
def test_linalg_broadcasts_row_by_row(seed, n, dim):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    positive = m @ m.conj().swapaxes(-1, -2) + 0.1 * np.eye(dim)
    assert_stacks_rows(hermitian_sqrt, positive)
    assert_stacks_rows(linalg.matmul, m, positive)
    op, rows = MetricOperator(positive), [MetricOperator(p) for p in positive]
    for name in ("root_eigvals", "eigvecs"):
        assert_rows(getattr(op, name), [getattr(r, name) for r in rows])
    assert_rows(pseudo_hermiticity_residual(m, op),
                max(pseudo_hermiticity_residual(x, r) for x, r in zip(m, rows)))
    for part in (0, 1):
        assert_rows(split_pseudo(m, op)[part], [split_pseudo(x, r)[part] for x, r in zip(m, rows)])
    coeffs = rng.standard_normal((n, 3))
    assert_rows(pauli_dot(coeffs), [pauli_dot(c) for c in coeffs])
    assert_rows(contract(coeffs, m[:, None].repeat(3, axis=1)),
                [contract(c, [x] * 3) for c, x in zip(coeffs, m)])


# ------------------------------------------------------------- generic layers


@EXAMPLES
@given(data=st.data(), patch=st.sampled_from([tl.PLUS, tl.MINUS]),
       scales=st.sampled_from(sorted(SCALES)))
def test_fields_and_operators_stack_row_by_row(data, patch, scales):
    pts = data.draw(chart_points(patch))
    vel = np.reshape(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * len(pts),
                                        max_size=2 * len(pts))), (-1, 2))
    system = tl.build_system(tl.circle_curve(1.0), scales=SCALES[scales], alpha=ALPHA,
                             energy=ENERGY)
    metric = system.patch(patch).metric
    for fn in (metric.eta, metric.partials):
        assert_stacks_rows(fn, pts)
    assert list(metric.contains(pts)) == [metric.contains(r) for r in pts]
    assert_stacks_rows(metric.eta_dot, pts, vel)
    op = metric.operator(pts)
    eta_dot = metric.eta_dot(pts, vel)
    for name in ("rho", "rho_inv", "eta_inv", "root_eigvals", "eigvecs"):
        assert_rows(getattr(op, name), [getattr(metric.operator(r), name) for r in pts])
    assert_rows(op.root_derivative(eta_dot),
                [metric.operator(r).root_derivative(e) for r, e in zip(pts, eta_dot)])
    defected = cli._apply_connection_defect(system, 0.05)
    for sys_ in (system, defected):
        conn = sys_.patch(patch).connection
        assert_stacks_rows(conn.components, pts)
        assert_stacks_rows(conn.contracted, pts, vel)
    assert_stacks_rows(lambda r: system.energy.matrix(patch, r), pts)


@EXAMPLES
@given(us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       scales=st.sampled_from(sorted(SCALES)), defect=st.booleans())
def test_generators_stack_row_by_row(us, scales, defect):
    curve = tl.meridian_curve(0.3, np.pi / 6, 5 * np.pi / 6)
    system = tl.build_system(curve, scales=SCALES[scales], alpha=ALPHA, energy=ENERGY)
    if defect:
        system = cli._apply_connection_defect(system, 0.05)
    for (ta, tb), pid in system.segments():
        ts = ta + np.array(us) * (tb - ta)
        for gen in (system.generator(pid), system.hermitian_generator(pid),
                    system.energy_generator(pid)):
            assert getattr(gen, "stacked", False)
            assert_stacks_rows(gen, ts)
        cm = system.curve_metric(pid)
        for fn in (cm.eta, cm.eta_dot, cm.rho, cm.rho_dot,
                   functools.partial(cm.rho_dot, method="fd")):
            assert_stacks_rows(fn, ts)
        h = system.generator(pid)(ts)
        assert_rows(hermitian_representation(h, cm, ts),
                    [hermitian_representation(x, cm, t) for x, t in zip(h, ts)])


@pytest.mark.parametrize("scales", ["default", "constant", "wavy"])
def test_hermitian_generator_matches_the_closed_form(scales):
    """On each segment of the README meridian the system's Hermitian generator
    equals the model's closed-form h, which holds no scale fields: default,
    constant and pointwise scales (tilde partials by finite differences)."""
    s = {"constant": tl.constant_scales(1.3, 0.7, 1.1, 0.9), **SCALES}[scales]
    curve = tl.meridian_curve(0.3, np.pi / 6, 5 * np.pi / 6)
    system = tl.build_system(curve, scales=s, alpha=ALPHA, energy=ENERGY)
    for (ta, tb), pid in system.segments():
        ts = np.linspace(ta, tb, 41)
        (th, ph), (th_dot, ph_dot) = curve.points(ts).T, curve.velocities(ts).T
        closed = tl.hermitian_hamiltonian(th, ph, th_dot, ph_dot, ALPHA, ENERGY, pid)
        assert max_abs(system.hermitian_generator(pid)(ts) - closed) <= 1e-12


def counting_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (a function or a method)."""
    calls, orig = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("energy", [None, ENERGY])
def test_each_generator_factorises_the_metric_at_most_once(monkeypatch, energy):
    """One stacked generator call factorises the metric once with an energy
    section and never without one, and builds neither the partials nor
    rhodot; one hermitian_generator call factorises once and maps through
    the formula for h, bundle.hermitian_from_parts, once."""
    system = tl.build_system(tl.meridian_curve(0.3, np.pi / 6, 5 * np.pi / 6),
                             alpha=ALPHA, energy=energy)
    operators = counting_calls(monkeypatch, MetricField, "operator")
    mapped = counting_calls(monkeypatch, bundle, "hermitian_from_parts")
    partials = counting_calls(monkeypatch, MetricField, "partials")
    rho_dots = counting_calls(monkeypatch, MetricOperator, "root_derivative")
    for (ta, tb), pid in system.segments():
        ts = np.linspace(ta, tb, 9)
        system.generator(pid)(ts)
        assert (len(operators), len(mapped)) == (0 if energy is None else 1, 0)
        assert partials == rho_dots == []
        operators.clear()
        system.hermitian_generator(pid)(ts)
        assert (len(operators), len(mapped), len(partials), len(rho_dots)) == (1, 1, 1, 1)
        for calls in (operators, mapped, partials, rho_dots):
            calls.clear()


# ------------------------------------------------------------- gluing


def gluing_system(scales):
    return tl.build_system(tl.meridian_curve(0.3, np.pi / 6, 5 * np.pi / 6),
                           scales=SCALES[scales], alpha=ALPHA, energy=ENERGY)


def pointwise_transition(scales):
    """The closed-form transition with pointwise callables and finite-difference
    partials, so the stacks go through the per-point calling rule."""
    s = SCALES[scales]
    return TransitionFunctionField(
        tl.PLUS, tl.MINUS, lambda r: tl.transition_g(r[0], r[1], s),
        overlap=lambda r: tl.THETA_MINUS_DEFAULT < r[0] < tl.THETA_PLUS_DEFAULT)


@EXAMPLES
@given(data=st.data(), scales=st.sampled_from(sorted(SCALES)))
def test_gluing_stacks_row_by_row(data, scales):
    pts = data.draw(overlap_points())
    n = len(pts)
    vel = np.reshape(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * n,
                                        max_size=2 * n)), (-1, 2))
    psi = np.reshape(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n,
                                        max_size=4 * n)), (n, 2, 2)) @ [1.0, 1j]
    s = SCALES[scales]
    th, ph = pts[:, 0], pts[:, 1]
    for fn in (tl.transition_g, tl.transition_g_partials, paper.gamma_total_from_definition):
        assert_stacks_rows(lambda t, p: fn(t, p, s), th, ph)
    assert_stacks_rows(tl.big_g_s2, th, ph)

    system = gluing_system(scales)
    plus, minus = system.patch(tl.PLUS), system.patch(tl.MINUS)
    for tf in (system.transition, pointwise_transition(scales)):
        for fn in (tf.g, tf.g_inv, tf.partial_g):
            assert_stacks_rows(fn, pts)
        assert_stacks_rows(tf.g_dot, pts, vel)
        assert_stacks_rows(lambda r, v: transform_state(tf, r, v), pts, psi)
        assert list(tf.in_overlap(pts)) == [tf.in_overlap(r) for r in pts]
    tf = system.transition
    assert_stacks_rows(lambda r: tilde_eta(tf, plus.metric, r), pts)
    assert_stacks_rows(lambda r: big_g(plus.metric, minus.metric, tf, r), pts)
    assert_stacks_rows(lambda r: gauge_transform_connection(plus.connection, tf, r), pts)
    gg = big_g(plus.metric, minus.metric, tf, pts)
    obs = system.energy.matrix(tl.PLUS, pts)
    assert_stacks_rows(transform_observable, obs, gg)
    assert_stacks_rows(unitarity_defect, gg)
    worst = check_section_compatibility(system.energy, tl.PLUS, tl.MINUS, plus.metric,
                                        minus.metric, tf, pts)
    assert isinstance(worst, float)
    assert_rows(worst, max(check_section_compatibility(
        system.energy, tl.PLUS, tl.MINUS, plus.metric, minus.metric, tf, r) for r in pts))


@EXAMPLES
@given(data=st.data(), scales=st.sampled_from(sorted(SCALES)))
def test_gluing_stack_with_one_point_outside_the_overlap_raises(data, scales):
    pts = data.draw(overlap_points())
    bad = (data.draw(st.sampled_from([0.5, 2.5])), 0.3)  # inside one chart only
    k = data.draw(st.integers(0, len(pts)))
    pts = np.insert(pts, k, bad, axis=0)
    psi = np.ones((len(pts), 2), dtype=complex)
    system = gluing_system(scales)
    plus, minus = system.patch(tl.PLUS), system.patch(tl.MINUS)
    calls = [system.transition.g, system.transition.g_inv, system.transition.partial_g,
             lambda r: system.transition.g_dot(r, np.ones_like(r)),
             pointwise_transition(scales).partial_g,
             lambda r: transform_state(system.transition, r, psi),
             lambda r: tilde_eta(system.transition, plus.metric, r),
             lambda r: big_g(plus.metric, minus.metric, system.transition, r),
             lambda r: gauge_transform_connection(plus.connection, system.transition, r),
             lambda r: check_section_compatibility(system.energy, tl.PLUS, tl.MINUS,
                                                   plus.metric, minus.metric,
                                                   system.transition, r)]
    for fn in calls:
        with pytest.raises(OutOfOverlap, match=r"point \[" + str(bad[0])):
            fn(pts)
    assert list(system.transition.in_overlap(pts)) == [i != k for i in range(len(pts))]


@EXAMPLES
@given(data=st.data(), scales=st.sampled_from(sorted(SCALES)))
def test_big_g_names_the_first_inconsistent_point(data, scales):
    """A minus-chart metric scaled by 4 at one point makes G = rho g rho~^{-1}
    half a unitary there; the check names that point's stack index."""
    pts = data.draw(overlap_points())
    k = data.draw(st.integers(0, len(pts)))
    pts = np.insert(pts, k, (1.5, 100.0), axis=0)  # phi outside the drawn range
    s = SCALES[scales]
    wrong = MetricField(
        tl.MINUS,
        lambda r: (4.0 if r[1] == 100.0 else 1.0) * tl.eta_matrix(r[0], r[1], s, tl.MINUS))
    system = gluing_system(scales)
    plus = system.patch(tl.PLUS).metric
    with pytest.raises(NotUnitary, match=rf"stack index \({k},\)"):
        big_g(plus, wrong, system.transition, pts, check_tol=1e-8)
    gg = big_g(plus, wrong, system.transition, pts, check_tol=None)
    with pytest.raises(NotUnitary, match=rf"stack index \({k},\)"):
        transform_observable(np.broadcast_to(SIGMA3, gg.shape), gg)


README_MERIDIAN = {"curve": {"kind": "meridian", "phi0": 0.3,
                             "theta_from": np.pi / 6, "theta_to": 5 * np.pi / 6},
                   "energy": {"epsilon": 0.8, "direction": [0.2, -0.3, 0.93]},
                   "stepper": {"method": "rk4-fixed", "dt": 0.001},
                   "initial_state": [[0.8, 0.0], [-0.2, 0.4]], "seed": 11}


def test_check_battery_factorises_a_few_stacks(monkeypatch):
    """On the README two-chart meridian the battery makes at most 4 eigh
    calls, one per chart and one per chart for G (106 hermitian_sqrt calls
    when the overlap rows went point by point, 6 when each generic generator
    factorised its chart again) and each overlap row still reports
    check_samples samples."""
    cfg = README_MERIDIAN
    system, result, _ = cli._run_one(cfg)
    calls = counting_numpy_factorisations(monkeypatch)
    report = cli.run_checks(cfg, system, result)
    assert report["all_passed"] and 0 < len([c for c in calls if c[0] == "eigh"]) <= 4
    samples = {row["name"]: row["samples"] for row in report["checks"]}
    for name in ("transition-consistency", "intertwiner-unitarity", "section-compatibility"):
        assert samples[name] == 25


@pytest.mark.parametrize("representation", ["eta", "hermitian"])
def test_check_battery_evaluates_each_chart_once(monkeypatch, representation):
    """One README meridian battery, in either picture, evaluates each chart's
    samples once: at most 2 connection-component and 2 metric-partial calls,
    4 eta and 4 eigh calls (one per chart, and one per chart for G); every
    row still passes."""
    cfg = dict(README_MERIDIAN, representation=representation)
    system, result, _ = cli._run_one(cfg)
    counts = {name: counting_calls(monkeypatch, owner, name)
              for owner, name in ((bundle.ConnectionForm, "components"),
                                  (MetricField, "partials"), (MetricField, "eta"))}
    calls = counting_numpy_factorisations(monkeypatch)
    assert cli.run_checks(cfg, system, result)["all_passed"]
    assert len(counts["components"]) <= 2 and len(counts["partials"]) <= 2
    assert len(counts["eta"]) <= 4 and len([c for c in calls if c[0] == "eigh"]) <= 4


@pytest.mark.parametrize("cfg", [
    README_MERIDIAN,
    {"model": "custom-matrix-fields", "patch": "A",
     "eta": [[2.0, 0.3, 0.0], [0.3, 1.5, [0.0, 0.2]], [0.0, [0.0, -0.2], 1.0]],
     "curve": {"kind": "line", "from": [0.0, 0.0], "to": [1.0, 0.5]},
     "energy_hermitian": [[1.0, 0.2, 0.0], [0.2, -0.5, [0.0, 0.1]], [0.0, [0.0, -0.1], 0.3]],
     "connection": [[[0.1, 0.0, 0.2], [0.0, -0.3, 0.0], [0.2, 0.0, 0.4]],
                    [[0.0, [0.0, 0.5], 0.0], [[0.0, -0.5], 0.0, 0.1], [0.0, 0.1, 0.2]]],
     "initial_state": [1.0, 0.0, 0.0]},
], ids=["readme-meridian", "custom-3x3"])
def test_generator_closures_read_the_chart_evaluation(cfg):
    """SystemSpec.generator and hermitian_generator return, bit for bit, the
    H and h of SystemSpec.evaluate on the same times, on every chart."""
    system = cli.build_from_config(cfg)
    for (ta, tb), pid in system.segments():
        ts = np.linspace(ta, tb, 13)[1:-1]
        ev = system.evaluate(pid, ts)
        assert np.array_equal(system.generator(pid)(ts), ev.big_h)
        assert np.array_equal(system.hermitian_generator(pid)(ts), ev.h)


def counting_numpy_factorisations(monkeypatch):
    """Record (name, array shape) of every np.linalg.eigh and inv call."""
    calls = []
    for name in ("eigh", "inv"):
        def counted(a, *args, _orig=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_readme_meridian_factorises_only_in_its_check(tmp_path, monkeypatch):
    """A run in either picture integrates the closed forms and calls no eigh;
    its check factorises only in the generic oracle, on stacks of
    check_samples points."""
    monkeypatch.chdir(tmp_path)
    calls = counting_numpy_factorisations(monkeypatch)
    for rep in ("eta", "hermitian"):
        path = tmp_path / f"{rep}.json"
        path.write_text(json.dumps(dict(README_MERIDIAN, representation=rep)))
        assert cli.main(["run", str(path)]) == 0
        assert [c for c in calls if c[0] == "eigh"] == []
        assert cli.main(["check", str(path)]) == 0
        eighs = [shape for name, shape in calls if name == "eigh"]
        assert eighs and set(eighs) == {(25, 2, 2)}
        calls.clear()


@pytest.mark.parametrize("dim", [2, 3])
def test_one_eigh_per_metric_operator(monkeypatch, dim):
    """A MetricOperator of any size takes rho, its inverses and the spectrum
    of root_derivative from one eigh of the stack; root_derivative makes none."""
    eta = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2j], [0.0, -0.2j, 1.5]])[:dim, :dim]
    calls = counting_numpy_factorisations(monkeypatch)
    op = MetricOperator(np.array([eta, 2.0 * eta]))
    assert calls == [("eigh", (2, dim, dim))]
    x = op.root_derivative(np.array([np.eye(dim), eta]))
    assert calls == [("eigh", (2, dim, dim))]
    assert max_abs(op.rho @ x + x @ op.rho - np.array([np.eye(dim), eta])) <= 1e-13


def test_three_level_custom_config_takes_the_eigh_route(monkeypatch):
    """N = 3 keeps the generic route, and both pictures still follow the
    exact solution of the constant generator rho^-1 e rho."""
    eta = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2j], [0.0, -0.2j, 1.5]])
    e = np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.1j], [0.0, -0.1j, 0.2]])
    psi0 = np.array([1.0, 0.3 + 0.2j, -0.4j])
    as_json = lambda m: [[[x.real, x.imag] for x in row] for row in m]
    cfg = {"model": "custom-matrix-fields", "eta": as_json(eta), "energy_hermitian": as_json(e),
           "curve": {"kind": "line", "from": [0.0], "to": [1.0]},
           "initial_state": [[x.real, x.imag] for x in psi0], "stepper": {"dt": 1e-3}}
    rho, u = hermitian_sqrt(eta), linalg.matrix_exp(-1j * e)
    finals = {"eta": np.linalg.solve(rho, u @ rho @ psi0), "hermitian": u @ psi0}
    calls = counting_numpy_factorisations(monkeypatch)
    for rep, expected in finals.items():
        system, result, _ = cli._run_one(dict(cfg, representation=rep))
        assert max_abs(result.final_state - expected) <= 1e-10
        assert cli.run_checks(dict(cfg, representation=rep), system, result)["all_passed"]
    kinds = {(name, shape[-2:]) for name, shape in calls}
    assert ("eigh", (3, 3)) in kinds and ("inv", (3, 3)) in kinds
    assert [c for c in kinds if c[1] == (2, 2)] == []


# ------------------------------------------------------------- checks per row


@EXAMPLES
@given(data=st.data(), patch=st.sampled_from([tl.PLUS, tl.MINUS]))
def test_stack_with_one_out_of_chart_point_raises(data, patch):
    pts = data.draw(chart_points(patch))
    bad = (2.5 if patch == tl.PLUS else 0.5, 0.3)
    k = data.draw(st.integers(0, len(pts)))
    pts = np.insert(pts, k, bad, axis=0)
    system = tl.build_system(tl.circle_curve(1.0))
    metric, conn = system.patch(patch).metric, system.patch(patch).connection
    for fn in (metric.eta, metric.operator, metric.partials, conn.components):
        with pytest.raises(OutOfPatch, match=r"point \[" + str(bad[0])):
            fn(pts)
    assert list(metric.contains(pts)) == [i != k for i in range(len(pts))]


@EXAMPLES
@given(xs=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=6), data=st.data())
def test_stack_with_one_indefinite_eta_raises(xs, data):
    field = MetricField("main", lambda r: np.diag([1.0, r[0]]).astype(complex), dim=1)
    k = data.draw(st.integers(0, len(xs)))
    pts = np.insert(np.array(xs), k, data.draw(st.floats(-5.0, 0.0)))[:, None]
    field.eta(pts)  # the metric itself is well formed
    with pytest.raises(NotPositiveDefinite, match=rf"stack index \({k},\)"):
        field.operator(pts)


def edge_fn(r):
    """diag(1, x) for x <= 3 and NaN beyond, as a pointwise callable of (1,)
    points: finite at every x <= 3, with a NaN central difference at x = 3."""
    return np.diag([1.0, r[0] if r[0] <= 3.0 else np.nan]).astype(complex)


def positive(r):
    return r[0] > 0.0


#: each chart-field kind: (field, its value method, error off the region, region text)
CHART_FIELDS = {
    "metric": (MetricField("main", edge_fn, dim=1, domain=positive), "eta",
               OutOfPatch, "patch 'main'"),
    "connection": (ConnectionForm("main", lambda r: edge_fn(r)[None], dim=1, domain=positive),
                   "components", OutOfPatch, "patch 'main'"),
    "transition": (TransitionFunctionField("a", "b", edge_fn, overlap=positive, dim=1), "g",
                   OutOfOverlap, "the overlap of charts 'a' and 'b'"),
}


@pytest.mark.parametrize("kind", sorted(CHART_FIELDS))
def test_chart_field_contract(kind):
    """Every chart-field kind evaluates a stack row by row, names the first
    point outside its region with its own error, and names the stack index
    of a non-finite value (the point first, then any coordinate axis)."""
    field, method, error, region = CHART_FIELDS[kind]
    value = getattr(field, method)
    pts = np.array([[0.5], [1.5], [2.5]])
    assert_stacks_rows(value, pts)
    with pytest.raises(error, match=r"point \[-1\.\] is outside " + region):
        value(np.array([[0.5], [-1.0], [-2.0]]))
    with pytest.raises(DimensionMismatch, match=r"non-finite entries \(stack index \(1,"):
        value(np.array([[0.5], [4.0], [5.0]]))
    with pytest.raises(DimensionMismatch, match=r"expected 1-vectors of coordinates, got shape \(2,\)"):
        value(np.array([0.5, 1.5]))


@pytest.mark.parametrize("kind, partials", [("metric", "partials"), ("transition", "partial_g")])
def test_finite_difference_partials_name_a_non_finite_point(kind, partials):
    """Without a partials callable, a central difference that reaches a NaN
    value is rejected like an analytic partial, naming its stack index."""
    field, method, _, _ = CHART_FIELDS[kind]
    pts = np.array([[1.0], [3.0]])
    getattr(field, method)(pts)  # the values themselves are finite
    with pytest.raises(DimensionMismatch,
                       match=rf"partial of {method} contains non-finite entries \(stack index \(1,"):
        getattr(field, partials)(pts)


def test_over_points_calling_rule():
    calls = []

    def pointwise(t):
        calls.append(t)
        return np.eye(2) * t

    @stacked
    def whole(ts):
        calls.append(len(ts))
        return ts[:, None, None] * np.eye(2)

    ts = np.array([0.5, 1.5, 2.5])
    assert np.array_equal(over_points(pointwise, ts), over_points(whole, ts))
    assert calls == [0.5, 1.5, 2.5, 3] and all(type(c) is float for c in calls[:3])
    with pytest.raises(DimensionMismatch):
        over_points(stacked(lambda ts: np.eye(2)), ts)


# ------------------------------------------------------------- integrators


def counting_generators(monkeypatch, name="run_generator"):
    """Record the length of every stack passed to the closures of the
    SystemSpec generator factory ``name``: by default the generator a run
    integrates, closed-form or generic."""
    stacks = []
    factory = getattr(SystemSpec, name)

    def generator(self, *args):
        h = factory(self, *args)

        @functools.wraps(h)
        def counted(t):
            stacks.append(np.size(t))
            return h(t)

        return counted

    monkeypatch.setattr(SystemSpec, name, generator)
    return stacks


def readme_system():
    return tl.build_system(tl.meridian_curve(0.3, np.pi / 6, 5 * np.pi / 6), energy=ENERGY)


def test_fixed_steps_call_the_generator_once_per_chart_segment(monkeypatch):
    """Counted on the generator the run integrates, the closed form here;
    the generic SystemSpec.generator is never called."""
    generic = counting_generators(monkeypatch, "generator")
    stacks = counting_generators(monkeypatch)
    res = evolve_across_patches(readme_system(), np.array([0.8, -0.2 + 0.4j]),
                                stepper=StepperConfig(dt=1e-3))
    assert len(stacks) == 2  # two chart segments, one call each
    assert sum(stacks) == 2 * (len(res.times) - 2) + 2  # 2n+1 nodes per segment
    assert generic == []


def test_fixed_steps_call_the_generic_generator_once_per_chart_segment(monkeypatch):
    """The same pin on the same system with the closed-form slot emptied,
    where the run integrates SystemSpec.generator."""
    stacks = counting_generators(monkeypatch, "generator")
    system = dataclasses.replace(readme_system(), closed=None)
    res = evolve_across_patches(system, np.array([0.8, -0.2 + 0.4j]),
                                stepper=StepperConfig(dt=1e-3))
    assert len(stacks) == 2  # two chart segments, one call each
    assert sum(stacks) == 2 * (len(res.times) - 2) + 2  # 2n+1 nodes per segment


def test_fixed_chunks_share_their_boundary_node(monkeypatch):
    """Each chunk of fixed steps is one call and no node is evaluated twice.
    Each chunk's states are the scan of its step matrices from the previous
    chunk's last state, bit for bit, so chunked and whole runs agree to
    rounding."""
    evals = []

    @stacked
    def h(ts):
        evals.append(len(ts))
        return np.cos(ts)[:, None, None] * np.array([[1.0, 0.3j], [-0.3j, 2.0]])

    psi0, config = np.array([1.0, 0.5j]), StepperConfig(dt=0.05)
    _, whole = stepping.integrate(h, psi0, 0.0, 1.0, config)
    assert evals == [41]  # 20 steps: 2*20+1 nodes in one call
    monkeypatch.setattr(stepping, "FIXED_CHUNK_STEPS", 7)
    evals.clear()
    _, chunked = stepping.integrate(h, psi0, 0.0, 1.0, config)
    assert evals == [15, 14, 12]  # chunks of 7, 7 and 6 steps
    steps = stepping.rk4_steps(h)(np.arange(21) * 0.05, 0.05)
    assert np.array_equal(whole[1:], stepping._scan(steps, psi0))
    for a in (0, 7, 14):
        b = min(a + 7, 20)
        assert np.array_equal(chunked[a + 1:b + 1], stepping._scan(steps[a:b], chunked[a]))
    assert max_abs(whole - chunked) <= 1e-14


# ------------------------------------------------------------- great circle


@pytest.mark.parametrize("inclination", [0.05, 0.43, 1.0, 1.5])
@pytest.mark.parametrize("offset", [0.0, 1.3, -2.0, 3.1, 7.5])
def test_great_circle_phi_matches_dense_unwrap(inclination, offset):
    """The analytic branch of phi equals np.unwrap of atan2 on a dense grid,
    starting from atan2's principal value at t_start."""
    curve = tl.great_circle_curve(inclination, t_start=0.5, t_end=2.0, revolutions=1.5,
                                  offset=offset)
    ts = np.linspace(0.5, 2.0, 40001)
    s = offset + 2.0 * np.pi * 1.5 / 1.5 * (ts - 0.5)
    reference = np.unwrap(np.arctan2(np.sin(s), math.cos(inclination) * np.cos(s)))
    pts = curve.points(ts)
    assert max_abs(pts[:, 1] - reference) <= 1e-12
    assert max_abs(np.cos(pts[:, 0]) + math.sin(inclination) * np.cos(s)) <= 1e-12
    for k in (0, 1234, 40000):
        assert np.array_equal(curve.position(ts[k]), pts[k])
