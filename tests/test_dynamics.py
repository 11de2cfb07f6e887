"""Tests for evolution, generator splitting and the Hermitian picture."""

import numpy as np
import pytest

from qbundle import stepping
from qbundle import twolevel as tl
from qbundle.connection import (
    ConnectionForm,
    CurvePath,
    assemble_connection,
    geometric_hamiltonian,
)
from qbundle.dynamics import (
    CurveMetric,
    evolve,
    hermitian_representation,
    hermitian_representation_via_physical,
    map_state,
)
from qbundle.errors import DimensionMismatch, InvalidState, OutOfPatch
from qbundle.linalg import SIGMA1, SIGMA2, SIGMA3, max_abs
from qbundle.metric import (
    MetricField,
    constant_metric_field,
    pseudo_hermiticity_residual,
    split_pseudo,
)
from qbundle.stepping import StepperConfig

SEED = 77


def exp_metric_1d():
    return MetricField(
        "main",
        lambda r: np.diag([1.0, np.exp(2.0 * r[0])]).astype(complex),
        partials_fn=lambda r: [np.diag([0.0, 2.0 * np.exp(2.0 * r[0])]).astype(complex)],
        dim=1,
    )


def line_path():
    return CurvePath(0.0, 1.0, lambda t: np.array([t]), lambda t: np.array([1.0]))


def smooth_metric_field(rng, dim=1):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = 0.4 * (m + m.conj().T)

    def eta(r):
        from qbundle.linalg import matrix_exp
        return matrix_exp(np.sin(r[0]) * b + 0.3 * np.eye(2))

    return MetricField("main", eta, dim=dim)


# ---------------------------------------------------------------- splitting


def test_geometric_hamiltonian_contracts_velocity():
    form = ConnectionForm("main", lambda r: [r[0] * SIGMA1], dim=1)
    path = line_path()
    h_a = geometric_hamiltonian(form, path, 0.6)
    np.testing.assert_allclose(h_a, 0.6 * SIGMA1, atol=1e-14)


def test_geometric_hamiltonian_checks_patch():
    """The connection's chart domain decides where it may be evaluated."""
    form = ConnectionForm("north", lambda r: [SIGMA1.astype(complex)], dim=1,
                          domain=lambda r: r[0] < 0.4)
    path = line_path()
    np.testing.assert_allclose(geometric_hamiltonian(form, path, 0.3), SIGMA1)
    with pytest.raises(OutOfPatch):
        geometric_hamiltonian(form, path, 0.5)


def test_geometric_hamiltonian_on_a_run_switched_early():
    """README meridian switched at tau = 0.3: at t = 0.4 the run is on the
    minus chart, although the default switch (tau = 0.49975) is later."""
    system = tl.build_system(tl.meridian_curve(0.3, np.pi / 6, 5 * np.pi / 6))
    assert system.segments(0.3)[1] == ((0.3, 1.0), tl.MINUS)
    curve, conn = system.curve, system.patch(tl.MINUS).connection
    np.testing.assert_array_equal(geometric_hamiltonian(conn, curve, 0.4),
                                  conn.contracted(curve.points(0.4), curve.velocities(0.4)))
    with pytest.raises(OutOfPatch):
        geometric_hamiltonian(conn, curve, 0.05)


def test_split_geometric_parts_and_sum():
    """split_pseudo splits H_A = H_A0 + H_omega into (H_omega, H_A0), with
    H_A0 = -(i/2) eta^{-1} etadot."""
    rng = np.random.default_rng(SEED)
    field = smooth_metric_field(rng)
    path = line_path()
    cm = CurveMetric(field, path)

    def omega(r):  # pseudo-Hermitian: rho^{-1} (Hermitian) rho
        op = field.operator(r)
        return [op.rho_inv @ SIGMA1 @ op.rho]

    form = assemble_connection(field, omega_fn=omega)
    for t in (0.2, 0.5, 0.8):
        h_a = geometric_hamiltonian(form, path, t)
        eta = cm.eta(t)
        h_w, h_a0 = split_pseudo(h_a, eta)
        np.testing.assert_allclose(h_a0 + h_w, h_a, atol=1e-9)
        np.testing.assert_allclose(h_a0, -0.5j * np.linalg.inv(eta) @ cm.eta_dot(t), atol=1e-9)
        np.testing.assert_allclose(h_w, omega(cm.point(t))[0], atol=1e-9)
        assert pseudo_hermiticity_residual(1j * h_a0, eta) <= 1e-7  # h_a0 pseudo-anti-Hermitian
        assert pseudo_hermiticity_residual(h_w, eta) <= 1e-7


def test_decompose_generator_total():
    """H = H_A + H_E splits into H_ph = H_omega + H_E and H_A0."""
    field = exp_metric_1d()
    path = line_path()
    cm = CurveMetric(field, path)
    form = assemble_connection(field)
    energy = lambda t: np.cos(t) * SIGMA3.astype(complex)
    total = geometric_hamiltonian(form, path, 0.3) + energy(0.3)
    h_ph, h_a0 = split_pseudo(total, cm.eta(0.3))
    np.testing.assert_allclose(h_ph + h_a0, total, atol=1e-12)
    h_a0_metric = -0.5j * np.linalg.inv(cm.eta(0.3)) @ cm.eta_dot(0.3)
    np.testing.assert_allclose(h_a0, h_a0_metric, atol=1e-12)
    np.testing.assert_allclose(h_ph, energy(0.3), atol=1e-14)


# ---------------------------------------------------------------- evolve


def test_evolve_rejects_zero_state():
    with pytest.raises(InvalidState):
        evolve(lambda t: SIGMA1.astype(complex), np.zeros(2), 0.0, 1.0)


def test_evolve_rejects_a_psi0_of_three_axes():
    with pytest.raises(DimensionMismatch, match=r"state or column states, got shape \(2, 1, 1\)"):
        evolve(lambda t: SIGMA1.astype(complex), np.ones((2, 1, 1)), 0.0, 1.0)


def test_evolve_constant_hermitian_known_solution():
    # H = sigma2: psi(t) = exp(-i t sigma2) psi0
    res = evolve(lambda t: SIGMA2.astype(complex), np.array([1.0, 0.0]), 0.0, 1.3,
                 StepperConfig(dt=1e-3))
    expected = np.array([np.cos(1.3), np.sin(1.3)])
    np.testing.assert_allclose(res.final_state, expected, atol=1e-9)
    assert res.final_time == pytest.approx(1.3)


def test_evolve_records_unit_norm_for_hermitian_generator():
    field = constant_metric_field("main", np.eye(2), dim=1)
    cm = CurveMetric(field, line_path())
    res = evolve(lambda t: (np.sin(t) * SIGMA1 + SIGMA3).astype(complex),
                 np.array([0.6, 0.8]), 0.0, 1.0, StepperConfig(dt=1e-3),
                 curve_metric=cm)
    assert np.max(np.abs(res.eta_norm - 1.0)) <= 1e-9


def test_evolve_energy_expectation_constant_when_commuting():
    """[H, H_E] = 0 and constant metric: <H_E> is conserved."""
    field = constant_metric_field("main", np.eye(2), dim=1)
    cm = CurveMetric(field, line_path())
    h_e = lambda t: SIGMA3.astype(complex)
    res = evolve(lambda t: (2.0 * SIGMA3).astype(complex), np.array([0.6, 0.8j]),
                 0.0, 1.0, StepperConfig(dt=1e-3), curve_metric=cm, energy=h_e)
    assert np.max(np.abs(res.energy_expect - res.energy_expect[0])) <= 1e-10


def test_evolve_patch_trace():
    res = evolve(lambda t: SIGMA1.astype(complex), np.array([1.0, 0.0]), 0.0, 0.1,
                 StepperConfig(dt=0.05), patch_id="north")
    assert res.patch_trace == ["north"] * len(res.times)


# ------------------------------------------------- Hermitian representation


def test_hermitian_representation_pure_canonical_is_zero():
    """For H = H_A0 alone, h = rho H rho^{-1} + i rhodot rho^{-1} == 0.

    With eta(t) = diag(1, e^{2t}): H_A0 = -i diag(0, 1), rho = diag(1, e^t),
    so both terms cancel exactly.
    """
    field = exp_metric_1d()
    path = line_path()
    cm = CurveMetric(field, path)
    for t in (0.0, 0.4, 0.9):
        h_a0 = -0.5j * np.linalg.inv(cm.eta(t)) @ cm.eta_dot(t)
        h = hermitian_representation(h_a0, cm, t)
        assert max_abs(h) <= 1e-10


def test_hermitian_representation_two_formulas_agree():
    rng = np.random.default_rng(SEED)
    field = smooth_metric_field(rng)
    path = line_path()
    cm = CurveMetric(field, path)
    for t in (0.15, 0.55, 0.95):
        h_full = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        a = hermitian_representation(h_full, cm, t)
        b = hermitian_representation_via_physical(h_full, cm, t)
        np.testing.assert_allclose(a, b, atol=1e-8)


@pytest.mark.parametrize("form", [hermitian_representation, hermitian_representation_via_physical])
def test_each_hermitian_form_factorises_the_metric_once(monkeypatch, form):
    """Either form of h takes rho, rho^-1, rhodot and H_A0 from one metric
    operator and one etadot per call, on one time and on a 9-time stack."""
    rng = np.random.default_rng(SEED)
    cm = CurveMetric(smooth_metric_field(rng), line_path())
    calls = []
    for name in ("operator", "eta_dot"):
        def counted(*args, _orig=getattr(MetricField, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(MetricField, name, counted)
    for t in (0.4, np.linspace(0.1, 0.9, 9)):
        h_full = rng.standard_normal(np.shape(t) + (2, 2)) + 0j
        form(h_full, cm, t)
        assert sorted(calls) == ["eta_dot", "operator"]
        calls.clear()


def test_rho_dot_sylvester_vs_finite_difference():
    rng = np.random.default_rng(SEED)
    field = smooth_metric_field(rng)
    cm = CurveMetric(field, line_path())
    for t in (0.2, 0.7):
        a = cm.rho_dot(t, method="sylvester")
        b = cm.rho_dot(t, method="fd")
        np.testing.assert_allclose(a, b, atol=1e-6)
    with pytest.raises(ValueError):
        cm.rho_dot(0.2, method="bogus")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rho_dot_eigenbasis_matches_sylvester_solver(n):
    import scipy.linalg

    rng = np.random.default_rng(SEED + n)
    for _ in range(5):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eta0 = m @ m.conj().T + 0.1 * np.eye(n)
        d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eta_dot = d + d.conj().T
        field = MetricField("main", lambda r: eta0 + r[0] * eta_dot,
                            partials_fn=lambda r: [eta_dot], dim=1)
        cm = CurveMetric(field, line_path())
        rho = cm.rho(0.0)
        expected = scipy.linalg.solve_sylvester(rho, rho, eta_dot)
        got = cm.rho_dot(0.0)
        assert max_abs(got - expected) <= 1e-12 * max_abs(expected)


def test_hermitian_representation_hermitian_for_compatible_generator():
    """H = H_A(A0) + H_E with pseudo-Hermitian H_E gives Hermitian h."""
    rng = np.random.default_rng(SEED)
    field = smooth_metric_field(rng)
    path = line_path()
    cm = CurveMetric(field, path)
    form = assemble_connection(field)
    for t in (0.1, 0.5, 0.9):
        op = cm.operator(t)
        h_e = op.rho_inv @ SIGMA3 @ op.rho
        h_full = geometric_hamiltonian(form, path, t) + h_e
        h = hermitian_representation(h_full, cm, t)
        assert max_abs(h - h.conj().T) <= 1e-7


def test_representation_equivalence_single_chart():
    """rho(t) psi(t) from the eta picture equals the state evolved by h(t)."""
    field = exp_metric_1d()
    path = line_path()
    cm = CurveMetric(field, path)
    form = assemble_connection(field)

    def h_full(t):
        op = cm.operator(t)
        return (geometric_hamiltonian(form, path, t)
                + op.rho_inv @ (0.7 * SIGMA1) @ op.rho)

    def h_herm(t):
        return hermitian_representation(h_full(t), cm, t)

    psi0 = np.array([0.3, 1.0 - 0.4j])
    res_eta = evolve(h_full, psi0, 0.0, 1.0, StepperConfig(dt=1e-3))
    res_h = evolve(h_herm, map_state(cm, 0.0, psi0), 0.0, 1.0, StepperConfig(dt=1e-3))
    np.testing.assert_allclose(map_state(cm, 1.0, res_eta.final_state),
                               res_h.final_state, atol=1e-8)


def test_no_go_defect_matches_metric_motion():
    """Along a moving metric, H = H_A0 + (pseudo-Hermitian) violates
    pseudo-Hermiticity by exactly i etadot eta^{-1}."""
    rng = np.random.default_rng(SEED)
    field = smooth_metric_field(rng)
    path = line_path()
    cm = CurveMetric(field, path)
    form = assemble_connection(field)
    for t in (0.25, 0.65):
        op = cm.operator(t)
        h_full = (geometric_hamiltonian(form, path, t)
                  + op.rho_inv @ SIGMA2 @ op.rho)
        eta, eta_inv = op.eta, op.eta_inv
        defect = h_full.conj().T - eta @ h_full @ eta_inv
        np.testing.assert_allclose(defect, 1j * cm.eta_dot(t) @ eta_inv, atol=1e-7)


def counting_generator(calls):
    def h(t):
        calls.append(t)
        return np.array([[np.cos(t), 0.3j * t], [-0.3j * t, 1.0 + t * t]], dtype=complex)

    return h


def test_fixed_steps_evaluate_each_node_once():
    """n fixed RK4 steps sample 2n+1 distinct node times, once each.  The
    states are the prefix scan of the RK4 step matrices M_k (one step applied
    to the identity) bit for bit, and agree with applying them in order and
    with a per-stage RK4 integration, with the generator evaluated at every
    stage, to rounding."""
    calls = []
    h = counting_generator(calls)
    psi0 = np.array([1.0, 0.5j])
    res = evolve(h, psi0, 0.0, 1.0, StepperConfig(dt=0.01))
    n = len(res.times) - 1
    assert n == 100
    assert len(calls) == 2 * n + 1 == len(set(calls))
    nodes = (np.arange(n + 1) * 0.01).tolist()
    ms = []
    stepped = [psi0.astype(complex)]
    per_stage = [psi0.astype(complex)]
    for t, t_next in zip(nodes, nodes[1:]):
        ms.append(stepping.rk4_step((h(t), h(t + 0.005), h(t_next)), np.eye(2), 0.01))
        stepped.append(ms[-1] @ stepped[-1])
        y = per_stage[-1]
        k1 = -1j * (h(t) @ y)
        k2 = -1j * (h(t + 0.005) @ (y + 0.005 * k1))
        k3 = -1j * (h(t + 0.005) @ (y + 0.005 * k2))
        k4 = -1j * (h(t_next) @ (y + 0.01 * k3))
        per_stage.append(y + (0.01 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    assert np.array_equal(res.states[1:], stepping._scan(np.array(ms), psi0))
    assert max_abs(res.states - np.array(stepped)) <= 1e-14 * np.linalg.norm(psi0)
    assert max_abs(res.states - np.array(per_stage)) <= 1e-14 * np.linalg.norm(psi0)
