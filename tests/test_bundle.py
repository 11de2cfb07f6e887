"""Tests for chart gluing, intertwiners, sections and two-chart evolution.

Most tests use a synthetic one-dimensional base with an exactly solvable
gluing: the left chart carries eta = 1 and a vanishing connection, and the
transition is

    g(R) = U(R) D(R),     U = exp(i a R sigma1),   D = diag(1, e^{b R}),

so that eta~ = g^dag g = D^2, rho~ = D, and the unitary intertwiner is
G = rho g rho~^{-1} = U(R).  With no energy term the evolved state is
constant on the left chart and g^{-1} psi0 on the right chart, so every
endpoint has a closed form.
"""

import dataclasses

import numpy as np
import pytest

from qbundle.bundle import (
    ObservableSection,
    PatchData,
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
from qbundle.connection import (
    ConnectionForm,
    CurvePath,
    assemble_connection,
    gauge_transform_connection,
)
from qbundle.errors import (
    ConfigError,
    DimensionMismatch,
    NotUnitary,
    OutOfOverlap,
    TauNotInOverlap,
)
from qbundle.linalg import SIGMA1, SIGMA3, contract, matrix_exp, max_abs
from qbundle.metric import MetricField, constant_metric_field
from qbundle.stepping import StepperConfig

A_TWIST = 0.9
B_STRETCH = 0.6


def u_of(r):
    return matrix_exp(1j * A_TWIST * r * SIGMA1)


def d_of(r):
    return np.diag([1.0, np.exp(B_STRETCH * r)]).astype(complex)


def g_of(r):
    return u_of(r) @ d_of(r)


def dg_of(r):
    du = 1j * A_TWIST * SIGMA1 @ u_of(r)
    dd = np.diag([0.0, B_STRETCH * np.exp(B_STRETCH * r)]).astype(complex)
    return du @ d_of(r) + u_of(r) @ dd


def make_transition(with_partials=True, overlap=lambda r: 0.25 < r[0] < 0.75):
    return TransitionFunctionField(
        "left",
        "right",
        lambda r: g_of(r[0]),
        partials_fn=(lambda r: [dg_of(r[0])]) if with_partials else None,
        overlap=overlap,
        dim=1,
    )


def right_metric_field():
    return MetricField(
        "right",
        lambda r: np.diag([1.0, np.exp(2.0 * B_STRETCH * r[0])]).astype(complex),
        partials_fn=lambda r: [
            np.diag([0.0, 2.0 * B_STRETCH * np.exp(2.0 * B_STRETCH * r[0])]).astype(complex)
        ],
        dim=1,
    )


def make_system(energy=False):
    left_metric = constant_metric_field("left", np.eye(2), dim=1)
    right_metric = right_metric_field()

    def a_tilde(r):
        g = g_of(r[0])
        return [-1j * np.linalg.inv(g) @ dg_of(r[0])]

    patches = {
        "left": PatchData(left_metric, assemble_connection(left_metric)),
        "right": PatchData(right_metric, ConnectionForm("right", a_tilde, dim=1)),
    }
    curve = CurvePath(0.0, 1.0, lambda t: np.array([t]), lambda t: np.array([1.0]))
    section = None
    if energy:
        section = ObservableSection(
            {
                "left": lambda r: SIGMA3.astype(complex),
                "right": lambda r: u_of(r[0]).conj().T @ SIGMA3 @ u_of(r[0]),
            },
        )
    return SystemSpec(
        patches,
        curve,
        ("left", "right"),
        transition=make_transition(),
        energy=section,
        overlap_window=(0.25, 0.75),
    )


PSI0 = np.array([0.8, 0.3 - 0.4j])


# ------------------------------------------------------------ transitions


def test_unitarity_defect():
    assert unitarity_defect(np.eye(3)) == 0.0
    assert unitarity_defect(2.0 * np.eye(2)) == pytest.approx(3.0)
    assert unitarity_defect(u_of(0.4)) <= 1e-14


def test_transition_evaluation_and_overlap():
    tf = make_transition()
    r = np.array([0.5])
    np.testing.assert_allclose(tf.g(r), g_of(0.5), atol=1e-14)
    np.testing.assert_allclose(tf.g_inv(r) @ tf.g(r), np.eye(2), atol=1e-12)
    assert tf.in_overlap([0.3])
    assert not tf.in_overlap([0.9])
    with pytest.raises(OutOfOverlap):
        tf.g([0.9])


def test_transition_partials_analytic_vs_fd():
    analytic = make_transition(with_partials=True)
    fd = make_transition(with_partials=False)
    for r in ([0.3], [0.5], [0.7]):
        pa = analytic.partial_g(r)[0]
        pf = fd.partial_g(r)[0]
        np.testing.assert_allclose(pa, pf, atol=1e-8)


def test_transition_g_dot_scales_with_velocity():
    tf = make_transition()
    gd = tf.g_dot([0.4], [2.5])
    np.testing.assert_allclose(gd, 2.5 * dg_of(0.4), atol=1e-12)


# ----------------------------------------------------- induced structures


def test_tilde_eta_closed_form():
    left_metric = constant_metric_field("left", np.eye(2), dim=1)
    tf = make_transition()
    for r in ([0.3], [0.5], [0.7]):
        np.testing.assert_allclose(
            tilde_eta(tf, left_metric, r),
            np.diag([1.0, np.exp(2.0 * B_STRETCH * r[0])]),
            atol=1e-12,
        )


def test_big_g_equals_unitary_factor():
    left_metric = constant_metric_field("left", np.eye(2), dim=1)
    tf = make_transition()
    for r in ([0.3], [0.6]):
        gg = big_g(left_metric, right_metric_field(), tf, r)
        np.testing.assert_allclose(gg, u_of(r[0]), atol=1e-12)
        assert unitarity_defect(gg) <= 1e-12


def test_big_g_rejects_inconsistent_metrics():
    left_metric = constant_metric_field("left", np.eye(2), dim=1)
    wrong_right = constant_metric_field("right", np.eye(2), dim=1)
    with pytest.raises(NotUnitary):
        big_g(left_metric, wrong_right, make_transition(), [0.6])


def test_transform_state():
    tf = make_transition()
    out = transform_state(tf, [0.5], PSI0)
    np.testing.assert_allclose(out, np.linalg.inv(g_of(0.5)) @ PSI0, atol=1e-12)
    with pytest.raises(DimensionMismatch, match=r"psi has shape \(3,\), expected \(2,\)"):
        transform_state(tf, [0.5], np.ones(3))


def test_transform_hamiltonian_rotating_frame():
    """g(R) = exp(i w R sigma3) and A = sigma1: the transformed connection
    contracted with a velocity v is H~ = v (g^dag sigma1 g + w sigma3), with
    the analytic and with the finite-difference partial_g."""
    w, v = 1.7, 1.3
    g_of_r = lambda r: matrix_exp(1j * w * r[0] * SIGMA3)
    form = ConnectionForm("left", lambda r: [SIGMA1.astype(complex)], dim=1)
    points = np.array([[0.0], [0.4], [1.1]])
    expected = [v * (g_of_r(r).conj().T @ SIGMA1 @ g_of_r(r) + w * SIGMA3) for r in points]
    analytic = lambda r: [1j * w * SIGMA3 @ g_of_r(r)]
    for partials_fn, atol in ((analytic, 1e-12), (None, 1e-8)):
        tf = TransitionFunctionField("left", "right", g_of_r, partials_fn=partials_fn, dim=1)
        h_tilde = contract(np.full((3, 1), v), gauge_transform_connection(form, tf, points))
        np.testing.assert_allclose(h_tilde, expected, atol=atol)


def test_transform_observable_checks_unitarity():
    u = u_of(0.5)
    out = transform_observable(SIGMA3, u)
    np.testing.assert_allclose(out, u.conj().T @ SIGMA3 @ u, atol=1e-14)
    with pytest.raises(NotUnitary):
        transform_observable(SIGMA3, 2.0 * np.eye(2))


# ---------------------------------------------------------------- sections


def test_observable_section_basics():
    sec = ObservableSection({"left": lambda r: SIGMA3.astype(complex)})
    np.testing.assert_allclose(sec.matrix("left", [0.1]), SIGMA3)
    with pytest.raises(OutOfOverlap):
        sec.matrix("right", [0.1])


def test_section_compatibility_detects_mismatch():
    """o~ = G^{-1} o G on the right chart passes; sigma3 on both charts does
    not, since sigma3 is not invariant under conjugation by exp(i a R sigma1)."""
    left_metric = constant_metric_field("left", np.eye(2), dim=1)
    tf = make_transition()
    good = make_system(energy=True).energy
    samples = [np.array([x]) for x in (0.3, 0.45, 0.6, 0.7)]
    resid = check_section_compatibility(
        good, "left", "right", left_metric, right_metric_field(), tf, samples)
    assert resid <= 1e-10
    bad = ObservableSection(
        {"left": lambda r: SIGMA3.astype(complex),
         "right": lambda r: SIGMA3.astype(complex)},
    )
    resid = check_section_compatibility(
        bad, "left", "right", left_metric, right_metric_field(), tf,
        [np.array([0.6])])
    assert resid > 0.1


# ------------------------------------------------------- system plumbing


def test_system_energy_generator():
    system = make_system(energy=True)
    h_e = system.energy_generator("right")
    t = 0.8
    op = system.metric_operator("right", [t])
    expected = op.rho_inv @ (u_of(t).conj().T @ SIGMA3 @ u_of(t)) @ op.rho
    np.testing.assert_allclose(h_e(t), expected, atol=1e-12)
    assert make_system(energy=False).energy_generator("left") is None


# -------------------------------------------------- two-chart evolution


def test_two_chart_endpoint_closed_form():
    system = make_system()
    res = evolve_across_patches(system, PSI0, stepper=StepperConfig(dt=1e-3))
    expected = np.linalg.inv(g_of(1.0)) @ PSI0
    np.testing.assert_allclose(res.final_state, expected, atol=1e-9)
    # eta-norm is conserved through the switch
    assert np.max(np.abs(res.eta_norm - np.linalg.norm(PSI0))) <= 1e-9
    # the switch time appears twice, once per chart
    tau = system.default_tau()
    assert np.count_nonzero(res.times == tau) == 2
    assert "left" in res.patch_trace and "right" in res.patch_trace


def test_two_chart_endpoint_tau_independent():
    system = make_system()
    finals = []
    for tau in (0.3, 0.5, 0.7):
        res = evolve_across_patches(system, PSI0, tau=tau,
                                    stepper=StepperConfig(dt=1e-3))
        finals.append(res.final_state)
    for f in finals[1:]:
        np.testing.assert_allclose(f, finals[0], atol=1e-9)


def test_two_chart_endpoint_tau_independent_with_energy():
    system = make_system(energy=True)
    finals = [
        evolve_across_patches(system, PSI0, tau=tau, stepper=StepperConfig(dt=1e-3)).final_state
        for tau in (0.35, 0.65)
    ]
    np.testing.assert_allclose(finals[1], finals[0], atol=1e-8)


def test_two_chart_hermitian_representation():
    """Phi~ endpoint is U(1)^dag psi0 and matches rho~ psi~ from the eta run."""
    system = make_system()
    phi0 = PSI0  # rho_left = identity
    res_h = evolve_across_patches(system, phi0, stepper=StepperConfig(dt=1e-3),
                                  representation="hermitian")
    np.testing.assert_allclose(res_h.final_state, u_of(1.0).conj().T @ PSI0,
                               atol=1e-9)
    res_eta = evolve_across_patches(system, PSI0, stepper=StepperConfig(dt=1e-3))
    rho_tilde = system.metric_operator("right", [1.0]).rho
    np.testing.assert_allclose(res_h.final_state,
                               rho_tilde @ res_eta.final_state, atol=1e-9)
    # Phi has constant 2-norm even though it jumps at tau
    assert np.max(np.abs(res_h.eta_norm - np.linalg.norm(PSI0))) <= 1e-9
    i_tau = np.argmin(np.abs(res_h.times - system.default_tau()))
    jump = max_abs(res_h.states[i_tau + 1] - res_h.states[i_tau])
    assert jump > 0.1  # the intertwiner is far from the identity here


def test_tau_validation():
    system = make_system()
    with pytest.raises(TauNotInOverlap):
        evolve_across_patches(system, PSI0, tau=0.1)
    with pytest.raises(ValueError):
        evolve_across_patches(system, PSI0, representation="interaction")


def test_single_chart_passthrough():
    metric = constant_metric_field("only", np.eye(2), dim=1)
    curve = CurvePath(0.0, 1.0, lambda t: np.array([t]), lambda t: np.array([1.0]))
    system = SystemSpec({"only": PatchData(metric, assemble_connection(metric))}, curve, ("only",))
    res = evolve_across_patches(system, PSI0, stepper=StepperConfig(dt=1e-2))
    np.testing.assert_allclose(res.final_state, PSI0, atol=1e-12)
    res_h = evolve_across_patches(system, PSI0, stepper=StepperConfig(dt=1e-2),
                                  representation="hermitian")
    np.testing.assert_allclose(res_h.eta_norm, np.linalg.norm(PSI0), atol=1e-12)
    with pytest.raises(TauNotInOverlap, match="no overlap window"):
        system.default_tau()


def test_segments_switch_at_the_default_tau():
    system = make_system()
    assert system.segments() == [((0.0, 0.5), "left"), ((0.5, 1.0), "right")]
    assert system.segments()[1][0][0] == system.default_tau()


def test_segments_switch_at_an_explicit_tau():
    assert make_system().segments(0.3) == [((0.0, 0.3), "left"), ((0.3, 1.0), "right")]


def test_segments_reject_a_tau_outside_the_dwell():
    system = make_system()
    for tau in (0.1, 0.8):
        with pytest.raises(TauNotInOverlap, match="dwell"):
            system.segments(tau)
    # a hand-built window wider than the overlap: the curve point is checked too
    wide = dataclasses.replace(system, overlap_window=(0.0, 1.0))
    with pytest.raises(TauNotInOverlap, match="not in the overlap"):
        wide.segments(0.1)


def test_charts_are_checked_at_construction():
    """The chart order names one or two of the system's patches."""
    system = make_system()
    for charts in ((), ("left", "right", "left"), ("left", "elsewhere")):
        with pytest.raises(ConfigError, match="charts"):
            dataclasses.replace(system, charts=charts)


def test_two_charts_need_a_transition_joining_them():
    """Two charts are built only with a transition between exactly those two
    patches, in either order; anything else fails at construction, not at the switch."""
    system = make_system()
    assert dataclasses.replace(system, charts=("right", "left")).segments(0.4) == [
        ((0.0, 0.4), "right"), ((0.4, 1.0), "left")]
    patches = {**system.patches, "third": system.patch("right")}
    elsewhere = TransitionFunctionField("right", "third", lambda r: g_of(r[0]), dim=1)
    for bad in (dict(transition=None), dict(patches=patches, transition=elsewhere)):
        with pytest.raises(ConfigError, match="transition"):
            dataclasses.replace(system, **bad)


def test_segments_on_one_chart_ignore_tau():
    metric = constant_metric_field("only", np.eye(2), dim=1)
    curve = CurvePath(0.0, 1.0, lambda t: np.array([t]), lambda t: np.array([1.0]))
    system = SystemSpec({"only": PatchData(metric, assemble_connection(metric))}, curve, ("only",))
    for tau in (None, 0.3, 5.0):
        assert system.segments(tau) == [((0.0, 1.0), "only")]
