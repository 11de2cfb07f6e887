"""Tests for connection assembly, compatibility, transport and curvature."""

import numpy as np
import pytest

from qbundle.connection import (
    ConnectionForm,
    CurvePath,
    a_zero,
    assemble_connection,
    check_metric_compatibility,
    curvature,
    gauge_transform_connection,
    transport_operator,
)
from qbundle.errors import DimensionMismatch, OmegaNotPseudoHermitian, OutOfPatch
from qbundle.linalg import SIGMA1, SIGMA2, SIGMA3, matrix_exp, max_abs
from qbundle.metric import MetricField, constant_metric_field, eta_inner
from qbundle.stepping import StepperConfig

SEED = 424


def exp_metric_1d():
    """eta(R) = diag(1, e^{2R}): canonical connection is -i diag(0, 1)."""
    return MetricField(
        "main",
        lambda r: np.diag([1.0, np.exp(2.0 * r[0])]).astype(complex),
        partials_fn=lambda r: [np.diag([0.0, 2.0 * np.exp(2.0 * r[0])]).astype(complex)],
        dim=1,
    )


def random_metric_field(rng, n=2, dim=2):
    """Smooth random metric field eta(R) = exp of a coordinate-dependent
    Hermitian combination (analytic enough for FD partials)."""
    base = []
    for _ in range(dim + 1):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        base.append(0.25 * (m + m.conj().T))

    def eta(r):
        h = base[0].copy()
        for a in range(dim):
            h = h + np.sin(r[a]) * base[a + 1]
        return matrix_exp(h)

    return MetricField("rand", eta, dim=dim)


# ---------------------------------------------------------------- a_zero


def test_a_zero_known_value_1d():
    field = exp_metric_1d()
    [a0] = a_zero(field, [0.37])
    np.testing.assert_allclose(a0, -1j * np.diag([0.0, 1.0]), atol=1e-13)


def test_a_zero_is_pseudo_anti_hermitian_and_compatible():
    rng = np.random.default_rng(SEED)
    field = random_metric_field(rng)
    form = assemble_connection(field)
    for _ in range(20):
        r = rng.uniform(-1.5, 1.5, 2)
        assert check_metric_compatibility(form, field, r) <= 1e-7


def test_constant_metric_gives_zero_connection():
    field = constant_metric_field("flat", np.diag([1.0, 4.0]), dim=2)
    comps = a_zero(field, [0.1, 0.2])
    assert all(max_abs(c) == 0.0 for c in comps)


# ---------------------------------------------------------------- assembly


def test_assemble_validates_omega():
    field = exp_metric_1d()

    def bad_omega(r):
        return [1j * np.eye(2, dtype=complex)]  # anti-Hermitian: invalid

    with pytest.raises(OmegaNotPseudoHermitian) as err:
        assemble_connection(field, omega_fn=bad_omega, validate_at=[[0.0]])
    assert err.value.component == 0

    def good_omega(r):
        # Hermitian and diagonal: pseudo-Hermitian for any diagonal metric
        return [np.diag([np.cos(r[0]), 1.0]).astype(complex)]

    form = assemble_connection(field, omega_fn=good_omega, validate_at=[[0.0], [0.4]])
    # compatibility unaffected by the pseudo-Hermitian piece
    assert check_metric_compatibility(form, field, [0.4]) <= 1e-12


def test_components_must_be_one_matrix_per_coordinate():
    form = ConnectionForm("main", lambda r: np.zeros((3, 2, 2), dtype=complex), dim=2)
    with pytest.raises(DimensionMismatch, match=r"components of shape \(3, 2, 2\), expected 2"):
        form.components([0.1, 0.2])


def test_compatibility_residual_detects_defect():
    """An anti-Hermitian defect shows up with exactly its own size."""
    field = constant_metric_field("flat", np.eye(2), dim=1)
    form = ConnectionForm("flat", lambda r: [1j * np.eye(2, dtype=complex)], dim=1)
    assert check_metric_compatibility(form, field, [0.0]) == pytest.approx(2.0)


# ---------------------------------------------------------------- paths


def test_path_velocity_consistency():
    path = CurvePath(0.0, 1.0, lambda t: np.array([np.sin(t), t * t]),
                     lambda t: np.array([np.cos(t), 2.0 * t]))
    assert path.velocity_consistency() <= 1e-6
    path.velocity = lambda t: np.array([np.cos(t), t])  # off by t in the second slot
    assert path.velocity_consistency() > 0.9


# ---------------------------------------------------------------- transport


def line_path(t0=0.0, t1=1.0):
    return CurvePath(t0, t1, lambda t: np.array([t]), lambda t: np.array([1.0]))


def test_transport_constant_generator_matches_exponential():
    """Constant A along a straight line: G(t) = exp(-i t A)."""
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        form = ConnectionForm("main", lambda r, m=h: [m], dim=1)
        res = transport_operator(form, line_path(), stepper=StepperConfig(dt=1e-3))
        np.testing.assert_allclose(res.final_operator, matrix_exp(-1j * h), atol=1e-9)


def test_transport_diagonal_closed_form():
    form = ConnectionForm("main", lambda r: [SIGMA3.astype(complex)], dim=1)
    res = transport_operator(form, line_path(0.0, 0.7))
    expected = np.diag([np.exp(-0.7j), np.exp(0.7j)])
    assert max_abs(res.final_operator - expected) <= 1e-8


def test_transport_composition_and_reversal():
    rng = np.random.default_rng(SEED)
    form = ConnectionForm(
        "main",
        lambda r: [np.cos(r[0]) * SIGMA1 + np.sin(2 * r[0]) * SIGMA2 + 0.3j * SIGMA3],
        dim=1,
    )
    path = line_path()
    g_full = transport_operator(form, path).final_operator
    g_a = transport_operator(form, path, 0.0, 0.43).final_operator
    g_b = transport_operator(form, path, 0.43, 1.0).final_operator
    np.testing.assert_allclose(g_b @ g_a, g_full, atol=1e-9)
    g_rev = transport_operator(form, path, 1.0, 0.0).final_operator
    np.testing.assert_allclose(g_rev @ g_full, np.eye(2), atol=1e-9)


def test_transport_preserves_eta_inner_product():
    """Metric-compatible transport conserves <u, v>_eta along the curve."""
    rng = np.random.default_rng(SEED)
    field = random_metric_field(rng, dim=1)
    form = assemble_connection(field)
    path = line_path()
    u0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = transport_operator(form, path, stepper=StepperConfig(dt=1e-3)).final_operator
    before = eta_inner(field.eta([0.0]), u0, v0)
    after = eta_inner(field.eta([1.0]), g @ u0, g @ v0)
    assert abs(after - before) <= 1e-8 * abs(before)


def test_transport_refuses_patch_crossing():
    """The connection's chart domain bounds transport: a window that leaves
    the chart, or lies outside it, raises OutOfPatch."""
    form = ConnectionForm("left", lambda r: [SIGMA1.astype(complex)], dim=1,
                          domain=lambda r: r[0] <= 0.5)
    path = line_path()
    for t0, t1 in ((0.0, 1.0), (0.6, 0.9)):
        with pytest.raises(OutOfPatch):
            transport_operator(form, path, t0, t1)
    # a window inside the chart is fine
    transport_operator(form, path, 0.0, 0.4)


def test_reparametrization_invariance_of_transport():
    """Transport depends on the path image, not its clock."""
    form = ConnectionForm(
        "main", lambda r: [np.sin(r[0]) * SIGMA1 + np.cos(r[0]) * SIGMA3], dim=1,
    )
    lin = line_path()
    quad = CurvePath(0.0, 1.0, lambda t: np.array([t * t]), lambda t: np.array([2.0 * t]))
    g_lin = transport_operator(form, lin, stepper=StepperConfig(dt=1e-3)).final_operator
    g_quad = transport_operator(form, quad, stepper=StepperConfig(dt=1e-3)).final_operator
    assert max_abs(g_lin - g_quad) <= 1e-8


# ---------------------------------------------------------------- curvature


def test_curvature_of_abelian_gauge_field():
    """A = f(R) 1 has curvature (dA)_ab 1 with no commutator part."""

    def comps(r):
        return [np.eye(2, dtype=complex) * r[1] ** 2, np.zeros((2, 2), dtype=complex)]

    form = ConnectionForm("main", comps, dim=2)
    f = curvature(form, [0.3, 0.7])
    # F_01 = d_0 A_1 - d_1 A_0 = -2 r1
    np.testing.assert_allclose(f[0, 1], -1.4 * np.eye(2), atol=1e-8)
    np.testing.assert_allclose(f[1, 0], -f[0, 1], atol=1e-12)
    np.testing.assert_allclose(f[0, 0], 0.0 * f[0, 0], atol=1e-10)


def test_curvature_constant_nonabelian():
    """Constant noncommuting components: F_ab = i [A_a, A_b] exactly."""
    form = ConnectionForm(
        "main", lambda r: [SIGMA1.astype(complex), SIGMA2.astype(complex)], dim=2,
    )
    f = curvature(form, [0.0, 0.0])
    np.testing.assert_allclose(f[0, 1], 1j * (SIGMA1 @ SIGMA2 - SIGMA2 @ SIGMA1),
                               atol=1e-10)


def test_flat_connection_has_zero_curvature():
    """Pure gauge A = -i u^{-1} du is flat."""

    def u(r):
        return matrix_exp(1j * (r[0] * SIGMA1 + (r[1] ** 2) * SIGMA3))

    h = 1e-5

    def comps(r):
        out = []
        for a in range(2):
            rp, rm = np.array(r, dtype=float), np.array(r, dtype=float)
            rp[a] += h
            rm[a] -= h
            du = (u(rp) - u(rm)) / (2 * h)
            out.append(-1j * np.linalg.inv(u(r)) @ du)
        return out

    form = ConnectionForm("main", comps, dim=2)
    f = curvature(form, [0.4, 0.2], fd_step=1e-3)
    assert max_abs(f[0, 1]) <= 5e-6


# ---------------------------------------------------------------- gauge map


class _SimpleTransition:
    """Minimal duck-typed transition: constant-in-R0 unitary twist."""

    dim = 1

    def g(self, r):
        return matrix_exp(1j * r[0] * SIGMA3)

    def partial_g(self, r):
        return [1j * SIGMA3 @ self.g(r)]


def test_gauge_transform_connection_formula():
    form = ConnectionForm("main", lambda r: [SIGMA1.astype(complex)], dim=1)
    trans = _SimpleTransition()
    r = np.array([0.8])
    [out] = gauge_transform_connection(form, trans, r)
    g = trans.g(r)
    expected = np.linalg.inv(g) @ SIGMA1 @ g - 1j * np.linalg.inv(g) @ trans.partial_g(r)[0]
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # metric eta = 1: transformed connection stays compatible with g+ eta g = 1
    field = constant_metric_field("other", np.eye(2), dim=1)
    form2 = ConnectionForm("other", lambda rr: gauge_transform_connection(form, trans, rr), dim=1)
    assert check_metric_compatibility(form2, field, r) <= 1e-9
