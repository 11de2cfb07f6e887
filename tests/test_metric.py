"""Tests for metric operators, fields and pseudo-Hermiticity helpers."""

import numpy as np
import pytest

from qbundle.errors import DimensionMismatch, NotPositiveDefinite, OutOfPatch
from qbundle.linalg import SIGMA1, SIGMA3, max_abs
from qbundle.metric import (
    MetricField,
    MetricOperator,
    constant_metric_field,
    eta_inner,
    pseudo_anti_hermiticity_residual,
    pseudo_hermiticity_residual,
    split_pseudo,
)

SEED = 911


def random_metric(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T + 0.2 * np.eye(n)


# ---------------------------------------------------------------- operator


def test_metric_operator_caches_consistent_root():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        eta = random_metric(rng, 3)
        op = MetricOperator(eta)
        np.testing.assert_allclose(op.rho @ op.rho, eta, atol=1e-10)
        np.testing.assert_allclose(op.rho @ op.rho_inv, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(op.eta_inv @ eta, np.eye(3), atol=1e-10)


def test_metric_operator_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        MetricOperator(SIGMA3)


def test_eta_inner_sesquilinear():
    rng = np.random.default_rng(SEED)
    eta = random_metric(rng, 2)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    # antilinear left, linear right
    a = 0.3 - 1.2j
    assert np.isclose(eta_inner(eta, a * u, v), np.conj(a) * eta_inner(eta, u, v))
    assert np.isclose(eta_inner(eta, u, a * v), a * eta_inner(eta, u, v))
    # conjugate symmetry
    assert np.isclose(eta_inner(eta, u, v), np.conj(eta_inner(eta, v, u)))
    # positivity
    assert eta_inner(eta, u, u).real > 0


def test_eta_inner_identity_metric_is_standard():
    u = np.array([1.0, 1j])
    v = np.array([2.0, -1.0])
    assert np.isclose(eta_inner(np.eye(2), u, v), np.vdot(u, v))


def test_eta_inner_shape_check():
    with pytest.raises(DimensionMismatch):
        eta_inner(np.eye(2), np.ones(3), np.ones(2))


# ------------------------------------------------------- pseudo-Hermiticity


def test_pseudo_hermitian_predicates():
    """eta-conjugates of (anti-)Hermitian matrices are pseudo-(anti-)Hermitian."""
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        eta = random_metric(rng, 3)
        op = MetricOperator(eta)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = 0.5 * (h + h.conj().T)
        ph = op.rho_inv @ h @ op.rho           # pseudo-Hermitian by construction
        assert pseudo_hermiticity_residual(ph, op) <= 1e-8
        assert pseudo_anti_hermiticity_residual(1j * ph, op) <= 1e-8
        assert pseudo_hermiticity_residual(ph + 0.001j * np.eye(3), op) > 1e-8


def test_hermitize_maps_to_hermitian():
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        eta = random_metric(rng, 2)
        op = MetricOperator(eta)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = 0.5 * (h + h.conj().T)
        ph = op.rho_inv @ h @ op.rho
        back = op.rho @ ph @ op.rho_inv
        np.testing.assert_allclose(back, h, atol=1e-10)
        assert max_abs(back - back.conj().T) <= 1e-10


def test_split_pseudo_reconstructs_and_splits():
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        eta = random_metric(rng, 3)
        op = MetricOperator(eta)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ph, aph = split_pseudo(m, op)
        np.testing.assert_allclose(ph + aph, m, atol=1e-12)
        assert pseudo_hermiticity_residual(ph, op) <= 1e-9
        assert pseudo_anti_hermiticity_residual(aph, op) <= 1e-9


def test_pseudo_hermiticity_reduces_to_hermiticity_for_identity_metric():
    m = SIGMA1 + 2.0 * SIGMA3
    assert pseudo_hermiticity_residual(m, np.eye(2)) <= 1e-8
    assert pseudo_hermiticity_residual(1j * m, np.eye(2)) == pytest.approx(2.0 * max_abs(m))


# ---------------------------------------------------------------- fields


def _exp_metric_field(patch="main"):
    # eta(R) = diag(1, e^{2 R0}) with analytic partials available separately
    return MetricField(
        patch,
        lambda r: np.diag([1.0, np.exp(2.0 * r[0])]).astype(complex),
        dim=1,
    )


def test_field_fd_partials_match_analytic():
    field = _exp_metric_field()
    r = np.array([0.3])
    fd = field.partials(r)[0]
    analytic = np.diag([0.0, 2.0 * np.exp(0.6)])
    np.testing.assert_allclose(fd, analytic, atol=1e-8)


def test_field_analytic_partials_preferred():
    calls = {"n": 0}

    def partials(r):
        calls["n"] += 1
        return [np.zeros((2, 2), dtype=complex)]

    field = MetricField("main", lambda r: np.eye(2, dtype=complex),
                        partials_fn=partials, dim=1)
    field.partials([0.0])
    assert calls["n"] == 1


def test_field_domain_enforced():
    field = MetricField(
        "half", lambda r: np.eye(2, dtype=complex), dim=1,
        domain=lambda r: r[0] >= 0.0,
    )
    field.eta([0.5])
    with pytest.raises(OutOfPatch):
        field.eta([-0.5])


def test_constant_field_has_zero_partials():
    rng = np.random.default_rng(SEED)
    eta = random_metric(rng, 2)
    field = constant_metric_field("flat", eta, dim=2)
    for p in field.partials([0.7, -1.2]):
        assert max_abs(p) == 0.0


def test_eta_dot_chain_rule():
    field = _exp_metric_field()
    r, v = np.array([0.3]), np.array([2.5])
    expected = 2.5 * np.diag([0.0, 2.0 * np.exp(0.6)])
    np.testing.assert_allclose(field.eta_dot(r, v), expected, atol=1e-7)
