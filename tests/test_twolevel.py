"""Tests for the two-level model over the sphere.

The model is fully closed-form, so nearly every function here can be
cross-checked against an independent generic route: closed metric roots
against the spectral square root, closed connection coefficients against
the metric-derivative formula, the conjugated Pauli basis against explicit
intertwiner conjugation, and the final Hermitian generator against the
similarity-transform route through :mod:`qbundle.dynamics`.
"""

import math

import numpy as np
import pytest

import paper_identities as paper
from qbundle import twolevel as tl
from qbundle.bundle import big_g, check_section_compatibility
from qbundle.connection import (
    a_zero,
    assemble_connection,
    check_metric_compatibility,
    gauge_transform_connection,
)
from qbundle.dynamics import CurveMetric, hermitian_representation
from qbundle.errors import (
    ConfigError,
    CurveTouchesPoleMargin,
    PoleAmbiguity,
)
from qbundle.linalg import SIGMA1, SIGMA2, SIGMA3, hermitian_sqrt, max_abs, pauli_dot
from qbundle.metric import pseudo_hermiticity_residual
from qbundle.stepping import StepperConfig

SEED = 3517

SQ2 = math.sqrt(2.0)


def wavy_scales() -> tl.ScaleFields:
    """Generic positive scale fields with analytic partials."""
    return tl.ScaleFields(
        xi=tl.ScalarField(
            lambda th, ph: 1.2 + 0.3 * math.sin(th) * math.cos(ph),
            lambda th, ph: 0.3 * math.cos(th) * math.cos(ph),
            lambda th, ph: -0.3 * math.sin(th) * math.sin(ph),
        ),
        zeta=tl.ScalarField(
            lambda th, ph: 0.8 + 0.2 * math.cos(th),
            lambda th, ph: -0.2 * math.sin(th),
            lambda th, ph: 0.0,
        ),
        xi_tilde=tl.ScalarField(
            lambda th, ph: 1.0 + 0.25 * math.sin(th) * math.sin(ph),
            lambda th, ph: 0.25 * math.cos(th) * math.sin(ph),
            lambda th, ph: 0.25 * math.sin(th) * math.cos(ph),
        ),
        zeta_tilde=tl.ScalarField(
            lambda th, ph: 1.5 + 0.1 * math.cos(th) * math.sin(ph),
            lambda th, ph: -0.1 * math.sin(th) * math.sin(ph),
            lambda th, ph: 0.1 * math.cos(th) * math.cos(ph),
        ),
    )


def random_points(rng, n, lo=0.15, hi=np.pi - 0.15):
    thetas = rng.uniform(lo, hi, n)
    phis = rng.uniform(-np.pi, 3.0 * np.pi, n)
    return list(zip(thetas, phis))


def overlap_points(rng, n):
    return random_points(rng, n,
                         lo=tl.THETA_MINUS_DEFAULT + 0.05,
                         hi=tl.THETA_PLUS_DEFAULT - 0.05)


# ---------------------------------------------------------------- inputs


def test_scalar_field_fd_partials():
    f = tl.ScalarField(lambda th, ph: math.sin(2.0 * th) * math.cos(ph))
    dt, dp = f.partials(0.7, 1.1)
    assert dt == pytest.approx(2.0 * math.cos(1.4) * math.cos(1.1), abs=1e-8)
    assert dp == pytest.approx(-math.sin(1.4) * math.sin(1.1), abs=1e-8)


def test_constant_scales_validation():
    with pytest.raises(ConfigError):
        tl.constant_scales(xi=0.0)
    with pytest.raises(ConfigError):
        tl.constant_scales(zeta_tilde=-1.0)
    s = tl.constant_scales(1.3, 0.7, 1.1, 0.9)
    assert s.pair(tl.MINUS)[0](0.5, 0.5) == pytest.approx(1.1)
    with pytest.raises(ConfigError):
        s.pair("east")


def test_default_scales_degenerate_on_far_boundary():
    s = tl.default_scales()
    tp, tm = tl.THETA_PLUS_DEFAULT, tl.THETA_MINUS_DEFAULT
    assert s.zeta(tp, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert s.zeta_tilde(tm, 0.0) == pytest.approx(0.0, abs=1e-14)
    for th in np.linspace(0.0, tp - 1e-6, 25):
        assert s.zeta(th, 0.0) > 0.0
    for th in np.linspace(tm + 1e-6, np.pi, 25):
        assert s.zeta_tilde(th, 0.0) > 0.0


def test_constant_energy_normalizes_direction():
    e = tl.constant_energy(2.0, (0.0, 3.0, 4.0))
    np.testing.assert_allclose(e.y_hat(0.1, 0.2), [0.0, 0.6, 0.8], atol=1e-15)
    with pytest.raises(ConfigError):
        tl.constant_energy(1.0, (0.0, 0.0, 0.0))


# ---------------------------------------------------------------- geometry


def test_unit_vectors():
    rng = np.random.default_rng(SEED)
    for th, ph in random_points(rng, 10):
        x = tl.unit_vector(th, ph)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(tl.unit_vector_mirror(th, ph),
                                   tl.unit_vector(np.pi - th, ph), atol=1e-14)
        # derivative fields agree with finite differences
        h = 1e-6
        dx_th = (tl.unit_vector(th + h, ph) - tl.unit_vector(th - h, ph)) / (2 * h)
        dx_ph = (tl.unit_vector(th, ph + h) - tl.unit_vector(th, ph - h)) / (2 * h)
        got = tl.d_unit_vector(th, ph)
        np.testing.assert_allclose(got[0], dx_th, atol=1e-9)
        np.testing.assert_allclose(got[1], dx_ph, atol=1e-9)


def test_u_matrix_rotates_sigma3_to_radial():
    rng = np.random.default_rng(SEED)
    for th, ph in random_points(rng, 10):
        u = paper.u_matrix(th, ph)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(u @ SIGMA3 @ u.conj().T,
                                   pauli_dot(tl.unit_vector(th, ph)), atol=1e-13)


def test_beta_forms_match_u_derivatives():
    """U^dag dU = sum_j beta_j sigma_j, checked against finite differences."""
    rng = np.random.default_rng(SEED)
    h = 1e-6
    for th, ph in random_points(rng, 8):
        u = paper.u_matrix(th, ph)
        du = [
            (paper.u_matrix(th + h, ph) - paper.u_matrix(th - h, ph)) / (2 * h),
            (paper.u_matrix(th, ph + h) - paper.u_matrix(th, ph - h)) / (2 * h),
        ]
        betas = paper.beta_forms(th, ph)
        for a in range(2):
            lhs = u.conj().T @ du[a]
            rhs = sum(b[a] * s for b, s in zip(betas, (SIGMA1, SIGMA2, SIGMA3)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_sigma_check_closed_form():
    rng = np.random.default_rng(SEED)
    for _ in range(6):
        xi, zeta = rng.uniform(0.4, 2.0, 2)
        rho_d = np.diag([xi, zeta]).astype(complex)
        rho_d_inv = np.diag([1.0 / xi, 1.0 / zeta]).astype(complex)
        for j in (1, 2, 3):
            s = (SIGMA1, SIGMA2, SIGMA3)[j - 1]
            expected = 2.0 * s - rho_d @ s @ rho_d_inv - rho_d_inv @ s @ rho_d
            np.testing.assert_allclose(paper.sigma_check(j, xi, zeta), expected,
                                       atol=1e-12)
    with pytest.raises(ValueError):
        paper.sigma_check(7, 1.0, 1.0)


# ---------------------------------------------------------------- metric


def test_metric_frozen_reference_values():
    """Reference scales at theta = pi/4, phi = 0: zeta = 1 + sqrt(2)."""
    s = tl.default_scales()
    eta = tl.eta_matrix(np.pi / 4.0, 0.0, s, tl.PLUS)
    expected = np.array([
        [1.0 + SQ2 / 2.0, -(1.0 + SQ2 / 2.0)],
        [-(1.0 + SQ2 / 2.0), 3.0 + 1.5 * SQ2],
    ])
    np.testing.assert_allclose(eta, expected, atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(eta), [1.0, 3.0 + 2.0 * SQ2],
                               atol=1e-12)
    rho = tl.rho_matrix(np.pi / 4.0, 0.0, s, tl.PLUS)
    np.testing.assert_allclose(
        rho,
        [[1.2071067811865475, -0.5], [-0.5, 2.2071067811865475]],
        atol=1e-12,
    )


def test_rho_closed_vs_spectral_root():
    rng = np.random.default_rng(SEED)
    for scales in (tl.default_scales(), wavy_scales()):
        for patch, pts in ((tl.PLUS, random_points(rng, 8, hi=2.0)),
                           (tl.MINUS, random_points(rng, 8, lo=1.2))):
            for th, ph in pts:
                eta = tl.eta_matrix(th, ph, scales, patch)
                rho = tl.rho_matrix(th, ph, scales, patch)
                np.testing.assert_allclose(rho, hermitian_sqrt(eta), atol=1e-12)
                np.testing.assert_allclose(
                    tl.rho_inverse_matrix(th, ph, scales, patch),
                    np.linalg.inv(rho), atol=1e-12)


def test_eta_eigenvalues_are_squared_scales():
    rng = np.random.default_rng(SEED)
    s = wavy_scales()
    for th, ph in random_points(rng, 8):
        eta = tl.eta_matrix(th, ph, s, tl.PLUS)
        xi, zeta = s.xi(th, ph), s.zeta(th, ph)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(eta)),
                                   np.sort([xi * xi, zeta * zeta]), atol=1e-12)


def test_eta_partials_analytic_vs_fd():
    rng = np.random.default_rng(SEED)
    s = wavy_scales()
    h = 1e-6
    for patch in (tl.PLUS, tl.MINUS):
        for th, ph in random_points(rng, 6, lo=1.2, hi=2.0):
            got = tl.eta_partials(th, ph, s, patch)
            fd_th = (tl.eta_matrix(th + h, ph, s, patch)
                     - tl.eta_matrix(th - h, ph, s, patch)) / (2 * h)
            fd_ph = (tl.eta_matrix(th, ph + h, s, patch)
                     - tl.eta_matrix(th, ph - h, s, patch)) / (2 * h)
            np.testing.assert_allclose(got[0], fd_th, atol=1e-7)
            np.testing.assert_allclose(got[1], fd_ph, atol=1e-7)


def test_metric_field_domains():
    mf_plus = tl.metric_field(tl.default_scales(), tl.PLUS)
    mf_minus = tl.metric_field(tl.default_scales(), tl.MINUS)
    assert mf_plus.contains([0.0, 0.3]) and not mf_plus.contains([2.2, 0.3])
    assert mf_minus.contains([np.pi, 0.3]) and not mf_minus.contains([0.9, 0.3])


# ------------------------------------------------------------- transition


def test_transition_relates_the_chart_metrics():
    rng = np.random.default_rng(SEED)
    for scales in (tl.default_scales(), wavy_scales()):
        for th, ph in overlap_points(rng, 8):
            g = tl.transition_g(th, ph, scales)
            lhs = g.conj().T @ tl.eta_matrix(th, ph, scales, tl.PLUS) @ g
            np.testing.assert_allclose(lhs, tl.eta_matrix(th, ph, scales, tl.MINUS),
                                       atol=1e-12)


def test_transition_partials_analytic_vs_fd():
    rng = np.random.default_rng(SEED)
    s = wavy_scales()
    h = 1e-6
    for th, ph in overlap_points(rng, 6):
        got = tl.transition_g_partials(th, ph, s)
        fd_th = (tl.transition_g(th + h, ph, s) - tl.transition_g(th - h, ph, s)) / (2 * h)
        fd_ph = (tl.transition_g(th, ph + h, s) - tl.transition_g(th, ph - h, s)) / (2 * h)
        np.testing.assert_allclose(got[0], fd_th, atol=1e-7)
        np.testing.assert_allclose(got[1], fd_ph, atol=1e-7)


def test_intertwiner_routes_agree():
    """G from (a) the closed form, (b) rho g rho~^{-1}, (c) sigma3 (xhat'.sigma),
    (d) U(theta) U(pi-theta)^dag all coincide and are unitary."""
    rng = np.random.default_rng(SEED)
    for scales in (tl.default_scales(), wavy_scales()):
        mf_plus = tl.metric_field(scales, tl.PLUS)
        mf_minus = tl.metric_field(scales, tl.MINUS)
        tf = tl.transition_field(scales)
        for th, ph in overlap_points(rng, 6):
            closed = tl.big_g_s2(th, ph)
            np.testing.assert_allclose(closed.conj().T @ closed, np.eye(2), atol=1e-13)
            assembled = big_g(mf_plus, mf_minus, tf, [th, ph], check_tol=1e-10)
            np.testing.assert_allclose(assembled, closed, atol=1e-11)
            route_c = SIGMA3 @ pauli_dot(paper.unit_vector_prime(th, ph))
            np.testing.assert_allclose(route_c, closed, atol=1e-13)
            route_d = paper.u_matrix(th, ph) @ paper.u_matrix(np.pi - th, ph).conj().T
            np.testing.assert_allclose(route_d, closed, atol=1e-13)


def test_sigma_tilde_closed_forms():
    rng = np.random.default_rng(SEED)
    for th, ph in random_points(rng, 8):
        gg = tl.big_g_s2(th, ph)
        for j in (1, 2, 3):
            expected = gg.conj().T @ (SIGMA1, SIGMA2, SIGMA3)[j - 1] @ gg
            np.testing.assert_allclose(tl.sigma_tilde(j, th, ph), expected,
                                       atol=1e-13)
    with pytest.raises(ValueError):
        tl.sigma_tilde(0, 0.3, 0.3)


# ------------------------------------------------------------- connection


def test_a_zero_closed_vs_metric_derivative_route():
    rng = np.random.default_rng(SEED)
    for scales in (tl.default_scales(), wavy_scales()):
        for patch, pts in ((tl.PLUS, random_points(rng, 8, hi=2.0)),
                           (tl.MINUS, random_points(rng, 8, lo=1.2))):
            mf = tl.metric_field(scales, patch)
            for th, ph in pts:
                closed = tl.a_zero_closed(th, ph, scales, patch)
                generic = a_zero(mf, [th, ph])
                for a in range(2):
                    np.testing.assert_allclose(closed[a], generic[a], atol=1e-10)


def test_full_connection_metric_compatibility():
    rng = np.random.default_rng(SEED)
    alpha = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.4, -0.15))
    for scales in (tl.default_scales(), wavy_scales()):
        for patch, pts in ((tl.PLUS, random_points(rng, 8, hi=2.0)),
                           (tl.MINUS, random_points(rng, 8, lo=1.2))):
            mf = tl.metric_field(scales, patch)
            form = assemble_connection(
                mf,
                omega_fn=lambda r, p=patch, s=scales: tl.omega_lower(
                    r[0], r[1], s, alpha, p),
                a0_fn=lambda r, p=patch, s=scales: tl.a_zero_closed(
                    r[0], r[1], s, p),
            )
            for th, ph in pts:
                assert check_metric_compatibility(form, mf, [th, ph]) <= 1e-9


def test_omega_is_pseudo_hermitian():
    rng = np.random.default_rng(SEED)
    alpha = tl.constant_alpha((0.3, 0.0, -0.2), (0.0, 0.25, 0.1))
    s = wavy_scales()
    for patch, pts in ((tl.PLUS, random_points(rng, 8, hi=2.0)),
                       (tl.MINUS, random_points(rng, 8, lo=1.2))):
        for th, ph in pts:
            eta = tl.eta_matrix(th, ph, s, patch)
            for w in tl.omega_lower(th, ph, s, alpha, patch):
                assert pseudo_hermiticity_residual(w, eta) <= 1e-10


def test_gluing_form_closed_vs_definition():
    rng = np.random.default_rng(SEED)
    for scales in (tl.default_scales(), wavy_scales()):
        for th, ph in overlap_points(rng, 8):
            closed = paper.gamma_total(th, ph, scales)
            direct = paper.gamma_total_from_definition(th, ph, scales)
            for a in range(2):
                np.testing.assert_allclose(closed[a], direct[a], atol=1e-12)


def test_conjugated_gluing_piece_three_routes():
    rng = np.random.default_rng(SEED)
    for th, ph in random_points(rng, 10):
        gg = tl.big_g_s2(th, ph)
        closed = tl.gamma_minus_conjugated(th, ph)
        gm = paper.gamma_minus(th, ph)
        for a in range(2):
            np.testing.assert_allclose(closed[a], gg.conj().T @ gm[a] @ gg,
                                       atol=1e-13)
        # reflection route: theta parts agree at the mirrored point, phi
        # parts flip (the pullback of dtheta absorbs one sign)
        gp = tl.gamma_plus(np.pi - th, ph)
        np.testing.assert_allclose(closed[0], gp[0], atol=1e-12)
        np.testing.assert_allclose(closed[1], -gp[1], atol=1e-12)


def test_cross_chart_connection_consistency():
    """The assembled minus-chart coefficients equal the gauge transform of
    the plus-chart ones on the overlap."""
    rng = np.random.default_rng(SEED)
    alpha = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.4, -0.15))
    for scales in (tl.default_scales(), wavy_scales()):
        tf = tl.transition_field(scales)

        def comps(patch, r, s=scales):
            a0 = tl.a_zero_closed(r[0], r[1], s, patch)
            w = tl.omega_lower(r[0], r[1], s, alpha, patch)
            return [a0[i] + w[i] for i in range(2)]

        plus_form = assemble_connection(
            tl.metric_field(scales, tl.PLUS),
            omega_fn=lambda r: tl.omega_lower(r[0], r[1], scales, alpha, tl.PLUS),
            a0_fn=lambda r: tl.a_zero_closed(r[0], r[1], scales, tl.PLUS),
        )
        for th, ph in overlap_points(rng, 6):
            transformed = gauge_transform_connection(plus_form, tf, [th, ph])
            minus = comps(tl.MINUS, [th, ph])
            for a in range(2):
                np.testing.assert_allclose(transformed[a], minus[a], atol=1e-9)


# ------------------------------------------------ Hermitian generator


def sample_energy():
    return tl.constant_energy(0.8, (0.2, -0.3, 0.93))


def generic_hermitian_generator(scales, alpha, energy, patch, curve, t):
    """h(t) through the generic machinery: assemble A, add the energy term,
    then conjugate with rho and add the metric-motion piece."""
    mf = tl.metric_field(scales, patch)
    form = assemble_connection(
        mf,
        omega_fn=lambda r: tl.omega_lower(r[0], r[1], scales, alpha, patch),
        a0_fn=lambda r: tl.a_zero_closed(r[0], r[1], scales, patch),
    )
    cm = CurveMetric(mf, curve)
    r = curve.position(t)
    h_full = form.contracted(r, curve.velocity(t))
    if energy is not None:
        op = mf.operator(r)
        h_full = h_full + op.rho_inv @ tl.energy_matrix(r[0], r[1], energy, patch) @ op.rho
    return hermitian_representation(h_full, cm, t)


def test_hermitian_generator_closed_vs_generic_plus():
    alpha = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.4, -0.15))
    energy = sample_energy()
    curve = tl.meridian_curve(0.7, 0.5, 1.3)
    for scales in (tl.default_scales(), wavy_scales()):
        for t in (0.1, 0.45, 0.9):
            th, ph = curve.position(t)
            thd, phd = curve.velocity(t)
            closed = tl.hermitian_hamiltonian(th, ph, thd, phd, alpha, energy, tl.PLUS)
            generic = generic_hermitian_generator(scales, alpha, energy, tl.PLUS, curve, t)
            np.testing.assert_allclose(generic, closed, atol=1e-9)
            assert max_abs(closed - closed.conj().T) <= 1e-12


def test_hermitian_generator_closed_vs_generic_minus():
    alpha = tl.constant_alpha((0.0, 0.2, -0.1), (0.3, 0.0, 0.12))
    energy = sample_energy()
    curve = tl.meridian_curve(-0.4, 2.0, 2.6)
    for scales in (tl.default_scales(), wavy_scales()):
        for t in (0.15, 0.6, 0.85):
            th, ph = curve.position(t)
            thd, phd = curve.velocity(t)
            closed = tl.hermitian_hamiltonian(th, ph, thd, phd, alpha, energy, tl.MINUS)
            generic = generic_hermitian_generator(scales, alpha, energy, tl.MINUS, curve, t)
            np.testing.assert_allclose(generic, closed, atol=1e-9)


def test_hermitian_generator_has_no_scale_dependence():
    """The generic route lands on the same h for unrelated scale choices."""
    alpha = tl.constant_alpha((0.1, 0.1, 0.1), (0.2, -0.1, 0.0))
    energy = sample_energy()
    curve = tl.circle_curve(1.2)
    references = None
    for scales in (tl.default_scales(), wavy_scales(),
                   tl.constant_scales(1.3, 0.7, 1.1, 0.9)):
        values = [generic_hermitian_generator(scales, alpha, energy, tl.PLUS, curve, t)
                  for t in (0.2, 0.8)]
        if references is None:
            references = values
        else:
            for got, ref in zip(values, references):
                np.testing.assert_allclose(got, ref, atol=1e-10)


def test_metric_motion_term_closed_form():
    """(i/2)[rhodot, rho^{-1}] along a curve matches h_rho_term."""
    s = wavy_scales()
    curve = tl.meridian_curve(0.9, 0.6, 1.4)
    for patch in (tl.PLUS, tl.MINUS):
        mf = tl.metric_field(s, patch, theta_plus=2.2, theta_minus=0.4)
        cm = CurveMetric(mf, curve)
        for t in (0.2, 0.7):
            th, ph = curve.position(t)
            thd, phd = curve.velocity(t)
            rho_dot = cm.rho_dot(t)
            direct = 0.5j * (rho_dot @ cm.operator(t).rho_inv
                             - cm.operator(t).rho_inv @ rho_dot)
            closed = paper.h_rho_term(th, ph, thd, phd, s, patch)
            np.testing.assert_allclose(direct, closed, atol=1e-9)


def test_pseudo_hermiticity_defect_equals_metric_motion():
    """Full generator: H^dag - eta H eta^{-1} = i etadot eta^{-1} on a curve."""
    s = tl.default_scales()
    alpha = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.4, -0.15))
    energy = sample_energy()
    curve = tl.meridian_curve(0.3, 0.5, 1.5)
    mf = tl.metric_field(s, tl.PLUS)
    form = assemble_connection(
        mf,
        omega_fn=lambda r: tl.omega_lower(r[0], r[1], s, alpha, tl.PLUS),
        a0_fn=lambda r: tl.a_zero_closed(r[0], r[1], s, tl.PLUS),
    )
    cm = CurveMetric(mf, curve)
    for t in (0.25, 0.75):
        r = curve.position(t)
        op = mf.operator(r)
        h_full = (form.contracted(r, curve.velocity(t))
                  + op.rho_inv @ tl.energy_matrix(r[0], r[1], energy, tl.PLUS) @ op.rho)
        defect = h_full.conj().T - op.eta @ h_full @ op.eta_inv
        np.testing.assert_allclose(defect, 1j * cm.eta_dot(t) @ op.eta_inv,
                                   atol=1e-9)


# ---------------------------------------------------------------- energy


def test_energy_matrix_plus_chart():
    e = sample_energy()
    m = tl.energy_matrix(0.8, 1.1, e, tl.PLUS)
    np.testing.assert_allclose(m, 0.4 * pauli_dot(e.y_hat(0.8, 1.1)), atol=1e-14)


def test_energy_matrix_minus_chart_is_conjugated():
    rng = np.random.default_rng(SEED)
    e = sample_energy()
    for th, ph in random_points(rng, 8):
        gg = tl.big_g_s2(th, ph)
        expected = gg.conj().T @ tl.energy_matrix(th, ph, e, tl.PLUS) @ gg
        np.testing.assert_allclose(tl.energy_matrix(th, ph, e, tl.MINUS),
                                   expected, atol=1e-13)


def test_energy_matrix_south_pole_convention():
    e = sample_energy()
    pinned = tl.energy_matrix(np.pi, 2.5, e, tl.MINUS, pole_phi=0.7)
    np.testing.assert_allclose(pinned, tl.energy_matrix(np.pi - 1e-9, 0.7, e, tl.MINUS),
                               atol=1e-7)
    with pytest.raises(PoleAmbiguity):
        tl.energy_matrix(np.pi, 2.5, e, tl.MINUS, pole_phi=None)


# ---------------------------------------------------------------- curves


def test_circle_curve():
    c = tl.circle_curve(1.1, revolutions=2.0, phi0=0.4)
    np.testing.assert_allclose(c.position(0.0), [1.1, 0.4], atol=1e-14)
    np.testing.assert_allclose(c.position(1.0), [1.1, 0.4 + 4.0 * np.pi], atol=1e-12)
    assert c.velocity_consistency() <= 1e-6


def test_meridian_curve():
    c = tl.meridian_curve(0.2, 0.5, 2.5, t_start=1.0, t_end=3.0)
    np.testing.assert_allclose(c.position(1.0), [0.5, 0.2], atol=1e-14)
    np.testing.assert_allclose(c.position(3.0), [2.5, 0.2], atol=1e-14)
    assert c.velocity_consistency() <= 1e-6


def test_great_circle_curve():
    c = tl.great_circle_curve(0.3)
    # stays on the sphere: theta matches the Cartesian point
    for t in np.linspace(0.0, 1.0, 57):
        th, ph = c.position(t)
        x = tl.unit_vector(th, ph)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    # phi is continuous through the branch cut and advances by 2 pi
    ts = np.linspace(0.0, 1.0, 2001)
    phis = np.array([c.position(t)[1] for t in ts])
    assert np.max(np.abs(np.diff(phis))) < 0.02
    assert phis[-1] - phis[0] == pytest.approx(2.0 * np.pi, abs=1e-9)
    assert c.velocity_consistency() <= 1e-5


def test_great_circle_zero_inclination_is_equator():
    c = tl.great_circle_curve(0.0)
    for t in (0.1, 0.6, 0.95):
        assert c.position(t)[0] == pytest.approx(np.pi / 2.0, abs=1e-12)


def test_waypoint_curve():
    c = tl.waypoint_curve([(0.0, 0.5, 0.0), (1.0, 1.5, 0.5), (3.0, 1.0, 2.0)])
    np.testing.assert_allclose(c.position(0.5), [1.0, 0.25], atol=1e-12)
    np.testing.assert_allclose(c.velocity(2.0), [-0.25, 0.75], atol=1e-12)
    with pytest.raises(ConfigError):
        tl.waypoint_curve([(0.0, 0.5, 0.0)])
    with pytest.raises(ConfigError):
        tl.waypoint_curve([(0.0, 0.5, 0.0), (0.0, 1.0, 0.0)])


# ---------------------------------------------------------------- assembly


def test_build_system_single_chart_each_side():
    north = tl.build_system(tl.circle_curve(0.9))
    assert north.charts == (tl.PLUS,)
    assert north.overlap_window is None
    south = tl.build_system(tl.circle_curve(2.4))
    assert south.charts == (tl.MINUS,)


def test_build_system_meridian_two_charts():
    curve = tl.meridian_curve(0.3, np.pi / 6.0, 5.0 * np.pi / 6.0)
    system = tl.build_system(curve, energy=sample_energy())
    assert system.charts == (tl.PLUS, tl.MINUS)
    lo, hi = system.overlap_window
    assert 0.2 < lo < hi < 0.8
    tau = system.default_tau()
    assert lo < tau < hi
    # the switch point sits in the chart overlap in theta
    th_tau = system.curve.position(tau)[0]
    assert tl.THETA_MINUS_DEFAULT < th_tau < tl.THETA_PLUS_DEFAULT


def test_build_system_reversed_meridian_swaps_order():
    curve = tl.meridian_curve(0.3, 5.0 * np.pi / 6.0, np.pi / 6.0)
    system = tl.build_system(curve)
    assert system.charts == (tl.MINUS, tl.PLUS)


def test_build_system_rejects_pole_touching_curves():
    with pytest.raises(CurveTouchesPoleMargin):
        tl.build_system(tl.meridian_curve(0.0, 0.5, 1e-5))
    with pytest.raises(CurveTouchesPoleMargin):
        tl.build_system(tl.meridian_curve(0.0, 2.0, np.pi))


def test_build_system_rejects_multiple_switches():
    curve = tl.waypoint_curve([(0.0, 0.5, 0.0), (1.0, 2.9, 0.0), (2.0, 0.5, 0.0)])
    with pytest.raises(ConfigError):
        tl.build_system(curve)


def test_build_system_rejects_bad_chart_bounds():
    with pytest.raises(ConfigError):
        tl.build_system(tl.circle_curve(1.0), theta_plus=0.4, theta_minus=1.0)


def test_build_system_energy_section_is_compatible_across_charts():
    curve = tl.meridian_curve(0.0, np.pi / 6.0, 5.0 * np.pi / 6.0)
    system = tl.build_system(curve, energy=sample_energy())
    samples = [np.array([th, ph]) for th, ph in
               overlap_points(np.random.default_rng(SEED), 8)]
    resid = check_section_compatibility(
        system.energy, tl.PLUS, tl.MINUS,
        system.patch(tl.PLUS).metric, system.patch(tl.MINUS).metric,
        system.transition, samples)
    assert resid <= 1e-10


def test_build_system_energy_generator_is_pseudo_hermitian():
    curve = tl.circle_curve(1.0)
    system = tl.build_system(curve, energy=sample_energy())
    h_e = system.energy_generator(tl.PLUS)
    eta = system.metric_operator(tl.PLUS, curve.position(0.3)).eta
    assert pseudo_hermiticity_residual(h_e(0.3), eta) <= 1e-10


# ------------------------------------------------------ quick evolution


def test_equatorial_circle_norm_is_conserved():
    system = tl.build_system(tl.circle_curve(np.pi / 2.0), energy=sample_energy())
    from qbundle.bundle import evolve_across_patches
    psi0 = np.array([1.0, 0.5 + 0.5j])
    res = evolve_across_patches(system, psi0, stepper=StepperConfig(dt=1e-3))
    drift = np.max(np.abs(res.eta_norm - res.eta_norm[0]))
    assert drift <= 1e-8


def test_meridian_two_chart_run_is_tau_independent():
    curve = tl.meridian_curve(0.3, np.pi / 6.0, 5.0 * np.pi / 6.0)
    system = tl.build_system(curve, energy=sample_energy())
    psi0 = np.array([0.8, -0.2 + 0.4j])
    finals = []
    for tau in (0.35, 0.6):
        res = evolve_helper(system, psi0, tau)
        drift = np.max(np.abs(res.eta_norm - res.eta_norm[0]))
        assert drift <= 1e-8
        finals.append(res.final_state)
    np.testing.assert_allclose(finals[0], finals[1], atol=1e-8)


def evolve_helper(system, psi0, tau):
    from qbundle.bundle import evolve_across_patches
    return evolve_across_patches(system, psi0, tau=tau, stepper=StepperConfig(dt=1e-3))
