"""Acceptance battery: every headline guarantee at its stated tolerance.

Each test covers one numbered criterion, prints a single summary line with
the measured residual against the tolerance, and fails if the bound is
exceeded.  Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to
see the summary lines on passing runs too).
"""

import math

import numpy as np

from qbundle import twolevel as tl
from qbundle.bundle import big_g, check_section_compatibility, evolve_across_patches, unitarity_defect
from qbundle.connection import (
    ConnectionForm,
    CurvePath,
    assemble_connection,
    check_metric_compatibility,
    curvature,
    transport_operator,
)
from qbundle.dynamics import CurveMetric, hermitian_representation, map_state
from qbundle.linalg import SIGMA1, SIGMA2, SIGMA3, matrix_exp, max_abs
from qbundle.stepping import StepperConfig

SEED = 20260823

ALPHA = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.4, -0.15))
ENERGY = tl.constant_energy(0.8, (0.2, -0.3, 0.93))
PSI0 = np.array([0.8, -0.2 + 0.4j])
DT = StepperConfig(dt=1e-3)


def _report(num: int, name: str, worst: float, tol: float) -> None:
    status = "PASS" if worst <= tol else "FAIL"
    print(f"criterion {num:02d} {name}: max residual {worst:.3e} "
          f"(tol {tol:.1e}) {status}")
    assert worst <= tol, (
        f"criterion {num:02d} {name}: residual {worst:.3e} exceeds {tol:.1e}"
    )


def wavy_scales() -> tl.ScaleFields:
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


def chart_points(rng, patch, n):
    if patch == tl.PLUS:
        thetas = rng.uniform(0.05, tl.THETA_PLUS_DEFAULT - 0.05, n)
    else:
        thetas = rng.uniform(tl.THETA_MINUS_DEFAULT + 0.05, np.pi - 0.05, n)
    phis = rng.uniform(-np.pi, 3.0 * np.pi, n)
    return list(zip(thetas, phis))


def overlap_sample(rng, n):
    thetas = rng.uniform(tl.THETA_MINUS_DEFAULT + 0.05,
                         tl.THETA_PLUS_DEFAULT - 0.05, n)
    phis = rng.uniform(-np.pi, 3.0 * np.pi, n)
    return list(zip(thetas, phis))


def full_form(scales, patch):
    mf = tl.metric_field(scales, patch)
    form = assemble_connection(
        mf,
        omega_fn=lambda r: tl.omega_lower(r[0], r[1], scales, ALPHA, patch),
        a0_fn=lambda r: tl.a_zero_closed(r[0], r[1], scales, patch),
    )
    return mf, form


def meridian_system(scales=None, energy=ENERGY):
    curve = tl.meridian_curve(0.3, np.pi / 6.0, 5.0 * np.pi / 6.0)
    return tl.build_system(curve, scales=scales, alpha=ALPHA, energy=energy)


# --------------------------------------------------------------------------


def test_criterion_01_metric_compatibility():
    """Assembled connections satisfy the compatibility condition on both
    charts at 100 random points each."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for scales in (tl.default_scales(), wavy_scales()):
        for patch in (tl.PLUS, tl.MINUS):
            mf, form = full_form(scales, patch)
            for th, ph in chart_points(rng, patch, 100):
                worst = max(worst, check_metric_compatibility(form, mf, [th, ph]))
    _report(1, "metric-compatibility", worst, 1e-8)


def test_criterion_02_norm_conservation_equatorial_circle():
    """eta-norm drift stays below 1e-6 over a full equatorial circle."""
    system = tl.build_system(tl.circle_curve(np.pi / 2.0), alpha=ALPHA, energy=ENERGY)
    res = evolve_across_patches(system, PSI0, stepper=DT)
    drift = float(np.max(np.abs(res.eta_norm - res.eta_norm[0])))
    _report(2, "norm-conservation", drift, 1e-6)


def test_criterion_03_hermitian_generator_closed_form():
    """The similarity-transformed generator is Hermitian and matches the
    closed scale-free expression."""
    worst_herm = 0.0
    worst_match = 0.0
    curves = {tl.PLUS: tl.meridian_curve(0.7, 0.4, 1.6),
              tl.MINUS: tl.meridian_curve(-0.4, 1.7, 2.9)}
    for scales in (tl.default_scales(), wavy_scales()):
        for patch, curve in curves.items():
            mf, form = full_form(scales, patch)
            cm = CurveMetric(mf, curve)
            for t in np.linspace(0.05, 0.95, 10):
                r = curve.position(t)
                op = mf.operator(r)
                h_full = (form.contracted(r, curve.velocity(t))
                          + op.rho_inv
                          @ tl.energy_matrix(r[0], r[1], ENERGY, patch) @ op.rho)
                h = hermitian_representation(h_full, cm, float(t))
                worst_herm = max(worst_herm, max_abs(h - h.conj().T))
                closed = tl.hermitian_hamiltonian(
                    r[0], r[1], *curve.velocity(t), ALPHA, ENERGY, patch)
                worst_match = max(worst_match, max_abs(h - closed))
    _report(3, "hermitian-generator (hermiticity)", worst_herm, 1e-8)
    _report(3, "hermitian-generator (closed form)", worst_match, 1e-7)


def test_criterion_04_reflection_pullback_identity():
    """The conjugated gluing piece equals the reflected one-form at 1000
    random points, to near machine precision."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        th = rng.uniform(0.0, np.pi)
        ph = rng.uniform(-np.pi, 3.0 * np.pi)
        conj = tl.gamma_minus_conjugated(th, ph)
        refl = tl.gamma_plus(np.pi - th, ph)
        worst = max(worst, max_abs(conj[0] - refl[0]), max_abs(conj[1] + refl[1]))
    _report(4, "reflection-pullback", worst, 1e-12)


def test_criterion_05_scale_field_independence():
    """The Hermitian generator obtained through the generic route is
    identical for unrelated scale-field choices."""
    curve = tl.circle_curve(1.2)
    scale_sets = (tl.default_scales(), wavy_scales(),
                  tl.constant_scales(1.3, 0.7, 1.1, 0.9))
    generators = []
    for scales in scale_sets:
        mf, form = full_form(scales, tl.PLUS)
        cm = CurveMetric(mf, curve)

        def h_of(t, mf=mf, form=form, cm=cm):
            r = curve.position(t)
            op = mf.operator(r)
            h_full = (form.contracted(r, curve.velocity(t))
                      + op.rho_inv
                      @ tl.energy_matrix(r[0], r[1], ENERGY, tl.PLUS) @ op.rho)
            return hermitian_representation(h_full, cm, float(t))

        generators.append(h_of)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 100):
        ref = generators[0](t)
        for other in generators[1:]:
            worst = max(worst, max_abs(other(t) - ref))
    _report(5, "scale-independence", worst, 1e-10)


def test_criterion_06_representation_equivalence():
    """Hermitian-picture evolution lands on rho~ psi~ from the native
    picture after a two-chart run."""
    system = meridian_system()
    res_eta = evolve_across_patches(system, PSI0, stepper=DT)
    phi0 = map_state(system.curve_metric(tl.PLUS), 0.0, PSI0)
    res_h = evolve_across_patches(system, phi0, stepper=DT, representation="hermitian")
    rho_end = system.metric_operator(
        tl.MINUS, system.curve.position(system.curve.t_end)).rho
    resid = max_abs(res_h.final_state - rho_end @ res_eta.final_state)
    _report(6, "representation-equivalence", resid, 1e-6)


def test_criterion_07_switch_time_independence():
    """The physical endpoint does not depend on where in the overlap dwell
    the chart switch happens (5 values)."""
    system = meridian_system()
    finals = [
        evolve_across_patches(system, PSI0, tau=tau, stepper=DT).final_state
        for tau in (0.3, 0.4, 0.5, 0.6, 0.7)
    ]
    worst = max(max_abs(f - finals[0]) for f in finals[1:])
    _report(7, "switch-time-independence", worst, 1e-6)


def test_criterion_08_reparametrization_invariance():
    """With no energy term the endpoint depends on the path only: a linear
    and a quadratic parametrization of the same meridian agree."""
    linear = tl.meridian_curve(0.3, np.pi / 6.0, 5.0 * np.pi / 6.0)
    quad = CurvePath(
        0.0, 1.0,
        lambda t: linear.position(t * t),
        lambda t: 2.0 * t * linear.velocity(t * t),
    )
    finals = []
    for curve in (linear, quad):
        system = tl.build_system(curve, alpha=ALPHA, energy=None)
        finals.append(evolve_across_patches(system, PSI0, stepper=DT).final_state)
    _report(8, "reparametrization-invariance", max_abs(finals[1] - finals[0]), 1e-6)


def test_criterion_09_canonical_curvature_identity():
    """The curvature of the canonical connection equals half the exterior
    derivative of its coefficients (50 interior points)."""
    rng = np.random.default_rng(SEED)
    scales = wavy_scales()
    h = 1e-5
    worst = 0.0
    for patch in (tl.PLUS, tl.MINUS):
        form = ConnectionForm(
            patch, lambda r, p=patch: tl.a_zero_closed(r[0], r[1], scales, p), dim=2)
        for th, ph in chart_points(rng, patch, 25):
            f_num = curvature(form, [th, ph])

            def a0(r):
                return tl.a_zero_closed(r[0], r[1], scales, patch)

            d_theta = [(x - y) / (2 * h)
                       for x, y in zip(a0([th + h, ph]), a0([th - h, ph]))]
            d_phi = [(x - y) / (2 * h)
                     for x, y in zip(a0([th, ph + h]), a0([th, ph - h]))]
            ext = d_theta[1] - d_phi[0]  # (dA)_{theta phi}
            worst = max(worst, max_abs(f_num[0, 1] - 0.5 * ext))
    _report(9, "canonical-curvature", worst, 1e-6)


def test_criterion_10_transport_against_exponential():
    """Parallel transport under a constant generator reproduces the matrix
    exponential."""
    gen = 0.3 * SIGMA1 + 0.7 * SIGMA2 - 0.2 * SIGMA3 + 0.1 * np.eye(2)
    form = ConnectionForm("main", lambda r: [gen.astype(complex)], dim=1)
    path = CurvePath(0.0, 1.0, lambda t: np.array([t]), lambda t: np.array([1.0]))
    res = transport_operator(form, path, stepper=DT)
    resid = max_abs(res.final_operator - matrix_exp(-1j * gen))
    _report(10, "transport-vs-exponential", resid, 1e-8)


def test_criterion_11_intertwiner_and_sections():
    """The chart intertwiner is unitary and the energy section is
    consistent across charts on the overlap."""
    rng = np.random.default_rng(SEED)
    worst_unitary = 0.0
    worst_section = 0.0
    for scales in (tl.default_scales(), wavy_scales()):
        system = meridian_system(scales=scales)
        mf_plus = system.patch(tl.PLUS).metric
        mf_minus = system.patch(tl.MINUS).metric
        tf = system.transition
        pts = [np.array([th, ph]) for th, ph in overlap_sample(rng, 50)]
        for r in pts:
            gg = big_g(mf_plus, mf_minus, tf, r, check_tol=None)
            worst_unitary = max(worst_unitary, unitarity_defect(gg))
        worst_section = max(worst_section, check_section_compatibility(
            system.energy, tl.PLUS, tl.MINUS, mf_plus, mf_minus, tf, pts))
    _report(11, "intertwiner-unitarity", worst_unitary, 1e-10)
    _report(11, "section-compatibility", worst_section, 1e-8)


def test_criterion_12_pseudo_hermiticity_defect_law():
    """Along moving metrics the generator violates pseudo-Hermiticity by
    exactly i etadot eta^{-1}."""
    worst = 0.0
    curves = {tl.PLUS: tl.meridian_curve(0.9, 0.4, 1.6),
              tl.MINUS: tl.meridian_curve(0.1, 1.7, 2.9)}
    for scales in (tl.default_scales(), wavy_scales()):
        for patch, curve in curves.items():
            mf, form = full_form(scales, patch)
            cm = CurveMetric(mf, curve)
            for t in np.linspace(0.05, 0.95, 15):
                r = curve.position(t)
                op = mf.operator(r)
                h_full = (form.contracted(r, curve.velocity(t))
                          + op.rho_inv
                          @ tl.energy_matrix(r[0], r[1], ENERGY, patch) @ op.rho)
                defect = (h_full.conj().T - op.eta @ h_full @ op.eta_inv
                          - 1j * cm.eta_dot(float(t)) @ op.eta_inv)
                worst = max(worst, max_abs(defect))
    _report(12, "pseudo-hermiticity-defect-law", worst, 1e-8)
