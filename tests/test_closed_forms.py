"""The two-level model's closed-form generators, which a run integrates, against
the generic generators that stay their cross-check: runs with the slot filled
and emptied agree, the chart checks are the same, and ``check`` compares the
two on every run."""

import dataclasses
import math
import re

import numpy as np
import pytest

import paper_identities as paper
from qbundle import cli, linalg
from qbundle import twolevel as tl
from qbundle.bundle import evolve_across_patches
from qbundle.errors import OutOfPatch, PoleAmbiguity
from qbundle.linalg import SIGMA1, SIGMA2, SIGMA3, dagger, max_abs, pauli_dot
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
    alpha = paper._along(tl._alpha_matrices(th, ph, ALPHA, tl.MINUS), th_dot, ph_dot)
    gamma = 0.5 * paper._along(tl.gamma_minus_conjugated(th, ph), th_dot, ph_dot)
    assert max_abs(h - (e + alpha + gamma)) <= 1e-14
    plus = tl.hermitian_hamiltonian(th - 1.0, ph, th_dot, ph_dot, ALPHA, None, tl.PLUS)
    vec = th_dot[:, None] * np.array([0.1, -0.2, 0.3]) + ph_dot[:, None] * np.array(
        [0.05, 0.4, -0.15])
    rest = (-0.5 * paper._along(tl.gamma_plus(th - 1.0, ph), th_dot, ph_dot)
            - paper._along(tl.gamma_zero(th - 1.0, ph), th_dot, ph_dot))
    assert max_abs(plus - (pauli_dot(vec) + rest)) <= 1e-14


def test_minus_chart_h_keeps_the_energy_pole_convention():
    """At the south pole the merged sigma~ contraction takes pole_phi when
    there is an energy, as energy_matrix does, and pole_phi=None raises;
    without an energy no convention is needed."""
    gamma = 0.5 * paper._along(tl.gamma_minus_conjugated(np.pi, 2.5), 0.3, 0.0)
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


# ------------------------------------ coefficient forms against matrix oracles
#
# rho, rho^-1, rhodot, sigma~, e and h are built on Pauli coefficients; each is
# checked at one point and on a stack against a matrix-form closed form that
# the generic oracle also uses.

THETA_RANGE = {tl.PLUS: (0.2, 1.9), tl.MINUS: (1.2, 2.95)}


def one_point_and_stack(patch, n=9):
    """(theta, phi, theta_dot, phi_dot) inside the chart: plain floats, then stacks."""
    rng = np.random.default_rng(29 if patch == tl.PLUS else 31)
    th, ph = rng.uniform(*THETA_RANGE[patch], n), rng.uniform(-3.0, 3.0, n)
    th_dot, ph_dot = rng.uniform(-2.0, 2.0, (2, n))
    return [(float(th[0]), float(ph[0]), float(th_dot[0]), float(ph_dot[0])),
            (th, ph, th_dot, ph_dot)]


def h_oracle(th, ph, th_dot, ph_dot, patch, pole_phi=0.0):
    """The documented h from the matrix-form Gammas, with e + alpha(Rdot) on the
    plus chart conjugated by G = big_g_s2 on minus (at pole_phi on the south pole)."""
    a_theta, a_phi = np.array([0.1, -0.2, 0.3]), np.array([0.05, 0.4, -0.15])
    eps, y = 0.8, np.array([0.2, -0.3, 0.93]) / np.linalg.norm([0.2, -0.3, 0.93])
    move = np.multiply.outer(th_dot, a_theta) + np.multiply.outer(ph_dot, a_phi)
    plain = pauli_dot(0.5 * eps * y + move)
    if patch == tl.PLUS:
        return (plain - 0.5 * paper._along(tl.gamma_plus(th, ph), th_dot, ph_dot)
                - paper._along(tl.gamma_zero(th, ph), th_dot, ph_dot))
    gg = tl.big_g_s2(th, np.where(np.abs(th - np.pi) < 1e-12, pole_phi, ph))
    return (dagger(gg) @ plain @ gg
            + 0.5 * paper._along(tl.gamma_minus_conjugated(th, ph), th_dot, ph_dot))


def test_pauli_product_is_the_matrix_product():
    """The quaternion rule on coefficient tuples, with scalar and stacked
    complex components, against @ on the matrices they stand for."""
    rng = np.random.default_rng(37)
    a = tuple(rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(4))
    b = (0.0,) + tuple(complex(x, y) for x, y in rng.normal(size=(3, 2)))
    for x, y in ((a, b), (b, a), (a, a)):
        product = tl._matrix(x) @ tl._matrix(y)
        assert max_abs(tl._matrix(tl._product(x, y)) - product) <= 1e-14 * max_abs(product)


@pytest.mark.parametrize("patch", [tl.PLUS, tl.MINUS])
def test_rho_squares_to_eta_and_inverts(patch):
    scales = wavy_scales()
    for th, ph, _, _ in one_point_and_stack(patch):
        rho = tl.rho_matrix(th, ph, scales, patch)
        assert rho.shape == np.shape(th) + (2, 2)
        assert max_abs(rho @ rho - tl.eta_matrix(th, ph, scales, patch)) <= 1e-14
        assert max_abs(rho @ tl.rho_inverse_matrix(th, ph, scales, patch) - np.eye(2)) <= 1e-14
    th, ph = one_point_and_stack(patch)[1][:2]  # a stack of theta, one phi
    assert np.array_equal(tl.rho_matrix(th, ph[0], scales, patch),
                          tl.rho_matrix(th, np.full_like(th, ph[0]), scales, patch))


@pytest.mark.parametrize("patch", [tl.PLUS, tl.MINUS])
def test_rho_dot_is_the_derivative_of_rho_along_the_curve(patch):
    """rho_dot_matrix against a central difference of rho_matrix along
    (theta + theta_dot s, phi + phi_dot s)."""
    scales, step = wavy_scales(), 1e-5
    for th, ph, th_dot, ph_dot in one_point_and_stack(patch):
        ahead, behind = (tl.rho_matrix(th + sign * step * th_dot, ph + sign * step * ph_dot,
                                       scales, patch) for sign in (1.0, -1.0))
        closed = tl.rho_dot_matrix(th, ph, th_dot, ph_dot, scales, patch)
        assert closed.shape == np.shape(th) + (2, 2)
        assert max_abs(closed - (ahead - behind) / (2.0 * step)) <= 1e-9


def test_sigma_tilde_conjugates_by_the_intertwiner():
    """sigma~_j = G^dag sigma_j G with G from big_g_s2, at one point and on a stack."""
    for th, ph, _, _ in one_point_and_stack(tl.MINUS):
        gg = tl.big_g_s2(th, ph)
        for j, sigma in enumerate((SIGMA1, SIGMA2, SIGMA3), start=1):
            assert max_abs(tl.sigma_tilde(j, th, ph) - dagger(gg) @ sigma @ gg) <= 1e-14


@pytest.mark.parametrize("patch", [tl.PLUS, tl.MINUS])
def test_hermitian_hamiltonian_is_its_documented_formula(patch):
    """h = e + alpha(Rdot) - (1/2) Gamma_+(Rdot) - Gamma_0(Rdot) on plus and
    G^dag (e + alpha(Rdot)) G + (1/2) (G^-1 Gamma_- G)(Rdot) on minus, and the
    energy alone is e on plus and G^dag e G on minus."""
    for th, ph, th_dot, ph_dot in one_point_and_stack(patch):
        h = tl.hermitian_hamiltonian(th, ph, th_dot, ph_dot, ALPHA, ENERGY, patch)
        assert h.shape == np.shape(th) + (2, 2)
        assert max_abs(h - h_oracle(th, ph, th_dot, ph_dot, patch)) <= 1e-14
        e = tl.hermitian_hamiltonian(th, ph, 0.0, 0.0, None, ENERGY, patch)
        assert max_abs(tl.energy_matrix(th, ph, ENERGY, patch) - e) <= 1e-15


def test_south_pole_convention_holds_on_stacks():
    """On a stack through the south pole the energy part takes pole_phi there
    and the Gamma part keeps the stack's phi; pole_phi=None raises, on every
    closed form that reads the energy on the minus chart."""
    th, ph = np.array([2.0, np.pi, 2.6]), np.array([0.1, 2.5, -1.0])
    th_dot, ph_dot = np.array([0.3, -0.4, 1.1]), np.array([0.5, 0.0, -0.2])
    h = tl.hermitian_hamiltonian(th, ph, th_dot, ph_dot, ALPHA, ENERGY, tl.MINUS, pole_phi=0.7)
    assert max_abs(h - h_oracle(th, ph, th_dot, ph_dot, tl.MINUS, pole_phi=0.7)) <= 1e-14
    e = tl.energy_matrix(th, ph, ENERGY, tl.MINUS, pole_phi=0.7)
    gg = tl.big_g_s2(np.pi, 0.7)
    assert max_abs(e[1] - tl.energy_matrix(np.pi, 2.5, ENERGY, tl.MINUS, pole_phi=0.7)) == 0.0
    assert max_abs(e[1] - dagger(gg) @ tl.energy_matrix(np.pi, 2.5, ENERGY, tl.PLUS) @ gg) <= 1e-15
    forms = tl.ClosedForms(wavy_scales(), ALPHA, ENERGY, None)
    r, v = np.stack([th, ph], axis=-1), np.stack([th_dot, ph_dot], axis=-1)
    for call in (lambda: tl.hermitian_hamiltonian(th, ph, th_dot, ph_dot, ALPHA, ENERGY,
                                                  tl.MINUS, pole_phi=None),
                 lambda: tl.energy_matrix(th, ph, ENERGY, tl.MINUS, pole_phi=None),
                 lambda: forms.generator(tl.MINUS, r, v), lambda: forms.hermitian(tl.MINUS, r, v),
                 lambda: forms.energy(tl.MINUS, r)):
        with pytest.raises(PoleAmbiguity):
            call()
    assert max_abs(forms.energy(tl.PLUS, r[:1]) - dataclasses.replace(
        forms, pole_phi=0.0).energy(tl.PLUS, r[:1])) == 0.0


def counting_fields(calls: dict):
    """Scales, alpha and energy whose every callable is stacked and counts its calls."""
    def counted(name, fn):
        def call(th, ph):
            calls[name] = calls.get(name, 0) + 1
            return fn(th, ph)
        return linalg.stacked(call)

    def field(name, fn, d_theta, d_phi):
        return tl.ScalarField(counted(name, fn), counted(name + ".d_theta", d_theta),
                              counted(name + ".d_phi", d_phi))

    scales = tl.ScaleFields(
        field("xi", lambda th, ph: 1.2 + 0.3 * np.sin(th) * np.cos(ph),
              lambda th, ph: 0.3 * np.cos(th) * np.cos(ph),
              lambda th, ph: -0.3 * np.sin(th) * np.sin(ph)),
        field("zeta", lambda th, ph: 0.8 + 0.2 * np.cos(th),
              lambda th, ph: -0.2 * np.sin(th), lambda th, ph: np.zeros_like(th)),
        field("xi_tilde", lambda th, ph: 1.0 + 0.25 * np.sin(th) * np.sin(ph),
              lambda th, ph: 0.25 * np.cos(th) * np.sin(ph),
              lambda th, ph: 0.25 * np.sin(th) * np.cos(ph)),
        field("zeta_tilde", lambda th, ph: 1.5 + 0.1 * np.cos(th) * np.sin(ph),
              lambda th, ph: -0.1 * np.sin(th) * np.sin(ph),
              lambda th, ph: 0.1 * np.cos(th) * np.cos(ph)))
    alpha = tl.AlphaField(counted("alpha.theta", ALPHA.theta_vec),
                          counted("alpha.phi", ALPHA.phi_vec))
    energy = tl.EnergyFieldS2(counted("epsilon", ENERGY.epsilon), counted("y_hat", ENERGY.y_hat))
    return scales, alpha, energy


@pytest.mark.parametrize("patch", [tl.PLUS, tl.MINUS])
def test_each_closed_form_call_evaluates_every_field_once(patch, monkeypatch):
    """One ClosedForms.generator, .hermitian or .energy call on a 33-point stack
    evaluates each field it needs once (the chart's two scale fields, their four
    partials, the two alpha vectors, the gap and the direction) and builds the
    sigma~ basis once on the minus chart; it reads no other field."""
    calls, bases = {}, []
    forms = tl.ClosedForms(*counting_fields(calls), 0.0)
    basis = tl._sigma_tilde_basis
    monkeypatch.setattr(tl, "_sigma_tilde_basis", lambda *a: bases.append(1) or basis(*a))
    _, (th, ph, th_dot, ph_dot) = one_point_and_stack(patch, n=33)
    r, v = np.stack([th, ph], axis=-1), np.stack([th_dot, ph_dot], axis=-1)
    a, b = ("xi", "zeta") if patch == tl.PLUS else ("xi_tilde", "zeta_tilde")
    scale_values, partials = {a: 1, b: 1}, {f"{x}.{d}": 1 for x in (a, b) for d in ("d_theta", "d_phi")}
    fields = {"alpha.theta": 1, "alpha.phi": 1, "epsilon": 1, "y_hat": 1}
    energy = {"epsilon": 1, "y_hat": 1}
    for run, want in ((lambda: forms.generator(patch, r, v), scale_values | partials | fields),
                      (lambda: forms.hermitian(patch, r, v), fields),
                      (lambda: forms.energy(patch, r), scale_values | energy)):
        calls.clear(), bases.clear()
        assert run().shape == (33, 2, 2)
        assert calls == want
        assert len(bases) == (patch == tl.MINUS)
