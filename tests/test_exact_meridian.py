"""The README meridian against its exact propagator, in both directions and pictures.

With a constant energy and a constant alpha, the plus chart's Hermitian
generator along a meridian is one constant traceless matrix,

    h = e + thetadot alpha_theta . sigma + (thetadot / 2) t_phi(phi0),

because Gamma_0 has no theta part and -Gamma_+^theta is t_phi.  So a run from
t = 0 to t = 1 ends, whatever its switch time, at

    Phi(1) = [G(R1)^dag] exp(-i h) [G(R0)] Phi0,

with G = tl.big_g_s2 (plus -> minus): the factor G(R0) only when the run
starts on the minus chart, G(R1)^dag only when it ends there.  The eta picture
carries psi = rho^{-1} Phi, with the closed rho of the first and last chart.
exp(-i h) is the SU(2) closed form, so no stepper, scipy expm or exp_stack
enters the truth.
"""

import math

import numpy as np
import pytest

from qbundle import twolevel as tl
from qbundle.bundle import evolve_across_patches
from qbundle.linalg import dagger, max_abs
from qbundle.stepping import StepperConfig

PHI0 = 0.3
ALPHA = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.1, -0.2))
ENERGY = tl.constant_energy(0.8, (0.2, -0.3, 0.93))
PSI0 = np.array([0.8, -0.2 + 0.4j])
DIRECTIONS = {"plus-minus": (np.pi / 6, 5 * np.pi / 6),
              "minus-plus": (5 * np.pi / 6, np.pi / 6)}
TAUS = [None, 0.3, 0.4, 0.55, 0.65]
TOL = {"hermitian": 1e-12, "eta": 1e-9}  # rk4-fixed at dt 1e-3

directions = pytest.mark.parametrize("ends", list(DIRECTIONS.values()), ids=list(DIRECTIONS))
pictures = pytest.mark.parametrize("representation", ["hermitian", "eta"])
taus = pytest.mark.parametrize("tau", TAUS, ids=["default", *map(str, TAUS[1:])])


def su2_exp(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for a traceless Hermitian h = c . sigma: cos|c| - i sin|c| (c . sigma) / |c|."""
    norm = math.sqrt(np.trace(h @ h).real / 2)
    return math.cos(norm) * np.eye(2) - 1j * math.sin(norm) / norm * h


def charts(ends) -> tuple[str, str]:
    """The first and last chart of the meridian from ends[0] to ends[1]."""
    return (tl.PLUS, tl.MINUS) if ends[0] < ends[1] else (tl.MINUS, tl.PLUS)


def exact_endpoint(ends, representation: str) -> np.ndarray:
    (theta0, theta1), scales = ends, tl.default_scales()
    start, end = charts(ends)
    thetas = np.linspace(0.2, 2.0, 7)  # inside the plus chart
    hs = tl.hermitian_hamiltonian(thetas, np.full(7, PHI0), np.full(7, theta1 - theta0),
                                  np.zeros(7), ALPHA, ENERGY, tl.PLUS)
    h = hs[0]
    assert max_abs(hs - h) <= 1e-14 and abs(np.trace(h)) <= 1e-14  # the oracle's premise
    phi = PSI0 if representation == "hermitian" else tl.rho_matrix(theta0, PHI0, scales,
                                                                    start) @ PSI0
    if start == tl.MINUS:
        phi = tl.big_g_s2(theta0, PHI0) @ phi
    phi = su2_exp(h) @ phi
    if end == tl.MINUS:
        phi = dagger(tl.big_g_s2(theta1, PHI0)) @ phi
    if representation == "hermitian":
        return phi
    return tl.rho_inverse_matrix(theta1, PHI0, scales, end) @ phi


def run(ends, representation: str, stepper: StepperConfig, tau=None):
    system = tl.build_system(tl.meridian_curve(PHI0, *ends), alpha=ALPHA, energy=ENERGY)
    res = evolve_across_patches(system, PSI0, tau, stepper, representation)
    assert (res.patch_trace[0], res.patch_trace[-1]) == charts(ends)
    return res


def endpoint_error(ends, representation: str, stepper: StepperConfig, tau=None) -> float:
    res = run(ends, representation, stepper, tau)
    return max_abs(res.final_state - exact_endpoint(ends, representation))


@directions
@pictures
@taus
def test_fixed_step_endpoint_is_exact(ends, representation, tau):
    err = endpoint_error(ends, representation, StepperConfig(dt=1e-3), tau)
    assert err <= TOL[representation], f"{err:.3e}"


@directions
@pictures
def test_fixed_step_converges_at_fourth_order_to_the_truth(ends, representation):
    coarse, fine = (endpoint_error(ends, representation, StepperConfig(dt=dt))
                    for dt in (1e-2, 5e-3))
    assert coarse / fine >= 14.0, f"{coarse:.3e} / {fine:.3e}"


@directions
@pictures
@taus
def test_adaptive_endpoint_keeps_its_promise(ends, representation, tau):
    """The accepted run lies within target x steps x max(1, max|psi0|) of the truth."""
    target = 1e-10
    res = run(ends, representation, StepperConfig("rk4-adaptive", dt=1e-3,
                                                  target_local_error=target), tau)
    steps = len(res.times) - 2  # two segments, each with one sample more than steps
    promise = target * steps * max(1.0, max_abs(PSI0))
    err = max_abs(res.final_state - exact_endpoint(ends, representation))
    assert err <= promise, f"{err:.3e} > {promise:.3e}"
