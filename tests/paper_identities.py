"""The paper's appendix identities for the two-level model over the sphere.

These closed forms enter the derivation of the model but no run, check or
demo calls them: the rotation U and its forms beta_j, the matrices
sigma-check_j, the rotated radial vector xhat', the minus chart's gluing
piece Gamma_-, the total gluing form Gamma (closed and from its definition)
and the metric-motion term (i/2)[rhodot, rho^{-1}].  They live beside the
tests that check them against :mod:`qbundle.twolevel` and the generic
machinery, so the identities stay checked while ``src/`` holds what runs.
"""

import math

import numpy as np

from qbundle import linalg
from qbundle.linalg import SIGMA1, SIGMA2, SIGMA3
from qbundle.twolevel import (
    PLUS,
    ScaleFields,
    _curly_x,
    _lift_form,
    _m,
    _one_form,
    _vectors,
    gamma_minus_conjugated,
    gamma_plus,
    gamma_zero,
    radial_pauli,
    rho_inverse_matrix,
    rho_matrix,
    tangent_pauli,
    transition_g,
    transition_g_partials,
)


# ------------------------------------------------------- rotations


def unit_vector_prime(theta, phi) -> np.ndarray:
    """(cos t cos p, cos t sin p, sin t): xhat rotated a quarter turn in
    its meridian plane; the intertwiner is sigma3 (xhat' . sigma)."""
    ct, st = np.cos(theta), np.sin(theta)
    return _vectors(ct * np.cos(phi), ct * np.sin(phi), st)


def u_matrix(theta: float, phi: float) -> np.ndarray:
    """The unitary rotating sigma3 onto the radial direction:
    U sigma3 U^dag = xhat . sigma."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    e = np.exp(1j * phi)
    return np.array([[c, -s / e], [s * e, c]], dtype=complex)


def beta_forms(theta: float, phi: float) -> tuple:
    """Components of U^dag dU = sum_j beta_j sigma_j:

        beta_1 = (i/2)(sin t cos p dphi + sin p dtheta)
        beta_2 = (i/2)(sin t sin p dphi - cos p dtheta)
        beta_3 = (i/2)(1 - cos t) dphi

    returned as ((b1_theta, b1_phi), (b2_theta, b2_phi), (b3_theta, b3_phi)).
    """
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return (
        (0.5j * sp, 0.5j * st * cp),
        (-0.5j * cp, 0.5j * st * sp),
        (0.0j, 0.5j * (1.0 - ct)),
    )


def sigma_check(j: int, xi: float, zeta: float) -> np.ndarray:
    """sigma-check_j = 2 sigma_j - rho_d sigma_j rho_d^{-1} - rho_d^{-1} sigma_j rho_d
    for rho_d = diag(xi, zeta): equals -((xi-zeta)^2/(xi zeta)) sigma_j for
    j in {1, 2} and vanishes for j = 3."""
    if j == 3:
        return np.zeros((2, 2), dtype=complex)
    if j in (1, 2):
        return -((xi - zeta) ** 2 / (xi * zeta)) * (SIGMA1 if j == 1 else SIGMA2)
    raise ValueError(f"Pauli index must be 1, 2 or 3, got {j}")


# ------------------------------------------------------------ gluing forms


def gamma_minus(theta, phi) -> np.ndarray:
    """Gamma_- : same theta part as Gamma_+, opposite phi part."""
    st, ct = _m(np.sin(theta)), _m(np.cos(theta))
    return _one_form(-tangent_pauli(phi), -(ct * radial_pauli(phi) - st * SIGMA3) * st)


def gamma_total(theta, phi, scales: ScaleFields) -> np.ndarray:
    """Gamma = X Gamma_+ + X~ Gamma_- + Gamma_0 on the overlap, with
    X = (xi^2 + zeta^2)/(4 xi zeta) and tilded X~."""
    x_plain = _curly_x(scales.xi(theta, phi), scales.zeta(theta, phi))
    x_tilde = _curly_x(scales.xi_tilde(theta, phi), scales.zeta_tilde(theta, phi))
    return (_lift_form(x_plain) * gamma_plus(theta, phi)
            + _lift_form(x_tilde) * gamma_minus(theta, phi) + gamma_zero(theta, phi))


def gamma_total_from_definition(theta, phi, scales: ScaleFields) -> np.ndarray:
    """Gamma from its definition  -(i/2) [ X - X^dag ],
    X = rho (d_a g) g^{-1} rho^{-1},  as an independent cross-check."""
    rho = rho_matrix(theta, phi, scales, PLUS)[..., None, :, :]
    rho_inv = rho_inverse_matrix(theta, phi, scales, PLUS)[..., None, :, :]
    g_inv = np.linalg.inv(transition_g(theta, phi, scales))[..., None, :, :]
    x = rho @ transition_g_partials(theta, phi, scales) @ g_inv @ rho_inv
    return -0.5j * (x - linalg.dagger(x))


def _along(form: np.ndarray, theta_dot, phi_dot) -> np.ndarray:
    """A one-form contracted with the velocity (theta_dot, phi_dot)."""
    return form[..., 0, :, :] * _m(theta_dot) + form[..., 1, :, :] * _m(phi_dot)


def h_rho_term(theta, phi, theta_dot, phi_dot,
               scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    """The metric-motion contribution  (i/2)[rhodot, rho^{-1}]  to the
    Hermitian generator, in closed form:

        (xi - zeta)^2/(4 xi zeta) Gamma_+(Rdot)                (plus)
        -(xi~ - zeta~)^2/(4 xi~ zeta~) (G^{-1}Gamma_- G)(Rdot) (minus)
    """
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    coeff = _m((a - b) ** 2 / (4.0 * a * b))
    if patch == PLUS:
        return coeff * _along(gamma_plus(theta, phi), theta_dot, phi_dot)
    return -coeff * _along(gamma_minus_conjugated(theta, phi), theta_dot, phi_dot)
