"""Fully explicit two-level model over the sphere.

The base manifold is the unit sphere with spherical coordinates (theta, phi),
covered by two charts: "plus" (containing the north pole, theta < theta_plus)
and "minus" (containing the south pole, theta > theta_minus).  The fiber
metric on the plus chart is

    eta = chi_plus 1 + chi_minus xhat . sigma,
    chi_pm = (xi^2 +- zeta^2) / 2,            xhat = unit radial vector,

with positive scale fields xi, zeta; on the minus chart the same with scales
(xi~, zeta~) and the mirrored unit vector (x1, x2, -x3).  All derived objects
come in closed form: the positive root rho and its inverse, the canonical
connection piece A0, the transition function g between the charts, the
unitary intertwiner G, the free connection part fixed by requiring a globally
defined Hermitian-form field omega_H, and the final Hermitian generator

    h = (eps/2) yhat . sigma + alpha(Rdot) - (1/2) Gamma_plus(Rdot) - Gamma_0(Rdot)

on the plus chart (an analogous formula on minus), which is independent of
the scale fields altogether.

Matrix-valued one-forms are represented as pairs (theta-component,
phi-component).  Default geometry: theta_plus = 2 pi / 3, theta_minus =
pi / 3, scale fields xi = xi~ = 1, zeta = 1 - cos(theta)/cos(theta_plus),
zeta~ = 1 + cos(theta)/cos(theta_plus), which degenerate exactly on the
opposite chart's boundary circle and nowhere inside their own chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .bundle import ObservableSection, PatchData, SystemSpec, TransitionFunctionField
from .connection import ConnectionForm, CurvePath, assemble_connection
from .errors import (
    ConfigError,
    CurveTouchesPoleMargin,
    OutOfPatch,
    PoleAmbiguity,
)
from .linalg import ID2, SIGMA1, SIGMA2, SIGMA3, pauli_dot
from .metric import MetricField

PLUS = "plus"
MINUS = "minus"

THETA_PLUS_DEFAULT = 2.0 * np.pi / 3.0
THETA_MINUS_DEFAULT = np.pi / 3.0

#: curves may not come closer than this to either coordinate pole
POLE_MARGIN = 1e-3

#: |theta - pi| below this counts as "at the south pole" for conventions
_POLE_EPS = 1e-12

#: finite-difference step for scale-field partials without a closed form
SCALAR_FD_STEP = 1e-6


@dataclass(frozen=True)
class S2Point:
    """A point of the sphere together with the chart it is referred to."""

    theta: float
    phi: float
    patch: str = PLUS

    def __post_init__(self):
        if not (-1e-12 <= self.theta <= np.pi + 1e-12):
            raise ConfigError(f"theta must lie in [0, pi], got {self.theta}")
        if self.patch not in (PLUS, MINUS):
            raise ConfigError(f"patch must be '{PLUS}' or '{MINUS}', got {self.patch!r}")

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.theta, self.phi], dtype=float)


# ---------------------------------------------------------------- fields


class ScalarField:
    """Real scalar field on (theta, phi) with optional analytic partials."""

    def __init__(
        self,
        fn: Callable[[float, float], float],
        d_theta: Callable[[float, float], float] | None = None,
        d_phi: Callable[[float, float], float] | None = None,
    ):
        self._fn = fn
        self._d_theta = d_theta
        self._d_phi = d_phi

    def __call__(self, theta: float, phi: float) -> float:
        return float(self._fn(theta, phi))

    def partials(self, theta: float, phi: float) -> tuple[float, float]:
        h = SCALAR_FD_STEP
        dt = (self._d_theta(theta, phi) if self._d_theta is not None
              else linalg.central_difference(lambda x: self._fn(x, phi), theta, h))
        dp = (self._d_phi(theta, phi) if self._d_phi is not None
              else linalg.central_difference(lambda x: self._fn(theta, x), phi, h))
        return float(dt), float(dp)


def constant_field(c: float) -> ScalarField:
    return ScalarField(lambda th, ph: c, lambda th, ph: 0.0, lambda th, ph: 0.0)


@dataclass
class ScaleFields:
    """The four positive scale fields: (xi, zeta) on plus, tilded on minus."""

    xi: ScalarField
    zeta: ScalarField
    xi_tilde: ScalarField
    zeta_tilde: ScalarField

    def pair(self, patch: str) -> tuple[ScalarField, ScalarField]:
        if patch == PLUS:
            return self.xi, self.zeta
        if patch == MINUS:
            return self.xi_tilde, self.zeta_tilde
        raise ConfigError(f"unknown patch {patch!r}")


def default_scales(theta_plus: float = THETA_PLUS_DEFAULT) -> ScaleFields:
    """The reference scale fields, degenerating on the opposite boundary."""
    c = math.cos(theta_plus)
    return ScaleFields(
        xi=constant_field(1.0),
        zeta=ScalarField(
            lambda th, ph: 1.0 - math.cos(th) / c,
            lambda th, ph: math.sin(th) / c,
            lambda th, ph: 0.0,
        ),
        xi_tilde=constant_field(1.0),
        zeta_tilde=ScalarField(
            lambda th, ph: 1.0 + math.cos(th) / c,
            lambda th, ph: -math.sin(th) / c,
            lambda th, ph: 0.0,
        ),
    )


def constant_scales(xi: float = 1.0, zeta: float = 1.0,
                    xi_tilde: float = 1.0, zeta_tilde: float = 1.0) -> ScaleFields:
    for name, v in (("xi", xi), ("zeta", zeta),
                    ("xi_tilde", xi_tilde), ("zeta_tilde", zeta_tilde)):
        if not v > 0.0:
            raise ConfigError(f"scale {name} must be positive, got {v}")
    return ScaleFields(constant_field(xi), constant_field(zeta),
                       constant_field(xi_tilde), constant_field(zeta_tilde))


@dataclass
class AlphaField:
    """Free pseudo-Hermitian connection input, as real Pauli coefficient
    3-vectors per coordinate direction (must be single-valued on the sphere;
    the library does not check periodicity in phi)."""

    theta_vec: Callable[[float, float], Sequence[float]]
    phi_vec: Callable[[float, float], Sequence[float]]


def zero_alpha() -> AlphaField:
    z = np.zeros(3)
    return AlphaField(lambda th, ph: z, lambda th, ph: z)


def constant_alpha(theta_vec, phi_vec) -> AlphaField:
    tv = np.asarray(theta_vec, dtype=float)
    pv = np.asarray(phi_vec, dtype=float)
    return AlphaField(lambda th, ph: tv, lambda th, ph: pv)


@dataclass
class EnergyFieldS2:
    """Physical energy data: gap epsilon(theta, phi) and Hermitian-form
    direction yhat(theta, phi) (a real unit 3-vector)."""

    epsilon: Callable[[float, float], float]
    y_hat: Callable[[float, float], Sequence[float]]


def constant_energy(eps: float = 1.0, y=(0.0, 0.0, 1.0)) -> EnergyFieldS2:
    yv = np.asarray(y, dtype=float)
    n = float(np.linalg.norm(yv))
    if n == 0.0:
        raise ConfigError("energy direction must be a nonzero vector")
    yv = yv / n
    return EnergyFieldS2(lambda th, ph: eps, lambda th, ph: yv)


# ------------------------------------------------------------- geometry


def unit_vector(theta: float, phi: float) -> np.ndarray:
    """xhat = (sin t cos p, sin t sin p, cos t)."""
    st, ct = math.sin(theta), math.cos(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), ct])


def unit_vector_mirror(theta: float, phi: float) -> np.ndarray:
    """The minus-chart direction (x1, x2, -x3)."""
    x = unit_vector(theta, phi)
    return np.array([x[0], x[1], -x[2]])


def unit_vector_prime(theta: float, phi: float) -> np.ndarray:
    """(cos t cos p, cos t sin p, sin t): xhat rotated a quarter turn in
    its meridian plane; the intertwiner is sigma3 (xhat' . sigma)."""
    ct, st = math.cos(theta), math.sin(theta)
    return np.array([ct * math.cos(phi), ct * math.sin(phi), st])


def d_unit_vector(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(d xhat / d theta, d xhat / d phi)."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return (np.array([ct * cp, ct * sp, -st]),
            np.array([-st * sp, st * cp, 0.0]))


def d_unit_vector_mirror(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    dth, dph = d_unit_vector(theta, phi)
    flip = np.array([1.0, 1.0, -1.0])
    return dth * flip, dph * flip


def radial_pauli(phi: float) -> np.ndarray:
    """cos(phi) sigma1 + sin(phi) sigma2: in-plane Pauli along the meridian."""
    return math.cos(phi) * SIGMA1 + math.sin(phi) * SIGMA2


def tangent_pauli(phi: float) -> np.ndarray:
    """-sin(phi) sigma1 + cos(phi) sigma2: in-plane Pauli along the parallel."""
    return -math.sin(phi) * SIGMA1 + math.cos(phi) * SIGMA2


def u_matrix(theta: float, phi: float) -> np.ndarray:
    """The unitary rotating sigma3 onto the radial direction:
    U sigma3 U^dag = xhat . sigma."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    e = np.exp(1j * phi)
    return np.array([[c, -s / e], [s * e, c]], dtype=complex)


# ------------------------------------------------------------- metric data


def _chi(xi: float, zeta: float) -> tuple[float, float]:
    return 0.5 * (xi * xi + zeta * zeta), 0.5 * (xi * xi - zeta * zeta)


def eta_matrix(theta: float, phi: float, scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    """Closed-form fiber metric on the requested chart."""
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    chi_p, chi_m = _chi(a, b)
    x = unit_vector(theta, phi) if patch == PLUS else unit_vector_mirror(theta, phi)
    return chi_p * ID2 + chi_m * pauli_dot(x)


def eta_partials(theta: float, phi: float, scales: ScaleFields,
                 patch: str = PLUS) -> list[np.ndarray]:
    """Analytic (d_theta eta, d_phi eta) by the chain rule."""
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    da = fa.partials(theta, phi)
    db = fb.partials(theta, phi)
    if patch == PLUS:
        x = unit_vector(theta, phi)
        dx = d_unit_vector(theta, phi)
    else:
        x = unit_vector_mirror(theta, phi)
        dx = d_unit_vector_mirror(theta, phi)
    chi_m = 0.5 * (a * a - b * b)
    out = []
    for i in range(2):
        d_chi_p = a * da[i] + b * db[i]
        d_chi_m = a * da[i] - b * db[i]
        out.append(d_chi_p * ID2 + d_chi_m * pauli_dot(x) + chi_m * pauli_dot(dx[i]))
    return out


def rho_matrix(theta: float, phi: float, scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    """Closed-form positive root of the metric:
    rho = (xi + zeta)/2 1 + (xi - zeta)/2 xhat . sigma."""
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    x = unit_vector(theta, phi) if patch == PLUS else unit_vector_mirror(theta, phi)
    return 0.5 * (a + b) * ID2 + 0.5 * (a - b) * pauli_dot(x)


def rho_inverse_matrix(theta: float, phi: float, scales: ScaleFields,
                       patch: str = PLUS) -> np.ndarray:
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    x = unit_vector(theta, phi) if patch == PLUS else unit_vector_mirror(theta, phi)
    return (0.5 * (a + b) * ID2 - 0.5 * (a - b) * pauli_dot(x)) / (a * b)


def metric_field(scales: ScaleFields, patch: str = PLUS,
                 theta_plus: float = THETA_PLUS_DEFAULT,
                 theta_minus: float = THETA_MINUS_DEFAULT) -> MetricField:
    """Metric field on one chart, with analytic partials and chart domain."""
    if patch == PLUS:
        domain = lambda r: -1e-12 <= r[0] < theta_plus
    else:
        domain = lambda r: theta_minus < r[0] <= np.pi + 1e-12
    return MetricField(
        patch,
        lambda r: eta_matrix(r[0], r[1], scales, patch),
        partials_fn=lambda r: eta_partials(r[0], r[1], scales, patch),
        dim=2,
        domain=domain,
    )


# ------------------------------------------------------------- transition


def transition_g(theta: float, phi: float, scales: ScaleFields) -> np.ndarray:
    """Closed-form transition function from the plus to the minus chart:

        g = [[ gp sin t,  e^{-ip} (gm + gp cos t) ],
             [ e^{ip} (gm - gp cos t),  gp sin t ]],

    with gp, gm = (xi~/xi +- zeta~/zeta)/2."""
    xi = scales.xi(theta, phi)
    zeta = scales.zeta(theta, phi)
    xi_t = scales.xi_tilde(theta, phi)
    zeta_t = scales.zeta_tilde(theta, phi)
    gp = 0.5 * (xi_t / xi + zeta_t / zeta)
    gm = 0.5 * (xi_t / xi - zeta_t / zeta)
    st, ct = math.sin(theta), math.cos(theta)
    e = np.exp(1j * phi)
    return np.array(
        [[gp * st, (gm + gp * ct) / e],
         [(gm - gp * ct) * e, gp * st]],
        dtype=complex,
    )


def transition_g_partials(theta: float, phi: float, scales: ScaleFields) -> list[np.ndarray]:
    """Analytic (d_theta g, d_phi g) via the scale fields' partials."""
    xi = scales.xi(theta, phi)
    zeta = scales.zeta(theta, phi)
    xi_t = scales.xi_tilde(theta, phi)
    zeta_t = scales.zeta_tilde(theta, phi)
    d_xi = scales.xi.partials(theta, phi)
    d_zeta = scales.zeta.partials(theta, phi)
    d_xi_t = scales.xi_tilde.partials(theta, phi)
    d_zeta_t = scales.zeta_tilde.partials(theta, phi)
    gp = 0.5 * (xi_t / xi + zeta_t / zeta)
    gm = 0.5 * (xi_t / xi - zeta_t / zeta)
    st, ct = math.sin(theta), math.cos(theta)
    e = np.exp(1j * phi)
    out = []
    for i in range(2):
        d_ratio_xi = (d_xi_t[i] * xi - xi_t * d_xi[i]) / (xi * xi)
        d_ratio_zeta = (d_zeta_t[i] * zeta - zeta_t * d_zeta[i]) / (zeta * zeta)
        dgp = 0.5 * (d_ratio_xi + d_ratio_zeta)
        dgm = 0.5 * (d_ratio_xi - d_ratio_zeta)
        if i == 0:  # theta derivative
            m = np.array(
                [[dgp * st + gp * ct, (dgm + dgp * ct - gp * st) / e],
                 [(dgm - dgp * ct + gp * st) * e, dgp * st + gp * ct]],
                dtype=complex,
            )
        else:  # phi derivative
            m = np.array(
                [[dgp * st,
                  ((dgm + dgp * ct) - 1j * (gm + gp * ct)) / e],
                 [((dgm - dgp * ct) + 1j * (gm - gp * ct)) * e,
                  dgp * st]],
                dtype=complex,
            )
        out.append(m)
    return out


def big_g_s2(theta: float, phi: float) -> np.ndarray:
    """The scale-independent unitary intertwiner between the charts:

        G = sigma3 (xhat' . sigma)
          = [[ sin t, e^{-ip} cos t ], [ -e^{ip} cos t, sin t ]]."""
    st, ct = math.sin(theta), math.cos(theta)
    e = np.exp(1j * phi)
    return np.array([[st, ct / e], [-ct * e, st]], dtype=complex)


def sigma_tilde(j: int, theta: float, phi: float) -> np.ndarray:
    """Conjugated Pauli matrices  sigma~_j = G^{-1} sigma_j G  in closed form."""
    st, ct = math.sin(theta), math.cos(theta)
    s2t = math.sin(2.0 * theta)
    c2t = math.cos(2.0 * theta)
    s2p = math.sin(2.0 * phi)
    c2p = math.cos(2.0 * phi)
    if j == 1:
        return ((st * st - ct * ct * c2p) * SIGMA1
                - ct * ct * s2p * SIGMA2
                - s2t * math.cos(phi) * SIGMA3)
    if j == 2:
        return (-ct * ct * s2p * SIGMA1
                + (st * st + ct * ct * c2p) * SIGMA2
                - s2t * math.sin(phi) * SIGMA3)
    if j == 3:
        return s2t * radial_pauli(phi) - c2t * SIGMA3
    raise ValueError(f"Pauli index must be 1, 2 or 3, got {j}")


def transition_field(scales: ScaleFields,
                     theta_plus: float = THETA_PLUS_DEFAULT,
                     theta_minus: float = THETA_MINUS_DEFAULT) -> TransitionFunctionField:
    return TransitionFunctionField(
        PLUS,
        MINUS,
        lambda r: transition_g(r[0], r[1], scales),
        partials_fn=lambda r: transition_g_partials(r[0], r[1], scales),
        overlap=lambda r: theta_minus < r[0] < theta_plus,
        dim=2,
    )


# ------------------------------------------------------- connection pieces


def a_zero_closed(theta: float, phi: float, scales: ScaleFields,
                  patch: str = PLUS) -> list[np.ndarray]:
    """Canonical connection components in closed form:

        A0 = -(i/2) { (dxi/xi + dzeta/zeta) 1
                      + [ (dxi/xi - dzeta/zeta) xhat
                          + (xi^4 - zeta^4)/(4 xi^2 zeta^2) dxhat
                          - i (xi^2 - zeta^2)^2/(4 xi^2 zeta^2) xhat x dxhat ] . sigma }

    (tilded data and mirrored xhat on the minus chart)."""
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    da = fa.partials(theta, phi)
    db = fb.partials(theta, phi)
    if patch == PLUS:
        x = unit_vector(theta, phi)
        dx = d_unit_vector(theta, phi)
    else:
        x = unit_vector_mirror(theta, phi)
        dx = d_unit_vector_mirror(theta, phi)
    a2, b2 = a * a, b * b
    c1 = (a2 * a2 - b2 * b2) / (4.0 * a2 * b2)
    c2 = (a2 - b2) ** 2 / (4.0 * a2 * b2)
    out = []
    for i in range(2):
        scalar = da[i] / a + db[i] / b
        vec = (da[i] / a - db[i] / b) * x + c1 * dx[i]
        m = scalar * ID2 + pauli_dot(vec) - 1j * c2 * pauli_dot(linalg.cross3(x, dx[i]))
        out.append(-0.5j * m)
    return out


def gamma_plus(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gamma_+ = -s_t dtheta + [cos t s_r - sin t sigma3] sin t dphi, where
    s_r, s_t are the in-plane Pauli fields."""
    st, ct = math.sin(theta), math.cos(theta)
    return (-tangent_pauli(phi),
            (ct * radial_pauli(phi) - st * SIGMA3) * st)


def gamma_minus(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gamma_- : same theta part as Gamma_+, opposite phi part."""
    st, ct = math.sin(theta), math.cos(theta)
    return (-tangent_pauli(phi),
            -(ct * radial_pauli(phi) - st * SIGMA3) * st)


def gamma_zero(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gamma_0 = -cos t (xhat . sigma) dphi
              = -[sin t s_r + cos t sigma3] cos t dphi."""
    st, ct = math.sin(theta), math.cos(theta)
    return (np.zeros((2, 2), dtype=complex),
            -(st * radial_pauli(phi) + ct * SIGMA3) * ct)


def gamma_minus_conjugated(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """G^{-1} Gamma_- G in closed form:
    -s_t dtheta + [cos t s_r + sin t sigma3] sin t dphi.

    Equivalently the pullback of -Gamma_+ under the reflection
    theta -> pi - theta (the dtheta component changes sign under the
    pullback, so componentwise the theta parts agree and the phi parts
    flip)."""
    st, ct = math.sin(theta), math.cos(theta)
    return (-tangent_pauli(phi),
            (ct * radial_pauli(phi) + st * SIGMA3) * st)


def _curly_x(xi: float, zeta: float) -> float:
    return (xi * xi + zeta * zeta) / (4.0 * xi * zeta)


def gamma_total(theta: float, phi: float, scales: ScaleFields
                ) -> tuple[np.ndarray, np.ndarray]:
    """Gamma = X Gamma_+ + X~ Gamma_- + Gamma_0 on the overlap, with
    X = (xi^2 + zeta^2)/(4 xi zeta) and tilded X~."""
    x_plain = _curly_x(scales.xi(theta, phi), scales.zeta(theta, phi))
    x_tilde = _curly_x(scales.xi_tilde(theta, phi), scales.zeta_tilde(theta, phi))
    gp = gamma_plus(theta, phi)
    gm = gamma_minus(theta, phi)
    g0 = gamma_zero(theta, phi)
    return tuple(x_plain * gp[i] + x_tilde * gm[i] + g0[i] for i in range(2))


def gamma_total_from_definition(theta: float, phi: float, scales: ScaleFields
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Gamma from its definition  -(i/2) [ X - X^dag ],
    X = rho (d_a g) g^{-1} rho^{-1},  as an independent cross-check."""
    rho = rho_matrix(theta, phi, scales, PLUS)
    rho_inv = rho_inverse_matrix(theta, phi, scales, PLUS)
    g_inv = np.linalg.inv(transition_g(theta, phi, scales))
    parts = transition_g_partials(theta, phi, scales)
    out = []
    for i in range(2):
        x = rho @ parts[i] @ g_inv @ rho_inv
        out.append(-0.5j * (x - x.conj().T))
    return tuple(out)


def _alpha_matrices(theta: float, phi: float, alpha: AlphaField,
                    patch: str) -> list[np.ndarray]:
    """alpha_a as matrices: coefficients contract sigma on plus and the
    conjugated sigma~ on minus."""
    vecs = [np.asarray(alpha.theta_vec(theta, phi), dtype=float),
            np.asarray(alpha.phi_vec(theta, phi), dtype=float)]
    if patch == PLUS:
        return [pauli_dot(v) for v in vecs]
    basis = [sigma_tilde(j, theta, phi) for j in (1, 2, 3)]
    return [sum(v[j] * basis[j] for j in range(3)) for v in vecs]


def omega_hermitian(theta: float, phi: float, scales: ScaleFields,
                    alpha: AlphaField | None = None,
                    patch: str = PLUS) -> list[np.ndarray]:
    """The Hermitian-form free connection part fixing global consistency:

        omega_H  = alpha - X Gamma_+ - Gamma_0          (plus chart)
        omega~_H = alpha~ + X~ (G^{-1} Gamma_- G)       (minus chart)
    """
    alpha = alpha if alpha is not None else zero_alpha()
    alphas = _alpha_matrices(theta, phi, alpha, patch)
    if patch == PLUS:
        x_plain = _curly_x(scales.xi(theta, phi), scales.zeta(theta, phi))
        gp = gamma_plus(theta, phi)
        g0 = gamma_zero(theta, phi)
        return [alphas[i] - x_plain * gp[i] - g0[i] for i in range(2)]
    x_tilde = _curly_x(scales.xi_tilde(theta, phi), scales.zeta_tilde(theta, phi))
    gm = gamma_minus_conjugated(theta, phi)
    return [alphas[i] + x_tilde * gm[i] for i in range(2)]


def omega_lower(theta: float, phi: float, scales: ScaleFields,
                alpha: AlphaField | None = None,
                patch: str = PLUS) -> list[np.ndarray]:
    """The free connection part in its native (pseudo-Hermitian) form:
    omega_a = rho^{-1} omega_H_a rho."""
    rho = rho_matrix(theta, phi, scales, patch)
    rho_inv = rho_inverse_matrix(theta, phi, scales, patch)
    return [rho_inv @ w @ rho for w in omega_hermitian(theta, phi, scales, alpha, patch)]


def h_rho_term(theta: float, phi: float, theta_dot: float, phi_dot: float,
               scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    """The metric-motion contribution  (i/2)[rhodot, rho^{-1}]  to the
    Hermitian generator, in closed form:

        (xi - zeta)^2/(4 xi zeta) Gamma_+(Rdot)                (plus)
        -(xi~ - zeta~)^2/(4 xi~ zeta~) (G^{-1}Gamma_- G)(Rdot) (minus)
    """
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    coeff = (a - b) ** 2 / (4.0 * a * b)
    if patch == PLUS:
        form = gamma_plus(theta, phi)
        return coeff * (form[0] * theta_dot + form[1] * phi_dot)
    form = gamma_minus_conjugated(theta, phi)
    return -coeff * (form[0] * theta_dot + form[1] * phi_dot)


# ------------------------------------------------------------- energy


def energy_matrix(theta: float, phi: float, energy: EnergyFieldS2,
                  patch: str = PLUS, pole_phi: float | None = 0.0) -> np.ndarray:
    """Hermitian-form energy observable on a chart.

    Plus chart: (eps/2) yhat . sigma.  Minus chart: the conjugated form
    (eps/2) sum_j y_j sigma~_j, whose phi-dependence survives at the south
    pole; there the ``pole_phi`` convention value is used (pass None to get
    a PoleAmbiguity error instead)."""
    eps = float(energy.epsilon(theta, phi))
    y = np.asarray(energy.y_hat(theta, phi), dtype=float)
    if patch == PLUS:
        return 0.5 * eps * pauli_dot(y)
    if abs(theta - np.pi) < _POLE_EPS:
        if pole_phi is None:
            raise PoleAmbiguity(
                "minus-chart energy matrix at the south pole needs a phi "
                "convention (pole_phi)"
            )
        phi = pole_phi
    basis = [sigma_tilde(j, theta, phi) for j in (1, 2, 3)]
    return 0.5 * eps * sum(y[j] * basis[j] for j in range(3))


def hermitian_hamiltonian(theta: float, phi: float, theta_dot: float, phi_dot: float,
                          alpha: AlphaField | None = None,
                          energy: EnergyFieldS2 | None = None,
                          patch: str = PLUS,
                          pole_phi: float | None = 0.0) -> np.ndarray:
    """The final closed-form Hermitian generator along a curve; it contains
    no scale fields at all:

        h  = e + alpha(Rdot) - (1/2) Gamma_+(Rdot) - Gamma_0(Rdot)   (plus)
        h~ = e~ + alpha~(Rdot) + (1/2) (G^{-1}Gamma_- G)(Rdot)       (minus)
    """
    out = np.zeros((2, 2), dtype=complex)
    if energy is not None:
        out = out + energy_matrix(theta, phi, energy, patch, pole_phi)
    if alpha is not None:
        a_th, a_ph = _alpha_matrices(theta, phi, alpha, patch)
        out = out + a_th * theta_dot + a_ph * phi_dot
    if patch == PLUS:
        gp = gamma_plus(theta, phi)
        g0 = gamma_zero(theta, phi)
        out = out - 0.5 * (gp[0] * theta_dot + gp[1] * phi_dot)
        out = out - (g0[0] * theta_dot + g0[1] * phi_dot)
    else:
        gm = gamma_minus_conjugated(theta, phi)
        out = out + 0.5 * (gm[0] * theta_dot + gm[1] * phi_dot)
    return out


# ----------------------------------------------------- appendix internals


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


# ------------------------------------------------------------- curves


def circle_curve(theta0: float, t_start: float = 0.0, t_end: float = 1.0,
                 revolutions: float = 1.0, phi0: float = 0.0) -> CurvePath:
    """Constant-latitude circle, phi advancing by 2 pi revolutions."""
    rate = 2.0 * np.pi * revolutions / (t_end - t_start)

    def position(t: float) -> np.ndarray:
        return np.array([theta0, phi0 + rate * (t - t_start)])

    def velocity(t: float) -> np.ndarray:
        return np.array([0.0, rate])

    return CurvePath(t_start, t_end, position, velocity, [])


def meridian_curve(phi0: float, theta_from: float, theta_to: float,
                   t_start: float = 0.0, t_end: float = 1.0) -> CurvePath:
    """Constant-longitude arc, theta moving linearly in t."""
    rate = (theta_to - theta_from) / (t_end - t_start)

    def position(t: float) -> np.ndarray:
        return np.array([theta_from + rate * (t - t_start), phi0])

    def velocity(t: float) -> np.ndarray:
        return np.array([rate, 0.0])

    return CurvePath(t_start, t_end, position, velocity, [])


def great_circle_curve(inclination: float, t_start: float = 0.0, t_end: float = 1.0,
                       revolutions: float = 1.0, offset: float = 0.0) -> CurvePath:
    """Great circle whose plane is tilted by ``inclination`` from the equator.

    The curve is exact in Cartesian coordinates; the spherical phi(t) is
    unwrapped on a dense construction-time grid so position() stays
    continuous across the phi branch cut.
    """
    rate = 2.0 * np.pi * revolutions / (t_end - t_start)
    ci, si = math.cos(inclination), math.sin(inclination)
    # orthonormal pair spanning the tilted plane
    e1 = np.array([ci, 0.0, -si])
    e2 = np.array([0.0, 1.0, 0.0])

    def cartesian(t: float) -> np.ndarray:
        s = offset + rate * (t - t_start)
        return math.cos(s) * e1 + math.sin(s) * e2

    def d_cartesian(t: float) -> np.ndarray:
        s = offset + rate * (t - t_start)
        return rate * (-math.sin(s) * e1 + math.cos(s) * e2)

    grid = np.linspace(t_start, t_end, 4097)
    raw = np.array([math.atan2(cartesian(t)[1], cartesian(t)[0]) for t in grid])
    unwrapped = np.unwrap(raw)
    two_pi = 2.0 * np.pi

    def position(t: float) -> np.ndarray:
        p = cartesian(t)
        theta = math.acos(float(np.clip(p[2], -1.0, 1.0)))
        # pick the branch of atan2 nearest the smooth unwrapped reference
        raw_phi = math.atan2(p[1], p[0])
        target = float(np.interp(t, grid, unwrapped))
        phi = raw_phi + two_pi * round((target - raw_phi) / two_pi)
        return np.array([theta, phi])

    def velocity(t: float) -> np.ndarray:
        p, dp = cartesian(t), d_cartesian(t)
        s2 = p[0] * p[0] + p[1] * p[1]
        theta_dot = -dp[2] / math.sqrt(max(s2, 1e-300))
        phi_dot = (p[0] * dp[1] - p[1] * dp[0]) / max(s2, 1e-300)
        return np.array([theta_dot, phi_dot])

    return CurvePath(t_start, t_end, position, velocity, [])


def waypoint_curve(waypoints: Sequence[Sequence[float]]) -> CurvePath:
    """Piecewise-linear curve through (t, theta, phi) waypoints."""
    pts = np.asarray(waypoints, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise ConfigError("waypoints must be a list of at least two (t, theta, phi) rows")
    ts = pts[:, 0]
    if not np.all(np.diff(ts) > 0):
        raise ConfigError("waypoint times must be strictly increasing")

    def segment(t: float) -> int:
        return int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2))

    def position(t: float) -> np.ndarray:
        k = segment(t)
        w = (t - ts[k]) / (ts[k + 1] - ts[k])
        return pts[k, 1:] + w * (pts[k + 1, 1:] - pts[k, 1:])

    def velocity(t: float) -> np.ndarray:
        k = segment(t)
        return (pts[k + 1, 1:] - pts[k, 1:]) / (ts[k + 1] - ts[k])

    return CurvePath(ts[0], ts[-1], position, velocity, [])


# ------------------------------------------------------------- assembly


def _itinerary(curve: CurvePath, theta_plus: float, theta_minus: float,
               pole_margin: float, n_samples: int = 2001):
    """Sample the curve and work out the chart itinerary.

    Returns (schedule, overlap_window).  Raises CurveTouchesPoleMargin or
    OutOfPatch/ConfigError when no admissible single-switch itinerary
    exists."""
    ts = np.linspace(curve.t_start, curve.t_end, n_samples)
    thetas = np.array([float(curve.position(t)[0]) for t in ts])
    if np.any(thetas < pole_margin) or np.any(thetas > np.pi - pole_margin):
        worst = ts[int(np.argmin(np.minimum(thetas, np.pi - thetas)))]
        raise CurveTouchesPoleMargin(
            f"curve reaches within {pole_margin} of a pole near t = {worst:.6g}"
        )
    bad_plus = thetas >= theta_plus   # cannot be on the plus chart there
    bad_minus = thetas <= theta_minus
    span = (curve.t_start, curve.t_end)
    if not np.any(bad_plus):
        return [(span, PLUS)], None
    if not np.any(bad_minus):
        return [(span, MINUS)], None
    last_bad_minus = float(ts[np.where(bad_minus)[0][-1]])
    first_bad_plus = float(ts[np.where(bad_plus)[0][0]])
    last_bad_plus = float(ts[np.where(bad_plus)[0][-1]])
    first_bad_minus = float(ts[np.where(bad_minus)[0][0]])
    if last_bad_minus < first_bad_plus:
        window = (last_bad_minus, first_bad_plus)
        order = (PLUS, MINUS)
    elif last_bad_plus < first_bad_minus:
        window = (last_bad_plus, first_bad_minus)
        order = (MINUS, PLUS)
    else:
        raise ConfigError(
            "curve leaves both charts more than once; only a single chart "
            "switch is supported"
        )
    # shrink by one sample so the default switch point is strictly inside
    dt = ts[1] - ts[0]
    window = (window[0] + dt, window[1] - dt)
    if window[0] >= window[1]:
        raise ConfigError("overlap dwell of the curve is too short to switch charts")
    tau = 0.5 * (window[0] + window[1])
    return (
        [((span[0], tau), order[0]), ((tau, span[1]), order[1])],
        window,
    )


def build_system(
    curve: CurvePath,
    scales: ScaleFields | None = None,
    alpha: AlphaField | None = None,
    energy: EnergyFieldS2 | None = None,
    theta_plus: float = THETA_PLUS_DEFAULT,
    theta_minus: float = THETA_MINUS_DEFAULT,
    pole_margin: float = POLE_MARGIN,
    pole_phi: float | None = 0.0,
) -> SystemSpec:
    """Wire the closed-form model into a ready-to-evolve SystemSpec.

    The curve's chart itinerary is derived from its theta range: single
    chart when possible, otherwise a plus/minus switch with the default
    switch time at the midpoint of the overlap dwell.  Curves entering the
    pole margin are rejected, as are curves that would require more than
    one switch.
    """
    if not (0.0 < theta_minus < theta_plus < np.pi):
        raise ConfigError(
            f"need 0 < theta_minus < theta_plus < pi, got {theta_minus}, {theta_plus}"
        )
    scales = scales if scales is not None else default_scales(theta_plus)
    alpha = alpha if alpha is not None else zero_alpha()

    schedule, window = _itinerary(curve, theta_plus, theta_minus, pole_margin)
    curve = CurvePath(curve.t_start, curve.t_end, curve.position,
                      curve.velocity, schedule)

    patches: dict[str, PatchData] = {}
    for pid in (PLUS, MINUS):
        mf = metric_field(scales, pid, theta_plus, theta_minus)
        conn = assemble_connection(
            mf,
            omega_fn=lambda r, p=pid: omega_lower(r[0], r[1], scales, alpha, p),
            a0_fn=lambda r, p=pid: a_zero_closed(r[0], r[1], scales, p),
        )
        patches[pid] = PatchData(metric=mf, connection=conn)

    # verify the declared itinerary stays inside the chart domains
    for (ta, tb), pid in schedule:
        for t in np.linspace(ta, tb, 101):
            r = curve.position(float(t))
            if not patches[pid].metric.contains(r):
                raise OutOfPatch(
                    f"curve point {np.asarray(r)} at t = {float(t):.6g} lies "
                    f"outside its scheduled chart '{pid}'"
                )

    section = None
    if energy is not None:
        section = ObservableSection(
            {
                PLUS: lambda r: energy_matrix(r[0], r[1], energy, PLUS),
                MINUS: lambda r: energy_matrix(r[0], r[1], energy, MINUS, pole_phi),
            },
            authoring_patch=PLUS,
        )

    return SystemSpec(
        patches=patches,
        curve=curve,
        transition=transition_field(scales, theta_plus, theta_minus),
        energy=section,
        overlap_window=window,
        metadata={
            "model": "s2-two-level",
            "theta_plus": theta_plus,
            "theta_minus": theta_minus,
            "pole_margin": pole_margin,
        },
    )
