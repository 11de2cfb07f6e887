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

Every closed form takes scalars or arrays of (theta, phi) and broadcasts;
matrix-valued one-forms are arrays whose axis -3 holds the (theta, phi)
components.  Default geometry: theta_plus = 2 pi / 3, theta_minus =
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
from .connection import CurvePath, assemble_connection
from .errors import (
    ConfigError,
    CurveTouchesPoleMargin,
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

#: the chart itinerary samples a curve at this many evenly spaced times
ITINERARY_SAMPLES = 2001

#: |theta - pi| below this counts as "at the south pole" for conventions
_POLE_EPS = 1e-12

#: finite-difference step for scale-field partials without a closed form
SCALAR_FD_STEP = 1e-6


# ---------------------------------------------------------------- fields
#
# Every closed form below broadcasts over arrays of (theta, phi): scalars
# give one value or matrix, arrays of shape S give S + (...).  The field
# callables (scale fields, alpha, energy) are evaluated through
# linalg.over_points, so pointwise user lambdas keep working, and the
# built-in fields are marked stacked.


def _grid(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """theta and phi as float arrays of one broadcast shape."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.shape != phi.shape:
        theta, phi = np.broadcast_arrays(theta, phi)
    return theta, phi


def _pointwise(fn, theta, phi) -> np.ndarray:
    """A field callable fn(theta, phi) on broadcast coordinate arrays."""
    theta, phi = _grid(theta, phi)
    out = linalg.over_points(fn, theta.reshape(-1), phi.reshape(-1))
    return out.reshape(theta.shape + out.shape[1:])


def _m(x) -> np.ndarray:
    """Scalars of shape S lifted to scale matrices of shape S + (2, 2)."""
    return np.asarray(x)[..., None, None]


def _constant(value):
    """A stacked field callable equal to ``value`` (a number or a vector)
    everywhere."""
    v = np.asarray(value, dtype=float)
    return linalg.stacked(lambda th, ph: np.broadcast_to(v, np.shape(th) + v.shape))


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

    def __call__(self, theta, phi) -> np.ndarray:
        return _pointwise(self._fn, theta, phi)

    def partials(self, theta, phi) -> tuple[np.ndarray, np.ndarray]:
        """(d/dtheta, d/dphi), analytic where given, else central differences."""
        fd = None
        if self._d_theta is None or self._d_phi is None:
            fd = linalg.central_difference(lambda p: self(p[..., 0], p[..., 1]),
                                           np.stack(_grid(theta, phi), axis=-1),
                                           SCALAR_FD_STEP)
        return tuple(fd[i] if d is None else _pointwise(d, theta, phi)
                     for i, d in enumerate((self._d_theta, self._d_phi)))


def constant_field(c: float) -> ScalarField:
    return ScalarField(_constant(c), _constant(0.0), _constant(0.0))


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
    zero = _constant(0.0)
    return ScaleFields(
        xi=constant_field(1.0),
        zeta=ScalarField(
            linalg.stacked(lambda th, ph: 1.0 - np.cos(th) / c),
            linalg.stacked(lambda th, ph: np.sin(th) / c),
            zero,
        ),
        xi_tilde=constant_field(1.0),
        zeta_tilde=ScalarField(
            linalg.stacked(lambda th, ph: 1.0 + np.cos(th) / c),
            linalg.stacked(lambda th, ph: -np.sin(th) / c),
            zero,
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
    z = _constant(np.zeros(3))
    return AlphaField(z, z)


def constant_alpha(theta_vec, phi_vec) -> AlphaField:
    return AlphaField(_constant(theta_vec), _constant(phi_vec))


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
    return EnergyFieldS2(_constant(eps), _constant(yv / n))


# ------------------------------------------------------------- geometry


def _vectors(x, y, z) -> np.ndarray:
    """3-vectors (..., 3) from three broadcastable component arrays."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = x, y, z
    return out


def unit_vector(theta, phi) -> np.ndarray:
    """xhat = (sin t cos p, sin t sin p, cos t)."""
    st, ct = np.sin(theta), np.cos(theta)
    return _vectors(st * np.cos(phi), st * np.sin(phi), ct)


_MIRROR = np.array([1.0, 1.0, -1.0])


def unit_vector_mirror(theta, phi) -> np.ndarray:
    """The minus-chart direction (x1, x2, -x3)."""
    return unit_vector(theta, phi) * _MIRROR


def unit_vector_prime(theta, phi) -> np.ndarray:
    """(cos t cos p, cos t sin p, sin t): xhat rotated a quarter turn in
    its meridian plane; the intertwiner is sigma3 (xhat' . sigma)."""
    ct, st = np.cos(theta), np.sin(theta)
    return _vectors(ct * np.cos(phi), ct * np.sin(phi), st)


def d_unit_vector(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """(d xhat / d theta, d xhat / d phi)."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return (_vectors(ct * cp, ct * sp, -st), _vectors(-st * sp, st * cp, 0.0))


def _frame(theta, phi, patch: str) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, d xhat) on the chart, mirrored on minus; d xhat holds the theta
    and phi derivatives on axis -2."""
    x, dx = unit_vector(theta, phi), np.stack(d_unit_vector(theta, phi), axis=-2)
    return (x, dx) if patch == PLUS else (x * _MIRROR, dx * _MIRROR)


def radial_pauli(phi) -> np.ndarray:
    """cos(phi) sigma1 + sin(phi) sigma2: in-plane Pauli along the meridian."""
    return _m(np.cos(phi)) * SIGMA1 + _m(np.sin(phi)) * SIGMA2


def tangent_pauli(phi) -> np.ndarray:
    """-sin(phi) sigma1 + cos(phi) sigma2: in-plane Pauli along the parallel."""
    return -_m(np.sin(phi)) * SIGMA1 + _m(np.cos(phi)) * SIGMA2


def u_matrix(theta: float, phi: float) -> np.ndarray:
    """The unitary rotating sigma3 onto the radial direction:
    U sigma3 U^dag = xhat . sigma."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    e = np.exp(1j * phi)
    return np.array([[c, -s / e], [s * e, c]], dtype=complex)


# ------------------------------------------------------------- metric data


def _chi(xi, zeta):
    return 0.5 * (xi * xi + zeta * zeta), 0.5 * (xi * xi - zeta * zeta)


def _xhat(theta, phi, patch: str) -> np.ndarray:
    return unit_vector(theta, phi) if patch == PLUS else unit_vector_mirror(theta, phi)


def _scale_data(scales: ScaleFields, patch: str, theta, phi):
    """(a, b, da, db): the chart's two scale fields and their partials, with
    the (theta, phi) partials on a last axis."""
    fa, fb = scales.pair(patch)
    return (fa(theta, phi), fb(theta, phi),
            np.stack(fa.partials(theta, phi), axis=-1), np.stack(fb.partials(theta, phi), axis=-1))


def eta_matrix(theta, phi, scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    """Closed-form fiber metric on the requested chart."""
    fa, fb = scales.pair(patch)
    chi_p, chi_m = _chi(fa(theta, phi), fb(theta, phi))
    return _m(chi_p) * ID2 + _m(chi_m) * pauli_dot(_xhat(theta, phi, patch))


def eta_partials(theta, phi, scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    """Analytic (d_theta eta, d_phi eta) by the chain rule, stacked on axis -3."""
    a, b, da, db = _scale_data(scales, patch, theta, phi)
    x, dx = _frame(theta, phi, patch)
    chi_m = 0.5 * (a * a - b * b)
    a, b = a[..., None], b[..., None]
    return (_m(a * da + b * db) * ID2 + _m(a * da - b * db) * pauli_dot(x)[..., None, :, :]
            + _m(chi_m[..., None]) * pauli_dot(dx))


def rho_matrix(theta, phi, scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    """Closed-form positive root of the metric:
    rho = (xi + zeta)/2 1 + (xi - zeta)/2 xhat . sigma."""
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    return _m(0.5 * (a + b)) * ID2 + _m(0.5 * (a - b)) * pauli_dot(_xhat(theta, phi, patch))


def rho_inverse_matrix(theta, phi, scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    fa, fb = scales.pair(patch)
    a, b = fa(theta, phi), fb(theta, phi)
    x = _xhat(theta, phi, patch)
    return (_m(0.5 * (a + b)) * ID2 - _m(0.5 * (a - b)) * pauli_dot(x)) / _m(a * b)


def metric_field(scales: ScaleFields, patch: str = PLUS,
                 theta_plus: float = THETA_PLUS_DEFAULT,
                 theta_minus: float = THETA_MINUS_DEFAULT) -> MetricField:
    """Metric field on one chart, with analytic partials and chart domain;
    all three callables take whole stacks of points."""
    if patch == PLUS:
        domain = lambda r: (r[:, 0] >= -1e-12) & (r[:, 0] < theta_plus)
    else:
        domain = lambda r: (r[:, 0] > theta_minus) & (r[:, 0] <= np.pi + 1e-12)
    return MetricField(
        patch,
        linalg.stacked(lambda r: eta_matrix(r[:, 0], r[:, 1], scales, patch)),
        partials_fn=linalg.stacked(lambda r: eta_partials(r[:, 0], r[:, 1], scales, patch)),
        dim=2,
        domain=linalg.stacked(domain),
    )


# ------------------------------------------------------------- transition


def _glue_matrix(diag, upper, lower, e) -> np.ndarray:
    """[[diag, upper / e], [lower * e, diag]] from broadcast component arrays:
    the shape shared by g, its partials and G."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, (diag, upper, lower, e))) + (2, 2),
                   dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = diag
    out[..., 0, 1] = upper / e
    out[..., 1, 0] = lower * e
    return out


def _transition_data(theta, phi, scales: ScaleFields):
    """(theta, phi, (xi, zeta, xi~, zeta~), gp, gm, sin t, cos t, e^{ip}) of
    the transition function, with gp, gm = (xi~/xi +- zeta~/zeta)/2."""
    theta, phi = _grid(theta, phi)
    values = tuple(f(theta, phi) for f in scales.pair(PLUS) + scales.pair(MINUS))
    xi, zeta, xi_t, zeta_t = values
    gp = 0.5 * (xi_t / xi + zeta_t / zeta)
    gm = 0.5 * (xi_t / xi - zeta_t / zeta)
    return theta, phi, values, gp, gm, np.sin(theta), np.cos(theta), np.exp(1j * phi)


def transition_g(theta, phi, scales: ScaleFields) -> np.ndarray:
    """Closed-form transition function from the plus to the minus chart:

        g = [[ gp sin t,  e^{-ip} (gm + gp cos t) ],
             [ e^{ip} (gm - gp cos t),  gp sin t ]],

    with gp, gm = (xi~/xi +- zeta~/zeta)/2."""
    *_, gp, gm, st, ct, e = _transition_data(theta, phi, scales)
    return _glue_matrix(gp * st, gm + gp * ct, gm - gp * ct, e)


def transition_g_partials(theta, phi, scales: ScaleFields) -> np.ndarray:
    """Analytic (d_theta g, d_phi g) via the scale fields' partials, stacked
    on axis -3."""
    theta, phi, values, gp, gm, st, ct, e = _transition_data(theta, phi, scales)
    xi, zeta, xi_t, zeta_t = (x[..., None] for x in values)
    d_xi, d_zeta, d_xi_t, d_zeta_t = (np.stack(f.partials(theta, phi), axis=-1)
                                      for f in scales.pair(PLUS) + scales.pair(MINUS))
    d_ratio_xi = (d_xi_t * xi - xi_t * d_xi) / (xi * xi)
    d_ratio_zeta = (d_zeta_t * zeta - zeta_t * d_zeta) / (zeta * zeta)
    dgp = 0.5 * (d_ratio_xi + d_ratio_zeta)
    dgm = 0.5 * (d_ratio_xi - d_ratio_zeta)
    # (theta, phi) partials of sin t, cos t and of the phase angle p
    zero = np.zeros_like(st)
    d_st, d_ct = np.stack([ct, zero], axis=-1), np.stack([-st, zero], axis=-1)
    d_p = np.array([0.0, 1.0])
    gp, gm, st, ct = (x[..., None] for x in (gp, gm, st, ct))
    return _glue_matrix(dgp * st + gp * d_st,
                        dgm + dgp * ct + gp * d_ct - 1j * d_p * (gm + gp * ct),
                        dgm - dgp * ct - gp * d_ct + 1j * d_p * (gm - gp * ct),
                        e[..., None])


def big_g_s2(theta, phi) -> np.ndarray:
    """The scale-independent unitary intertwiner between the charts:

        G = sigma3 (xhat' . sigma)
          = [[ sin t, e^{-ip} cos t ], [ -e^{ip} cos t, sin t ]]."""
    theta, phi = _grid(theta, phi)
    ct = np.cos(theta)
    return _glue_matrix(np.sin(theta), ct, -ct, np.exp(1j * phi))


def _sigma_tilde_basis(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma~_1, sigma~_2, sigma~_3) in closed form."""
    theta, phi = _grid(theta, phi)
    st, ct = np.sin(theta), np.cos(theta)
    s2t, c2t = np.sin(2.0 * theta), np.cos(2.0 * theta)
    s2p, c2p = np.sin(2.0 * phi), np.cos(2.0 * phi)
    return ((_m(st * st - ct * ct * c2p) * SIGMA1
             - _m(ct * ct * s2p) * SIGMA2
             - _m(s2t * np.cos(phi)) * SIGMA3),
            (_m(-ct * ct * s2p) * SIGMA1
             + _m(st * st + ct * ct * c2p) * SIGMA2
             - _m(s2t * np.sin(phi)) * SIGMA3),
            _m(s2t) * radial_pauli(phi) - _m(c2t) * SIGMA3)


def sigma_tilde(j: int, theta, phi) -> np.ndarray:
    """Conjugated Pauli matrices  sigma~_j = G^{-1} sigma_j G  in closed form."""
    if j not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {j}")
    return _sigma_tilde_basis(theta, phi)[j - 1]


def _sigma_tilde_dot(vecs: np.ndarray, theta, phi) -> np.ndarray:
    """sum_j v_j sigma~_j for 3-vectors (..., 3)."""
    return sum(_m(vecs[..., j]) * s for j, s in enumerate(_sigma_tilde_basis(theta, phi)))


def transition_field(scales: ScaleFields,
                     theta_plus: float = THETA_PLUS_DEFAULT,
                     theta_minus: float = THETA_MINUS_DEFAULT) -> TransitionFunctionField:
    return TransitionFunctionField(
        PLUS,
        MINUS,
        linalg.stacked(lambda r: transition_g(r[:, 0], r[:, 1], scales)),
        partials_fn=linalg.stacked(lambda r: transition_g_partials(r[:, 0], r[:, 1], scales)),
        overlap=linalg.stacked(lambda r: (theta_minus < r[:, 0]) & (r[:, 0] < theta_plus)),
        dim=2,
    )


# ------------------------------------------------------- connection pieces
#
# Matrix-valued one-forms are arrays whose axis -3 holds the (theta, phi)
# components: (2, 2, 2) at one point, S + (2, 2, 2) on arrays of points.


def a_zero_closed(theta, phi, scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    """Canonical connection components in closed form:

        A0 = -(i/2) { (dxi/xi + dzeta/zeta) 1
                      + [ (dxi/xi - dzeta/zeta) xhat
                          + (xi^4 - zeta^4)/(4 xi^2 zeta^2) dxhat
                          - i (xi^2 - zeta^2)^2/(4 xi^2 zeta^2) xhat x dxhat ] . sigma }

    (tilded data and mirrored xhat on the minus chart)."""
    a, b, da, db = _scale_data(scales, patch, theta, phi)
    x, dx = _frame(theta, phi, patch)
    a2, b2 = a * a, b * b
    c1 = (a2 * a2 - b2 * b2) / (4.0 * a2 * b2)
    c2 = (a2 - b2) ** 2 / (4.0 * a2 * b2)
    a, b, x = a[..., None], b[..., None], x[..., None, :]  # against the (theta, phi) axis
    vec = (da / a - db / b)[..., None] * x + c1[..., None, None] * dx
    m = (_m(da / a + db / b) * ID2 + pauli_dot(vec)
         - 1j * _m(c2[..., None]) * pauli_dot(np.cross(x, dx)))
    return -0.5j * m


def _one_form(theta_part, phi_part) -> np.ndarray:
    return np.stack(np.broadcast_arrays(theta_part, phi_part), axis=-3)


def gamma_plus(theta, phi) -> np.ndarray:
    """Gamma_+ = -s_t dtheta + [cos t s_r - sin t sigma3] sin t dphi, where
    s_r, s_t are the in-plane Pauli fields."""
    st, ct = _m(np.sin(theta)), _m(np.cos(theta))
    return _one_form(-tangent_pauli(phi), (ct * radial_pauli(phi) - st * SIGMA3) * st)


def gamma_minus(theta, phi) -> np.ndarray:
    """Gamma_- : same theta part as Gamma_+, opposite phi part."""
    st, ct = _m(np.sin(theta)), _m(np.cos(theta))
    return _one_form(-tangent_pauli(phi), -(ct * radial_pauli(phi) - st * SIGMA3) * st)


def gamma_zero(theta, phi) -> np.ndarray:
    """Gamma_0 = -cos t (xhat . sigma) dphi
              = -[sin t s_r + cos t sigma3] cos t dphi."""
    st, ct = _m(np.sin(theta)), _m(np.cos(theta))
    phi_part = -(st * radial_pauli(phi) + ct * SIGMA3) * ct
    return _one_form(np.zeros_like(phi_part), phi_part)


def gamma_minus_conjugated(theta, phi) -> np.ndarray:
    """G^{-1} Gamma_- G in closed form:
    -s_t dtheta + [cos t s_r + sin t sigma3] sin t dphi.

    Equivalently the pullback of -Gamma_+ under the reflection
    theta -> pi - theta (the dtheta component changes sign under the
    pullback, so componentwise the theta parts agree and the phi parts
    flip)."""
    st, ct = _m(np.sin(theta)), _m(np.cos(theta))
    return _one_form(-tangent_pauli(phi), (ct * radial_pauli(phi) + st * SIGMA3) * st)


def _curly_x(xi, zeta):
    return (xi * xi + zeta * zeta) / (4.0 * xi * zeta)


def _lift_form(x) -> np.ndarray:
    """Scalars of shape S lifted to scale one-forms of shape S + (2, 2, 2)."""
    return np.asarray(x)[..., None, None, None]


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


def _alpha_matrices(theta, phi, alpha: AlphaField, patch: str) -> np.ndarray:
    """alpha_a as matrices: coefficients contract sigma on plus and the
    conjugated sigma~ on minus."""
    vecs = np.stack([_pointwise(alpha.theta_vec, theta, phi),
                     _pointwise(alpha.phi_vec, theta, phi)], axis=-2)
    if patch == PLUS:
        return pauli_dot(vecs)
    theta, phi = _grid(theta, phi)
    return _sigma_tilde_dot(vecs, theta[..., None], phi[..., None])  # against the component axis


def omega_hermitian(theta, phi, scales: ScaleFields,
                    alpha: AlphaField | None = None,
                    patch: str = PLUS) -> np.ndarray:
    """The Hermitian-form free connection part fixing global consistency:

        omega_H  = alpha - X Gamma_+ - Gamma_0          (plus chart)
        omega~_H = alpha~ + X~ (G^{-1} Gamma_- G)       (minus chart)
    """
    alpha = alpha if alpha is not None else zero_alpha()
    alphas = _alpha_matrices(theta, phi, alpha, patch)
    if patch == PLUS:
        x_plain = _curly_x(scales.xi(theta, phi), scales.zeta(theta, phi))
        return (alphas - _lift_form(x_plain) * gamma_plus(theta, phi)
                - gamma_zero(theta, phi))
    x_tilde = _curly_x(scales.xi_tilde(theta, phi), scales.zeta_tilde(theta, phi))
    return alphas + _lift_form(x_tilde) * gamma_minus_conjugated(theta, phi)


def omega_lower(theta, phi, scales: ScaleFields,
                alpha: AlphaField | None = None,
                patch: str = PLUS) -> np.ndarray:
    """The free connection part in its native (pseudo-Hermitian) form:
    omega_a = rho^{-1} omega_H_a rho."""
    rho = rho_matrix(theta, phi, scales, patch)[..., None, :, :]
    rho_inv = rho_inverse_matrix(theta, phi, scales, patch)[..., None, :, :]
    return linalg.matmul(linalg.matmul(rho_inv, omega_hermitian(theta, phi, scales, alpha, patch)),
                         rho)


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


# ------------------------------------------------------------- energy


def energy_matrix(theta, phi, energy: EnergyFieldS2,
                  patch: str = PLUS, pole_phi: float | None = 0.0) -> np.ndarray:
    """Hermitian-form energy observable on a chart.

    Plus chart: (eps/2) yhat . sigma.  Minus chart: the conjugated form
    (eps/2) sum_j y_j sigma~_j, whose phi-dependence survives at the south
    pole; there the ``pole_phi`` convention value is used (pass None to get
    a PoleAmbiguity error instead)."""
    theta, phi = _grid(theta, phi)
    half_eps = _m(0.5 * _pointwise(energy.epsilon, theta, phi))
    y = _pointwise(energy.y_hat, theta, phi)
    if patch == PLUS:
        return half_eps * pauli_dot(y)
    at_pole = np.abs(theta - np.pi) < _POLE_EPS
    if np.any(at_pole):
        if pole_phi is None:
            raise PoleAmbiguity(
                "minus-chart energy matrix at the south pole needs a phi "
                "convention (pole_phi)"
            )
        phi = np.where(at_pole, pole_phi, phi)
    return half_eps * _sigma_tilde_dot(y, theta, phi)


def hermitian_hamiltonian(theta, phi, theta_dot, phi_dot,
                          alpha: AlphaField | None = None,
                          energy: EnergyFieldS2 | None = None,
                          patch: str = PLUS,
                          pole_phi: float | None = 0.0) -> np.ndarray:
    """The final closed-form Hermitian generator along a curve; it contains
    no scale fields at all:

        h  = e + alpha(Rdot) - (1/2) Gamma_+(Rdot) - Gamma_0(Rdot)   (plus)
        h~ = e~ + alpha~(Rdot) + (1/2) (G^{-1}Gamma_- G)(Rdot)       (minus)
    """
    theta, phi, theta_dot, phi_dot = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (theta, phi, theta_dot, phi_dot)))
    out = np.zeros(theta.shape + (2, 2), dtype=complex)
    if energy is not None:
        out = out + energy_matrix(theta, phi, energy, patch, pole_phi)
    if alpha is not None:
        out = out + _along(_alpha_matrices(theta, phi, alpha, patch), theta_dot, phi_dot)
    if patch == PLUS:
        out = out - 0.5 * _along(gamma_plus(theta, phi), theta_dot, phi_dot)
        out = out - _along(gamma_zero(theta, phi), theta_dot, phi_dot)
    else:
        out = out + 0.5 * _along(gamma_minus_conjugated(theta, phi), theta_dot, phi_dot)
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
#
# position and velocity take one time or a stack of times (n,) and return
# (2,) or (n, 2); they are marked stacked.


def _theta_phi(theta, phi) -> np.ndarray:
    return np.stack(np.broadcast_arrays(theta, phi), axis=-1)


def circle_curve(theta0: float, t_start: float = 0.0, t_end: float = 1.0,
                 revolutions: float = 1.0, phi0: float = 0.0) -> CurvePath:
    """Constant-latitude circle, phi advancing by 2 pi revolutions."""
    rate = 2.0 * np.pi * revolutions / (t_end - t_start)

    @linalg.stacked
    def position(t) -> np.ndarray:
        return _theta_phi(theta0, phi0 + rate * (np.asarray(t, dtype=float) - t_start))

    @linalg.stacked
    def velocity(t) -> np.ndarray:
        return _theta_phi(np.zeros(np.shape(t)), rate)

    return CurvePath(t_start, t_end, position, velocity, [])


def meridian_curve(phi0: float, theta_from: float, theta_to: float,
                   t_start: float = 0.0, t_end: float = 1.0) -> CurvePath:
    """Constant-longitude arc, theta moving linearly in t."""
    rate = (theta_to - theta_from) / (t_end - t_start)

    @linalg.stacked
    def position(t) -> np.ndarray:
        return _theta_phi(theta_from + rate * (np.asarray(t, dtype=float) - t_start), phi0)

    @linalg.stacked
    def velocity(t) -> np.ndarray:
        return _theta_phi(np.full(np.shape(t), rate), 0.0)

    return CurvePath(t_start, t_end, position, velocity, [])


def great_circle_curve(inclination: float, t_start: float = 0.0, t_end: float = 1.0,
                       revolutions: float = 1.0, offset: float = 0.0) -> CurvePath:
    """Great circle whose plane is tilted by ``inclination`` from the equator.

    The curve is exact in Cartesian coordinates,
    x(s) = (cos i cos s, sin s, -sin i cos s) with s = offset + rate (t - t_start).
    The spherical phi(t) is unwrapped analytically, starting from atan2's
    principal value at t_start: for cos i > 0 the continuous phi stays
    within pi/2 of s + 2 pi k, because (cos s, sin s) . (cos i cos s, sin s)
    > 0, so the branch of atan2 nearest s + 2 pi k is the continuous one
    (for cos i < 0 the same holds with pi - s in place of s).
    """
    rate = 2.0 * np.pi * revolutions / (t_end - t_start)
    ci, si = math.cos(inclination), math.sin(inclination)
    two_pi = 2.0 * np.pi

    def cartesian(t):
        s = offset + rate * (np.asarray(t, dtype=float) - t_start)
        c, sn = np.cos(s), np.sin(s)
        return s, ci * c, sn, -si * c

    def smooth(s):
        """The angle the continuous phi stays within pi/2 of, up to 2 pi k."""
        return s if ci >= 0.0 else np.pi - s

    raw0 = math.atan2(math.sin(offset), ci * math.cos(offset))
    branch = two_pi * round((raw0 - smooth(offset)) / two_pi)

    @linalg.stacked
    def position(t) -> np.ndarray:
        s, x, y, z = cartesian(t)
        raw_phi = np.arctan2(y, x)
        target = smooth(s) + branch
        return _theta_phi(np.arccos(np.clip(z, -1.0, 1.0)),
                          raw_phi + two_pi * np.round((target - raw_phi) / two_pi))

    @linalg.stacked
    def velocity(t) -> np.ndarray:
        s, x, y, _ = cartesian(t)
        sn = np.sin(s)
        dx, dy, dz = rate * (-sn * ci), rate * np.cos(s), rate * (sn * si)
        s2 = np.maximum(x * x + y * y, 1e-300)
        return _theta_phi(-dz / np.sqrt(s2), (x * dy - y * dx) / s2)

    return CurvePath(t_start, t_end, position, velocity, [])


def waypoint_curve(waypoints: Sequence[Sequence[float]]) -> CurvePath:
    """Piecewise-linear curve through (t, theta, phi) waypoints."""
    pts = np.asarray(waypoints, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise ConfigError("waypoints must be a list of at least two (t, theta, phi) rows")
    ts = pts[:, 0]
    if not np.all(np.diff(ts) > 0):
        raise ConfigError("waypoint times must be strictly increasing")

    def segment(t):
        return np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)

    @linalg.stacked
    def position(t) -> np.ndarray:
        k = segment(t)
        w = (np.asarray(t, dtype=float) - ts[k]) / (ts[k + 1] - ts[k])
        return pts[k, 1:] + w[..., None] * (pts[k + 1, 1:] - pts[k, 1:])

    @linalg.stacked
    def velocity(t) -> np.ndarray:
        k = segment(t)
        return (pts[k + 1, 1:] - pts[k, 1:]) / (ts[k + 1] - ts[k])[..., None]

    return CurvePath(ts[0], ts[-1], position, velocity, [])


# ------------------------------------------------------------- assembly


def _itinerary(curve: CurvePath, theta_plus: float, theta_minus: float, pole_margin: float):
    """Sample the curve and work out the chart itinerary.

    Returns (schedule, overlap_window).  Raises CurveTouchesPoleMargin or
    ConfigError when no admissible single-switch itinerary exists."""
    ts = np.linspace(curve.t_start, curve.t_end, ITINERARY_SAMPLES)
    thetas = curve.points(ts)[:, 0]
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
    # shrink by two samples: the crossing lies within one sample of each edge,
    # so both edges sit at least one sample inside the open overlap
    dt = ts[1] - ts[0]
    window = (window[0] + 2 * dt, window[1] - 2 * dt)
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
    one switch.  Every generator evaluation checks that its points lie in
    their chart (OutOfPatch).
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
            omega_fn=linalg.stacked(
                lambda r, p=pid: omega_lower(r[:, 0], r[:, 1], scales, alpha, p)),
            a0_fn=linalg.stacked(lambda r, p=pid: a_zero_closed(r[:, 0], r[:, 1], scales, p)),
        )
        patches[pid] = PatchData(metric=mf, connection=conn)

    section = None
    if energy is not None:
        section = ObservableSection(
            {
                PLUS: linalg.stacked(lambda r: energy_matrix(r[:, 0], r[:, 1], energy, PLUS)),
                MINUS: linalg.stacked(
                    lambda r: energy_matrix(r[:, 0], r[:, 1], energy, MINUS, pole_phi)),
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

