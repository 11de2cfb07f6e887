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

rho, rho^-1, rhodot, e, h and H are built on Pauli coefficients: c0 1 + c . sigma
is the tuple (c0, c1, c2, c3) of broadcast arrays, multiplied by the quaternion
rule and made a 2x2 stack once per call, from one chart frame per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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


# ------------------------------------------------------ Pauli coefficients


def _product(a, b) -> tuple:
    """(a0 + a.sigma)(b0 + b.sigma) = a0 b0 + a.b + (a0 b + b0 a + i a x b).sigma."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,
            a0 * b1 + b0 * a1 + 1j * (a2 * b3 - a3 * b2),
            a0 * b2 + b0 * a2 + 1j * (a3 * b1 - a1 * b3),
            a0 * b3 + b0 * a3 + 1j * (a1 * b2 - a2 * b1))


def _matrix(c) -> np.ndarray:
    out = np.empty(np.broadcast(*c).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = c[0] + c[3], c[0] - c[3]
    out[..., 0, 1], out[..., 1, 0] = c[1] - 1j * c[2], c[1] + 1j * c[2]
    return out


def _sigma_tilde_basis(st, ct, sp, cp) -> tuple:
    """Rows R_j of the rotation sigma~_j = R_j . sigma, from sin and cos of theta, phi."""
    s2, c2, s2t, s2p, c2p = st * st, ct * ct, 2.0 * st * ct, 2.0 * sp * cp, cp * cp - sp * sp
    return ((s2 - c2 * c2p, -c2 * s2p, -s2t * cp),
            (-c2 * s2p, s2 + c2 * c2p, -s2t * sp),
            (s2t * cp, s2t * sp, s2 - c2))


class _ChartFrame:
    """One chart's data at points (theta, phi): sin and cos and xhat (mirrored on
    minus), and the scale fields and sigma~ basis once first read.  Its methods
    return Pauli coefficient tuples and evaluate the fields they need once."""

    def __init__(self, theta, phi, patch: str, forms: ClosedForms):
        self.point = self.theta, self.phi = _grid(theta, phi)
        self.patch, self.forms = patch, forms
        self.trig = st, ct, sp, cp = (np.sin(self.theta), np.cos(self.theta),
                                      np.sin(self.phi), np.cos(self.phi))
        self.xhat = st * cp, st * sp, (ct if patch == PLUS else -ct)

    scale = cached_property(lambda self: [f(*self.point)
                                          for f in self.forms.scales.pair(self.patch)])
    energy_vec = cached_property(lambda self: (  # (eps/2) yhat
        0.5 * _pointwise(self.forms.energy_field.epsilon, *self.point)[..., None]
        * _pointwise(self.forms.energy_field.y_hat, *self.point)))

    @cached_property
    def basis(self) -> tuple:
        """sigma~, at the ``pole_phi`` convention on the south pole when there is an
        energy (PoleAmbiguity for None)."""
        st, ct, sp, cp = self.trig
        at_pole = abs(self.theta - np.pi) < _POLE_EPS
        if self.forms.energy_field is not None and at_pole.any():
            if self.forms.pole_phi is None:
                raise PoleAmbiguity("minus-chart energy matrix at the south pole needs a phi "
                                    "convention (pole_phi)")
            phi = np.where(at_pole, self.forms.pole_phi, self.phi)
            sp, cp = np.sin(phi), np.cos(phi)
        return _sigma_tilde_basis(st, ct, sp, cp)

    def sigma(self, vec) -> tuple:
        """3-vectors (..., 3) contracted with sigma (plus) or sigma~ (minus)."""
        v = tuple(np.rollaxis(vec, -1))
        if self.patch == MINUS:
            v = tuple(v[0] * r1 + v[1] * r2 + v[2] * r3 for r1, r2, r3 in zip(*self.basis))
        return (0.0,) + v

    def rho(self, inverse: bool = False) -> tuple:
        """rho = (a + b)/2 + (a - b)/2 xhat . sigma, or rho^{-1} = adj(rho) / (a b)."""
        a, b = self.scale
        s, d = 0.5 * (a + b), 0.5 * (a - b)
        if inverse:
            s, d = s / (a * b), -d / (a * b)
        return (s,) + tuple(d * x for x in self.xhat)

    def rho_dot(self, theta_dot, phi_dot) -> tuple:
        """(adot + bdot)/2 + [(adot - bdot)/2 xhat + (a - b)/2 xhatdot] . sigma."""
        (a, b), (st, ct, sp, cp) = self.scale, self.trig
        a_dot, b_dot = (d_theta * theta_dot + d_phi * phi_dot for d_theta, d_phi in
                        (f.partials(*self.point) for f in self.forms.scales.pair(self.patch)))
        x_dot = (ct * cp * theta_dot - st * sp * phi_dot, ct * sp * theta_dot + st * cp * phi_dot,
                 (-st if self.patch == PLUS else st) * theta_dot)
        s, d = 0.5 * (a_dot - b_dot), 0.5 * (a - b)
        return (0.5 * (a_dot + b_dot),) + tuple(s * x + d * y for x, y in zip(self.xhat, x_dot))

    def h(self, theta_dot, phi_dot) -> tuple:
        """e + alpha(Rdot) contracted once, plus -(1/2) Gamma_+(Rdot) - Gamma_0(Rdot)
        on plus or (1/2) (G^{-1} Gamma_- G)(Rdot) on minus."""
        st, ct, sp, cp = self.trig
        u, w = 0.5 * phi_dot * st * ct, 0.5 * theta_dot
        if self.patch == PLUS:
            gamma = (u * cp - w * sp, u * sp + w * cp, phi_dot * (0.5 * st * st + ct * ct))
        else:
            gamma = (u * cp + w * sp, u * sp - w * cp, 0.5 * phi_dot * st * st)
        alpha, energy = self.forms.alpha, self.forms.energy_field
        vec = np.zeros(3) if energy is None else self.energy_vec
        if alpha is not None:
            for v, f in ((theta_dot, alpha.theta_vec), (phi_dot, alpha.phi_vec)):
                vec = vec + v[..., None] * _pointwise(f, *self.point)
        return (0.0,) + tuple(g + c for g, c in zip(gamma, self.sigma(vec)[1:]))


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
    return _matrix(_ChartFrame(theta, phi, patch, ClosedForms(scales)).rho())


def rho_inverse_matrix(theta, phi, scales: ScaleFields, patch: str = PLUS) -> np.ndarray:
    return _matrix(_ChartFrame(theta, phi, patch, ClosedForms(scales)).rho(inverse=True))


def rho_dot_matrix(theta, phi, theta_dot, phi_dot, scales: ScaleFields,
                   patch: str = PLUS) -> np.ndarray:
    """d rho / dt at velocity (theta_dot, phi_dot), (a, b) the chart's scale fields:
    rhodot = (adot + bdot)/2 1 + [(adot - bdot)/2 xhat + (a - b)/2 xhatdot] . sigma."""
    return _matrix(_ChartFrame(theta, phi, patch, ClosedForms(scales)).rho_dot(theta_dot, phi_dot))


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


def sigma_tilde(j: int, theta, phi) -> np.ndarray:
    """Conjugated Pauli matrices  sigma~_j = G^{-1} sigma_j G  in closed form."""
    if j not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {j}")
    return _matrix(_ChartFrame(theta, phi, MINUS, ClosedForms()).sigma(np.eye(3)[j - 1]))


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


def _alpha_matrices(theta, phi, alpha: AlphaField, patch: str) -> np.ndarray:
    """alpha_a as matrices: coefficients contract sigma on plus and the
    conjugated sigma~ on minus."""
    frame = _ChartFrame(theta, phi, patch, ClosedForms())
    vecs = np.stack([_pointwise(f, *frame.point) for f in (alpha.theta_vec, alpha.phi_vec)])
    return np.moveaxis(_matrix(frame.sigma(vecs)), 0, -3)  # components on axis -3


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


# ------------------------------------------------------------- energy


def energy_matrix(theta, phi, energy: EnergyFieldS2,
                  patch: str = PLUS, pole_phi: float | None = 0.0) -> np.ndarray:
    """Hermitian-form energy observable on a chart.

    Plus chart: (eps/2) yhat . sigma.  Minus chart: the conjugated form
    (eps/2) sum_j y_j sigma~_j, whose phi-dependence survives at the south
    pole; there the ``pole_phi`` convention value is used (pass None to get
    a PoleAmbiguity error instead)."""
    frame = _ChartFrame(theta, phi, patch, ClosedForms(energy_field=energy, pole_phi=pole_phi))
    return _matrix(frame.sigma(frame.energy_vec))


def hermitian_hamiltonian(theta, phi, theta_dot, phi_dot,
                          alpha: AlphaField | None = None,
                          energy: EnergyFieldS2 | None = None,
                          patch: str = PLUS,
                          pole_phi: float | None = 0.0) -> np.ndarray:
    """The final closed-form Hermitian generator along a curve; it contains
    no scale fields at all:

        h  = e + alpha(Rdot) - (1/2) Gamma_+(Rdot) - Gamma_0(Rdot)   (plus)
        h~ = e~ + alpha~(Rdot) + (1/2) (G^{-1}Gamma_- G)(Rdot)       (minus)

    e + alpha(Rdot) is one sigma (plus) or sigma~ (minus) contraction, with
    :func:`energy_matrix`'s ``pole_phi`` convention when there is an energy.
    """
    frame = _ChartFrame(theta, phi, patch, ClosedForms(None, alpha, energy, pole_phi))
    return _matrix(frame.h(np.asarray(theta_dot, dtype=float), np.asarray(phi_dot, dtype=float)))


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

    return CurvePath(t_start, t_end, position, velocity)


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

    return CurvePath(t_start, t_end, position, velocity)


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

    return CurvePath(t_start, t_end, position, velocity)


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

    return CurvePath(ts[0], ts[-1], position, velocity)


# ------------------------------------------------------------- assembly


def _itinerary(curve: CurvePath, theta_plus: float, theta_minus: float, pole_margin: float):
    """Sample the curve and work out the chart itinerary.

    Returns (charts, overlap_window): the chart order along the curve and
    the parameter interval of its overlap dwell, None for one chart.  Raises
    CurveTouchesPoleMargin or ConfigError when no admissible single-switch
    itinerary exists."""
    ts = np.linspace(curve.t_start, curve.t_end, ITINERARY_SAMPLES)
    thetas = curve.points(ts)[:, 0]
    if np.any(thetas < pole_margin) or np.any(thetas > np.pi - pole_margin):
        worst = ts[int(np.argmin(np.minimum(thetas, np.pi - thetas)))]
        raise CurveTouchesPoleMargin(
            f"curve reaches within {pole_margin} of a pole near t = {worst:.6g}"
        )
    bad_plus = thetas >= theta_plus   # cannot be on the plus chart there
    bad_minus = thetas <= theta_minus
    if not np.any(bad_plus):
        return (PLUS,), None
    if not np.any(bad_minus):
        return (MINUS,), None
    # window: from the last sample off the second chart to the first off the first
    for charts, before, after in (((PLUS, MINUS), bad_minus, bad_plus),
                                  ((MINUS, PLUS), bad_plus, bad_minus)):
        window = (float(ts[np.flatnonzero(before)[-1]]), float(ts[np.flatnonzero(after)[0]]))
        if window[0] < window[1]:
            break
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
    return charts, window


@dataclass(frozen=True)
class ClosedForms:
    """The :attr:`SystemSpec.closed` slot of :func:`build_system`, at points r of a
    chart with velocities v: h of :func:`hermitian_hamiltonian`, H = rho^{-1} (h rho -
    i rhodot), H_E = rho^{-1} e rho and G of :func:`big_g_s2` (plus -> minus), all closed.
    Each call evaluates every field once, in one chart frame, and multiplies Pauli
    coefficient tuples (c0, c1, c2, c3) of c0 1 + c . sigma into one 2x2 stack."""

    scales: ScaleFields | None = None
    alpha: AlphaField | None = None
    energy_field: EnergyFieldS2 | None = None
    pole_phi: float | None = 0.0
    big_g = staticmethod(lambda r: big_g_s2(r[..., 0], r[..., 1]))

    def hermitian(self, patch: str, r, v) -> np.ndarray:
        return _matrix(_ChartFrame(r[..., 0], r[..., 1], patch, self).h(v[..., 0], v[..., 1]))

    def generator(self, patch: str, r, v) -> np.ndarray:
        frame = _ChartFrame(r[..., 0], r[..., 1], patch, self)
        theta_dot, phi_dot = v[..., 0], v[..., 1]
        h_rho = _product(frame.h(theta_dot, phi_dot), frame.rho())
        rhs = tuple(x - 1j * y for x, y in zip(h_rho, frame.rho_dot(theta_dot, phi_dot)))
        return _matrix(_product(frame.rho(inverse=True), rhs))

    def energy(self, patch: str, r) -> np.ndarray:
        frame = _ChartFrame(r[..., 0], r[..., 1], patch, self)
        e = frame.sigma(frame.energy_vec)
        return _matrix(_product(_product(frame.rho(inverse=True), e), frame.rho()))


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

    The system's chart itinerary (``charts`` and ``overlap_window``) is
    derived from the curve's theta range: single chart when possible,
    otherwise a plus/minus switch with the default switch time at the
    midpoint of the overlap dwell.  Curves entering the
    pole margin are rejected, as are curves that would require more than
    one switch.  Every generator evaluation checks that its points lie in
    their chart (OutOfPatch).  Runs integrate its :class:`ClosedForms`.
    """
    if not (0.0 < theta_minus < theta_plus < np.pi):
        raise ConfigError(
            f"need 0 < theta_minus < theta_plus < pi, got {theta_minus}, {theta_plus}"
        )
    scales = scales if scales is not None else default_scales(theta_plus)
    alpha = alpha if alpha is not None else zero_alpha()

    charts, window = _itinerary(curve, theta_plus, theta_minus, pole_margin)

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

    section = None if energy is None else ObservableSection({pid: linalg.stacked(
        lambda r, p=pid: energy_matrix(r[:, 0], r[:, 1], energy, p, pole_phi))
        for pid in (PLUS, MINUS)})

    return SystemSpec(
        patches=patches,
        curve=curve,
        charts=charts,
        transition=transition_field(scales, theta_plus, theta_minus),
        energy=section,
        overlap_window=window,
        closed=ClosedForms(scales, alpha, energy, pole_phi),
    )

