"""Metric operators, metric-weighted inner products, and pseudo-Hermiticity.

A positive-definite operator eta turns C^N into a Hilbert space with inner
product  <phi, psi>_eta = phi^dag @ eta @ psi.  An operator H is
*pseudo-Hermitian* with respect to eta when

    H^dag = eta @ H @ eta^{-1},

which is exactly the condition for H to be self-adjoint in the eta inner
product.  The positive root rho = sqrt(eta) intertwines the eta-weighted space
with the standard one: h = rho @ H @ rho^{-1} is Hermitian iff H is
pseudo-Hermitian.  The residual functions return the max-entry norm of the
defect, which each caller compares with its own tolerance, and
:func:`split_pseudo` splits any operator into its two parts.

:class:`MetricOperator` wraps one metric at a point and caches rho and its
inverse; :class:`MetricField` is a metric-valued field over a coordinate patch
of the base manifold, with analytic or finite-difference partial derivatives.

Stacks.  Every :class:`MetricField` method takes one point (d,) or a stack of
points (n, d) and returns one result or a stack of n.  The field's callables are
evaluated through :func:`qbundle.linalg.over_points`, so a pointwise ``eta_fn``
works unchanged and one marked :func:`qbundle.linalg.stacked` is called once per
stack.  A :class:`MetricOperator` built from a stack (n, N, N) factorises all n
metrics with one ``eigh`` (:func:`qbundle.linalg.positive_spectrum`), for every
N, and builds its stacks of rho, rho^{-1} and eta^{-1} from those factors.  The
chart domain, shape, finiteness, Hermiticity and positivity checks apply to
every point of a stack, and their errors name the first failing point.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, OutOfPatch, QBundleError

#: default relative step for finite-difference partials of metric fields
FD_STEP = 1e-5
#: absolute floor for the finite-difference step
FD_STEP_FLOOR = 1e-7


class MetricOperator:
    """A positive-definite metric on C^N with cached square root, or a stack
    of them (all attributes then carry the leading stack axis).

    Attributes
    ----------
    eta : ndarray
        The metric itself.
    root_eigvals, eigvecs : ndarray
        Spectral factorisation eta = V diag(root_eigvals**2) V^dag, from one
        ``eigh``; rho and both inverses are built from it.
    rho : ndarray
        Unique positive root, rho @ rho = eta.
    rho_inv, eta_inv : ndarray
        Cached inverses.
    """

    def __init__(self, eta):
        self.eta = linalg.as_square(eta, "eta")
        w, v = linalg.positive_spectrum(self.eta)
        self.root_eigvals, self.eigvecs = np.sqrt(w), v
        vh = linalg.dagger(v)
        self.rho = (v * self.root_eigvals[..., None, :]) @ vh
        self.rho_inv = (v / self.root_eigvals[..., None, :]) @ vh
        self.eta_inv = (v / w[..., None, :]) @ vh

    @property
    def dim(self) -> int:
        return self.eta.shape[-1]

    def inner(self, phi, psi) -> complex:
        return eta_inner(self.eta, phi, psi)

    def root_derivative(self, eta_dot) -> np.ndarray:
        """rhodot for a given etadot: the solution X of  rho X + X rho = etadot.

        In the eigenbasis of eta the equation is diagonal, so X =
        V [(V^dag etadot V)_ij / (sqrt w_i + sqrt w_j)] V^dag, and X is unique.
        """
        v, s = self.eigvecs, self.root_eigvals
        vh = linalg.dagger(v)
        return v @ ((vh @ eta_dot @ v) / (s[..., :, None] + s[..., None, :])) @ vh


def eta_inner(eta, phi, psi) -> complex:
    """Metric-weighted inner product <phi, psi>_eta = phi^dag eta psi.

    Antilinear in ``phi``, linear in ``psi``.
    """
    eta = linalg.as_square(eta, "eta")
    n = eta.shape[0]
    phi = linalg.as_vector(phi, n, "phi")
    psi = linalg.as_vector(psi, n, "psi")
    return complex(np.vdot(phi, eta @ psi))


def _eta_of(metric) -> tuple[np.ndarray, np.ndarray]:
    """Accept a MetricOperator or a bare matrix; return (eta, eta_inv)."""
    if isinstance(metric, MetricOperator):
        return metric.eta, metric.eta_inv
    eta = linalg.as_square(metric, "eta")
    return eta, np.linalg.inv(eta)


def pseudo_hermiticity_residual(m, metric) -> float:
    """max-entry norm of  m^dag - eta m eta^{-1}."""
    eta, eta_inv = _eta_of(metric)
    m = linalg.as_square(m)
    return linalg.max_abs(linalg.dagger(m) - eta @ m @ eta_inv)


def pseudo_anti_hermiticity_residual(m, metric) -> float:
    """max-entry norm of  m^dag + eta m eta^{-1}."""
    eta, eta_inv = _eta_of(metric)
    m = linalg.as_square(m)
    return linalg.max_abs(linalg.dagger(m) + eta @ m @ eta_inv)


def split_pseudo(m, metric) -> tuple[np.ndarray, np.ndarray]:
    """Split m into pseudo-Hermitian and pseudo-anti-Hermitian parts.

    Returns (m_ph, m_aph) with m = m_ph + m_aph,
    m_ph = (m + eta^{-1} m^dag eta) / 2.
    """
    eta, eta_inv = _eta_of(metric)
    m = linalg.as_square(m)
    m_ph = 0.5 * (m + eta_inv @ linalg.dagger(m) @ eta)
    return m_ph, m - m_ph


# ---------------------------------------------------------------- fields


def _in_region(domain, point):
    """Whether a point lies where the predicate ``domain`` holds (everywhere
    without one): one flag, or one per point of a stack (n, d)."""
    rows, single = linalg.as_stack(point, 1)
    inside = np.ones(len(rows), bool) if domain is None else linalg.over_points(domain, rows)
    return bool(inside[0]) if single else inside.astype(bool)


def chart_points(point, dim: int, domain, region: str,
                 error: type[QBundleError] = OutOfPatch) -> tuple[np.ndarray, bool]:
    """(stack of points, single): one point (dim,) or a stack (n, dim) as an
    (n, dim) stack, after the shape and domain checks of every point;
    ``error`` names the first point outside ``region``."""
    rows, single = linalg.as_stack(point, 1)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DimensionMismatch(
            f"expected {dim}-vectors of coordinates, got shape {np.shape(point)}")
    inside = _in_region(domain, rows)
    if not inside.all():
        raise error(f"point {rows[np.argmin(inside)]} is outside {region}")
    return rows, single


class MetricField:
    """Metric-operator-valued field over one coordinate patch.

    Parameters
    ----------
    patch_id : str
        Label of the chart this field lives on.
    eta_fn : callable
        Map from a real coordinate d-vector to the metric matrix.
    partials_fn : callable, optional
        Map from coordinates to the tuple of coordinate partials of the
        metric.  When absent, partials are computed by central differences
        with a step of ``FD_STEP`` scaled by the coordinate magnitude
        (floored at ``FD_STEP_FLOOR``).
    dim : int
        Number of base-manifold coordinates.
    domain : callable, optional
        Predicate marking the chart's domain; evaluation outside raises
        :class:`OutOfPatch`.
    """

    def __init__(
        self,
        patch_id: str,
        eta_fn: Callable[[np.ndarray], np.ndarray],
        partials_fn: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None,
        dim: int = 2,
        domain: Callable[[np.ndarray], bool] | None = None,
    ):
        self.patch_id = patch_id
        self._eta_fn = eta_fn
        self._partials_fn = partials_fn
        self.dim = dim
        self._domain = domain

    def coords(self, point) -> tuple[np.ndarray, bool]:
        """:func:`chart_points` on the chart: OutOfPatch names the first point off it."""
        return chart_points(point, self.dim, self._domain, f"patch '{self.patch_id}'")

    @linalg.stacked
    def contains(self, point):
        """Whether the point lies in the chart (one flag per point of a stack)."""
        return _in_region(self._domain, point)

    def eta(self, point) -> np.ndarray:
        rows, single = self.coords(point)
        eta = linalg.as_square(linalg.over_points(self._eta_fn, rows), "eta")
        return eta[0] if single else eta

    def operator(self, point) -> MetricOperator:
        return MetricOperator(self.eta(point))

    def partials(self, point) -> np.ndarray:
        """d eta / d R^a for each coordinate a, analytic when available:
        (d, N, N) for one point, (n, d, N, N) for a stack."""
        rows, single = self.coords(point)
        if self._partials_fn is not None:
            parts = linalg.as_square(linalg.over_points(self._partials_fn, rows),
                                     "partial of eta")
        else:
            steps = np.maximum(FD_STEP * np.abs(rows), FD_STEP_FLOOR)
            parts = np.stack(linalg.central_difference(
                lambda x: linalg.over_points(self._eta_fn, x), rows, steps), axis=1)
        return parts[0] if single else parts

    def eta_dot(self, point, velocity) -> np.ndarray:
        """Time derivative of eta along a curve: sum_a (d eta/d R^a) Rdot^a."""
        return linalg.contract(np.asarray(velocity, dtype=float), self.partials(point))


def constant_metric_field(patch_id: str, eta, dim: int = 2) -> MetricField:
    """Field whose metric does not depend on the base point."""
    eta = linalg.as_square(eta, "eta")
    zero = np.zeros((dim,) + eta.shape, dtype=complex)
    return MetricField(
        patch_id,
        linalg.stacked(lambda r: np.broadcast_to(eta, (len(r),) + eta.shape)),
        partials_fn=linalg.stacked(lambda r: np.broadcast_to(zero, (len(r),) + zero.shape)),
        dim=dim,
    )
