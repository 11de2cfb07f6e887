"""Metric operators, metric-weighted inner products, and pseudo-Hermiticity.

A positive-definite operator eta turns C^N into a Hilbert space with inner
product  <phi, psi>_eta = phi^dag @ eta @ psi.  An operator H is
*pseudo-Hermitian* with respect to eta when

    H^dag = eta @ H @ eta^{-1},

which is exactly the condition for H to be self-adjoint in the eta inner
product.  The positive root rho = sqrt(eta) intertwines the eta-weighted space
with the standard one: h = rho @ H @ rho^{-1} is Hermitian iff H is
pseudo-Hermitian.  :func:`pseudo_hermiticity_residual` returns the max-entry
norm of the defect, which each caller compares with its own tolerance (m is
pseudo-anti-Hermitian iff i m is pseudo-Hermitian), and :func:`split_pseudo`
splits any operator into its two parts.

:class:`MetricOperator` wraps one metric at a point and caches rho and its
inverse.  :class:`ChartField` is the chart-field core: the one rule by which
every chart-local field is evaluated on a point (d,) or a stack of points
(n, d), with its region check, its analytic or finite-difference partials and
the square and finite check of its values.  :class:`MetricField` (eta),
:class:`qbundle.connection.ConnectionForm` (A_a) and
:class:`qbundle.bundle.TransitionFunctionField` (g) are thin names over it,
and :class:`qbundle.bundle.ObservableSection` evaluates through it.

Stacks.  A field's callables are evaluated through
:func:`qbundle.linalg.over_points`, so a pointwise ``eta_fn`` works unchanged
and one marked :func:`qbundle.linalg.stacked` is called once per stack.  A
:class:`MetricOperator` built from a stack (n, N, N) factorises all n metrics
with one ``eigh`` (:func:`qbundle.linalg.positive_spectrum`), for every N, and
builds its stacks of rho, rho^{-1} and eta^{-1} from those factors.  The chart
domain, shape, finiteness, Hermiticity and positivity checks apply to every
point of a stack, and their errors name the first failing point.
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


class ChartField:
    """A matrix-valued field ``fn`` on the region of a chart where ``domain``
    holds (everywhere without one).

    Every method takes one point (d,) or a stack of points (n, d) and checks
    that each point has ``dim`` coordinates (any number when ``dim`` is None)
    and lies in the region; :attr:`outside` names the first point outside
    ``region``.  Values come from :func:`qbundle.linalg.over_points` and pass
    :func:`qbundle.linalg.as_square` under ``name``, which names the stack
    index of a non-finite one; one point gives one value.  Partials are
    ``partials_fn``'s, else central differences with the step :meth:`fd_step`
    at points that are not checked against the region.
    """

    #: error naming a point outside the region
    outside: type[QBundleError] = OutOfPatch

    def __init__(self, fn, partials_fn=None, dim: int | None = None, domain=None,
                 name: str = "matrix", region: str = ""):
        self._fn, self._partials_fn, self._domain = fn, partials_fn, domain
        self.dim, self.name, self.region = dim, name, region

    @linalg.stacked
    def contains(self, point):
        """Whether the point lies in the region (one flag per point of a stack)."""
        rows, single = linalg.as_stack(point, 1)
        inside = (np.ones(len(rows), bool) if self._domain is None
                  else linalg.over_points(self._domain, rows))
        return bool(inside[0]) if single else inside.astype(bool)

    def coords(self, point) -> tuple[np.ndarray, bool]:
        """(stack of points, single): the point or stack as an (n, dim) stack,
        after the shape and region checks of every point."""
        rows, single = linalg.as_stack(point, 1)
        if self.dim is not None and (rows.ndim != 2 or rows.shape[1] != self.dim):
            raise DimensionMismatch(
                f"expected {self.dim}-vectors of coordinates, got shape {np.shape(point)}")
        if self._domain is not None:
            inside = self.contains(rows)
            if not inside.all():
                raise self.outside(f"point {rows[np.argmin(inside)]} is outside {self.region}")
        return rows, single

    def values(self, point, fn=None, name: str | None = None) -> np.ndarray:
        """``fn`` (by default the field's own callable) on the checked points,
        as square finite matrices named ``name`` (by default :attr:`name`)."""
        rows, single = self.coords(point)
        out = linalg.as_square(linalg.over_points(fn or self._fn, rows), name or self.name)
        return out[0] if single else out

    def fd_step(self, rows: np.ndarray):
        """Finite-difference step of :meth:`partials`: ``FD_STEP`` relative to
        each coordinate, floored at ``FD_STEP_FLOOR``."""
        return np.maximum(FD_STEP * np.abs(rows), FD_STEP_FLOOR)

    def partials(self, point) -> np.ndarray:
        """d/dR^a of the field for each coordinate a, analytic when available:
        (d, N, N) for one point, (n, d, N, N) for a stack."""
        fn = self._partials_fn or linalg.stacked(lambda r: np.stack(linalg.central_difference(
            lambda x: linalg.over_points(self._fn, x), r, self.fd_step(r)), axis=1))
        return self.values(point, fn, f"partial of {self.name}")

    def time_derivative(self, point, velocity) -> np.ndarray:
        """Time derivative of the field along a curve: sum_a (d/dR^a) Rdot^a."""
        return linalg.contract(np.asarray(velocity, dtype=float), self.partials(point))


class MetricField(ChartField):
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
        super().__init__(eta_fn, partials_fn, dim, domain, "eta", f"patch '{patch_id}'")
        self.patch_id = patch_id

    eta = ChartField.values
    eta_dot = ChartField.time_derivative

    def operator(self, point) -> MetricOperator:
        return MetricOperator(self.eta(point))


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
