"""Metric-compatible connections and parallel transport.

A connection on one chart is a collection of matrix-valued coefficient fields
A_a(R), one per base coordinate.  Compatibility with a metric field eta(R)
means

    A_a^dag - eta A_a eta^{-1} = i (d_a eta) eta^{-1}        for every a,

which guarantees that parallel transport preserves the eta inner product.
The canonical solution of the compatibility condition is

    A0_a = -(i/2) eta^{-1} (d_a eta),

and the general one differs from it by a pseudo-Hermitian piece omega_a.

Parallel transport along a curve R(t) is the solution of

    i dG/dt = sum_a Rdot^a(t) A_a(R(t)) G,      G(t0) = 1,

a path-ordered exponential that :func:`qbundle.stepping.integrate` computes by
RK4 from the stacked generator sum_a Rdot^a A_a.  A curve names no chart (the
chart order is :attr:`qbundle.bundle.SystemSpec.charts`): transport stays on its
connection's chart, whose domain check raises OutOfPatch at the first node outside.

Like :class:`qbundle.metric.MetricField`, a :class:`ConnectionForm` takes one
point or a stack of points, and :class:`CurvePath` evaluates its position and
velocity on one time or a stack of times (:meth:`CurvePath.points`,
:meth:`CurvePath.velocities`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, OmegaNotPseudoHermitian
from .metric import MetricField, chart_points, pseudo_hermiticity_residual
from .stepping import StepperConfig, integrate

#: default validation tolerance for the free (pseudo-Hermitian) part
OMEGA_TOL = 1e-8

#: default step for finite-difference curvature, refined once by Richardson
CURVATURE_FD_STEP = 1e-4

#: time step for finite-difference curve velocities
VELOCITY_FD_STEP = 1e-6

#: number of interior samples of CurvePath.velocity_consistency
VELOCITY_CHECK_SAMPLES = 50


class ConnectionForm:
    """Matrix-valued connection coefficients on one chart.

    ``components(R)`` returns the d connection matrices [A_1(R), ..., A_d(R)]
    at base point R as a (d, N, N) array, or (n, d, N, N) for a stack of
    points (n, d).
    """

    def __init__(
        self,
        patch_id: str,
        components_fn: Callable[[np.ndarray], Sequence[np.ndarray]],
        dim: int = 2,
        domain: Callable[[np.ndarray], bool] | None = None,
    ):
        self.patch_id = patch_id
        self._components_fn = components_fn
        self.dim = dim
        self._domain = domain

    def components(self, point) -> np.ndarray:
        rows, single = chart_points(point, self.dim, self._domain,
                                    f"patch '{self.patch_id}'")
        comps = linalg.as_square(linalg.over_points(self._components_fn, rows),
                                 "connection component")
        if comps.ndim != 4 or comps.shape[1] != self.dim:
            raise DimensionMismatch(
                f"connection returned components of shape {comps.shape[1:]}, "
                f"expected {self.dim} matrices"
            )
        return comps[0] if single else comps

    def contracted(self, point, velocity) -> np.ndarray:
        """sum_a Rdot^a A_a(R): the generator of transport along a velocity."""
        return linalg.contract(np.asarray(velocity, dtype=float), self.components(point))


@dataclass
class CurvePath:
    """Parametrized curve R(t), t in [t_start, t_end], on the base manifold.

    position(t) and velocity(t) return real coordinate d-vectors.  The chart
    order along the curve belongs to the system, :attr:`SystemSpec.charts`.
    """

    t_start: float
    t_end: float
    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]

    def points(self, t) -> np.ndarray:
        """R(t) as a (d,) array, or (n, d) for a stack of times (n,)."""
        ts, single = linalg.as_stack(t)
        out = linalg.over_points(self.position, ts)
        return out[0] if single else out

    def velocities(self, t) -> np.ndarray:
        """Rdot(t) as a (d,) array, or (n, d) for a stack of times (n,)."""
        ts, single = linalg.as_stack(t)
        out = linalg.over_points(self.velocity, ts)
        return out[0] if single else out

    def velocity_consistency(self) -> float:
        """Max deviation between declared velocity and a central difference
        of the position over interior samples (a sanity diagnostic)."""
        ts = np.linspace(self.t_start, self.t_end, VELOCITY_CHECK_SAMPLES + 2)[1:-1]
        h = VELOCITY_FD_STEP
        return linalg.max_abs((self.points(ts + h) - self.points(ts - h)) / (2.0 * h)
                              - self.velocities(ts))


def path_from_position(
    t_start: float,
    t_end: float,
    position: Callable[[float], np.ndarray],
) -> CurvePath:
    """Build a CurvePath with a finite-difference velocity."""

    def velocity(t: float) -> np.ndarray:
        return linalg.central_difference(position, t, VELOCITY_FD_STEP)

    return CurvePath(t_start, t_end, position, velocity)


@dataclass
class TransportResult:
    """Sampled solution of a transport integration.

    times : 1-d array of sample times
    operators : stacked transport operators G(t), or None when only a state
        was propagated
    states : stacked state vectors psi(t), or None
    """

    times: np.ndarray
    operators: np.ndarray | None = None
    states: np.ndarray | None = None

    @property
    def final_operator(self) -> np.ndarray:
        if self.operators is None:
            raise ValueError("no transport operators were recorded")
        return self.operators[-1]

    @property
    def final_state(self) -> np.ndarray:
        if self.states is None:
            raise ValueError("no states were recorded")
        return self.states[-1]


# ---------------------------------------------------------------- assembly


def a_zero(metric: MetricField, point) -> np.ndarray:
    """Canonical compatible connection  A0_a = -(i/2) eta^{-1} (d_a eta),
    as (d, N, N), or (n, d, N, N) for a stack of points."""
    eta_inv = np.linalg.inv(metric.eta(point))
    return -0.5j * eta_inv[..., None, :, :] @ metric.partials(point)


def a_zero_form(metric: MetricField) -> ConnectionForm:
    """The canonical connection packaged as a ConnectionForm on the chart."""
    return ConnectionForm(
        metric.patch_id,
        linalg.stacked(lambda r: a_zero(metric, r)),
        dim=metric.dim,
        domain=metric.contains,
    )


def assemble_connection(
    metric: MetricField,
    omega_fn: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None,
    a0_fn: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None,
    validate_at: Sequence | None = None,
    tol: float = OMEGA_TOL,
) -> ConnectionForm:
    """Build A = A0 + omega on the chart of ``metric``.

    ``a0_fn`` defaults to the canonical compatible connection computed from
    the metric; pass an explicit closed form to override.  ``omega_fn(R)``
    must return one pseudo-Hermitian matrix per coordinate; when
    ``validate_at`` points are given, each component is checked there and an
    :class:`OmegaNotPseudoHermitian` (carrying the component index and point)
    is raised on failure.  Both callables may be marked
    :func:`qbundle.linalg.stacked`.
    """
    if omega_fn is not None and validate_at is not None:
        for r in validate_at:
            r = np.asarray(r, dtype=float)
            eta = metric.eta(r)
            for a, w in enumerate(linalg.over_points(omega_fn, r[np.newaxis])[0]):
                res = pseudo_hermiticity_residual(w, eta)
                if res > tol:
                    raise OmegaNotPseudoHermitian(a, r, res, tol)

    @linalg.stacked
    def components(r: np.ndarray) -> np.ndarray:
        base = linalg.over_points(a0_fn, r) if a0_fn is not None else a_zero(metric, r)
        if omega_fn is None:
            return base
        return base + linalg.over_points(omega_fn, r)

    return ConnectionForm(
        metric.patch_id,
        components,
        dim=metric.dim,
        domain=metric.contains,
    )


def check_metric_compatibility(a_form: ConnectionForm, metric: MetricField, point):
    """Residual of the compatibility condition at one point, or at each point
    of a stack (n, d).

    Returns  max_a || A_a^dag - eta A_a eta^{-1} - i (d_a eta) eta^{-1} ||
    in the max-entry norm (an (n,) array for a stack); the caller compares
    against its own tolerance.
    """
    return compatibility_residual(metric.eta(point), a_form.components(point),
                                  metric.partials(point))


def compatibility_residual(eta, comps, partials):
    """:func:`check_metric_compatibility` from evaluated eta, components and partials."""
    eta = eta[..., None, :, :]
    eta_inv = np.linalg.inv(eta)
    res = linalg.dagger(comps) - eta @ comps @ eta_inv - 1j * partials @ eta_inv
    worst = np.max(np.abs(res), axis=(-3, -2, -1))
    return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------- transport


def geometric_hamiltonian(a_form: ConnectionForm, path: CurvePath, t) -> np.ndarray:
    """H_A(t) = sum_a Rdot^a(t) A_a(R(t)), the generator of parallel transport
    and the geometric part of the full generator, for one time or a stack of
    times (n,); OutOfPatch when R(t) lies outside the connection's chart."""
    return a_form.contracted(path.points(t), path.velocities(t))


def _transport_generator(a_form: ConnectionForm, path: CurvePath):
    """:func:`geometric_hamiltonian` along ``path``, marked stacked."""
    return linalg.stacked(lambda ts: geometric_hamiltonian(a_form, path, ts))


def transport_operator(
    a_form: ConnectionForm,
    path: CurvePath,
    t0: float | None = None,
    t1: float | None = None,
    stepper: StepperConfig = StepperConfig(),
) -> TransportResult:
    """Solve  i dG/dt = (sum_a Rdot^a A_a) G,  G(t0) = identity.

    The window [t0, t1] (by default the whole path) must stay on the
    connection's chart: a node outside its domain raises OutOfPatch.  A run
    that switches charts takes one window per :meth:`SystemSpec.segments` entry.
    """
    t0 = path.t_start if t0 is None else t0
    t1 = path.t_end if t1 is None else t1
    gen = _transport_generator(a_form, path)
    times, ops = integrate(gen, np.eye(gen(t0).shape[-1], dtype=complex), t0, t1, stepper)
    return TransportResult(times=times, operators=ops)


def parallel_transport(
    a_form: ConnectionForm,
    path: CurvePath,
    psi0,
    t0: float | None = None,
    t1: float | None = None,
    stepper: StepperConfig = StepperConfig(),
) -> TransportResult:
    """Transport a single state vector: i dpsi/dt = (sum_a Rdot^a A_a) psi."""
    t0 = path.t_start if t0 is None else t0
    t1 = path.t_end if t1 is None else t1
    psi0 = linalg.as_vector(psi0, name="psi0")

    times, states = integrate(_transport_generator(a_form, path), psi0, t0, t1, stepper)
    return TransportResult(times=times, states=states)


# ---------------------------------------------------------------- curvature


def _curvature_at_step(a_form: ConnectionForm, r: np.ndarray, h: float):
    comps = a_form.components(r)
    left, right = comps[:, None], comps[None]  # [a, b]: A_a and A_b
    grad = np.stack(linalg.central_difference(a_form.components, r, h))  # [a, b]: d_a A_b
    return grad - grad.swapaxes(0, 1) + 1j * (left @ right - right @ left)


def curvature(a_form: ConnectionForm, point, fd_step: float = CURVATURE_FD_STEP) -> np.ndarray:
    """Curvature tensor F_ab = d_a A_b - d_b A_a + i [A_a, A_b].

    Partial derivatives use central differences with one Richardson
    extrapolation (steps h and h/2), so the derivative error scales like
    h^4.  Returns an antisymmetric (d, d) array of N x N matrices.
    """
    r = np.asarray(point, dtype=float)
    coarse = _curvature_at_step(a_form, r, fd_step)
    fine = _curvature_at_step(a_form, r, 0.5 * fd_step)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------- gauge maps


def gauge_transform_connection(a_form: ConnectionForm, transition, point) -> np.ndarray:
    """Components of the transformed connection on the other chart:

        A~_a = g^{-1} A_a g - i g^{-1} (d_a g),

    as (d, N, N) for one point, or (n, d, N, N) for a stack of points (n, d).
    ``transition`` must provide g(R) and partial_g(R) (see
    :class:`qbundle.bundle.TransitionFunctionField`).
    """
    g = transition.g(point)[..., None, :, :]
    g_inv = np.linalg.inv(g)
    return (g_inv @ a_form.components(point) @ g
            - 1j * g_inv @ np.asarray(transition.partial_g(point)))
