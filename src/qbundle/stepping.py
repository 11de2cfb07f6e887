"""Fixed- and adaptive-step RK4 integration for complex-valued ODEs.

The propagator and state ODEs in this package are all of the form
dy/dt = f(t, y) with y a complex vector or matrix.  A classical Runge-Kutta
scheme of order 4 with a fixed step (default dt = 1e-3) is the reference
integrator; an adaptive variant using step doubling is available for stiff
stretches.  Integration is deterministic: the same inputs always produce the
same sequence of steps.

Node sharing.  Every ODE the package integrates is linear,
i dy/dt = H(t) y, and :func:`linear_rhs` builds its right-hand side so that
H is evaluated once per distinct node time.  RK4 samples a step at t, t+h/2
(twice) and t+h; the fixed stepper evaluates the end node of step k at
t0 + (k+1) h, the same float as the start node of step k+1, so n steps cost
2n+1 evaluations instead of 4n.  An adaptive attempt (one full step and two
half steps) has five distinct nodes t, t+h/4, t+h/2, t+3h/4, t+h; the second
half step ends at the full step's t+h, and t is shared with the previous
attempt, so each attempt costs at most 4 new evaluations instead of 12.

Step matrices.  For a linear ODE one RK4 step is a matrix,
y_{k+1} = M_k y_k with M_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) a polynomial in
the step's three node generators.  The fixed stepper takes up to
``FIXED_CHUNK_STEPS`` steps at a time: it declares their 2n+1 node times to
the right-hand side's node table (``rhs.declare``), reads the stacked
generators back with ``rhs.generators``, which evaluates every missing node
in one stacked call of the generator (see :func:`qbundle.linalg.over_points`),
and builds all n matrices M_k with one :func:`rk4_step` on the identity
whose node times are the arrays of step starts and ends.  The state then
advances by one matrix product per step, which serves vector states and
matrix-valued propagators alike, and finiteness is checked once per chunk.
The adaptive stepper declares the five nodes of each attempt and steps the
state itself.  Node times come from :func:`rk4_nodes`, the same floats
:func:`rk4_step` samples.  Any other ``rhs`` callable is integrated one
:func:`rk4_step` per step, one call per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import StepperDiverged

RK4_FIXED = "rk4-fixed"
RK4_ADAPTIVE = "rk4-adaptive"


@dataclass(frozen=True)
class StepperConfig:
    """Integrator selection and step control.

    method : "rk4-fixed" or "rk4-adaptive"
    dt : step size (fixed mode) or initial step (adaptive mode)
    target_local_error : per-step error target for the adaptive mode
    """

    method: str = RK4_FIXED
    dt: float = 1e-3
    target_local_error: float = 1e-10

    def __post_init__(self):
        if self.method not in (RK4_FIXED, RK4_ADAPTIVE):
            raise ValueError(f"unknown stepper method {self.method!r}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.target_local_error > 0.0):
            raise ValueError("target_local_error must be positive")


#: the fixed stepper builds the nodes and step matrices of at most this many
#: steps at once, so a segment's generator and matrix stacks stay bounded
FIXED_CHUNK_STEPS = 1024


def linear_rhs(generator: Callable[[float], np.ndarray]) -> Callable:
    """Right-hand side  rhs(t, y) = -i H(t) y  of the linear ODE i dy/dt = H(t) y.

    ``generator(t)`` returns H(t), or the stack of H at a stack of times when
    it is marked :func:`qbundle.linalg.stacked`.  ``rhs.declare(times)``
    replaces the node table with the given times, keeping the generators it
    already holds for them.  ``rhs.generators(times)`` returns the stack of H
    at the given times; a lookup of a missing node evaluates all missing
    declared nodes in one call.  Times that were never declared become the
    table's only nodes.
    """
    table: dict[float, np.ndarray | None] = {}

    def declare(times) -> None:
        nonlocal table
        table = {t: table.get(t) for t in np.asarray(times, dtype=float).tolist()}

    def generators(times) -> np.ndarray:
        keys = np.asarray(times, dtype=float).tolist()
        if not table.keys() >= set(keys):
            declare(keys)
        missing = [s for s, v in table.items() if v is None]
        if missing:
            table.update(zip(missing, linalg.over_points(generator, np.array(missing))))
        return np.array([table[t] for t in keys])

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        h = table.get(t)
        if h is None:
            h = generators((t,))[0]
        return -1j * (h @ y)

    rhs.declare = declare
    rhs.generators = generators
    return rhs


def rk4_nodes(t, h, t_end=None):
    """The node times (t, t + h/2, t_end or t + h) of an RK4 step from t;
    ``t`` may be an array of step starts."""
    return t, t + 0.5 * h, t + h if t_end is None else t_end


def rk4_step(rhs: Callable, t: float, y: np.ndarray, h: float,
             t_end: float | None = None) -> np.ndarray:
    """One classical RK4 step from t to t+h.

    ``t_end`` is the float at which to sample the end node, by default t+h;
    the integrators pass the time the next step starts at, so the two share
    one node.  ``t`` and ``t_end`` may be arrays of step starts and ends when
    ``rhs`` takes a stack of node times and returns a stack of slopes.
    """
    _, t_mid, t_end = rk4_nodes(t, h, t_end)
    k1 = rhs(t, y)
    k2 = rhs(t_mid, y + 0.5 * h * k1)
    k3 = rhs(t_mid, y + 0.5 * h * k2)
    k4 = rhs(t_end, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite(states: np.ndarray, times):
    """Raise StepperDiverged naming the first of ``times`` whose state in the
    stack ``states`` is not finite."""
    finite = np.isfinite(states.reshape(len(states), -1)).all(axis=1)
    if not finite.all():
        raise StepperDiverged(f"non-finite state at t = {times[int(np.argmin(finite))]}")


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0,
    t0: float,
    t1: float,
    config: StepperConfig = StepperConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate dy/dt = rhs(t, y) from t0 to t1.

    Returns (times, states): times is a 1-d array starting at t0 and ending
    exactly at t1, states stacks y at each recorded time along axis 0.
    Integrating backwards (t1 < t0) is supported.
    """
    y = np.asarray(y0, dtype=complex)
    if t1 == t0:
        return np.array([t0]), y[np.newaxis].copy()
    if config.method == RK4_FIXED:
        return _integrate_fixed(rhs, y, t0, t1, config.dt)
    return _integrate_adaptive(rhs, y, t0, t1, config.dt, config.target_local_error)


def _integrate_fixed(rhs, y, t0, t1, dt):
    span = t1 - t0
    n = max(1, int(round(abs(span) / dt)))
    h = span / n
    starts = (t0 + np.arange(n + 1) * h).tolist()  # step k runs from starts[k] to starts[k+1]
    states = np.empty((n + 1,) + y.shape, dtype=complex)
    states[0] = y
    generators = getattr(rhs, "generators", None)
    if generators is None:
        for k in range(n):
            y = rk4_step(rhs, starts[k], y, h, starts[k + 1])
            _check_finite(y[np.newaxis], (starts[k + 1],))
            states[k + 1] = y
    else:
        eye = np.eye(y.shape[0], dtype=complex)
        for a in range(0, n, FIXED_CHUNK_STEPS):
            b = min(a + FIXED_CHUNK_STEPS, n)
            chunk = np.array(starts[a:b + 1])
            _, mids, ends = rk4_nodes(chunk[:-1], h, chunk[1:])
            rhs.declare(np.concatenate((chunk[:1], np.column_stack((mids, ends)).ravel())))
            # RK4 applied to the identity gives every step matrix M_k of the chunk
            steps = rk4_step(lambda ts, ys: -1j * (generators(ts) @ ys), chunk[:-1], eye, h, ends)
            rows = list(states[a:b + 1])
            for k, m in enumerate(steps):
                np.matmul(m, rows[k], out=rows[k + 1])
            _check_finite(states[a + 1:b + 1], starts[a + 1:b + 1])
    times = np.array(starts)
    times[n] = t1
    return times, states


def _integrate_adaptive(rhs, y, t0, t1, dt0, tol):
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    h = direction * min(abs(dt0), span)
    h_min = 1e-13 * max(span, 1.0)
    t = t0
    times = [t0]
    states = [y.copy()]
    scale = max(1.0, float(np.max(np.abs(y))))
    max_steps = 5_000_000
    attempts = 0
    declare = getattr(rhs, "declare", None)
    while (t1 - t) * direction > 1e-15 * max(span, 1.0):
        attempts += 1
        if attempts > max_steps:
            raise StepperDiverged("adaptive stepper exceeded the step budget")
        if abs(h) > abs(t1 - t):
            h = t1 - t
        t_end, half = t + h, 0.5 * h
        t_half = rk4_nodes(t, h)[1]
        if declare is not None:  # the five distinct nodes of the three steps below
            declare((t, rk4_nodes(t, half)[1], t_half, rk4_nodes(t_half, half)[1], t_end))
        y_full = rk4_step(rhs, t, y, h)
        y_half = rk4_step(rhs, t, y, half)
        y_two = rk4_step(rhs, t_half, y_half, half, t_end)
        _check_finite(y_two[np.newaxis], (t_end,))
        # RK4 is order 4, so the doubling estimate carries a 1/(2^4 - 1) factor
        err = float(np.max(np.abs(y_two - y_full))) / 15.0
        if err <= tol * scale or abs(h) <= h_min:
            t = t_end
            # local extrapolation: keep the more accurate two-half-step value
            y = y_two + (y_two - y_full) / 15.0
            times.append(t)
            states.append(y.copy())
            scale = max(1.0, float(np.max(np.abs(y))))
        if err > 0.0:
            factor = 0.9 * (tol * scale / err) ** 0.2
            h = h * min(4.0, max(0.1, factor))
        else:
            h = h * 4.0
        if abs(h) < h_min:
            h = direction * h_min
    times[-1] = t1
    return np.asarray(times), np.asarray(states)
