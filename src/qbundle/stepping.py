"""RK4 integration of i dy/dt = H(t) y on n uniform steps.

Every ODE in this package is linear: the state, the propagator and parallel
transport all obey i dy/dt = H(t) y with y a complex vector or matrix, so
:func:`integrate` takes the generator H(t) itself.  ``rk4-fixed`` takes
n = round(|t1 - t0| / dt) classical RK4 steps.  ``rk4-adaptive`` runs the same
loop with n and 2n steps, estimates the 2n run's error as
max|y_2n(t1) - y_n(t1)| / 15 and returns that run once the estimate is at most
``target_local_error`` per step; otherwise it doubles n again.  An adaptive
result is thus the fixed run at its accepted step count, and the same inputs
always give the same steps.

Nodes.  An RK4 step samples H at its start, midpoint and end, and each step
ends on the float the next one starts at, so H is evaluated once per node
time: one :func:`qbundle.linalg.over_points` call per ``FIXED_CHUNK_STEPS``
steps, whose step matrices M_k, y_{k+1} = M_k y_k, come from one
:func:`rk4_step` on the identity.
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
    dt : step size; the adaptive mode starts from the step count it gives
    target_local_error : adaptive error target per step: the accepted n-step
        run's estimated endpoint error is at most this * n * max(1, max|y0|)
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


#: the stepper builds the nodes and step matrices of at most this many steps
#: at once, so a segment's generator and matrix stacks stay bounded
FIXED_CHUNK_STEPS = 1024

#: the adaptive mode raises StepperDiverged rather than double the step count
#: past this, which bounds the memory a run's stored states take
ADAPTIVE_MAX_STEPS = 2**20


def rk4_step(nodes, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of i dy/dt = H(t) y with step h.

    ``nodes`` is (H at the step's start, H at its midpoint, H at its end);
    each may be one matrix, or a stack of them for a stack of steps, in
    which case ``y`` broadcasts against the stacks.
    """
    h_start, h_mid, h_end = nodes
    k1 = -1j * (h_start @ y)
    k2 = -1j * (h_mid @ (y + 0.5 * h * k1))
    k3 = -1j * (h_mid @ (y + 0.5 * h * k2))
    k4 = -1j * (h_end @ (y + h * k3))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite(states: np.ndarray, times):
    """Raise StepperDiverged naming the first of ``times`` whose state in the
    stack ``states`` is not finite."""
    finite = np.isfinite(states.reshape(len(states), -1)).all(axis=1)
    if not finite.all():
        raise StepperDiverged(f"non-finite state at t = {times[int(np.argmin(finite))]}")


def integrate(
    generator: Callable[[float], np.ndarray],
    y0,
    t0: float,
    t1: float,
    config: StepperConfig = StepperConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate i dy/dt = H(t) y from t0 to t1.

    ``generator(t)`` returns H(t), or the stack of H at a stack of times when
    it is marked :func:`qbundle.linalg.stacked`.  ``y0`` is a vector or a
    matrix (a propagator).  Returns (times, states): times is a 1-d array
    starting at t0 and ending exactly at t1, states stacks y at each
    recorded time along axis 0.  Integrating backwards (t1 < t0) is
    supported.  A state that stops being finite raises
    :class:`qbundle.errors.StepperDiverged` naming its sample time.
    """
    y = np.asarray(y0, dtype=complex)
    if t1 == t0:
        return np.array([t0]), y[np.newaxis].copy()
    n = max(1, int(round(abs(t1 - t0) / config.dt)))
    if config.method == RK4_FIXED:
        return _integrate_fixed(generator, y, t0, t1, n)
    return _integrate_adaptive(generator, y, t0, t1, n, config.target_local_error)


def _integrate_fixed(generator, y, t0, t1, n):
    h = (t1 - t0) / n
    starts = t0 + np.arange(n + 1) * h  # step k runs from starts[k] to starts[k+1]
    states = np.empty((n + 1,) + y.shape, dtype=complex)
    states[0] = y
    eye = np.eye(y.shape[0], dtype=complex)
    gens = None
    for a in range(0, n, FIXED_CHUNK_STEPS):
        b = min(a + FIXED_CHUNK_STEPS, n)
        nodes = np.empty(2 * (b - a) + 1)
        nodes[0::2] = starts[a:b + 1]
        nodes[1::2] = starts[a:b] + 0.5 * h
        if gens is None:
            gens = linalg.over_points(generator, nodes)
        else:  # the previous chunk's end node is this chunk's start node
            gens = np.concatenate((gens[-1:], linalg.over_points(generator, nodes[1:])))
        with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
            # RK4 applied to the identity gives every step matrix M_k of the chunk
            steps = rk4_step((gens[0:-1:2], gens[1::2], gens[2::2]), eye, h)
            rows = list(states[a:b + 1])
            for k, m in enumerate(steps):
                np.matmul(m, rows[k], out=rows[k + 1])
        _check_finite(states[a + 1:b + 1], starts[a + 1:b + 1])
    starts[n] = t1
    return starts, states


def _integrate_adaptive(generator, y, t0, t1, n, tol):
    scale = max(1.0, float(np.max(np.abs(y))))
    coarse = _integrate_fixed(generator, y, t0, t1, n)[1][-1]
    err = np.inf
    while 2 * n <= ADAPTIVE_MAX_STEPS:
        n *= 2
        times, states = _integrate_fixed(generator, y, t0, t1, n)
        # RK4 is order 4, so the doubling estimate carries a 1/(2^4 - 1) factor
        err = float(np.max(np.abs(states[-1] - coarse))) / 15.0
        if err <= tol * n * scale:
            return times, states
        coarse = states[-1]
    raise StepperDiverged(f"rk4-adaptive error estimate {err:.3e} at {n} steps is above the "
                          f"target; ADAPTIVE_MAX_STEPS = {ADAPTIVE_MAX_STEPS} stops the doubling")
