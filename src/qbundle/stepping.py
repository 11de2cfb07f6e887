"""Propagator-first integration of i dy/dt = H(t) y on n uniform steps.

Every ODE in this package is linear: y is a state, or a matrix whose columns
are states (a propagator, or initial states evolved at once), and
:func:`integrate` takes the generator H(t) itself.  The step matrices M_k,
y_{k+1} = M_k y_k, do not depend on the state: a builder makes them for a
chunk of at most ``FIXED_CHUNK_STEPS`` steps from one
:func:`qbundle.linalg.over_points` call.  :func:`rk4_steps` is classical RK4
on the identity, one node per distinct step start, midpoint and end.
:func:`magnus6_steps` is the sixth-order Magnus integrator on the Gauss
nodes of each step (Blanes, Casas & Ros, BIT 40 (2000) 434): with
A_i = -i H(t + c_i h), c = 1/2 - s, 1/2, 1/2 + s, s = sqrt(15)/10,

    a1 = h A_2,  a2 = (sqrt(15) h / 3)(A_3 - A_1),  a3 = (10 h / 3)(A_3 - 2 A_2 + A_1),
    Omega = a1 + a3/12 + (1/240) [-20 a1 - a3 + [a1, a2], a2 - (1/60) [a1, 2 a3 + [a1, a2]]],

and M = :func:`qbundle.linalg.exp_stack` (Omega), never made anti-Hermitian.

Products.  ``rk4-fixed`` multiplies its steps in one at a time, so its
states are the in-order product bit for bit.  A Magnus chunk takes its
states from :func:`_scan`: Hillis-Steele passes give P_k = M_k ... M_a and
the states are P_k y_a in one product (Blelloch, CMU-CS-90-190, 1990).
With 2x2 steps each column gets the bits it gets alone, so a batch of
initial states gives each one's solo run.  A chunk whose scan overflows is
re-stepped one matrix at a time, so StepperDiverged names the first
non-finite sample time either way.

Methods.  ``rk4-fixed`` takes n = round(|t1 - t0| / dt) RK4 steps.
``rk4-adaptive`` keeps its name but runs Magnus-6 by whole-run step doubling
from n // 4 steps: it runs m and 2m steps, estimates the 2m run's error as
max|y_2m(t1) - y_m(t1)| / 63 (order 6) and returns that run once the
estimate is at most ``target_local_error`` per step for every column, else
doubles again.  Its result is the Magnus-6 run at its accepted count.  No
run takes more than ``MAX_STEPS`` steps: a ``dt`` that asks for more, or
doubling past it, raises StepperDiverged.
"""

from __future__ import annotations

import math
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

    method : "rk4-fixed" (classical RK4 on the steps dt gives) or
        "rk4-adaptive" (Magnus-6 by step doubling from a quarter of them;
        :attr:`integrator` names the scheme that runs)
    dt : step size; the adaptive mode starts from a quarter of the step
        count it gives
    target_local_error : adaptive error target per step: the accepted n-step
        run's estimated endpoint error is at most this * n * max(1, max|y0|),
        column by column
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

    @property
    def integrator(self) -> str:
        """The scheme that runs: "rk4" or "magnus-6"."""
        return "rk4" if self.method == RK4_FIXED else "magnus-6"


#: the stepper builds the nodes and step matrices of at most this many steps
#: at once, so a segment's generator and matrix stacks stay bounded
FIXED_CHUNK_STEPS = 1024

#: a run raises StepperDiverged rather than take more steps than this (from
#: dt, or by adaptive doubling), which bounds the memory its stored states take
MAX_STEPS = 2**20


def rk4_step(nodes, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of i dy/dt = H(t) y with step h.

    ``nodes`` is (H at the step's start, H at its midpoint, H at its end);
    each may be one matrix, or a stack of them for a stack of steps, in
    which case ``y`` broadcasts against the stacks.
    """
    h_start, h_mid, h_end = nodes
    k1 = -1j * linalg.matmul(h_start, y)
    k2 = -1j * linalg.matmul(h_mid, y + 0.5 * h * k1)
    k3 = -1j * linalg.matmul(h_mid, y + 0.5 * h * k2)
    k4 = -1j * linalg.matmul(h_end, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_steps(generator):
    """RK4 step-matrix builder: ``build(starts, h)`` returns the matrix of each
    step from starts[k] to starts[k] + h, from one :func:`rk4_step` on the
    identity.  Successive calls continue one run: a chunk's start node is the
    previous chunk's end node and is not evaluated again."""
    carry = []

    def build(starts: np.ndarray, h: float) -> np.ndarray:
        nodes = np.empty(2 * len(starts) - 1)
        nodes[0::2] = starts
        nodes[1::2] = starts[:-1] + 0.5 * h
        if carry:
            gens = np.concatenate((carry.pop(), linalg.over_points(generator, nodes[1:])))
        else:
            gens = linalg.over_points(generator, nodes)
        carry.append(gens[-1:])
        eye = np.eye(gens.shape[-1], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
            return rk4_step((gens[0:-1:2], gens[1::2], gens[2::2]), eye, h)

    return build


#: Gauss-Legendre nodes of a Magnus-6 step, as fractions of the step
GAUSS_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return linalg.matmul(a, b) - linalg.matmul(b, a)


def magnus6_steps(generator):
    """Magnus-6 step-matrix builder: ``build(starts, h)`` returns exp(Omega)
    of each step from starts[k] to starts[k] + h (scheme in the module
    docstring), with the three Gauss nodes of every step in one generator call."""

    def build(starts: np.ndarray, h: float) -> np.ndarray:
        nodes = (starts[:-1, None] + h * GAUSS_NODES).ravel()
        gens = linalg.over_points(generator, nodes)
        gens = gens.reshape((len(starts) - 1, 3) + gens.shape[1:])
        with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
            A1, A2, A3 = (-1j * gens[:, i] for i in range(3))  # A_i of the scheme
            a1 = h * A2
            a2 = (math.sqrt(15.0) * h / 3.0) * (A3 - A1)
            a3 = (10.0 * h / 3.0) * (A3 - 2.0 * A2 + A1)
            c1 = _commutator(a1, a2)
            c2 = -(1.0 / 60.0) * _commutator(a1, 2.0 * a3 + c1)
            omega = a1 + a3 / 12.0 + (1.0 / 240.0) * _commutator(-20.0 * a1 - a3 + c1, a2 + c2)
            return linalg.exp_stack(omega)

    return build


def _scan(steps: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The states M_k ... M_0 y, k = 0 .. len(steps) - 1, of a state or column
    states y: ceil(log2 n) Hillis-Steele passes form the prefix products
    P_k = M_k ... M_0, and one product applies them to y, column by column."""
    p = steps.copy()
    d = 1
    while d < len(p):
        p[d:] = linalg.matmul(p[d:], p[:-d])
        d *= 2
    return linalg.matmul(p, y.reshape(y.shape[0], -1)).reshape(p.shape[:1] + y.shape)


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
    it is marked :func:`qbundle.linalg.stacked`.  ``y0`` is a vector, or a
    matrix whose columns are states (a propagator, or a batch of initial
    states).  Returns (times, states): times is a 1-d array starting at t0
    and ending exactly at t1, states stacks y at each recorded time along
    axis 0.  Integrating backwards (t1 < t0) is supported.  A state that
    stops being finite raises :class:`qbundle.errors.StepperDiverged` naming
    its sample time, and so does a ``dt`` that would take more than
    ``MAX_STEPS`` steps.
    """
    y = np.asarray(y0, dtype=complex)
    if t1 == t0:
        return np.array([t0]), y[np.newaxis].copy()
    # Python floats overflow to inf here without a numpy warning
    steps = abs(float(t1) - float(t0)) / config.dt
    if not steps <= MAX_STEPS:
        raise StepperDiverged(f"dt = {config.dt:g} takes {steps:.3g} steps over "
                              f"[{t0}, {t1}], above the budget MAX_STEPS = {MAX_STEPS}")
    n = max(1, int(round(steps)))
    if config.method == RK4_FIXED:
        return _integrate_fixed(generator, y, t0, t1, n, rk4_steps)
    return _integrate_adaptive(generator, y, t0, t1, max(1, n // 4), config.target_local_error)


def _integrate_fixed(generator, y, t0, t1, n, builder, scan=False):
    """n uniform steps of ``builder``'s step matrices from y at t0, multiplied
    in one step at a time, or by :func:`_scan` when ``scan`` is set."""
    h = (t1 - t0) / n
    starts = t0 + np.arange(n + 1) * h  # step k runs from starts[k] to starts[k+1]
    states = np.empty((n + 1,) + y.shape, dtype=complex)
    states[0] = y
    build = builder(generator)
    for a in range(0, n, FIXED_CHUNK_STEPS):
        b = min(a + FIXED_CHUNK_STEPS, n)
        steps = build(starts[a:b + 1], h)
        with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
            if scan:
                states[a + 1:b + 1] = _scan(steps, states[a])
            # the prefix products can overflow where the states would not
            if not scan or not np.isfinite(states[a + 1:b + 1]).all():
                # column states step as a stack of vectors, each with the bits it has alone
                rows = list(states[a:b + 1] if y.ndim == 1
                            else states[a:b + 1].swapaxes(1, 2)[..., None])
                for k, m in enumerate(steps):
                    np.matmul(m, rows[k], out=rows[k + 1])
        _check_finite(states[a + 1:b + 1], starts[a + 1:b + 1])
    starts[n] = t1
    return starts, states


def _integrate_adaptive(generator, y, t0, t1, n, tol):
    """Magnus-6 step doubling from n steps; every column of y must meet the
    target, so a column can be accepted at a larger count than alone."""
    scale = np.maximum(1.0, np.max(np.abs(y.reshape(y.shape[0], -1)), axis=0))
    coarse = _integrate_fixed(generator, y, t0, t1, n, magnus6_steps, scan=True)[1][-1]
    err = np.inf
    while 2 * n <= MAX_STEPS:
        n *= 2
        times, states = _integrate_fixed(generator, y, t0, t1, n, magnus6_steps, scan=True)
        # Magnus-6 is order 6, so the doubling estimate carries a 1/(2^6 - 1) factor
        err = np.max(np.abs(states[-1] - coarse).reshape(y.shape[0], -1), axis=0) / 63.0
        if np.all(err <= tol * n * scale):
            return times, states
        coarse = states[-1]
    raise StepperDiverged(f"rk4-adaptive error estimate {np.max(err):.3e} at {n} steps is above "
                          f"the target; MAX_STEPS = {MAX_STEPS} stops the doubling")
