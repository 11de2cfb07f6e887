"""Time evolution with a time-dependent metric, and its Hermitian picture.

Along a curve R(t) the full generator of the covariant Schroedinger equation
splits as  H(t) = H_A(t) + H_E(t)  with the geometric part

    H_A(t) = sum_a Rdot^a(t) A_a(R(t))
           = H_A0(t) + H_omega(t),          H_A0 = -(i/2) eta^{-1} etadot,

H_A0 pseudo-anti-Hermitian and H_omega, H_E pseudo-Hermitian.  Evolution by H
preserves the time-dependent eta inner product even though H itself is not
pseudo-Hermitian; its pseudo-Hermiticity defect is pinned to the metric's
motion,  H^dag - eta H eta^{-1} = i etadot eta^{-1}.

The unitarily equivalent *Hermitian representation* acts on Phi = rho Psi with
the Hermitian generator

    h = rho H rho^{-1} + i rhodot rho^{-1}
      = rho H_ph rho^{-1} + (i/2) [rhodot, rho^{-1}],     H_ph = H - H_A0,

both forms being implemented and cross-checked.  As H_E = rho^{-1} e rho for
the energy observable e, h = rho H_A rho^{-1} + i rhodot rho^{-1} + e.  rhodot
is obtained either from the metric's coordinate partials by solving the
Sylvester equation rho X + X rho = etadot, or by a central time difference.

The Sylvester equation is solved by :meth:`MetricOperator.root_derivative`
in the eigenbasis of eta = V diag(w) V^dag, for every N,

    rhodot = V [ (V^dag etadot V)_ij / (sqrt w_i + sqrt w_j) ] V^dag,

so h needs one factorisation of eta: :func:`hermitian_from_parts` takes H, the
:class:`MetricOperator` and etadot, for :func:`hermitian_representation` and
:class:`qbundle.bundle.ChartEvaluation`.  These generic routes are the oracle
of the two-level model's closed rhodot and h, which its runs integrate instead.

:class:`CurveMetric` and :func:`hermitian_representation` take one time or a
stack of times (n,), with matching stacks of generators and operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .connection import ConnectionForm, CurvePath, geometric_hamiltonian
from .errors import DimensionMismatch, InvalidState
from .metric import MetricField, MetricOperator, split_pseudo
from .stepping import StepperConfig, integrate

#: default step for time-differencing rho(t) when analytic partials are absent
RHO_DOT_TIME_STEP = 1e-6


@dataclass
class HamiltonianDecomposition:
    """The parts of the full generator at one instant.

    total = h_a0 + h_omega + h_energy; h_geometric = h_a0 + h_omega;
    h_physical = h_omega + h_energy (the pseudo-Hermitian part of total).
    """

    h_a0: np.ndarray
    h_omega: np.ndarray
    h_energy: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.h_a0 + self.h_omega + self.h_energy

    @property
    def h_geometric(self) -> np.ndarray:
        return self.h_a0 + self.h_omega

    @property
    def h_physical(self) -> np.ndarray:
        return self.h_omega + self.h_energy


@dataclass
class EvolutionResult:
    """Sampled trajectory of a state evolution.

    times : (n,) sample times
    states : (n, N) state vectors, or (n, N, c) for c column states
    eta_norm : (n,) metric norms, when a metric was supplied; (n, c) for
        column states
    energy_expect : (n,) real energy expectations, when an energy part was
        supplied; (n, c) for column states
    patch_trace : chart label per sample, when known
    """

    times: np.ndarray
    states: np.ndarray
    eta_norm: np.ndarray | None = None
    energy_expect: np.ndarray | None = None
    patch_trace: list[str] | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def column(self, j: int) -> "EvolutionResult":
        """The trajectory of column state j of a run of column states."""
        def pick(values):
            return None if values is None else values[..., j]

        return EvolutionResult(self.times, self.states[..., j], pick(self.eta_norm),
                               pick(self.energy_expect), self.patch_trace)


class CurveMetric:
    """A metric field restricted to a curve: everything as a function of t."""

    def __init__(self, metric: MetricField, path: CurvePath):
        self.metric = metric
        self.path = path

    def point(self, t) -> np.ndarray:
        return self.path.points(t)

    def operator(self, t) -> MetricOperator:
        return self.metric.operator(self.point(t))

    def eta(self, t) -> np.ndarray:
        return self.metric.eta(self.point(t))

    def eta_dot(self, t) -> np.ndarray:
        return self.metric.eta_dot(self.point(t), self.path.velocities(t))

    def rho(self, t) -> np.ndarray:
        return self.operator(t).rho

    def rho_dot(self, t: float, method: str = "sylvester") -> np.ndarray:
        """d(rho)/dt along the curve.

        method "sylvester" differentiates the defining relation rho rho = eta:
        rhodot solves  rho X + X rho = etadot  (unique for positive rho).
        method "fd", a central difference of rho(t), is the Sylvester route's
        independent oracle.
        """
        if method == "sylvester":
            return self.operator(t).root_derivative(self.eta_dot(t))
        if method == "fd":
            ts = np.asarray(t, dtype=float)[..., np.newaxis]
            return linalg.central_difference(lambda s: self.rho(s[..., 0]), ts,
                                             RHO_DOT_TIME_STEP)[0]
        raise ValueError(f"unknown rho_dot method {method!r}")


# ---------------------------------------------------------------- generators


def split_geometric(h_a: np.ndarray, curve_metric: CurveMetric, t: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Split H_A into (H_A0, H_omega).

    H_A0 = -(i/2) eta^{-1} etadot is fixed by the metric's motion along the
    curve; the remainder H_omega = H_A - H_A0 is pseudo-Hermitian exactly
    when the connection is metric-compatible (given H, the remainder is H_ph).
    """
    op = curve_metric.operator(t)
    h_a0 = -0.5j * op.eta_inv @ curve_metric.eta_dot(t)
    return h_a0, np.asarray(h_a, dtype=complex) - h_a0


# ---------------------------------------------------------------- evolution


def evolve(
    hamiltonian: Callable[[float], np.ndarray],
    psi0,
    t0: float,
    t1: float,
    stepper: StepperConfig = StepperConfig(),
    curve_metric: CurveMetric | None = None,
    energy: Callable[[float], np.ndarray] | None = None,
    patch_id: str | None = None,
) -> EvolutionResult:
    """Integrate  i dpsi/dt = H(t) psi  and record trajectory diagnostics.

    ``psi0`` is a state (N,) or column states (N, c), evolved at once.
    ``hamiltonian(t)`` returns the full generator, which
    :func:`qbundle.stepping.integrate` evaluates once per distinct node
    time.  When ``curve_metric`` is given, the metric norm of each state is
    recorded at each sample; when ``energy(t)`` is also given, so is the
    normalized real energy expectation <psi, H_E psi>_eta / <psi, psi>_eta.
    Both generators are evaluated on the stack of node or sample times when
    marked :func:`qbundle.linalg.stacked`.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim not in (1, 2):
        raise DimensionMismatch(f"psi0 must be a state or column states, got shape {psi0.shape}")
    if not np.all(np.max(np.abs(psi0.reshape(len(psi0), -1)), axis=0)):
        raise InvalidState("initial state is the zero vector")

    times, states = integrate(hamiltonian, psi0, t0, t1, stepper)

    eta_norm = energy_expect = None
    if curve_metric is not None:
        bra_eta = np.einsum("ki...,kij->kj...", states.conj(), curve_metric.eta(times))
        den = np.einsum("kj...,kj...->k...", bra_eta, states).real
        eta_norm = np.sqrt(den)
        if energy is not None:
            h_e = linalg.over_points(energy, times)
            energy_expect = np.einsum("kj...,kjl,kl...->k...", bra_eta, h_e, states).real / den
    trace = [patch_id] * times.shape[0] if patch_id is not None else None
    return EvolutionResult(times, states, eta_norm, energy_expect, trace)


# ------------------------------------------------- Hermitian representation


def hermitian_from_parts(h_full, op: MetricOperator, eta_dot) -> np.ndarray:
    """Hermitian generator  h = rho H rho^{-1} + i rhodot rho^{-1}  from the
    factorised metric ``op`` and etadot at the same time (or stacks of them),
    with rhodot from :meth:`MetricOperator.root_derivative`."""
    rho_h = linalg.matmul(op.rho, np.asarray(h_full, dtype=complex))
    return linalg.matmul(rho_h + 1j * op.root_derivative(eta_dot), op.rho_inv)


def hermitian_representation(h_full: np.ndarray, curve_metric: CurveMetric, t) -> np.ndarray:
    """Hermitian generator  h = rho H rho^{-1} + i rhodot rho^{-1}, from one
    factorisation of the metric at t."""
    return hermitian_from_parts(h_full, curve_metric.operator(t), curve_metric.eta_dot(t))


def hermitian_representation_via_physical(
    h_full: np.ndarray,
    curve_metric: CurveMetric,
    t: float,
) -> np.ndarray:
    """Equivalent form  h = rho H_ph rho^{-1} + (i/2) [rhodot, rho^{-1}] with
    H_ph = H - H_A0 the pseudo-Hermitian part of H, from one factorisation at t."""
    op, eta_dot = curve_metric.operator(t), curve_metric.eta_dot(t)
    h_ph = np.asarray(h_full, dtype=complex) + 0.5j * op.eta_inv @ eta_dot  # H - H_A0
    rho_dot = op.root_derivative(eta_dot)
    return (op.rho @ h_ph @ op.rho_inv
            + 0.5j * (rho_dot @ op.rho_inv - op.rho_inv @ rho_dot))


def map_state(curve_metric: CurveMetric, t: float, psi) -> np.ndarray:
    """Intertwine into the Hermitian representation: Phi = rho(t) psi."""
    return curve_metric.rho(t) @ linalg.as_vector(psi, name="psi")


def decompose_generator(
    a_form: ConnectionForm,
    path: CurvePath,
    curve_metric: CurveMetric,
    t: float,
    energy: Callable[[float], np.ndarray] | None = None,
) -> HamiltonianDecomposition:
    """Assemble and split the full generator at time t."""
    h_a = geometric_hamiltonian(a_form, path, t)
    h_a0, h_omega = split_geometric(h_a, curve_metric, t)
    n = h_a.shape[0]
    h_e = energy(t) if energy is not None else np.zeros((n, n), dtype=complex)
    return HamiltonianDecomposition(h_a0, h_omega, np.asarray(h_e, dtype=complex))


__all__ = [
    "HamiltonianDecomposition",
    "EvolutionResult",
    "CurveMetric",
    "geometric_hamiltonian",
    "split_geometric",
    "evolve",
    "hermitian_from_parts",
    "hermitian_representation",
    "hermitian_representation_via_physical",
    "map_state",
    "decompose_generator",
    "split_pseudo",
]
