"""Gluing charts: transition functions, intertwiners, observable sections.

On overlapping charts the bundle data are related by a transition function
g(R):

    eta~ = g^dag eta g,     psi~ = g^{-1} psi,     A~_a = g^{-1} A_a g - i g^{-1} d_a g,

and the generator picks up a derivative term along a curve,
H~ = g^{-1} H g - i g^{-1} gdot.  The combination

    G = rho g rho~^{-1}

is *unitary* and glues the Hermitian representations of the two charts;
observables in Hermitian form transform as  o~ = G^{-1} o G.

:meth:`SystemSpec.segments` decides a run's chart itinerary once: the
((t_a, t_b), patch) segments for a switch time tau inside the overlap dwell.
:func:`evolve_across_patches` walks them, converting the state with g^{-1}
at the switch, and the CLI's summary and check battery read the same list.
Physical endpoints do not depend on the switch time.  In the Hermitian
representation the conversion uses G^{-1}, and the state Phi jumps at the
switch (G is not the identity) while all eta-norms stay continuous.

The generators of :class:`SystemSpec` are marked
:func:`qbundle.linalg.stacked`: called on a stack of times they evaluate the
curve once, factorise the metric once and return the stack of generators, so
a fixed-step chart segment costs one call (see :mod:`qbundle.stepping`).
The gluing layer follows :class:`qbundle.metric.MetricField`:
:class:`TransitionFunctionField` (partials on axis -3), the transforms
(:func:`tilde_eta`, :func:`big_g`, :func:`transform_state`,
:func:`transform_observable`) and :func:`check_section_compatibility` take
one point (d,) or a stack (n, d) with matching states and matrices, check
every point and name the first failing one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .connection import ConnectionForm, CurvePath
from .dynamics import CurveMetric, EvolutionResult, evolve, hermitian_representation
from .errors import (
    DimensionMismatch,
    NotUnitary,
    OutOfOverlap,
    TauNotInOverlap,
)
from .metric import MetricField, MetricOperator, _in_region, chart_points
from .stepping import StepperConfig

#: default tolerance for unitarity checks on intertwiners
UNITARITY_TOL = 1e-8

#: default finite-difference step for transition-function partials
G_FD_STEP = 1e-6


def unitarity_defect(m):
    """max-entry norm of  m^dag m - identity: a float for one matrix, one per
    matrix of a stack (n, N, N)."""
    m = linalg.as_square(m)
    defect = np.max(np.abs(linalg.dagger(m) @ m - np.eye(m.shape[-1])), axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def _check_unitary(gg: np.ndarray, tol: float, points=None) -> None:
    """Raise NotUnitary naming the first intertwiner (and point) of a stack
    whose unitarity defect exceeds ``tol``."""
    defect = np.asarray(unitarity_defect(gg))
    if np.any(defect > tol):
        k, where = linalg._first(defect > tol)
        at = "" if points is None else f" at {np.asarray(points, dtype=float)[k]}"
        raise NotUnitary(f"intertwiner fails unitarity{at}{where}: "
                         f"defect {defect[k]:.3e} > tol {tol:.3e}")


class TransitionFunctionField:
    """Invertible matrix field g(R) relating two charts on their overlap;
    its callables are evaluated through :func:`qbundle.linalg.over_points`."""

    def __init__(
        self,
        from_patch: str,
        to_patch: str,
        g_fn: Callable[[np.ndarray], np.ndarray],
        partials_fn: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None,
        overlap: Callable[[np.ndarray], bool] | None = None,
        dim: int = 2,
    ):
        self.from_patch = from_patch
        self.to_patch = to_patch
        self._g_fn = g_fn
        self._partials_fn = partials_fn
        self._overlap = overlap
        self.dim = dim

    @linalg.stacked
    def in_overlap(self, point):
        """Whether the point lies in the overlap (one flag per point of a stack)."""
        return _in_region(self._overlap, point)

    def _values(self, fn, point, name: str) -> np.ndarray:
        rows, single = chart_points(
            point, self.dim, self._overlap,
            f"the overlap of charts '{self.from_patch}' and '{self.to_patch}'", OutOfOverlap)
        out = linalg.as_square(linalg.over_points(fn, rows), name)
        return out[0] if single else out

    def g(self, point) -> np.ndarray:
        return self._values(self._g_fn, point, "g")

    def g_inv(self, point) -> np.ndarray:
        return linalg.inv(self.g(point))

    def partial_g(self, point) -> np.ndarray:
        """d g / d R^a for each coordinate a, analytic when available:
        (d, N, N) for one point, (n, d, N, N) for a stack."""
        fn = self._partials_fn or linalg.stacked(lambda r: np.stack(linalg.central_difference(
            lambda x: linalg.over_points(self._g_fn, x), r, G_FD_STEP), axis=1))
        return self._values(fn, point, "partial of g")

    def g_dot(self, point, velocity) -> np.ndarray:
        """Time derivative of g along a curve through ``point``."""
        return linalg.contract(np.asarray(velocity, dtype=float), self.partial_g(point))

    def inverse(self) -> "TransitionFunctionField":
        """The reversed transition, g -> g^{-1} with patches swapped."""

        @linalg.stacked
        def partials_fn(r):
            gi = self.g_inv(r)[:, None]
            return -gi @ self.partial_g(r) @ gi

        return TransitionFunctionField(
            self.to_patch,
            self.from_patch,
            linalg.stacked(lambda r: self.g_inv(r)),
            partials_fn=partials_fn,
            overlap=self._overlap,
            dim=self.dim,
        )


# ---------------------------------------------------------------- transforms


def tilde_eta(transition: TransitionFunctionField, eta_field: MetricField, point) -> np.ndarray:
    """Metric induced on the target chart:  eta~ = g^dag eta g."""
    g = transition.g(point)
    return linalg.dagger(g) @ eta_field.eta(point) @ g


def big_g(
    eta_field: MetricField,
    eta_tilde_field: MetricField,
    transition: TransitionFunctionField,
    point,
    check_tol: float | None = UNITARITY_TOL,
) -> np.ndarray:
    """The unitary intertwiner  G = rho g rho~^{-1}  at a point or a stack.

    Raises :class:`NotUnitary`, naming the first failing point, when the
    assembled matrix fails the unitarity check, which happens exactly when
    the two metric fields are inconsistent with the transition function
    there.
    """
    g = transition.g(point)  # first, so a point outside the overlap is named as such
    gg = eta_field.operator(point).rho @ g @ eta_tilde_field.operator(point).rho_inv
    if check_tol is not None:
        _check_unitary(gg, check_tol, point)
    return gg


def transform_state(transition: TransitionFunctionField, point, psi) -> np.ndarray:
    """State components on the target chart:  psi~ = g^{-1} psi."""
    g_inv = transition.g_inv(point)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != g_inv.shape[:-1]:
        raise DimensionMismatch(f"psi has shape {psi.shape}, expected {g_inv.shape[:-1]}")
    return (g_inv @ psi[..., None])[..., 0]


def transform_hamiltonian(
    h_fn: Callable[[float], np.ndarray],
    g_of_t: Callable[[float], np.ndarray],
    t: float,
    g_dot_of_t: Callable[[float], np.ndarray] | None = None,
) -> np.ndarray:
    """Generator seen from the target chart along a curve:

        H~(t) = g^{-1} H g - i g^{-1} gdot.

    ``gdot`` uses the supplied derivative or a central difference in t.
    """
    g = linalg.as_square(g_of_t(t), "g")
    g_inv = linalg.inv(g)
    if g_dot_of_t is not None:
        gd = g_dot_of_t(t)
    else:
        gd = linalg.central_difference(g_of_t, t, G_FD_STEP)
    return g_inv @ h_fn(t) @ g - 1j * g_inv @ gd


def transform_observable(observable, intertwiner, tol: float = UNITARITY_TOL) -> np.ndarray:
    """Observable in the target chart's Hermitian form:  o~ = G^{-1} o G,
    for one intertwiner or a stack, each checked for unitarity."""
    gg = linalg.as_square(intertwiner, "intertwiner")
    _check_unitary(gg, tol)
    return linalg.dagger(gg) @ linalg.as_square(observable, "observable") @ gg


# ---------------------------------------------------------------- sections


class ObservableSection:
    """A physical observable given per chart in Hermitian form.

    ``fields`` maps patch_id -> callable R -> Hermitian matrix.  The
    authoring patch marks which chart's field is considered primary; a
    missing chart's values can be generated on the overlap by conjugating
    with the intertwiner (:meth:`with_pushforward`).
    """

    def __init__(self, fields: dict[str, Callable[[np.ndarray], np.ndarray]],
                 authoring_patch: str):
        if authoring_patch not in fields:
            raise DimensionMismatch(
                f"authoring patch '{authoring_patch}' has no field"
            )
        self.fields = dict(fields)
        self.authoring_patch = authoring_patch

    def patches(self) -> list[str]:
        return sorted(self.fields)

    def matrix(self, patch_id: str, point) -> np.ndarray:
        try:
            fn = self.fields[patch_id]
        except KeyError:
            raise OutOfOverlap(f"section has no field on patch '{patch_id}'") from None
        rows, single = linalg.as_stack(point, 1)
        out = linalg.as_square(linalg.over_points(fn, rows), "observable")
        return out[0] if single else out

    def with_pushforward(
        self,
        target_patch: str,
        eta_field: MetricField,
        eta_tilde_field: MetricField,
        transition: TransitionFunctionField,
    ) -> "ObservableSection":
        """Extend the section to ``target_patch`` on the overlap via
        o~ = G^{-1} o G (raises OutOfOverlap when evaluated outside)."""
        src = self.fields[self.authoring_patch]

        @linalg.stacked
        def fn(r: np.ndarray) -> np.ndarray:
            gg = big_g(eta_field, eta_tilde_field, transition, r, check_tol=None)
            return linalg.dagger(gg) @ linalg.over_points(src, r) @ gg

        fields = dict(self.fields)
        fields[target_patch] = fn
        return ObservableSection(fields, self.authoring_patch)


def check_section_compatibility(
    section: ObservableSection,
    patch_a: str,
    patch_b: str,
    eta_field: MetricField,
    eta_tilde_field: MetricField,
    transition: TransitionFunctionField,
    samples: Sequence,
) -> float:
    """Max residual of  o_b - G^{-1} o_a G  over a stack of overlap points."""
    gg = big_g(eta_field, eta_tilde_field, transition, samples, check_tol=None)
    o_a = section.matrix(patch_a, samples)
    return linalg.max_abs(section.matrix(patch_b, samples) - linalg.dagger(gg) @ o_a @ gg)


# ---------------------------------------------------------------- systems


@dataclass
class PatchData:
    """One chart's bundle data: a metric field and a compatible connection."""

    metric: MetricField
    connection: ConnectionForm


@dataclass
class SystemSpec:
    """A complete two-chart (or single-chart) system ready to evolve.

    patches : chart label -> PatchData
    transition : transition function between the two charts (None for a
        single-chart system)
    curve : the parametrized curve, with its patch_schedule naming the chart
        order; :meth:`segments` makes it a run's segments for a switch time
    energy : optional observable section holding the physical Hamiltonian in
        Hermitian form per chart
    overlap_window : parameter interval during which the curve lies in the
        chart overlap (used to default and validate the switch time)
    """

    patches: dict[str, PatchData]
    curve: CurvePath
    transition: TransitionFunctionField | None = None
    energy: ObservableSection | None = None
    overlap_window: tuple[float, float] | None = None
    metadata: dict = field(default_factory=dict)

    def patch(self, patch_id: str) -> PatchData:
        return self.patches[patch_id]

    def curve_metric(self, patch_id: str) -> CurveMetric:
        return CurveMetric(self.patch(patch_id).metric, self.curve)

    def metric_operator(self, patch_id: str, point) -> MetricOperator:
        return self.patch(patch_id).metric.operator(point)

    def transition_into(self, target_patch: str) -> TransitionFunctionField:
        """The transition oriented so that psi_target = g^{-1} psi_source."""
        if self.transition is None:
            raise OutOfOverlap("system has a single chart; no transition defined")
        if self.transition.to_patch == target_patch:
            return self.transition
        if self.transition.from_patch == target_patch:
            return self.transition.inverse()
        raise OutOfOverlap(f"no transition involving patch '{target_patch}'")

    # -- generators along the curve ------------------------------------
    #
    # Each closure takes one time t or a stack of times (n,) and returns one
    # generator (N, N) or a stack (n, N, N).  It evaluates the curve once and
    # shares R(t), Rdot(t) and the factorised metric between its terms.

    def _energy_at(self, patch_id: str):
        """(R, op=None) -> H_E = rho^{-1} e(R) rho, factorising the metric at
        R unless ``op`` is given; None without an energy observable."""
        if self.energy is None or patch_id not in self.energy.fields:
            return None
        metric = self.patch(patch_id).metric

        def h_e(r, op: MetricOperator | None = None) -> np.ndarray:
            op = metric.operator(r) if op is None else op
            return linalg.matmul(linalg.matmul(op.rho_inv, self.energy.matrix(patch_id, r)),
                                 op.rho)

        return h_e

    def _full_at(self, patch_id: str):
        """(R, Rdot, op=None) -> H = Rdot^a A_a(R) + H_E(R)."""
        conn = self.patch(patch_id).connection
        h_e = self._energy_at(patch_id)

        def full(r, v, op: MetricOperator | None = None) -> np.ndarray:
            out = conn.contracted(r, v)
            return out if h_e is None else out + h_e(r, op)

        return full

    def energy_generator(self, patch_id: str) -> Callable[[float], np.ndarray] | None:
        """H_E(t) = rho^{-1} e(R(t)) rho on the chart, from the Hermitian-form
        section; None when the system carries no energy observable."""
        h_e = self._energy_at(patch_id)
        if h_e is None:
            return None

        @linalg.stacked
        def energy(t) -> np.ndarray:
            return h_e(self.curve.points(t))

        return energy

    def generator(self, patch_id: str) -> Callable[[float], np.ndarray]:
        """Full H(t) = H_A(t) + H_E(t) on one chart."""
        full = self._full_at(patch_id)

        @linalg.stacked
        def h(t) -> np.ndarray:
            return full(self.curve.points(t), self.curve.velocities(t))

        return h

    def hermitian_generator(self, patch_id: str) -> Callable[..., np.ndarray]:
        """h(t) = rho H rho^{-1} + i rhodot rho^{-1} on one chart, with the
        metric factorised once per evaluation and shared by H_E, rho and
        rhodot."""
        metric = self.patch(patch_id).metric
        full = self._full_at(patch_id)
        cm = self.curve_metric(patch_id)

        @linalg.stacked
        def h_herm(t) -> np.ndarray:
            r, v = self.curve.points(t), self.curve.velocities(t)
            op = metric.operator(r)
            rho_dot = op.root_derivative(metric.eta_dot(r, v))
            return hermitian_representation(full(r, v, op), cm, t, op, rho_dot)

        return h_herm

    def default_tau(self) -> float:
        if self.overlap_window is None:
            raise TauNotInOverlap("system has no overlap window")
        return 0.5 * (self.overlap_window[0] + self.overlap_window[1])

    def segments(self, tau: float | None = None) -> list[tuple[tuple[float, float], str]]:
        """The run's chart itinerary, ((t_a, t_b), patch) per segment.  One
        chart gives one segment, whatever ``tau`` is.  Two charts switch at
        ``tau`` (default :meth:`default_tau`), which must lie in the overlap
        dwell with its curve point in the overlap, else TauNotInOverlap."""
        pids = [pid for _, pid in self.curve.patch_schedule]
        span = (self.curve.t_start, self.curve.t_end)
        if len(pids) == 1:
            return [(span, pids[0])]
        if len(pids) != 2:
            raise TauNotInOverlap(
                f"expected a one- or two-chart schedule, got {len(pids)} entries")
        if tau is None:
            tau = self.default_tau()
        if self.overlap_window is not None:
            lo, hi = self.overlap_window
            if not (lo <= tau <= hi):
                raise TauNotInOverlap(f"tau = {tau} outside the overlap dwell [{lo}, {hi}]")
        r_tau = self.curve.points(tau)
        if not self.transition_into(pids[1]).in_overlap(r_tau):
            raise TauNotInOverlap(f"curve point {r_tau} at tau = {tau} is not in the overlap")
        return [((span[0], tau), pids[0]), ((tau, span[1]), pids[1])]


# ------------------------------------------------------ chart-switched evolution


def evolve_across_patches(
    system: SystemSpec,
    psi0,
    tau: float | None = None,
    stepper: StepperConfig = StepperConfig(),
    representation: str = "eta",
) -> EvolutionResult:
    """Evolve along the chart segments of ``system.segments(tau)``.

    In the default ("eta") representation the state converts at a switch by
    psi~ = g^{-1} psi; in the "hermitian" representation the input/output
    states are Phi = rho psi and the conversion is Phi~ = G^{-1} Phi.  The
    returned trajectory contains two samples at each switch, one per chart,
    so the frame switch is visible in the record.

    Raises :class:`TauNotInOverlap` when tau is not an admissible switch
    time (see :meth:`SystemSpec.segments`).
    """
    if representation not in ("eta", "hermitian"):
        raise ValueError(f"unknown representation {representation!r}")
    hermitian = representation == "hermitian"
    segments = system.segments(tau)

    psi = psi0
    pieces: list[EvolutionResult] = []
    for k, ((ta, tb), pid) in enumerate(segments):
        if k:
            r = system.curve.points(ta)
            transition = system.transition_into(pid)
            if hermitian:
                gg = big_g(system.patch(segments[k - 1][1]).metric, system.patch(pid).metric,
                           transition, r, check_tol=None)
                psi = linalg.inv(gg) @ psi
            else:
                psi = transform_state(transition, r, psi)
        pieces.append(evolve(
            system.hermitian_generator(pid) if hermitian else system.generator(pid),
            psi, ta, tb, stepper,
            curve_metric=None if hermitian else system.curve_metric(pid),
            energy=None if hermitian else system.energy_generator(pid),
            patch_id=pid,
        ))
        psi = pieces[-1].final_state

    def cat(name):
        parts = [getattr(p, name) for p in pieces]
        return None if any(x is None for x in parts) else np.concatenate(parts)

    out = EvolutionResult(cat("times"), cat("states"), cat("eta_norm"), cat("energy_expect"),
                          [pid for p in pieces for pid in p.patch_trace])
    if hermitian:
        # the 2-norm of Phi equals the eta-norm of psi chartwise; record it
        out.eta_norm = np.linalg.norm(out.states, axis=1)
    return out
