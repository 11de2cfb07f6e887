"""Gluing charts: transition functions, intertwiners, observable sections.

On overlapping charts the bundle data are related by a transition function
g(R):

    eta~ = g^dag eta g,     psi~ = g^{-1} psi,     A~_a = g^{-1} A_a g - i g^{-1} d_a g,

and the generator picks up a derivative term along a curve,
H~ = g^{-1} H g - i g^{-1} gdot: the law for A~ contracted with Rdot.  The
combination

    G = rho g rho~^{-1}

is *unitary* and glues the Hermitian representations of the two charts;
observables in Hermitian form transform as  o~ = G^{-1} o G.

:attr:`SystemSpec.charts` and :meth:`SystemSpec.segments` are the only chart
itinerary: the chart order, made the run's ((t_a, t_b), patch) segments once
for a switch time tau inside the overlap dwell.
:func:`evolve_across_patches` walks them, and the CLI's summary and check
battery read the same list.  A switch into the target chart of the one
:attr:`SystemSpec.transition` maps the state by psi~ = g^{-1} psi, or by
Phi~ = G^dag Phi in the Hermitian representation, and a switch back by g or G.
Physical endpoints do not depend on the switch time; Phi jumps at the switch
(G is not the identity) while all eta-norms stay continuous.

The generic generators of :class:`SystemSpec` add the geometric part H_A and
the energy observable e (the section's Hermitian form): H = H_A + rho^{-1} e rho
in the eta picture, h = rho H_A rho^{-1} + i rhodot rho^{-1} + e in the
Hermitian one.  Both closures read a :class:`ChartEvaluation`, which ``check``
reads too.  A run integrates :meth:`SystemSpec.run_generator`: the closed
forms of the ``closed`` slot, which the two-level model fills, else the generic
ones, which ``check`` compares them with.  Marked :func:`qbundle.linalg.stacked`,
on a stack of times each evaluates the curve once and returns the stack.
The gluing layer follows the chart-field core :class:`qbundle.metric.ChartField`:
:class:`TransitionFunctionField` (partials on axis -3), the transforms
(:func:`tilde_eta`, :func:`big_g`, :func:`transform_state`,
:func:`transform_observable`) and :func:`check_section_compatibility` take
one point (d,) or a stack (n, d) with matching states and matrices, check
every point and name the first failing one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from . import linalg
from .connection import ConnectionForm, CurvePath
from .dynamics import CurveMetric, EvolutionResult, evolve, hermitian_from_parts
from .errors import (
    ConfigError,
    DimensionMismatch,
    NotUnitary,
    OutOfOverlap,
    TauNotInOverlap,
)
from .metric import ChartField, MetricField, MetricOperator
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


class TransitionFunctionField(ChartField):
    """Invertible matrix field g(R) relating two charts on their overlap,
    evaluated by the chart-field core :class:`qbundle.metric.ChartField`; a
    point off the overlap raises OutOfOverlap."""

    outside = OutOfOverlap

    def __init__(
        self,
        from_patch: str,
        to_patch: str,
        g_fn: Callable[[np.ndarray], np.ndarray],
        partials_fn: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None,
        overlap: Callable[[np.ndarray], bool] | None = None,
        dim: int = 2,
    ):
        super().__init__(g_fn, partials_fn, dim, overlap, "g",
                         f"the overlap of charts '{from_patch}' and '{to_patch}'")
        self.from_patch = from_patch
        self.to_patch = to_patch

    in_overlap = ChartField.contains
    g = ChartField.values
    partial_g = ChartField.partials
    g_dot = ChartField.time_derivative

    def fd_step(self, rows: np.ndarray) -> float:
        """Finite-difference step of :meth:`partial_g`: ``G_FD_STEP`` for every coordinate."""
        return G_FD_STEP

    def g_inv(self, point) -> np.ndarray:
        return np.linalg.inv(self.g(point))


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
    """State components on the target chart:  psi~ = g^{-1} psi, for a state
    or a stack of states (..., N) that broadcasts against the points."""
    g_inv = transition.g_inv(point)
    psi = np.asarray(psi, dtype=complex)
    try:
        return (g_inv @ psi[..., None])[..., 0]
    except ValueError as exc:  # another length, or stacks that do not broadcast
        raise DimensionMismatch(
            f"psi has shape {psi.shape}, expected {g_inv.shape[:-1]}") from exc


def transform_observable(observable, intertwiner, tol: float = UNITARITY_TOL) -> np.ndarray:
    """Observable in the target chart's Hermitian form:  o~ = G^{-1} o G,
    for one intertwiner or a stack, each checked for unitarity."""
    gg = linalg.as_square(intertwiner, "intertwiner")
    _check_unitary(gg, tol)
    return linalg.dagger(gg) @ linalg.as_square(observable, "observable") @ gg


# ---------------------------------------------------------------- sections


class ObservableSection:
    """A physical observable given per chart in Hermitian form.

    ``fields`` maps patch_id -> callable R -> Hermitian matrix, evaluated
    by :class:`qbundle.metric.ChartField`.  On an overlap
    the charts' fields must agree up to o~ = G^{-1} o G
    (:func:`check_section_compatibility`).
    """

    def __init__(self, fields: dict[str, Callable[[np.ndarray], np.ndarray]]):
        self.fields = dict(fields)

    def matrix(self, patch_id: str, point) -> np.ndarray:
        try:
            fn = self.fields[patch_id]
        except KeyError:
            raise OutOfOverlap(f"section has no field on patch '{patch_id}'") from None
        return ChartField(fn, name="observable").values(point)


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
    curve : the parametrized curve
    charts : the chart order along the curve, one or two keys of ``patches``;
        :meth:`segments` makes it a run's segments for a switch time
    transition : transition function joining the two charts, in either order
        (None for a single-chart system)
    energy : optional observable section holding the physical Hamiltonian in
        Hermitian form per chart
    overlap_window : parameter interval during which the curve lies in the
        chart overlap (used to default and validate the switch time)
    closed : optional closed forms a run integrates, as :class:`qbundle.twolevel.ClosedForms`:
        hermitian(patch, r, v) -> h, generator(patch, r, v) -> H, energy(patch, r)
        -> H_E and big_g(r) -> G of :attr:`transition`
    """

    patches: dict[str, PatchData]
    curve: CurvePath
    charts: tuple[str, ...]
    transition: TransitionFunctionField | None = None
    energy: ObservableSection | None = None
    overlap_window: tuple[float, float] | None = None
    closed: Any = None

    def __post_init__(self):
        if len(self.charts) not in (1, 2) or not set(self.charts) <= self.patches.keys():
            raise ConfigError(f"charts must be one or two of the patches {sorted(self.patches)}, "
                              f"got {self.charts}")
        tr = self.transition
        if len(self.charts) == 2 and (
                tr is None or {tr.from_patch, tr.to_patch} != set(self.charts)):
            raise ConfigError(f"charts {self.charts} need a transition joining exactly those "
                              f"two, got {None if tr is None else (tr.from_patch, tr.to_patch)}")

    def patch(self, patch_id: str) -> PatchData:
        return self.patches[patch_id]

    def curve_metric(self, patch_id: str) -> CurveMetric:
        return CurveMetric(self.patch(patch_id).metric, self.curve)

    def metric_operator(self, patch_id: str, point) -> MetricOperator:
        return self.patch(patch_id).metric.operator(point)

    # -- generators along the curve: one time t or a stack (n,) gives one
    # generator (N, N) or a stack (n, N, N), from H_A = Rdot^a A_a(R) and e(R)

    def evaluate(self, patch_id: str, t) -> ChartEvaluation:
        """The chart's bundle data and generic generators at t (:class:`ChartEvaluation`)."""
        return ChartEvaluation(self, patch_id, t)

    def energy_generator(self, patch_id: str) -> Callable[[float], np.ndarray] | None:
        """H_E(t) = rho^{-1} e(R(t)) rho on the chart, from the Hermitian-form
        section; None when the system carries no energy observable."""
        if self.energy is None or patch_id not in self.energy.fields:
            return None
        return linalg.stacked(lambda t: self.evaluate(patch_id, t).h_e)

    def generator(self, patch_id: str) -> Callable[[float], np.ndarray]:
        """Full H(t) = H_A(t) + H_E(t) on one chart, the eta picture's generator."""
        return linalg.stacked(lambda t: self.evaluate(patch_id, t).big_h)

    def hermitian_generator(self, patch_id: str) -> Callable[..., np.ndarray]:
        """h(t) = rho H_A rho^{-1} + i rhodot rho^{-1} + e(R(t)) on one chart:
        the geometric part mapped into the Hermitian picture, plus the energy
        observable as the section gives it."""
        return linalg.stacked(lambda t: self.evaluate(patch_id, t).h)

    def run_generator(self, patch_id: str, hermitian: bool = False) -> Callable[..., np.ndarray]:
        """The generator a run integrates on the chart, h (``hermitian``) or H: the
        :attr:`closed` form if filled, else the generic one; OutOfPatch names a point off it."""
        if self.closed is None:
            return self.hermitian_generator(patch_id) if hermitian else self.generator(patch_id)
        return self._along(patch_id, self.closed.hermitian if hermitian else self.closed.generator)

    def run_energy(self, patch_id: str) -> Callable[..., np.ndarray] | None:
        """H_E(t) as a run records it, closed like :meth:`run_generator`."""
        if self.closed is None or self.energy is None:
            return self.energy_generator(patch_id)
        return self._along(patch_id, lambda pid, r, v: self.closed.energy(pid, r))

    def _along(self, patch_id: str, form) -> Callable[..., np.ndarray]:
        @linalg.stacked
        def along(t) -> np.ndarray:  # form(patch_id, R(t), Rdot(t)), R(t) on the chart
            r = self.curve.points(t)
            self.patch(patch_id).metric.coords(r)
            return form(patch_id, r, self.curve.velocities(t))

        return along

    def default_tau(self) -> float:
        if self.overlap_window is None:
            raise TauNotInOverlap("system has no overlap window")
        return 0.5 * (self.overlap_window[0] + self.overlap_window[1])

    def segments(self, tau: float | None = None) -> list[tuple[tuple[float, float], str]]:
        """The run's itinerary, :attr:`charts` as ((t_a, t_b), patch) segments.
        One chart gives one segment, whatever ``tau`` is.  Two charts switch at
        ``tau`` (default :meth:`default_tau`), which must lie in the overlap
        dwell with its curve point in the overlap, else TauNotInOverlap."""
        span = (self.curve.t_start, self.curve.t_end)
        if len(self.charts) == 1:
            return [(span, self.charts[0])]
        first, second = self.charts
        if tau is None:
            tau = self.default_tau()
        if self.overlap_window is not None:
            lo, hi = self.overlap_window
            if not (lo <= tau <= hi):
                raise TauNotInOverlap(f"tau = {tau} outside the overlap dwell [{lo}, {hi}]")
        r_tau = self.curve.points(tau)
        if not self.transition.in_overlap(r_tau):
            raise TauNotInOverlap(f"curve point {r_tau} at tau = {tau} is not in the overlap")
        return [((span[0], tau), first), ((tau, span[1]), second)]


class ChartEvaluation:
    """One chart on a time t or a stack of times (n,), from :meth:`SystemSpec.evaluate`:
    ``points`` R(t), and parts built when first read and then shared: ``op`` (one
    factorisation of eta), ``partials``, ``components``, ``e`` (None without an energy
    observable), ``eta_dot``, ``h_a`` = Rdot^a A_a, ``h_e`` = rho^{-1} e rho, ``big_h``
    = H_A + H_E (reading neither partials nor rhodot) and the Hermitian ``h``."""

    def __init__(self, system: SystemSpec, patch_id: str, t):
        self.t, self.patch_id, self._curve = t, patch_id, system.curve
        self._data = system.patch(patch_id)
        self._energy = system.energy if patch_id in getattr(system.energy, "fields", ()) else None
        self.points = system.curve.points(t)

    velocities = cached_property(lambda self: self._curve.velocities(self.t))
    op = cached_property(lambda self: self._data.metric.operator(self.points))
    partials = cached_property(lambda self: self._data.metric.partials(self.points))
    components = cached_property(lambda self: self._data.connection.components(self.points))
    eta_dot = cached_property(lambda self: linalg.contract(self.velocities, self.partials))
    h_a = cached_property(lambda self: linalg.contract(self.velocities, self.components))

    @cached_property
    def e(self) -> np.ndarray | None:
        return None if self._energy is None else self._energy.matrix(self.patch_id, self.points)

    @cached_property
    def h_e(self) -> np.ndarray | None:
        if self._energy is None:
            return None
        return linalg.matmul(linalg.matmul(self.op.rho_inv, self.e), self.op.rho)

    @cached_property
    def big_h(self) -> np.ndarray:
        return self.h_a if self._energy is None else self.h_a + self.h_e

    @cached_property
    def h(self) -> np.ndarray:
        """h = rho H_A rho^{-1} + i rhodot rho^{-1} + e."""
        h = hermitian_from_parts(self.h_a, self.op, self.eta_dot)
        return h if self._energy is None else h + self.e


# ------------------------------------------------------ chart-switched evolution


def evolve_across_patches(
    system: SystemSpec,
    psi0,
    tau: float | None = None,
    stepper: StepperConfig = StepperConfig(),
    representation: str = "eta",
) -> EvolutionResult:
    """Evolve along the chart segments of ``system.segments(tau)``.

    ``psi0`` is a state (N,) or column states (N, c) evolved at once, whose
    columns give the trajectories :meth:`EvolutionResult.column` splits out.
    In the default ("eta") representation the state converts at a switch into
    the target of ``system.transition`` by psi~ = g^{-1} psi, and at a switch
    back by g; in the "hermitian" representation the input/output states are
    Phi = rho psi and the conversions are Phi~ = G^dag Phi and G.  The
    returned trajectory contains two samples at each switch, one per chart,
    so the frame switch is visible in the record.

    Raises :class:`TauNotInOverlap` when tau is not an admissible switch
    time (see :meth:`SystemSpec.segments`).
    """
    if representation not in ("eta", "hermitian"):
        raise ValueError(f"unknown representation {representation!r}")
    hermitian = representation == "hermitian"
    segments = system.segments(tau)

    psi = np.asarray(psi0, dtype=complex)
    pieces: list[EvolutionResult] = []
    for k, ((ta, tb), pid) in enumerate(segments):
        if k:
            r, tr = system.curve.points(ta), system.transition
            into = pid == tr.to_patch  # into tr's target by g^{-1} and G^dag, back by g and G
            # column states convert as a stack of vectors, each with the bits it has alone
            if hermitian:
                gg = (system.closed.big_g(r) if system.closed is not None else
                      big_g(system.patch(tr.from_patch).metric, system.patch(tr.to_patch).metric,
                            tr, r, check_tol=None))
                psi = ((linalg.dagger(gg) if into else gg) @ psi.T[..., None])[..., 0].T
            elif into:
                psi = transform_state(tr, r, psi.T).T
            else:
                psi = (tr.g(r) @ psi.T[..., None])[..., 0].T
        pieces.append(evolve(
            system.run_generator(pid, hermitian), psi, ta, tb, stepper,
            curve_metric=None if hermitian else system.curve_metric(pid),
            energy=None if hermitian else system.run_energy(pid),
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
