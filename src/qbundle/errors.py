"""Exception hierarchy for qbundle.

Every error raised on a contract violation derives from :class:`QBundleError`,
so callers can catch the library's failures with a single ``except`` clause.
Numerical tolerance failures raise specific subclasses carrying enough context
(component index, coordinate point, offending residual) to locate the problem.
"""


class QBundleError(Exception):
    """Base class for all qbundle errors."""


class DimensionMismatch(QBundleError):
    """Operands have incompatible shapes (non-square matrix, wrong vector length...)."""


class NotPositiveDefinite(QBundleError):
    """A matrix required to be Hermitian positive definite is not."""


class InvalidState(QBundleError):
    """A state vector violates a precondition (e.g. exactly zero)."""


class OutOfPatch(QBundleError):
    """A base-manifold point lies outside the chart a field is defined on."""


class OutOfOverlap(QBundleError):
    """A point lies outside the overlap region of two charts."""


class StepperDiverged(QBundleError):
    """The ODE stepper produced non-finite values or an underflowing step size."""


class OmegaNotPseudoHermitian(QBundleError):
    """A free connection component fails the pseudo-Hermiticity requirement.

    Carries the component index and the sample point where validation failed.
    """

    def __init__(self, component: int, point, residual: float, tol: float):
        self.component = component
        self.point = point
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"connection component {component} is not pseudo-Hermitian at "
            f"{point}: residual {residual:.3e} > tol {tol:.3e}"
        )


class NotUnitary(QBundleError):
    """An operator required to be unitary (e.g. an intertwiner) is not."""


class TauNotInOverlap(QBundleError):
    """The requested patch-switch time lies outside the overlap dwell of the curve."""


class PoleAmbiguity(QBundleError):
    """A chart-dependent matrix was requested at a pole without a resolving convention."""


class CurveTouchesPoleMargin(QBundleError):
    """A curve passes closer to a coordinate pole than the configured safety margin."""


class ConfigError(QBundleError):
    """A scenario configuration file is malformed or inconsistent."""
