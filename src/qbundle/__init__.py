"""qbundle: unitary quantum dynamics on Hermitian vector bundles.

The package simulates two-level (and general finite-dimensional) quantum
systems whose Hilbert-space metric varies along a curve on a base manifold:
metric operators and their positive roots, metric-compatible connections,
parallel transport, evolution under the combined geometric + physical
generator, the unitarily equivalent Hermitian representation, gluing of
charts by transition functions, and a fully explicit two-level model over
the sphere.  hbar = 1 throughout.
"""

from .errors import (
    ConfigError,
    CurveTouchesPoleMargin,
    DimensionMismatch,
    InvalidState,
    NotPositiveDefinite,
    NotUnitary,
    OmegaNotPseudoHermitian,
    OutOfOverlap,
    OutOfPatch,
    PoleAmbiguity,
    QBundleError,
    StepperDiverged,
    TauNotInOverlap,
)
from .linalg import (
    ID2,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    hermitian_sqrt,
    is_hermitian,
    is_positive_definite,
    matrix_exp,
    pauli_dot,
)
from .metric import (
    MetricField,
    MetricOperator,
    constant_metric_field,
    eta_inner,
    split_pseudo,
)
from .stepping import StepperConfig
from .connection import (
    ConnectionForm,
    CurvePath,
    TransportResult,
    a_zero,
    assemble_connection,
    check_metric_compatibility,
    curvature,
    gauge_transform_connection,
    geometric_hamiltonian,
    transport_operator,
)
from .dynamics import (
    CurveMetric,
    EvolutionResult,
    evolve,
    hermitian_representation,
    hermitian_representation_via_physical,
    map_state,
)
from .bundle import (
    ObservableSection,
    PatchData,
    SystemSpec,
    TransitionFunctionField,
    big_g,
    check_section_compatibility,
    evolve_across_patches,
    tilde_eta,
    transform_observable,
    transform_state,
    unitarity_defect,
)
from . import twolevel

__version__ = "0.1.0"
