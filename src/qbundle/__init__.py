"""qbundle: unitary quantum dynamics on Hermitian vector bundles.

The package simulates two-level (and general finite-dimensional) quantum
systems whose Hilbert-space metric varies along a curve on a base manifold:
metric operators and their positive roots, metric-compatible connections,
parallel transport, evolution under the combined geometric + physical
generator, the unitarily equivalent Hermitian representation, gluing of
charts by transition functions, and a fully explicit two-level model over
the sphere.  hbar = 1 throughout.

Each public name is imported from the module that defines it, as in
``from qbundle import twolevel`` or ``from qbundle.bundle import SystemSpec``;
the package re-exports nothing.
"""

__version__ = "0.1.0"
