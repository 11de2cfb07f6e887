"""Dense complex linear algebra primitives.

Everything downstream (metric operators, connections, propagators) is built on
the small set of operations collected here: adjoints, Hermiticity / positive
definiteness predicates, the Hermitian square root via spectral decomposition,
matrix exponentials, commutators and Pauli contractions.  Matrices are plain
``numpy`` arrays of ``complex`` dtype; no wrapper classes.

Conventions: hbar = 1 everywhere; matrix norms used for tolerance checks are
max-absolute-entry norms unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# ---------------------------------------------------------------- constants

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)
ID2 = np.eye(2, dtype=complex)

#: default absolute tolerance for Hermiticity checks
HERMITICITY_TOL = 1e-12

# ---------------------------------------------------------------- helpers


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray, raising DimensionMismatch otherwise."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return a


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {a.shape[0]}, expected {dim}")
    return a


def max_abs(m) -> float:
    """Max-absolute-entry norm, the default residual norm in this package."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def central_difference(fn, x, step):
    """Central difference  (fn(x + h) - fn(x - h)) / 2h,  error O(h^2).

    Scalar ``x``: the derivative.  Coordinate vector ``x``: the list of
    partials, with ``step`` shared or one per coordinate.  ``fn`` may return
    anything ``numpy.asarray`` accepts (a number, a vector, matrices).
    """

    def diff(xp, xm, h):
        return (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * h)

    if np.ndim(x) == 0:
        return diff(x + step, x - step, step)
    x = np.asarray(x, dtype=float)
    out = []
    for a, h in enumerate(np.broadcast_to(step, x.shape)):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        out.append(diff(xp, xm, h))
    return out


def contract(coeffs, mats) -> np.ndarray:
    """sum_a coeffs[a] * mats[a], accumulated from zeros in coordinate order."""
    out = np.zeros_like(mats[0])
    for c, m in zip(coeffs, mats):
        out = out + c * m
    return out


# ---------------------------------------------------------------- operations


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_square(m).conj().T


def commutator(a, b) -> np.ndarray:
    """[a, b] = a @ b - b @ a."""
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatch(f"commutator shapes differ: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def is_hermitian(m, tol: float = HERMITICITY_TOL) -> bool:
    m = as_square(m)
    return max_abs(m - m.conj().T) <= tol


def hermiticity_residual(m) -> float:
    m = as_square(m)
    return max_abs(m - m.conj().T)


def _pd_tolerance(eigvals: np.ndarray, tol: float | None) -> float:
    # default: 1e-12 relative to the largest eigenvalue magnitude, floored at
    # an absolute scale of 1 so near-zero matrices are handled sanely
    if tol is not None:
        return tol
    scale = max(float(np.max(np.abs(eigvals))), 1.0) if eigvals.size else 1.0
    return 1e-12 * scale


def is_positive_definite(m, tol: float | None = None) -> bool:
    """True if m is Hermitian (within tolerance) with strictly positive spectrum."""
    m = as_square(m)
    if not is_hermitian(m, tol=1e-10 if tol is None else max(tol, 1e-10)):
        return False
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return bool(np.min(w) > _pd_tolerance(w, tol))


def hermitian_sqrt(m, tol: float | None = None, eigenpairs: bool = False):
    """Unique positive-definite square root of a positive-definite matrix.

    Computed spectrally: m = V diag(w) V'  ->  sqrt(m) = V diag(sqrt(w)) V'.
    ``numpy.linalg.eigh`` returns eigenvalues in ascending order, which fixes
    the decomposition deterministically; the resulting square root does not
    depend on the basis chosen inside degenerate eigenspaces.

    With ``eigenpairs`` the result is (sqrt(m), sqrt(w), V), so a caller can
    reuse the factorisation.  Raises NotPositiveDefinite when the input fails
    the positivity check.
    """
    m = as_square(m)
    herm = 0.5 * (m + m.conj().T)
    if hermiticity_residual(m) > 1e-10:
        raise NotPositiveDefinite(
            f"matrix is not Hermitian (residual {hermiticity_residual(m):.3e})"
        )
    w, v = np.linalg.eigh(herm)
    if np.min(w) <= _pd_tolerance(w, tol):
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {np.min(w):.3e})"
        )
    root_w = np.sqrt(w)
    root = (v * root_w) @ v.conj().T
    return (root, root_w, v) if eigenpairs else root


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade, via scipy)."""
    # imported here: scipy is the package's only other dependency and costs
    # about 0.3 s to import, which every CLI invocation would otherwise pay
    import scipy.linalg

    return scipy.linalg.expm(as_square(m))


def cross3(a, b) -> tuple:
    """Cross product of two 3-vectors, as a tuple; for per-point inner loops,
    where ``numpy.cross``'s general axis handling costs far more than the
    six products."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def pauli_dot(coeffs) -> np.ndarray:
    """Contract a real or complex 3-vector with the Pauli matrices.

    pauli_dot((c1, c2, c3)) = c1*SIGMA1 + c2*SIGMA2 + c3*SIGMA3
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (3,):
        raise DimensionMismatch(f"pauli_dot expects a 3-vector, got shape {c.shape}")
    return c[0] * SIGMA1 + c[1] * SIGMA2 + c[2] * SIGMA3
