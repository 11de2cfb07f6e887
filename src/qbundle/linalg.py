"""Dense complex linear algebra primitives.

Everything downstream (metric operators, connections, propagators) is built on
the small set of operations collected here: adjoints, Hermiticity / positive
definiteness predicates, the Hermitian square root via spectral decomposition,
matrix exponentials, commutators and Pauli contractions.  Matrices are plain
``numpy`` arrays of ``complex`` dtype; no wrapper classes.

Stacks.  Fields and generators are evaluated on a whole stack of points or
times at once: a stack of n points is an (n, d) array (n times: an (n,)
array) and a stack of matrices is (n, N, N).  :func:`as_square`,
:func:`hermitian_sqrt`, :func:`contract` and :func:`pauli_dot` broadcast over
leading axes; :func:`hermitian_sqrt` applies its checks to each matrix and
names the first failing one.  User-supplied callables are evaluated on a
stack by :func:`over_points`, the only code that knows the calling rule: a
callable marked with :func:`stacked` receives the whole stack and returns
one result per point, any other callable is called once per point.

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


def stacked(fn):
    """Mark ``fn`` as evaluating a whole stack of points in one call.

    A stacked callable takes (n, d) points (or (n,) times, or several (n,)
    coordinate arrays) and returns an (n, ...) array; see :func:`over_points`.
    """
    fn.stacked = True
    return fn


def over_points(fn, points, *more) -> np.ndarray:
    """``fn`` on every point of a stack, as one (n, ...) array.

    ``points`` (and each of ``more``) holds one row per point.  A callable
    marked :func:`stacked` receives the whole stacks at once; any other
    callable is called once per point, with the rows of each argument (plain
    floats for one-dimensional stacks), and its results are stacked.
    """
    if getattr(fn, "stacked", False):
        out = np.asarray(fn(points, *more))
        if out.shape[:1] != (len(points),):
            raise DimensionMismatch(
                f"stacked callable returned shape {out.shape} for {len(points)} points")
        return out
    rows = [a.tolist() if np.ndim(a) == 1 else a for a in (points, *more)]
    return np.array([fn(*args) for args in zip(*rows)])


def as_stack(x, point_ndim: int = 0) -> tuple[np.ndarray, bool]:
    """(stack, single): ``x`` as a stack of points of ``point_ndim`` axes each
    (0 for times, 1 for coordinate vectors), and whether it was one point."""
    a = np.asarray(x, dtype=float)
    single = a.ndim == point_ndim
    return (a[np.newaxis] if single else a), single


def _first(bad: np.ndarray) -> tuple[tuple, str]:
    """(index, message suffix) of the first True entry of a per-matrix mask;
    ((), "") for a single matrix."""
    if bad.ndim == 0:
        return (), ""
    k = tuple(int(i) for i in np.argwhere(bad)[0])
    return k, f" (stack index {k})"


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex ndarray of square matrices (..., N, N), raising
    DimensionMismatch otherwise."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        bad = ~finite.all(axis=(-2, -1))
        raise DimensionMismatch(f"{name} contains non-finite entries{_first(bad)[1]}")
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

    Scalar ``x``: the derivative.  Coordinate vector ``x``, or a stack of
    them (n, d): the list of partials along the last axis, with ``step``
    shared, one per coordinate, or one per entry of ``x``.  ``fn`` may return
    anything ``numpy.asarray`` accepts (a number, a vector, matrices), with
    one leading axis per leading axis of ``x``.
    """

    def diff(xp, xm, h):
        d = np.asarray(fn(xp)) - np.asarray(fn(xm))
        return d / (2.0 * np.reshape(h, np.shape(h) + (1,) * (d.ndim - np.ndim(h))))

    if np.ndim(x) == 0:
        return diff(x + step, x - step, step)
    x = np.asarray(x, dtype=float)
    steps = np.broadcast_to(step, x.shape)
    out = []
    for a in range(x.shape[-1]):
        xp, xm = x.copy(), x.copy()
        h = steps[..., a]
        xp[..., a] += h
        xm[..., a] -= h
        out.append(diff(xp, xm, h))
    return out


def contract(coeffs, mats) -> np.ndarray:
    """sum_a coeffs[..., a] * mats[..., a, :, :], accumulated from zeros in
    coordinate order; coeffs (..., d) and mats (..., d, N, N) broadcast."""
    c = np.asarray(coeffs)
    m = np.asarray(mats)
    out = np.zeros(np.broadcast_shapes(c.shape[:-1], m.shape[:-3]) + m.shape[-2:], m.dtype)
    for a in range(m.shape[-3]):
        out = out + c[..., a, None, None] * m[..., a, :, :]
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack, without validation."""
    return m.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------- operations


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return dagger(as_square(m))


def commutator(a, b) -> np.ndarray:
    """[a, b] = a @ b - b @ a."""
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatch(f"commutator shapes differ: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def is_hermitian(m, tol: float | None = HERMITICITY_TOL) -> bool:
    """Whether every matrix of m is Hermitian: within the absolute ``tol``,
    or, with ``tol=None``, within the relative gate of :func:`hermitian_sqrt`."""
    if tol is None:
        return not np.any(_not_hermitian(as_square(m))[0])
    return hermiticity_residual(m) <= tol


def hermiticity_residual(m) -> float:
    m = as_square(m)
    return max_abs(m - dagger(m))


def _not_positive(eigvals: np.ndarray, tol: float | None) -> np.ndarray:
    """Per matrix: is the smallest of its ascending eigenvalues at or below
    the tolerance?  By default 1e-12 relative to the largest eigenvalue
    magnitude, floored at an absolute scale of 1 so near-zero matrices are
    handled sanely."""
    if tol is None:
        tol = 1e-12 * np.maximum(np.max(np.abs(eigvals), axis=-1), 1.0)
    return eigvals[..., 0] <= tol


def _not_hermitian(m: np.ndarray, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(mask, residuals): per matrix of a stack, its Hermiticity residual and
    whether it exceeds 1e-10 times its largest entry floored at 1 (or ``floor``)."""
    res = np.max(np.abs(m - dagger(m)), axis=(-2, -1))
    gate = 1e-10 * np.maximum(np.max(np.abs(m), axis=(-2, -1)), 1.0)
    return res > np.maximum(gate, floor), res


def is_positive_definite(m, tol: float | None = None) -> bool:
    """True if every matrix of m is Hermitian (within the gate of
    :func:`hermitian_sqrt`, or ``tol`` if larger) with strictly positive
    spectrum."""
    m = as_square(m)
    if np.any(_not_hermitian(m, 0.0 if tol is None else tol)[0]):
        return False
    w = np.linalg.eigvalsh(0.5 * (m + dagger(m)))
    return not np.any(_not_positive(w, tol))


def hermitian_sqrt(m, tol: float | None = None, eigenpairs: bool = False):
    """Unique positive-definite square root of a positive-definite matrix.

    Computed spectrally: m = V diag(w) V'  ->  sqrt(m) = V diag(sqrt(w)) V'.
    ``numpy.linalg.eigh`` returns eigenvalues in ascending order, which fixes
    the decomposition deterministically; the resulting square root does not
    depend on the basis chosen inside degenerate eigenspaces.

    With ``eigenpairs`` the result is (sqrt(m), sqrt(w), V), so a caller can
    reuse the factorisation.  A stack (..., N, N) is factorised in one call
    and each matrix checked on its own.  Raises NotPositiveDefinite when a
    matrix fails the Hermiticity or the positivity check, naming the first.
    The Hermiticity gate is 1e-10 relative to each matrix's largest entry,
    floored at 1, so products such as g^dag eta g with large entries pass
    with their rounding-level residual.
    """
    m = as_square(m)
    bad, res = _not_hermitian(m)
    if np.any(bad):
        k, where = _first(bad)
        raise NotPositiveDefinite(f"matrix is not Hermitian (residual {res[k]:.3e}){where}")
    w, v = np.linalg.eigh(0.5 * (m + dagger(m)))
    bad = _not_positive(w, tol)
    if np.any(bad):
        k, where = _first(bad)
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {w[k][0]:.3e}){where}")
    root_w = np.sqrt(w)
    root = (v * root_w[..., None, :]) @ dagger(v)
    return (root, root_w, v) if eigenpairs else root


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade, via scipy)."""
    # imported here: scipy is the package's only other dependency and costs
    # about 0.3 s to import, which every CLI invocation would otherwise pay
    import scipy.linalg

    return scipy.linalg.expm(as_square(m))


def pauli_dot(coeffs) -> np.ndarray:
    """Contract real or complex 3-vectors (..., 3) with the Pauli matrices.

    pauli_dot((c1, c2, c3)) = c1*SIGMA1 + c2*SIGMA2 + c3*SIGMA3
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape[-1:] != (3,):
        raise DimensionMismatch(f"pauli_dot expects 3-vectors, got shape {c.shape}")
    out = np.empty(c.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = c[..., 2]
    out[..., 0, 1] = c[..., 0] - 1j * c[..., 1]
    out[..., 1, 0] = c[..., 0] + 1j * c[..., 1]
    out[..., 1, 1] = -c[..., 2]
    return out
