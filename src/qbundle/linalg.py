"""Dense complex linear algebra primitives.

Everything downstream (metric operators, connections, propagators) is built on
the small set of operations collected here: conjugate transposes, Hermiticity /
positive definiteness predicates, the Hermitian square root via spectral
decomposition, matrix exponentials and Pauli contractions.  Matrices are plain
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

2x2 kernels.  On (n, 2, 2) stacks, the stepper's hot path, numpy's per-matrix
dispatch costs more than the arithmetic, so :func:`matmul` and
:func:`exp_stack` use closed forms entry by entry; other sizes take ``@`` and
scipy's ``expm``.  Factorisations have one route for every size:
:func:`positive_spectrum` and :func:`hermitian_sqrt` go through ``eigh``.

Gates.  The Hermiticity and positivity gates of :func:`positive_spectrum` are
relative to the size of the operand, and no predicate takes a tolerance.

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
ID2 = np.eye(2, dtype=complex)

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


def is_hermitian(m) -> bool:
    """Whether every matrix of m passes the relative Hermiticity gate of
    :func:`positive_spectrum`."""
    return not np.any(_not_hermitian(as_square(m))[0])


def _not_positive(eigvals: np.ndarray) -> np.ndarray:
    """Per matrix: is its smallest ascending eigenvalue at most 1e-12 of the
    largest magnitude?  A zero matrix fails; no absolute floor, as the
    dynamics do not change under eta -> c eta."""
    return eigvals[..., 0] <= 1e-12 * np.max(np.abs(eigvals), axis=-1)


def _not_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mask, residuals): per matrix of a stack, its Hermiticity residual and
    whether it exceeds 1e-10 times its largest entry."""
    res = np.max(np.abs(m - dagger(m)), axis=(-2, -1))
    return res > 1e-10 * np.max(np.abs(m), axis=(-2, -1)), res


def is_positive_definite(m) -> bool:
    """Whether every matrix of m passes both gates of :func:`positive_spectrum`."""
    try:
        positive_spectrum(m)
    except NotPositiveDefinite:
        return False
    return True


def positive_spectrum(m):
    """(w, v) per matrix of a stack m: the ascending eigenvalues and the
    eigenvectors of its Hermitian part, by one ``eigh``.  Raises
    NotPositiveDefinite, naming the first matrix whose Hermiticity residual
    exceeds 1e-10 of its largest entry or whose smallest eigenvalue is at most
    1e-12 of its largest.  Both gates are relative, so c m passes or fails as
    m does for any c > 0."""
    m = as_square(m)
    bad, res = _not_hermitian(m)
    if np.any(bad):
        k, where = _first(bad)
        raise NotPositiveDefinite(f"matrix is not Hermitian (residual {res[k]:.3e}){where}")
    w, v = np.linalg.eigh(0.5 * (m + dagger(m)))
    bad = _not_positive(w)
    if np.any(bad):
        k, where = _first(bad)
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eigenvalue {w[k][0]:.3e}){where}")
    return w, v


def hermitian_sqrt(m):
    """Unique positive-definite square root of each matrix of m, after the
    gates of :func:`positive_spectrum`: V diag(sqrt(w)) V^dag, which does not
    depend on the basis inside degenerate eigenspaces."""
    w, v = positive_spectrum(m)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, without validation.  A stack of 2x2 matrices (..., 2, 2) times a
    stack of two-row matrices (..., 2, c) multiplies entry by entry,
    broadcasting their leading axes, so each column of the product has the
    bits it has when that column of b is multiplied alone; any other shapes
    use ``@``."""
    if a.shape[-2:] != (2, 2) or b.ndim < 2 or b.shape[-2] != 2:
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape[:-1] + b.shape[-1:], b.shape),
                   np.result_type(a, b))
    for i in (0, 1):
        for j in range(b.shape[-1]):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential of each matrix of m (scaling-and-squaring Pade, via
    scipy), after the checks of :func:`as_square`."""
    return _scipy_expm(as_square(m))


def _scipy_expm(m: np.ndarray) -> np.ndarray:
    # imported here: scipy is the package's only other dependency and costs
    # about 0.3 s to import, which every CLI invocation would otherwise pay
    import scipy.linalg

    return scipy.linalg.expm(m)


def exp_stack(m: np.ndarray) -> np.ndarray:
    """Exponential of each matrix of a stack (..., N, N), without validation,
    so a matrix with a non-finite entry gives a non-finite result.  A 2x2
    matrix M takes the closed form  e^mu (cosh q I + sinh(q)/q (M - mu I)),
    mu = tr M / 2, q^2 = -det(M - mu I); other sizes take scipy's ``expm``,
    as :func:`matrix_exp` does."""
    if m.shape[-2:] != (2, 2):
        return _scipy_expm(m)
    mu = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    d, b, c = m[..., 0, 0] - mu, m[..., 0, 1], m[..., 1, 0]
    q2 = d * d + b * c  # (M - mu I)^2 = q^2 I, free of the cancellation in mu^2 - det M
    q = np.sqrt(q2)
    small = np.abs(q2) < 1e-8  # sinh(q)/q by its series: the next term is below 1e-27
    sinhc = np.where(small, 1.0 + q2 / 6.0 + q2 * q2 / 120.0,
                     np.sinh(q) / np.where(small, 1.0, q))
    e, cosh = np.exp(mu), np.cosh(q)
    out = np.empty(m.shape, complex)
    out[..., 0, 0] = e * (cosh + sinhc * d)
    out[..., 0, 1] = e * (sinhc * b)
    out[..., 1, 0] = e * (sinhc * c)
    out[..., 1, 1] = e * (cosh - sinhc * d)
    return out


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
