"""Tests for the dense linear algebra primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbundle.errors import DimensionMismatch, NotPositiveDefinite
from qbundle.linalg import (
    ID2,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    central_difference,
    contract,
    dagger,
    exp_stack,
    hermitian_sqrt,
    is_hermitian,
    is_positive_definite,
    matmul,
    matrix_exp,
    max_abs,
    pauli_dot,
)
from qbundle.metric import MetricOperator

SEED = 2163


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    m = random_complex(rng, n)
    return 0.5 * (m + m.conj().T)


def random_positive(rng, n, floor=0.1):
    m = random_complex(rng, n)
    return m @ m.conj().T + floor * np.eye(n)


# ---------------------------------------------------------------- pauli


def test_pauli_algebra():
    # sigma_j sigma_k = delta_jk + i eps_jkl sigma_l
    np.testing.assert_allclose(SIGMA1 @ SIGMA1, ID2)
    np.testing.assert_allclose(SIGMA2 @ SIGMA2, ID2)
    np.testing.assert_allclose(SIGMA3 @ SIGMA3, ID2)
    np.testing.assert_allclose(SIGMA1 @ SIGMA2 - SIGMA2 @ SIGMA1, 2j * SIGMA3)
    np.testing.assert_allclose(SIGMA2 @ SIGMA3 - SIGMA3 @ SIGMA2, 2j * SIGMA1)
    np.testing.assert_allclose(SIGMA3 @ SIGMA1 - SIGMA1 @ SIGMA3, 2j * SIGMA2)


def test_pauli_dot_squares_to_norm():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        v = rng.standard_normal(3)
        m = pauli_dot(v)
        np.testing.assert_allclose(m @ m, np.dot(v, v) * ID2, atol=1e-12)


def test_pauli_dot_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        pauli_dot([1.0, 2.0])


# ---------------------------------------------------------------- predicates


def test_adjoint_and_hermiticity():
    rng = np.random.default_rng(SEED)
    m = random_complex(rng, 4)
    np.testing.assert_allclose(dagger(m), m.conj().T)
    assert is_hermitian(m + m.conj().T)
    assert not is_hermitian(m + m.conj().T + 1e-6 * 1j * np.eye(4))


def test_positive_definiteness():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        assert is_positive_definite(random_positive(rng, 3))
    # indefinite
    assert not is_positive_definite(SIGMA3)
    # non-Hermitian
    assert not is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # scale-relative tolerance: a huge matrix with a relatively tiny negative
    # eigenvalue direction is not positive definite
    big = np.diag([1e16, -1.0]).astype(complex)
    assert not is_positive_definite(big)


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        is_hermitian(np.zeros((2, 3)))


# ---------------------------------------------------------------- sqrt


def test_hermitian_sqrt_squares_back():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 5):
        for _ in range(25):
            m = random_positive(rng, n)
            r = hermitian_sqrt(m)
            np.testing.assert_allclose(r @ r, m, atol=1e-10 * max_abs(m))
            # the root is itself Hermitian positive definite
            assert is_hermitian(r)
            assert is_positive_definite(r)


def test_hermitian_sqrt_known_value():
    m = np.array([[5.0, 3.0], [3.0, 5.0]], dtype=complex)
    # eigenvalues 2 and 8 -> root has eigenvalues sqrt(2), 2 sqrt(2)
    expected = np.array(
        [
            [0.5 * (np.sqrt(8) + np.sqrt(2)), 0.5 * (np.sqrt(8) - np.sqrt(2))],
            [0.5 * (np.sqrt(8) - np.sqrt(2)), 0.5 * (np.sqrt(8) + np.sqrt(2))],
        ]
    )
    np.testing.assert_allclose(hermitian_sqrt(m), expected, atol=1e-13)


def test_hermitian_sqrt_degenerate_spectrum():
    # proportional to the identity: root must be exactly the scaled identity
    np.testing.assert_allclose(hermitian_sqrt(4.0 * np.eye(3)), 2.0 * np.eye(3),
                               atol=1e-13)


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        hermitian_sqrt(SIGMA3)
    with pytest.raises(NotPositiveDefinite):
        hermitian_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        hermitian_sqrt(np.zeros((2, 2)))


def large_product(rng):
    """g^dag eta g with entries near 1e6, built as tilde_eta builds it:
    Hermitian positive definite up to rounding."""
    eta = random_positive(rng, 2, floor=1.0)
    g = 1e3 * random_complex(rng, 2)
    return g.conj().T @ eta @ g


def test_hermiticity_gate_scales_with_the_entries():
    rng = np.random.default_rng(SEED)
    products = np.array([large_product(rng) for _ in range(20)])
    assert max_abs(products - products.conj().swapaxes(-1, -2)) > 1e-10  # rounding
    root = hermitian_sqrt(products)
    assert is_positive_definite(products)
    for r, m in zip(root, products):
        np.testing.assert_allclose(r @ r, m, atol=1e-12 * max_abs(m))


def test_hermiticity_gate_rejects_non_hermitian_matrices():
    rng = np.random.default_rng(SEED)
    large = large_product(rng)
    large[0, 1] += 1e-8 * max_abs(large)
    small = np.array([[2.0, 1e-9], [0.0, 2.0]], dtype=complex)
    for m in (large, small):
        with pytest.raises(NotPositiveDefinite, match="not Hermitian"):
            hermitian_sqrt(m)
        assert not is_positive_definite(m)
        assert not is_hermitian(m)
    with pytest.raises(NotPositiveDefinite, match=r"stack index \(1,\)"):
        hermitian_sqrt(np.array([2.0 * np.eye(2), small]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("c", [1e-200, 1e-13, 1e13])
def test_gates_are_scale_free(dim, c):
    """The dynamics do not change under eta -> c eta, and neither do the
    gates: rho(c eta) = sqrt(c) rho(eta) at any scale."""
    eta = random_positive(np.random.default_rng(SEED), dim)
    op, scaled = MetricOperator(eta), MetricOperator(c * eta)
    assert is_positive_definite(c * eta)
    assert_close(scaled.rho, np.sqrt(c) * op.rho, 1e-13)
    assert_close(scaled.rho_inv, op.rho_inv / np.sqrt(c), 1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_relative_gates_name_the_failure(dim):
    """A tiny non-Hermitian matrix is named as such, not as indefinite, and
    the zero matrix is still refused."""
    tiny = 1e-12 * np.eye(dim, dtype=complex)
    tiny[0, 1] = 0.5e-12
    with pytest.raises(NotPositiveDefinite, match="not Hermitian"):
        hermitian_sqrt(tiny)
    assert not is_hermitian(tiny)
    with pytest.raises(NotPositiveDefinite, match="not positive definite"):
        hermitian_sqrt(np.zeros((dim, dim)))
    assert not is_positive_definite(np.zeros((dim, dim)))


# ---------------------------------------------------------------- spectral route


def metric_stack(seed, n, cond, scale=1.0):
    """(n, 2, 2) positive-definite metrics with eigenvalues scale/cond and
    scale, each in its own random unitary frame."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))[0]
    eta = (q * np.array([scale / cond, scale])) @ dagger(q)
    return 0.5 * (eta + dagger(eta))


def assert_close(got, want, tol):
    """Each matrix of ``got`` equals that of ``want`` to ``tol`` relative to
    its largest entry."""
    err = np.max(np.abs(got - want), axis=(-2, -1))
    assert np.all(err <= tol * np.max(np.abs(want), axis=(-2, -1)))


def assert_solves_root_equation(op, c, tol):
    """X = op.root_derivative(c) solves  rho X + X rho = c  to ``tol``
    relative to the largest entry of c."""
    x = op.root_derivative(c)
    assert_close(op.rho @ x + x @ op.rho, np.broadcast_to(c, x.shape), tol)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       log_cond=st.floats(0.0, 8.0), log_scale=st.floats(-3.0, 3.0))
@example(seed=5, n=6, log_cond=8.0, log_scale=0.0)
@example(seed=7, n=3, log_cond=2.0, log_scale=200.0)
def test_spectral_factors_hold_on_ill_conditioned_and_far_scaled_metrics(
        seed, n, log_cond, log_scale):
    """One eigh is backward stable, so each identity holds up to the
    condition number of its operation times rounding: 1e-14 relative for
    rho^2 = eta, scaled by sqrt(cond) for rho^{-1} rho and the root
    derivative; eta^{-1} and numpy's inverse, both backward stable, differ by
    up to 1e-13 cond.  matmul matches ``@``."""
    cond = 10.0 ** log_cond
    eta = metric_stack(seed, n, cond, 10.0 ** log_scale)
    op = MetricOperator(eta)
    assert_close(op.rho @ op.rho, eta, 1e-14)
    assert_close(op.rho_inv @ op.rho, np.broadcast_to(ID2, eta.shape), 1e-14 * np.sqrt(cond))
    assert_close(op.eta_inv, np.linalg.inv(eta), 1e-13 * cond)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    assert_close(matmul(a, eta), a @ eta, 1e-13)
    assert_close(matmul(a[:, None], eta[None]), a[:, None] @ eta[None], 1e-13)
    assert_solves_root_equation(op, a + dagger(a), 1e-14 * np.sqrt(cond))


@pytest.mark.parametrize("eta, root", [
    (2.5 * ID2, np.sqrt(2.5) * ID2),
    (np.diag([4.0, 0.25]), np.diag([2.0, 0.5])),
    (np.diag([1e-4, 9.0]), np.diag([1e-2, 3.0])),
    (1e160 * ID2, 1e80 * ID2),
], ids=["proportional-to-identity", "diagonal-descending", "diagonal-ascending",
        "determinant-beyond-float-range"])
def test_spectral_factors_on_degenerate_and_diagonal(eta, root):
    stack = np.array([eta, eta], dtype=complex)
    got = hermitian_sqrt(stack)
    assert np.all(got[:, 0, 1] == 0) and np.all(got[:, 1, 0] == 0)
    assert_close(got, np.array([root, root]), 1e-15)
    op = MetricOperator(stack)
    assert_close(op.rho_inv, np.array([np.linalg.inv(root)] * 2), 1e-15)
    assert_close(op.eta_inv, np.array([np.linalg.inv(eta)] * 2), 1e-15)
    assert_solves_root_equation(op, np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]]), 1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_bad_rows_are_named_the_same_on_both_routes(dim):
    good = np.eye(dim, dtype=complex)
    indefinite = np.diag([1.0, -1.0, 2.0][:dim]).astype(complex)
    skew = good.copy()
    skew[0, 1] = 1e-6
    with pytest.raises(NotPositiveDefinite,
                       match=r"not positive definite \(min eigenvalue -1.000e\+00\) "
                             r"\(stack index \(2,\)\)"):
        hermitian_sqrt(np.array([good, good, indefinite, indefinite]))
    with pytest.raises(NotPositiveDefinite, match=r"not Hermitian .* \(stack index \(1, 0\)\)"):
        hermitian_sqrt(np.array([[good, good], [skew, indefinite]]))
    assert not is_positive_definite(np.array([good, indefinite]))


# ---------------------------------------------------------------- expm


def _taylor_exp(m, terms=60):
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def test_matrix_exp_against_taylor_series():
    """Series oracle on matrices of norm up to ~10 (squaring the series of
    m/16 to keep the oracle itself accurate)."""
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        m = random_complex(rng, 3)
        m = m / np.linalg.norm(m, 2) * rng.uniform(0.1, 10.0)
        oracle = np.linalg.matrix_power(_taylor_exp(m / 16.0), 16)
        got = matrix_exp(m)
        assert max_abs(got - oracle) <= 1e-12 * max(1.0, max_abs(oracle))


def test_matrix_exp_pauli_closed_form():
    # exp(i a nhat . sigma) = cos(a) 1 + i sin(a) nhat . sigma
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        a = rng.uniform(-6, 6)
        expected = np.cos(a) * ID2 + 1j * np.sin(a) * pauli_dot(n)
        np.testing.assert_allclose(matrix_exp(1j * a * pauli_dot(n)), expected,
                                   atol=1e-12)


def test_matrix_exp_unitary_for_anti_hermitian():
    rng = np.random.default_rng(SEED)
    h = random_hermitian(rng, 4)
    u = matrix_exp(-1j * h)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def _expm_each(m):
    import scipy.linalg

    return np.array([scipy.linalg.expm(x) for x in m.reshape(-1, *m.shape[-2:])]).reshape(m.shape)


def test_exp_stack_2x2_closed_form_against_scipy():
    """The closed form on random complex stacks, near q = 0 (both sides of
    the series guard and exactly nilpotent traceless parts), with q^2 < 0
    (the -i h H of a Hermitian H) and with a large trace."""
    rng = np.random.default_rng(SEED)
    random = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    random *= rng.uniform(0.01, 5.0, (200, 1, 1))
    mu = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    q2 = np.concatenate((10.0 ** rng.uniform(-20, -2, 38), [0.0, 1e-8]))
    near_zero = np.zeros((40, 2, 2), complex)  # traceless part [[0, 1], [q^2, 0]] squares to q^2
    near_zero[:, 0, 0] = near_zero[:, 1, 1] = mu
    near_zero[:, 0, 1] = 1.0
    near_zero[:, 1, 0] = q2 * np.exp(2j * np.pi * rng.uniform(size=40))
    nilpotent = np.array([[[0.3, 2.0], [0.0, 0.3]], [[1j, 0.0], [-4.0, 1j]]], complex)
    h = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    rotation = -1j * 0.7 * (h + dagger(h))  # q^2 = -(eigenvalue gap / 2)^2 < 0
    large_trace = random[:50] + 40.0 * (1.0 + 0.5j) * ID2
    for m in (random, near_zero, nilpotent, rotation, large_trace):
        expected = _expm_each(m)
        scale = np.max(np.abs(expected), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(exp_stack(m) - expected) <= 1e-13 * scale)
    q2_rotation = 0.25 * (rotation[:, 0, 0] - rotation[:, 1, 1]) ** 2 + (
        rotation[:, 0, 1] * rotation[:, 1, 0])
    assert np.all(q2_rotation.real < 0.0)


def test_exp_stack_other_sizes_go_through_scipy_expm():
    """As matrix_exp, but a non-finite matrix gives a non-finite result
    where matrix_exp refuses it."""
    rng = np.random.default_rng(SEED)
    m = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    assert np.array_equal(exp_stack(m), matrix_exp(m))
    m[2, 0, 1] = np.inf
    out = exp_stack(m)
    assert not np.isfinite(out[2]).all() and np.isfinite(np.delete(out, 2, axis=0)).all()
    with pytest.raises(DimensionMismatch):
        matrix_exp(m)


def test_2x2_matmul_multiplies_each_column_alone():
    """A 2x2 stack times two-row matrices gives each column the bits of that
    column multiplied alone, which batched initial states rely on."""
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((30, 2, 2)) + 1j * rng.standard_normal((30, 2, 2))
    b = rng.standard_normal((30, 2, 5)) + 1j * rng.standard_normal((30, 2, 5))
    whole = matmul(a, b)
    assert_close(whole, a @ b, 1e-13)
    for j in range(5):
        assert np.array_equal(whole[..., j:j + 1], matmul(a, b[..., j:j + 1].copy()))


# ---------------------------------------------------------------- differences


def test_central_difference_scalar_argument():
    for x in (-0.4, 0.0, 1.3):
        assert central_difference(np.sin, x, 1e-5) == pytest.approx(np.cos(x), abs=1e-10)


def test_central_difference_shared_step_matrix_valued():
    def f(r):
        return np.array([[np.sin(r[0]) * r[1] ** 2, 1j * r[0] * r[1]],
                         [np.exp(r[1]), 0.0]])

    r = np.array([0.3, -0.7])
    parts = central_difference(f, r, 1e-6)
    assert len(parts) == 2
    d0 = np.array([[np.cos(r[0]) * r[1] ** 2, 1j * r[1]], [0.0, 0.0]])
    d1 = np.array([[2.0 * np.sin(r[0]) * r[1], 1j * r[0]], [np.exp(r[1]), 0.0]])
    np.testing.assert_allclose(parts[0], d0, atol=1e-9)
    np.testing.assert_allclose(parts[1], d1, atol=1e-9)


def test_central_difference_per_coordinate_steps():
    # for a cubic the central difference is exact up to h^2: 3 x^2 + h^2
    r = np.array([2.0, -0.5])
    steps = np.maximum(1e-2 * np.abs(r), 1e-3)

    def f(x):
        return x[0] ** 3 + x[1] ** 3

    parts = central_difference(f, r, steps)
    for a in range(2):
        assert parts[a] == pytest.approx(3.0 * r[a] ** 2 + steps[a] ** 2, rel=1e-9)


def test_contract_matches_accumulation_from_zeros():
    rng = np.random.default_rng(SEED)
    mats = [random_complex(rng, 3) for _ in range(3)]
    v = rng.standard_normal(3)
    expected = np.zeros_like(mats[0])
    for a in range(3):
        expected = expected + v[a] * mats[a]
    assert np.array_equal(contract(v, mats), expected)
    np.testing.assert_allclose(contract(v, mats), np.einsum("a,aij->ij", v, mats), atol=1e-14)
    # starting from zeros turns a negative zero product into +0.0
    out = contract([-1.0], [np.zeros((2, 2))])
    assert not np.any(np.signbit(out))

