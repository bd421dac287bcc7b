"""Eigensolver, characteristic polynomials, determinants and comparison helpers."""

import math
import random

import numpy as np
import pytest

from absspectra import (
    Graph,
    NoConvergenceError,
    adjacency_matrix,
    char_poly,
    det_lu,
    eigenvalues_symmetric,
    generate,
    multiset_close,
    poly_close,
    poly_from_roots,
)
from absspectra.linalg import multiset_deviation, poly_deviation, poly_eval, poly_mul, poly_trim
from absspectra.spectra import abs_matrix


def _random_symmetric(rng, n, scale=1.0):
    r = np.array([[rng.gauss(0, scale) for _ in range(n)] for _ in range(n)])
    return (r + r.T) / 2.0


def test_eigenvalues_2x2_swap():
    np.testing.assert_allclose(eigenvalues_symmetric([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0], atol=1e-12)


def test_eigenvalues_k3():
    np.testing.assert_allclose(
        eigenvalues_symmetric(adjacency_matrix(generate("complete", 3))), [-1.0, -1.0, 2.0], atol=1e-12
    )


def test_eigenvalues_c4():
    np.testing.assert_allclose(
        eigenvalues_symmetric(adjacency_matrix(generate("cycle", 4))), [-2.0, 0.0, 0.0, 2.0], atol=1e-12
    )


def test_eigenvalues_edge_cases():
    assert eigenvalues_symmetric(np.zeros((0, 0))).size == 0
    np.testing.assert_array_equal(eigenvalues_symmetric([[3.5]]), [3.5])


def test_eigenvalues_validation():
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues_symmetric([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="NaN"):
        eigenvalues_symmetric([[math.nan, 0.0], [0.0, 1.0]])


def test_eigenvalues_sweep_cap():
    rng = random.Random(1)
    for n in (5, 6):
        with pytest.raises(NoConvergenceError):
            eigenvalues_symmetric(_random_symmetric(rng, n), sweep_cap=0)


def _cyclic_jacobi_reference(matrix):
    """Scalar cyclic Jacobi: the same rotations and stopping rule, one (p, q) at a time."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    target = 1e-12 * max(1.0, math.sqrt(float(np.sum(a * a))))
    tiny = target / (n * n + 1)

    def offdiag_norm():
        off = a - np.diag(np.diag(a))
        return math.sqrt(float(np.sum(off * off)))

    for _ in range(100):
        if offdiag_norm() <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tiny:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rowp, rowq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rowp - s * rowq
                a[q, :] = s * rowp + c * rowq
                colp, colq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * colp - s * colq
                a[:, q] = s * colp + c * colq
                a[p, q] = a[q, p] = 0.0
    else:
        if offdiag_norm() > target:
            raise NoConvergenceError("reference did not converge within 100 sweeps")
    return np.sort(np.diag(a))


def _solver_test_matrices(n, rng):
    """Random, graph (ABS and adjacency), zero, diagonal and below-skip-threshold matrices of order n."""
    half = n // 2
    graphs = [
        generate("complete", n),
        generate("path", n),
        generate("complete_bipartite", half, n - half),
        # two disjoint equal paths (plus an isolated vertex when n is odd): every eigenvalue repeats
        Graph(n, [(i, i + 1) for i in range(half - 1)] + [(half + i, half + i + 1) for i in range(half - 1)]),
    ]
    if n >= 3:
        graphs.append(generate("cycle", n))
    mats = [_random_symmetric(rng, n, scale=3.0), np.zeros((n, n)), np.diag([rng.gauss(0, 5) for _ in range(n)])]
    for g in graphs:
        mats.extend((abs_matrix(g), adjacency_matrix(g)))
    # off-diagonals below 1e-12 * ||M||_F / (n^2 + 1): every pivot is skipped
    small = np.diag(np.arange(1.0, n + 1.0))
    small[np.triu_indices(n, 1)] = 1e-16
    mats.append(np.triu(small) + np.triu(small, 1).T)
    return mats


@pytest.mark.parametrize("n", list(range(2, 41)) + [64, 100])
def test_eigenvalues_match_cyclic_reference_and_eigvalsh(n):
    rng = random.Random(1000 + n)
    for m in _solver_test_matrices(n, rng):
        tol = 1e-11 * max(1.0, float(np.linalg.norm(m)))
        before = m.copy()
        eigs = eigenvalues_symmetric(m)
        np.testing.assert_array_equal(m, before)
        assert eigs.shape == (n,) and np.all(np.diff(eigs) >= 0)
        assert np.max(np.abs(eigs - np.linalg.eigvalsh(m))) <= tol
        assert np.max(np.abs(eigs - _cyclic_jacobi_reference(m))) <= tol


def test_eigenvalues_match_mpmath_50_digits():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2024)
    with mpmath.workdps(50):
        for n in range(2, 13):
            m = _random_symmetric(rng, n)
            exact = sorted(float(x) for x in mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True))
            tol = 1e-11 * max(1.0, float(np.linalg.norm(m)))
            assert np.max(np.abs(eigenvalues_symmetric(m) - exact)) <= tol


def test_eigenvalues_match_numpy_and_trace():
    rng = random.Random(101)
    for n in (2, 3, 5, 8, 12, 20):
        m = _random_symmetric(rng, n, scale=3.0)
        eigs = eigenvalues_symmetric(m)
        np.testing.assert_allclose(eigs, np.sort(np.linalg.eigvalsh(m)), atol=1e-10)
        trace_tol = 1e-9 * n * np.max(np.abs(m))
        assert abs(math.fsum(eigs.tolist()) - math.fsum(np.diag(m).tolist())) <= trace_tol


def test_char_poly_k3():
    np.testing.assert_allclose(
        char_poly(adjacency_matrix(generate("complete", 3))), [-2.0, -3.0, 0.0, 1.0], atol=1e-12
    )


def test_char_poly_zero_matrix():
    np.testing.assert_array_equal(char_poly(np.zeros((3, 3))), [0.0, 0.0, 0.0, 1.0])


def test_char_poly_abs_p3():
    np.testing.assert_allclose(
        char_poly(abs_matrix(generate("path", 3))), [0.0, -2.0 / 3.0, 0.0, 1.0], atol=1e-12
    )


def test_char_poly_order_cap():
    with pytest.raises(ValueError, match="cap"):
        char_poly(np.eye(65))


def test_char_poly_rejects_nonfinite():
    with pytest.raises(ValueError, match="NaN"):
        char_poly([[1.0, math.inf], [math.inf, 1.0]])


def test_char_poly_small_orders():
    np.testing.assert_array_equal(char_poly(np.zeros((0, 0))), [1.0])
    np.testing.assert_allclose(char_poly([[2.5]]), [-2.5, 1.0])


def test_poly_from_roots_and_eval():
    np.testing.assert_allclose(poly_from_roots([1.0, -1.0]), [-1.0, 0.0, 1.0], atol=1e-15)
    p = poly_from_roots([2.0, 3.0])
    assert poly_eval(p, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert poly_eval(p, 0.0) == pytest.approx(6.0)


def test_poly_trim_and_mul():
    np.testing.assert_array_equal(poly_trim([1.0, 2.0, 0.0, 0.0]), [1.0, 2.0])
    np.testing.assert_array_equal(poly_trim([0.0, 0.0]), [0.0])
    np.testing.assert_array_equal(poly_mul([1.0, 1.0], [-1.0, 1.0]), [-1.0, 0.0, 1.0])


def test_multiset_close():
    assert multiset_close([0.0, 1.0], [1.0, 1e-13], 1e-9)
    assert not multiset_close([0.0, 1.0], [1.0, 1e-3], 1e-9)
    with pytest.raises(ValueError, match="mismatch"):
        multiset_close([0.0], [0.0, 1.0], 1e-9)
    assert multiset_deviation([], []) == 0.0


def test_poly_close_padding_and_scale():
    assert poly_close([1.0, 2.0], [1.0, 2.0, 1e-12], 1e-9)
    # deviation is measured relative to the largest coefficient magnitude
    assert poly_close([1e6, 0.0, 1.0], [1e6 + 0.5, 0.0, 1.0], 1e-6)
    assert not poly_close([1.0], [2.0], 1e-9)


def test_two_charpoly_routes_agree():
    # poly_from_roots(eigenvalues(M)) and Faddeev-LeVerrier are independent paths
    rng = random.Random(7)
    for n in range(1, 11):
        m = _random_symmetric(rng, n)
        assert poly_deviation(poly_from_roots(eigenvalues_symmetric(m)), char_poly(m)) <= 1e-8


def test_det_lu_against_numpy():
    rng = random.Random(55)
    for n in (1, 2, 4, 6, 9):
        m = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        assert det_lu(m) == pytest.approx(float(np.linalg.det(m)), rel=1e-9, abs=1e-12)
    singular = np.ones((3, 3))
    assert det_lu(singular) == pytest.approx(0.0, abs=1e-12)


def test_schur_complement_determinant_identity():
    # |[[M, N], [P, Q]]| = |M| * |Q - P M^-1 N| for invertible M
    rng = random.Random(77)
    for n in range(1, 7):
        m = _random_symmetric(rng, n) + 4.0 * n * np.eye(n)  # diagonally dominant
        nn = _random_symmetric(rng, n)
        p = _random_symmetric(rng, n)
        q = _random_symmetric(rng, n) + 4.0 * n * np.eye(n)
        block = np.block([[m, nn], [p, q]])
        lhs = det_lu(block)
        rhs = det_lu(m) * det_lu(q - p @ np.linalg.solve(m, nn))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_kron_examples():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(np.kron(np.eye(2), b), np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), b]]))
    np.testing.assert_array_equal(np.kron([[2.0]], b), 2.0 * b)


def test_kron_eigenvalue_product_rule():
    # eigenvalues of kron(A, B) are all pairwise products
    a = np.ones((2, 2))
    k2 = adjacency_matrix(generate("complete", 2))
    np.testing.assert_allclose(eigenvalues_symmetric(np.kron(a, k2)), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    rng = random.Random(99)
    for na, nb in ((2, 3), (3, 4), (4, 5), (6, 6)):
        ma = _random_symmetric(rng, na)
        mb = _random_symmetric(rng, nb)
        ea = eigenvalues_symmetric(ma)
        eb = eigenvalues_symmetric(mb)
        products = sorted(float(x * y) for x in ea for y in eb)
        np.testing.assert_allclose(eigenvalues_symmetric(np.kron(ma, mb)), products, atol=1e-9)
