"""Eigensolver, characteristic polynomials, determinants and comparison helpers."""

import math
import random
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from absspectra import (
    Graph,
    NoConvergenceError,
    adjacency_matrix,
    apply_transform,
    char_poly,
    det_lu,
    eigenvalues_symmetric,
    generate,
)
from absspectra import linalg
from absspectra.linalg import multiset_deviation, poly_deviation
from absspectra.spectra import abs_matrix
from absspectra.transforms import TRANSFORM_KINDS
from absspectra.verifier import default_suite


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


def test_eigenvalues_order_cap():
    cap = linalg._JACOBI_ORDER_CAP
    np.testing.assert_array_equal(eigenvalues_symmetric(np.zeros((cap, cap))), np.zeros(cap))
    with pytest.raises(ValueError, match="eigensolver cap"):
        eigenvalues_symmetric(np.zeros((cap + 1, cap + 1)))


def test_eigenvalues_sweep_cap(monkeypatch):
    rng = random.Random(1)
    monkeypatch.setattr(linalg, "_JACOBI_SWEEP_CAP", 0)
    for n in (5, 6):
        with pytest.raises(NoConvergenceError):
            eigenvalues_symmetric(_random_symmetric(rng, n))


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


def _round_robin_reference(matrix):
    """The solver's rounds with none skipped, the permutation as an ``np.ix_`` index.

    A round whose pivots are all below ``tiny`` rotates by identities, so the
    solver may skip it only if that changes no bit of the result.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    target = 1e-12 * max(1.0, math.sqrt(float(np.sum(a * a))))
    tiny = target / (n * n + 1)
    order = n + n % 2
    half = order // 2
    b = np.zeros((order, order))
    b[:n, :n] = a
    ring = np.r_[2:order:2, order - 1 : 0 : -2]
    step = np.arange(order)
    step[ring] = np.roll(ring, 1)
    p, q = np.arange(0, order, 2), np.arange(1, order, 2)
    rot = np.empty((half, 2, 2))
    for _ in range(100):
        off = b - np.diag(np.diag(b))
        if math.sqrt(float(np.sum(off * off))) <= target:
            break
        for _ in range(order - 1):
            d, g = b[q, q] - b[p, p], 2.0 * b[p, q]
            active = np.abs(b[p, q]) > tiny
            t = np.zeros(half)
            t[active] = g[active] / (d + np.copysign(np.hypot(d, g), d))[active]
            c = 1.0 / np.hypot(t, 1.0)
            rot[:, 0, 0] = rot[:, 1, 1] = c
            rot[:, 0, 1] = -t * c
            rot[:, 1, 0] = t * c
            b = (rot @ b.reshape(half, 2, order)).reshape(order, order)
            b = (rot @ b.T.reshape(half, 2, order)).reshape(order, order)
            b[p[active], q[active]] = b[q[active], p[active]] = 0.0
            b = b[np.ix_(step, step)]
    return np.sort(np.diag(b)[:n])


def _solver_test_matrices(n, rng):
    """Random, graph (ABS and adjacency), zero, diagonal, below-skip-threshold and block-diagonal matrices of order n, by name."""
    half = n // 2
    two_paths = [(i, i + 1) for i in range(half - 1)] + [(half + i, half + i + 1) for i in range(half - 1)]
    graphs = {
        "complete": generate("complete", n),
        "path": generate("path", n),
        "complete_bipartite": generate("complete_bipartite", half, n - half),
        # two disjoint equal paths (plus an isolated vertex when n is odd): every eigenvalue repeats
        "two paths": Graph(n, two_paths),
    }
    if n >= 3:
        graphs["cycle"] = generate("cycle", n)
    mats = {
        "random": _random_symmetric(rng, n, scale=3.0),
        "zero": np.zeros((n, n)),
        "diagonal": np.diag([rng.gauss(0, 5) for _ in range(n)]),
    }
    for name, g in graphs.items():
        mats[f"{name} abs"] = abs_matrix(g)
        mats[f"{name} adjacency"] = adjacency_matrix(g)
    # off-diagonals below 1e-12 * ||M||_F / (n^2 + 1): every pivot is skipped
    small = np.diag(np.arange(1.0, n + 1.0))
    small[np.triu_indices(n, 1)] = 1e-16
    mats["below skip threshold"] = np.triu(small) + np.triu(small, 1).T
    # 2x2 blocks on the first round's pairs (0, 1), (2, 3), ...: that round
    # diagonalizes every block, so no later round of the sweep has an active pivot
    block = np.diag([rng.gauss(0, 3) for _ in range(n)])
    for p in range(0, n - 1, 2):
        block[p, p + 1] = block[p + 1, p] = rng.gauss(0, 3)
    mats["block diagonal"] = block
    return mats


# At orders 64 and 100 the scalar reference takes 0.1-0.8 s per dense matrix on a
# 2-vCPU Xeon, so these matrices skip it there; eigvalsh still checks them, and the
# reference checks them at orders 2-40. C_n and K_{n/2,n/2} (n even) are regular,
# so their adjacency matrices are scalar multiples of their ABS matrices and Jacobi
# runs the same rotations on both. The two-paths ABS matrix keeps the reference
# for the repeated-eigenvalue case.
_REFERENCE_ONLY_UP_TO_40 = {
    "path abs",
    "path adjacency",
    "complete_bipartite adjacency",
    "two paths adjacency",
    "cycle abs",
    "cycle adjacency",
}


@pytest.mark.parametrize("n", list(range(2, 41)) + [64, 100])
def test_eigenvalues_match_cyclic_reference_and_eigvalsh(n):
    rng = random.Random(1000 + n)
    for name, m in _solver_test_matrices(n, rng).items():
        tol = 1e-11 * max(1.0, float(np.linalg.norm(m)))
        before = m.copy()
        eigs = eigenvalues_symmetric(m)
        np.testing.assert_array_equal(m, before)
        assert eigs.shape == (n,) and np.all(np.diff(eigs) >= 0)
        assert np.max(np.abs(eigs - np.linalg.eigvalsh(m))) <= tol
        if n <= 40 or name not in _REFERENCE_ONLY_UP_TO_40:
            assert np.max(np.abs(eigs - _cyclic_jacobi_reference(m))) <= tol


@pytest.mark.parametrize("n", list(range(2, 41)) + [64, 100])
def test_skipped_rounds_change_no_bit(n):
    for name, m in _solver_test_matrices(n, random.Random(1000 + n)).items():
        np.testing.assert_array_equal(eigenvalues_symmetric(m), _round_robin_reference(m), err_msg=name)


def _stack_members(n, rng):
    """Matrices of order n to solve as one stack, by name; "diagonal" needs no sweep."""
    if n == 1:
        return {"diagonal": np.array([[2.5]]), "zero": np.zeros((1, 1)), "negative": np.array([[-1.0]])}
    return _solver_test_matrices(n, rng)


@pytest.mark.parametrize("n", range(1, 41))
def test_stacked_members_equal_their_solo_solves(n):
    members = list(_stack_members(n, random.Random(3000 + n)).values())
    stack = np.stack(members)
    before = stack.copy()
    rows = eigenvalues_symmetric(stack)
    np.testing.assert_array_equal(stack, before)
    assert rows.shape == (len(members), n)
    for row, m in zip(rows, members):
        assert np.array_equal(row, eigenvalues_symmetric(m))
    # a member's place in the stack changes no bit either
    assert np.array_equal(eigenvalues_symmetric(stack[::-1]), rows[::-1])


def _sweeps_needed(matrix):
    """Fewest sweeps that bring ``matrix``, or every member of a stack, to its target."""
    for cap in range(linalg._JACOBI_SWEEP_CAP + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_JACOBI_SWEEP_CAP", cap)
            try:
                eigenvalues_symmetric(matrix)
            except NoConvergenceError:
                continue
        return cap


@pytest.mark.parametrize("n", [2, 5, 16, 33])
def test_stack_runs_until_its_slowest_member_converges(n):
    members = _stack_members(n, random.Random(3000 + n))
    needed = {name: _sweeps_needed(m) for name, m in members.items()}
    # the diagonal member rides along for every sweep the random one needs
    assert needed["diagonal"] == 0 < needed["random"] == max(needed.values())
    assert _sweeps_needed(np.stack(list(members.values()))) == needed["random"]


def test_stack_validation_and_caps(monkeypatch):
    rng = random.Random(7)
    good = _random_symmetric(rng, 4)
    nan = good.copy()
    nan[1, 2] = nan[2, 1] = math.nan
    asymmetric = good.copy()
    asymmetric[0, 3] += 1.0
    for bad, message in ((nan, "NaN"), (asymmetric, "symmetric")):
        with pytest.raises(ValueError, match=message):
            eigenvalues_symmetric(np.stack([good, bad]))
    for shape in ((2, 3, 4), (1, 2, 3, 3), (3,)):
        with pytest.raises(ValueError, match="square"):
            eigenvalues_symmetric(np.zeros(shape))
    with monkeypatch.context() as mp, pytest.raises(NoConvergenceError):
        mp.setattr(linalg, "_JACOBI_SWEEP_CAP", 1)
        eigenvalues_symmetric(np.stack([np.diag([1.0, 2.0, 3.0, 4.0]), good]))
    assert eigenvalues_symmetric(np.zeros((0, 4, 4))).shape == (0, 4)
    cap = linalg._JACOBI_ORDER_CAP
    np.testing.assert_array_equal(eigenvalues_symmetric(np.zeros((2, cap, cap))), np.zeros((2, cap)))
    with pytest.raises(ValueError, match="eigensolver cap"):
        eigenvalues_symmetric(np.zeros((2, cap + 1, cap + 1)))


def _seed_eigenvalues(matrix):
    """eigenvalues_symmetric before its round loop kept its views and scratch across rounds.

    Validation is left out; from ``stack`` on it is the old body, with module
    names qualified, the comments of the round loop dropped and the body of
    the old ``linalg._offdiag_norm`` written into ``above_target``.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[-1]
    if n < 2 or a.size == 0:
        return a.diagonal(axis1=-2, axis2=-1).copy()
    stack = a.reshape(-1, n, n)
    k = stack.shape[0]

    target = [linalg._JACOBI_RTOL * max(1.0, math.sqrt(float(np.sum(m * m)))) for m in stack]
    order = n + n % 2
    half = order // 2
    sq = order * order
    tiny = np.repeat(np.divide(target, n * n + 1), half).reshape(k, half)
    tiny_pairs = tiny.reshape(-1)
    stride = 2 * order + 2
    b = np.zeros((k, sq + order))
    b[:, :sq].reshape(k, order, order)[:, :n, :n] = stack
    perm, perm_t = linalg._round_robin_step(order)
    rot = np.empty((k * half, 2, 2))
    rot4 = rot.reshape(-1, 4)  # each pair's block is c, -s, s, c
    rot = rot.reshape(k, half, 2, 2)
    b_flat = b.reshape(-1)
    b_pairs = b[:, :sq].reshape(k, half, 2, order)
    rows = np.empty((k, half, 2, order))
    rows_t = rows.reshape(k, order, order).transpose(0, 2, 1).reshape(k, half, 2, order)
    cols = np.zeros((k, sq + order))
    cols_flat = cols.reshape(-1)
    cols_pairs = cols[:, :sq].reshape(k, half, 2, order)

    def above_target(j):
        m = b[j, :sq].reshape(order, order)
        off = m - np.diag(np.diag(m))
        return math.sqrt(float(np.sum(off * off))) > target[j]

    live = list(range(k))  # members still above their target
    for _ in range(linalg._JACOBI_SWEEP_CAP):
        settled = [j for j in live if not above_target(j)]
        live = [j for j in live if j not in settled]
        if not live:
            break
        tiny[settled] = math.inf
        for _ in range(order - 1):
            apq = b_flat[1::stride]
            active = np.abs(apq) > tiny_pairs
            if not active.any():
                np.take(b, perm_t, axis=1, out=cols, mode="wrap")
                np.copyto(b, cols)
                continue
            d = b_flat[order + 1 :: stride] - b_flat[0::stride]
            g = 2.0 * apq
            t = np.divide(g, d + np.copysign(np.hypot(d, g), d), out=np.zeros(k * half), where=active)
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            rot4.T[:] = c, -s, s, c
            np.matmul(rot, b_pairs, out=rows)
            np.matmul(rot, rows_t, out=cols_pairs)
            cols_flat[1::stride][active] = 0.0
            cols_flat[order::stride][active] = 0.0
            np.take(cols, perm, axis=1, out=b, mode="wrap")
    else:
        if any(above_target(j) for j in live):
            raise NoConvergenceError("seed kernel did not converge")
    eigs = np.sort(b[:, : sq : order + 1][:, :n])
    return eigs if a.ndim == 3 else eigs[0]


def _stack_at_its_targets(rng, n, k):
    """A stack, stored member axis last, whose members sit one ulp of off-norm above their targets.

    Each member is diagonal but for the pair (0, 1) over two equal diagonal
    entries, so it rotates once, moving two eigenvalues by the pair's size,
    only if its off-norm exceeds its target: a target computed a bit too
    high, say by summing the squares in another order, leaves them in place.
    """
    members = []
    for _ in range(k):
        m = np.diag([1.0, 1.0] + [rng.gauss(0, 3) for _ in range(n - 2)])
        target = linalg._JACOBI_RTOL * max(1.0, math.sqrt(float(np.sum(m * m))))
        p = target / math.sqrt(2.0)
        while math.sqrt(2.0 * p * p) <= target:
            p = math.nextafter(p, math.inf)
        m[0, 1] = m[1, 0] = p
        members.append(m)
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(np.stack(members), 0, -1)), -1, 0)


def _bit_identity_inputs():
    """Single matrices and stacks: the default corpus and its transforms, random and mixed-convergence
    input, and the same kind of input in other memory layouts: Fortran order, transposed views, strided
    slices, transposed stacks and stacks stored member axis last."""
    graphs = []
    for graph, params in default_suite():
        graphs.append(graph)
        graphs += [apply_transform(kind, graph, params["k"]) for kind in TRANSFORM_KINDS]
    singles = [f(g) for g in graphs for f in (abs_matrix, adjacency_matrix)]
    rng = random.Random(4242)
    singles += [_random_symmetric(rng, n, scale=3.0) for n in range(1, 61)]
    by_order = {}
    for m in singles:
        by_order.setdefault(m.shape[0], []).append(m)
    stacks = [np.stack(ms) for ms in by_order.values() if len(ms) > 1]
    for n in (9, 10):  # settled from the start, fast and slow members side by side
        stacks.append(np.stack(list(_stack_members(n, random.Random(5000 + n)).values())))
    stacks.append(np.zeros((0, 5, 5)))
    rng = random.Random(4343)
    for n in range(1, 31):
        m, other, big = (_random_symmetric(rng, size, scale=3.0) for size in (n, n, 2 * n))
        singles += [np.asfortranarray(m), other.T, big[::2, ::2]]
        stack = np.stack([m, big[::2, ::2], np.diag(np.diag(other)), other])
        stacks += [stack.transpose(0, 2, 1), np.asfortranarray(stack), stack[::-1, ::-1, ::-1], stack[:, ::2, ::2]]
    stacks += [_stack_at_its_targets(rng, 24, 4) for _ in range(4)]
    # Dense members of even order rotate every pair in their first rounds, those
    # of odd order never rotate the padding pair; a diagonal member settles at
    # once, so beside live ones its pairs are skipped in every round.
    rng = random.Random(4444)
    for n in (2, 3, 4, 7, 16, 17, 32, 33, 44):
        dense = [_random_symmetric(rng, n, scale=3.0) for _ in range(3)]
        signed = _signed_zeros(rng, n)
        singles += [dense[0], signed]
        stacks += [np.stack(dense), np.stack([dense[1], signed]), np.stack([dense[2], np.diag(np.diag(signed))])]
    return singles, stacks


def _signed_zeros(rng, n):
    """A symmetric matrix with +0.0, -0.0 pairs on its diagonal and -0.0 for a third of its off-diagonal entries.

    The first round pairs (0, 1), (2, 3), ..., and their pivots are kept live,
    so d = a_qq - a_pp = -0.0 at a rotating pair and the angle's sign comes
    from copysign; an off-diagonal -0.0 is a skipped pivot.
    """
    m = _random_symmetric(rng, n, scale=3.0)
    m[np.diag_indices(n)] = [(0.0, -0.0)[i % 2] if i % 6 < 4 else m[i, i] for i in range(n)]
    for p, q in zip(*np.triu_indices(n, 1)):
        if (p % 2, q) != (0, p + 1) and rng.random() < 1 / 3:
            m[p, q] = m[q, p] = -0.0
    return m


def test_bit_identity_inputs_drive_every_round_form(monkeypatch):
    # Each round counts its rotating pairs once: none (the permutation alone),
    # some (masked divide and write) or all (unmasked).
    forms = set()
    count_nonzero = np.count_nonzero

    def counted(active):
        rotating = count_nonzero(active)
        forms.add("none" if not rotating else "all" if rotating == active.size else "some")
        return rotating

    monkeypatch.setattr(np, "count_nonzero", counted)
    singles, stacks = _bit_identity_inputs()
    for m in singles + stacks:
        eigenvalues_symmetric(m)
    assert forms == {"none", "some", "all"}


def test_eigenvalues_bit_identical_to_seed_round_loop():
    singles, stacks = _bit_identity_inputs()
    assert len(singles) >= 250 and len(stacks) >= 20
    for m in singles + stacks:
        got, want = eigenvalues_symmetric(m), _seed_eigenvalues(m)
        assert got.shape == want.shape and np.array_equal(got, want), m.shape


@pytest.mark.parametrize("n", [9, 10])
def test_sweep_cap_boundary_matches_seed(n):
    members = _stack_members(n, random.Random(5000 + n))
    for m in (members["random"], np.stack(list(members.values()))):
        needed = _sweeps_needed(m)
        assert needed > 1
        for cap in range(needed + 1):
            results = []
            for solve in (eigenvalues_symmetric, _seed_eigenvalues):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(linalg, "_JACOBI_SWEEP_CAP", cap)
                    try:
                        results.append(solve(m))
                    except NoConvergenceError:
                        results.append(None)
            got, want = results
            assert (got is None) == (want is None) == (cap < needed), cap
            assert got is None or np.array_equal(got, want)


def test_results_are_fresh_arrays():
    # Buffers reused across rounds must not leak into, or be shared between, results.
    rng = np.random.default_rng(12)
    for shape in ((1, 1), (6, 6), (7, 7), (3, 8, 8)):
        x = rng.standard_normal(shape)
        m = x + x.swapaxes(-1, -2)
        first = eigenvalues_symmetric(m)
        kept = first.copy()
        second = eigenvalues_symmetric(2.0 * m)
        assert np.array_equal(first, kept) and np.array_equal(second, 2.0 * kept)
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second) and not np.shares_memory(first, m)
        second[...] = 0.0
        assert np.array_equal(eigenvalues_symmetric(m), kept)


def test_overflowing_norm_is_refused():
    big = np.array([[0.0, 1e160], [1e160, 0.0]])
    with pytest.raises(ValueError, match="Frobenius norm overflows"):
        eigenvalues_symmetric(big)
    with pytest.raises(ValueError, match="Frobenius norm overflows"):
        eigenvalues_symmetric(np.stack([np.eye(2), big, np.eye(2)]))
    # squares that still sum to a finite norm solve as before
    np.testing.assert_array_equal(eigenvalues_symmetric(big * 1e-7), _seed_eigenvalues(big * 1e-7))


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


@pytest.mark.parametrize("action", ["always", "error"])
def test_complex_and_text_input_is_refused_whatever_the_warning_filter(action):
    # casting to float would drop the imaginary part: the eigenvalues of this matrix are -1 and 1
    hermitian = np.array([[0, 1j], [-1j, 0]])
    text = [["1", "0"], ["0", "1"]]
    calls = [
        (eigenvalues_symmetric, hermitian),
        (eigenvalues_symmetric, np.stack([hermitian, hermitian])),
        (char_poly, hermitian),
        (det_lu, hermitian),
        (det_lu, text),
        (linalg.solve_lu, hermitian, np.eye(2)),
        (linalg.solve_lu, 2.0 * np.eye(2), np.eye(2) + 1j),
        (linalg.solve_lu, 2.0 * np.eye(2), text),
        (multiset_deviation, [1.0, 2j], [1.0, 0.0]),
        (poly_deviation, [1.0, 0.0], [1.0, 1j]),
        # a 1-D complex right-hand side has the wrong shape too, but its dtype is named
        (linalg.solve_lu, 2.0 * np.eye(2), [1.0, 1j]),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        for f, *args in calls:
            with pytest.raises(ValueError, match=r"must be real numbers, got dtype (complex128|<U1)$"):
                f(*args)
        # real input of any numeric dtype is still read as float
        assert det_lu(np.array([[2, 1], [1, 2]], dtype=np.int8)) == pytest.approx(3.0)
        assert linalg.solve_lu(np.eye(2, dtype=bool), [[3], [4]])[1].tolist() == [[3.0], [4.0]]
    assert caught == []


@pytest.mark.parametrize("action", ["always", "error"])
def test_object_input_of_real_numbers_is_read_as_float(action):
    decimals = [[Decimal(2), Decimal(1)], [Decimal(1), Decimal(2)]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert multiset_deviation([2**64], [2.0**64]) == 0.0
        assert poly_deviation([Fraction(1, 2)], [0.5]) == 0.0
        assert det_lu(decimals) == pytest.approx(3.0)
        assert eigenvalues_symmetric(decimals).tolist() == pytest.approx([1.0, 3.0])
        # a complex or text element in an object array is refused like a complex dtype
        for values in ([Fraction(1, 2), 1j], [2**64, np.complex128(1)], [2**64, "1"], [2**64, None]):
            with pytest.raises(ValueError, match=r"must be real numbers, got an element of type \w+$"):
                multiset_deviation(values, [0.0, 0.0])
        with pytest.raises(ValueError, match="beyond the float range"):
            poly_deviation([10**400], [0.0])
    assert caught == []


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


def _char_poly_two_branch(matrix):
    """Faddeev-LeVerrier with an order-0 return and its first step unrolled, M_1 = M."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    if n == 0:
        return coeffs
    mk = a.copy()
    c = -math.fsum(mk.diagonal().tolist())
    coeffs[n - 1] = c
    eye = np.eye(n)
    for k in range(2, n + 1):
        mk = a @ (mk + c * eye)
        c = -math.fsum(mk.diagonal().tolist()) / k
        coeffs[n - k] = c
    return coeffs


def test_char_poly_from_its_initial_values_keeps_every_bit():
    # M_1 = M (0 + 1 I) differs from M only in the signs of zeros, which no trace keeps
    rng = np.random.default_rng(35)
    matrices = []
    for n in range(65):
        general = rng.standard_normal((n, n)) * 10.0 ** int(rng.integers(-2, 3))
        upper = np.triu(rng.integers(0, 2, (n, n)), 1).astype(float)
        signed_zeros = rng.standard_normal((n, n))
        signed_zeros[rng.random((n, n)) < 0.4] = -0.0
        matrices += [general, (general + general.T) / 2.0, upper + upper.T, signed_zeros, np.full((n, n), -0.0)]
    for kind, order in (("cycle", 16), ("path", 32), ("complete", 10), ("complete", 64)):
        graph = generate(kind, order)
        matrices += [abs_matrix(graph), adjacency_matrix(graph)]
    for m in matrices:
        got, want = char_poly(m), _char_poly_two_branch(m)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_multiset_close():
    assert multiset_deviation([0.0, 1.0], [1.0, 1e-13]) <= 1e-9
    assert multiset_deviation([0.0, 1.0], [1.0, 1e-3]) > 1e-9
    with pytest.raises(ValueError, match="mismatch"):
        multiset_deviation([0.0], [0.0, 1.0])
    assert multiset_deviation([], []) == 0.0
    # a multiset is one 1-D sequence: a matrix or a lone number is refused by its shape
    with pytest.raises(ValueError, match=r"^multiset must be a 1-D sequence of real numbers, got shape \(2, 2\)$"):
        multiset_deviation([[1, 2], [3, 4]], [[3, 4], [1, 2]])
    with pytest.raises(ValueError, match=r"^multiset must be a 1-D sequence of real numbers, got shape \(\)$"):
        multiset_deviation(3.0, 3.0)
    # 1-D input keeps its values, whatever its element type
    assert multiset_deviation([3, 1, 2], [1.0, 2.0, 3.5]) == 0.5
    thirds = np.array([Fraction(1, 3), Fraction(-2, 3)], dtype=object)
    assert multiset_deviation(thirds, [-2 / 3, 1 / 3]) == 0.0


def test_poly_close_padding_and_scale():
    assert poly_deviation([1.0, 2.0], [1.0, 2.0, 1e-12]) <= 1e-9
    # deviation is measured relative to the largest coefficient magnitude
    assert poly_deviation([1e6, 0.0, 1.0], [1e6 + 0.5, 0.0, 1.0]) <= 1e-6
    assert poly_deviation([1.0], [2.0]) > 1e-9
    # a bare number is a constant polynomial, and two empty sequences do not differ
    assert poly_deviation(3.0, [3.0]) == 0.0
    assert poly_deviation([], []) == 0.0
    # input of 2 or more dimensions is refused by its shape, not read as a polynomial
    expected = r"^polynomial coefficients must be a 1-D sequence of real numbers, got shape "
    with pytest.raises(ValueError, match=expected + r"\(1, 2\)$"):
        poly_deviation([[1, 2]], [1, 2])
    with pytest.raises(ValueError, match=expected + r"\(2, 2\)$"):
        poly_deviation([[1, 2], [3, 4]], [[3, 4], [1, 2]])


def _zero_padded_poly_deviation(p, q):
    """poly_deviation as it was written before it padded through np.polysub."""
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    size = max(pv.size, qv.size, 1)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: pv.size] = pv
    qq[: qv.size] = qv
    scale = max(1.0, float(np.max(np.abs(pp))), float(np.max(np.abs(qq))))
    return float(np.max(np.abs(pp - qq))) / scale


def test_poly_deviation_matches_zero_padding_bit_for_bit():
    rng = np.random.default_rng(61)
    # signed zeros, subnormals, values near the float range and the non-finite values
    specials = np.array(
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308, 1.0, -1.0, math.inf, -math.inf, math.nan]
    )

    def side():
        if rng.random() < 0.1:
            return float(rng.choice(specials)) if rng.random() < 0.5 else float(rng.standard_normal())
        size = int(rng.integers(0, 71))
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
        picks = rng.random(size) < 0.3
        values[picks] = rng.choice(specials, int(picks.sum()))
        return values.tolist()

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2000):
            p = side()
            q = p if rng.random() < 0.1 else side()
            got, want = poly_deviation(p, q), _zero_padded_poly_deviation(p, q)
            assert type(got) is type(want) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (p, q)


def test_two_charpoly_routes_agree():
    # np.poly(eigenvalues(M)) and Faddeev-LeVerrier are independent paths
    rng = random.Random(7)
    for n in range(1, 11):
        m = _random_symmetric(rng, n)
        assert poly_deviation(np.poly(eigenvalues_symmetric(m))[::-1], char_poly(m)) <= 1e-8


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


def _det_by_rows(matrix):
    """det_lu as it was written before its elimination loop was shared with solve_lu."""
    a = np.array(matrix, dtype=float)
    det = 1.0
    for col in range(a.shape[0]):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv], :] = a[[piv, col], :]
            det = -det
        det *= a[col, col]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
    return det


def test_det_lu_bit_identical_to_row_elimination():
    rng = np.random.default_rng(58)
    for trial in range(400):
        n = int(rng.integers(0, 10))
        m = rng.standard_normal((n, n)) * 10.0 ** int(rng.integers(-30, 30))
        if trial % 3 == 0:
            m = rng.integers(-2, 3, (n, n)).astype(float)  # often singular, with swaps and exact zeros
        got, want = det_lu(m), _det_by_rows(m)
        assert type(got) is type(want) and np.float64(got).tobytes() == np.float64(want).tobytes()


def test_solve_lu_against_numpy():
    rng = np.random.default_rng(59)
    for n in (1, 2, 5, 12):
        m = rng.standard_normal((n, n)) + n * np.eye(n)
        rhs = rng.standard_normal((n, 3))
        det, x = linalg.solve_lu(m, rhs)
        assert x.shape == rhs.shape
        assert np.allclose(x, np.linalg.solve(m, rhs), rtol=1e-12, atol=1e-12)
        assert np.float64(det).tobytes() == np.float64(det_lu(m)).tobytes()
    det, x = linalg.solve_lu(np.zeros((0, 0)), np.zeros((0, 2)))
    assert det == 1.0 and x.shape == (0, 2)
    with pytest.raises(ValueError, match="singular"):
        linalg.solve_lu(np.ones((3, 3)), np.ones((3, 1)))
    with pytest.raises(ValueError):
        linalg.solve_lu(np.eye(3), np.ones((2, 1)))
    # the right-hand side is a matrix of columns: any other shape is refused by name
    for rhs in ([1.0, 2.0], 5.0, np.ones((2, 2, 1))):
        shape = re.escape(str(np.shape(rhs)))
        with pytest.raises(ValueError, match=rf"^rhs must be a 2-D array of real numbers, got shape {shape}$"):
            linalg.solve_lu(np.eye(2), rhs)


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
