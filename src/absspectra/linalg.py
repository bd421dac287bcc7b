"""Dense symmetric eigensolver, characteristic polynomials, LU solves and deviation measures.

Everything here is desk-scale numerical linear algebra. Polynomials are
represented as 1-D float arrays of coefficients in ascending order of power
(``coeffs[k]`` multiplies ``x**k``). Spectra are 1-D float arrays sorted
ascending.
"""

import functools
import math
import numbers

import numpy as np

# Off-diagonal Frobenius norm must drop below 1e-12 * max(1, ||M||_F).
_JACOBI_RTOL = 1e-12
_JACOBI_SWEEP_CAP = 100

# Faddeev-LeVerrier is O(n^4); past this order use an eigenvalue method instead.
_CHARPOLY_ORDER_CAP = 64
# Jacobi time grows 6-8x per doubling of the order: `spectrum --abs` takes 4.5-4.7 s
# on the 400-cycle and 50 s, close to a minute, on the 900-cycle (2-vCPU Xeon, 2 runs).
_JACOBI_ORDER_CAP = 900


class NoConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the off-diagonal target within the sweep cap."""


def _real_array(values, what, ndim=None):
    """``values`` as a float array; complex or non-numeric input is refused, never cast.

    An object array (integers past 64 bits, fractions, decimals) is read when
    each element is a real number that ``float`` takes. Then a shape of other
    than ``ndim`` dimensions (0, 1 or 2, when given) is refused, naming the shape.
    """
    a = np.asarray(values)
    if a.dtype.kind == "O":
        for v in a.flat:
            if not hasattr(type(v), "__float__") or (
                isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real)
            ):
                raise ValueError(f"{what} must be real numbers, got an element of type {type(v).__name__}")
        try:
            a = a.astype(float)
        except OverflowError:
            raise ValueError(f"{what} has an element beyond the float range") from None
    elif a.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, got dtype {a.dtype}")
    if ndim is not None and a.ndim != ndim:
        expected = ("one real number", "a 1-D sequence of real numbers", "a 2-D array of real numbers")[ndim]
        raise ValueError(f"{what} must be {expected}, got shape {a.shape}")
    return a.astype(float, copy=False)


def _as_square_matrix(matrix, stacked=False):
    a = _real_array(matrix, "matrix")
    if a.ndim not in ((2, 3) if stacked else (2,)) or a.shape[-1] != a.shape[-2]:
        what = "square or a stack of square matrices" if stacked else "square"
        raise ValueError(f"matrix must be {what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


# Each entry holds two index arrays of order^2 + order entries, so keep few.
@functools.lru_cache(maxsize=16)
def _round_robin_step(order):
    """Indices within a member's slot taking one round's pairing to the next (circle method).

    The pairs of a round sit at positions (0, 1), (2, 3), ...; position 0 stays
    and the others move one seat along the ring 2, 4, ..., order-2, order-1,
    order-3, ..., 1. After ``order - 1`` rounds every pair has met once and
    the layout is back where it started. A slot holds an ``order`` x
    ``order`` matrix row by row and then one padding row of ``order`` zeros;
    ``slots.take(perm, axis=1)`` permutes the rows and columns of each
    slot's matrix, ``slots.take(perm_t, axis=1)`` those of its transpose,
    and both keep the padding row. The arrays are shared, so read-only.
    """
    ring = np.r_[2:order:2, order - 1 : 0 : -2]
    step = np.arange(order)
    step[ring] = np.roll(ring, 1)
    square = step[:, None] * order + step
    pad = np.arange(order * order, order * order + order)
    perm = np.concatenate([square.ravel(), pad])
    perm_t = np.concatenate([square.T.ravel(), pad])
    perm.flags.writeable = perm_t.flags.writeable = False
    return perm, perm_t


def eigenvalues_symmetric(matrix):
    """All eigenvalues of a real symmetric matrix, or of each matrix in a stack, sorted ascending.

    ``matrix`` is one (n, n) matrix, for n eigenvalues, or a (k, n, n) stack,
    for a (k, n) array, as with ``np.linalg.eigvalsh``. Uses Jacobi rotations
    in round-robin order (Brent & Luk 1985): a sweep is n - 1 rounds, each
    rotating n/2 disjoint pairs of every member as whole-array operations, so
    every pair is visited once per sweep (odd n is padded with a zero row and
    column that no rotation touches). The stopping rule and the cap are those
    of cyclic Jacobi, per member: whole sweeps run until the member's
    off-diagonal Frobenius norm falls below ``1e-12 * max(1, ||M||_F)``, and
    pivots below that target over ``n^2 + 1`` are skipped; a round whose
    pivots are all skipped only moves the pairs on. One reduction per sweep
    tests every member at once. A member at its target skips every pivot from
    then on, so it only moves while the others finish, and each member's
    eigenvalues are bit for bit those of solving it alone, in any layout.
    At small orders numpy dispatch rather than arithmetic sets a round's
    cost, so a round is 18 calls to functions bound once per call, each
    writing in place; when some pairs are skipped, the rotation tangents and
    the zeroed pivots are masked, one call more. The members of a stack
    share each call.

    Raises :class:`NoConvergenceError` if ``_JACOBI_SWEEP_CAP`` (100) sweeps
    do not bring every member to its target (does not happen for finite
    symmetric input in practice; the cap is a hard safety stop), and
    ``ValueError`` above order 900, for complex or non-numeric input, or
    when a member's Frobenius norm overflows.
    """
    a = _as_square_matrix(matrix, stacked=True)
    n = a.shape[-1]
    if n > _JACOBI_ORDER_CAP:
        raise ValueError(f"matrix order {n} exceeds eigensolver cap {_JACOBI_ORDER_CAP}")
    if not np.array_equal(a, a.swapaxes(-1, -2)):
        raise ValueError("matrix is not symmetric")
    if n < 2:
        return a.diagonal(axis1=-2, axis2=-1).copy()
    stack = a.reshape(-1, n, n)
    k = stack.shape[0]

    # Squares in C order sum member by member as np.sum sums one matrix.
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.square(stack, order="C").sum(axis=(1, 2)))
    if np.isinf(norms).any():
        raise ValueError("matrix entries are too large: the Frobenius norm overflows")
    target = _JACOBI_RTOL * np.maximum(1.0, norms)
    order = n + n % 2
    half = order // 2
    sq = order * order
    # Skipping pivots this small cannot keep the off-norm above target.
    tiny = np.repeat(target / (n * n + 1), half)
    # Each member's slot is its matrix and then a padding row, sq + order =
    # half * stride entries, so pair i of member j sits at flat offset
    # (j * half + i) * stride and one strided slice reads every member's pivots.
    stride = 2 * order + 2
    b = np.zeros((k, sq + order))
    b[:, :sq].reshape(k, order, order)[:, :n, :n] = stack
    perm, perm_t = _round_robin_step(order)
    rot = np.empty((k, half, 2, 2))
    c, minus_s, s, c_again = rot.reshape(-1, 4).T  # each pair's block is c, -s, s, c
    b_flat = b.reshape(-1)
    a_pp, a_pq, a_qq = b_flat[0::stride], b_flat[1::stride], b_flat[order + 1 :: stride]
    b_pairs = b[:, :sq].reshape(k, half, 2, order)
    rows = np.empty((k, half, 2, order))
    # Rows, then columns as the rows of the transpose; this leaves the
    # transpose of the rotated matrix, which has the same eigenvalues.
    rows_t = rows.reshape(k, order, order).transpose(0, 2, 1).reshape(k, half, 2, order)
    cols = np.zeros((k, sq + order))
    cols_pairs = cols[:, :sq].reshape(k, half, 2, order)
    # Every pair's annihilated entries, (p, q) and (q, p), as one (pairs, 2) view.
    pivots = cols.reshape(-1, stride)[:, 1 : order + 1 : order - 1]
    # Per-pair scratch, made per call; at the usual orders a round costs numpy
    # dispatch rather than arithmetic, so each step below writes in place, with
    # its functions bound once and its outputs passed positionally.
    pairs = k * half
    d, g, h, t = np.empty((4, pairs))
    active = np.empty(pairs, dtype=bool)
    active_pivots = active[:, None]
    diagonal = np.arange(0, sq, order + 1)
    absolute, add, copysign, divide, greater = np.absolute, np.add, np.copysign, np.divide, np.greater
    hypot, multiply, negative, subtract, matmul = np.hypot, np.multiply, np.negative, np.subtract, np.matmul
    copyto, count_nonzero, take = np.copyto, np.count_nonzero, cols.take

    for sweep in range(_JACOBI_SWEEP_CAP + 1):
        off = np.square(b[:, :sq])
        off[:, diagonal] = 0.0
        live = np.sqrt(off.sum(axis=1)) > target  # off-diagonal Frobenius norms
        if not live.any():
            break
        if sweep == _JACOBI_SWEEP_CAP:
            raise NoConvergenceError(f"Jacobi did not converge within {_JACOBI_SWEEP_CAP} sweeps (n={n})")
        # A settled member's rotations are identities from here on: it only
        # moves with the permutation, which changes none of its bits.
        tiny.reshape(k, half)[~live] = math.inf
        for _ in range(order - 1):
            greater(absolute(a_pq, h), tiny, active)
            rotating = count_nonzero(active)
            if not rotating:
                # Every rotation is the identity, after which a rotated round
                # leaves the transpose; permute the transpose directly. The
                # indices are in range: mode="wrap" only spares take a buffer.
                b.take(perm_t, 1, cols, "wrap")
                copyto(b, cols)
                continue
            subtract(a_qq, a_pp, d)
            multiply(2.0, a_pq, g)
            # tan of the smaller rotation angle; skipped pairs keep t = 0.
            add(d, copysign(hypot(d, g, h), d, h), h)
            # When every pair rotates, the masks select every pair, so the
            # unmasked divide and write give the same bits with less work.
            if rotating == pairs:
                divide(g, h, t)
            else:
                t.fill(0.0)
                divide(g, h, t, where=active)
            divide(1.0, hypot(t, 1.0, h), c)
            negative(multiply(t, c, s), minus_s)
            copyto(c_again, c)
            matmul(rot, b_pairs, rows)
            matmul(rot, rows_t, cols_pairs)
            if rotating == pairs:
                pivots.fill(0.0)
            else:
                copyto(pivots, 0.0, where=active_pivots)
            take(perm, 1, b, "wrap")
    # Whole sweeps return every row to its place, so the padding row is last.
    eigs = np.sort(b[:, diagonal[:n]])
    return eigs if a.ndim == 3 else eigs[0]


def char_poly(matrix):
    """Monic characteristic polynomial det(xI - M) via the Faddeev-LeVerrier recurrence.

    From M_0 = 0 and c_n = 1, step k = 1..n takes M_k = M (M_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(M_k)/k,
    the trace by ``math.fsum``. Limited to order 64: O(n^4), it loses accuracy well before memory runs out.
    """
    a = _as_square_matrix(matrix)
    n = a.shape[0]
    if n > _CHARPOLY_ORDER_CAP:
        raise ValueError(f"matrix order {n} exceeds char_poly cap {_CHARPOLY_ORDER_CAP}")
    coeffs = np.zeros(n + 1)
    coeffs[n] = c = 1.0
    mk, eye = np.zeros((n, n)), np.eye(n)
    for k in range(1, n + 1):
        mk = a @ (mk + c * eye)
        c = -math.fsum(mk.diagonal().tolist()) / k
        coeffs[n - k] = c
    return coeffs


def _eliminate(a):
    """Partial-pivot elimination of the n-row ``a`` in place, to upper triangular first n columns.

    Later columns (right-hand sides) take the same row operations, and each
    entry is updated on its own, so the first n columns end bit for bit as
    they would without them. Returns the determinant of the first n columns,
    or None at the first exactly zero pivot, where it stops.
    """
    sign = 1.0
    for col in range(a.shape[0]):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return None
        if piv != col:
            a[[col, piv], :] = a[[piv, col], :]
            sign = -sign
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
    # the pivots multiply in elimination order; a row swap only flips the sign
    return math.prod(a.diagonal(), start=sign)


def det_lu(matrix):
    """Determinant via partial-pivot LU elimination."""
    det = _eliminate(_as_square_matrix(matrix).copy())
    return 0.0 if det is None else det


def solve_lu(matrix, rhs):
    """``(det, x)``: the determinant of ``matrix`` and the solution x of ``matrix @ x = rhs``.

    ``rhs`` is a matrix of columns. One partial-pivot elimination of
    ``[matrix | rhs]`` gives both, and ``det`` equals ``det_lu(matrix)`` bit
    for bit. Raises ``ValueError`` when elimination meets an exactly zero pivot.
    """
    a = _as_square_matrix(matrix)
    aug = np.hstack([a, _real_array(rhs, "rhs", 2)])
    det = _eliminate(aug)
    if det is None:
        raise ValueError("matrix is singular")
    n = a.shape[0]
    x = aug[:, n:]
    for row in reversed(range(n)):  # back substitution
        x[row] -= aug[row, row + 1 : n] @ x[row + 1 :]
        x[row] /= aug[row, row]
    return det, x


def multiset_deviation(a, b):
    """Max elementwise gap between two equal-size multisets, each a 1-D sequence, after sorting."""
    av = np.sort(_real_array(a, "multiset", 1))
    bv = np.sort(_real_array(b, "multiset", 1))
    if av.shape != bv.shape:
        raise ValueError(f"multiset length mismatch: {av.size} vs {bv.size}")
    return float(np.abs(av - bv).max(initial=0.0))


def poly_deviation(p, q):
    """Max coefficient gap, the shorter side zero-padded, scaled by max(1, largest |coefficient| on either side)."""
    pv = _real_array(np.atleast_1d(p), "polynomial coefficients", 1)
    qv = _real_array(np.atleast_1d(q), "polynomial coefficients", 1)
    scale = max(1.0, float(np.abs(pv).max(initial=0.0)), float(np.abs(qv).max(initial=0.0)))
    return float(np.abs(np.polysub(pv[::-1], qv[::-1])).max(initial=0.0)) / scale
