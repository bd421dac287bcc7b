"""Dense symmetric eigensolver, characteristic polynomials and polynomial helpers.

Everything here is desk-scale numerical linear algebra. Polynomials are
represented as 1-D float arrays of coefficients in ascending order of power
(``coeffs[k]`` multiplies ``x**k``) with exact trailing zeros trimmed; a zero
polynomial is ``[0.0]``. Spectra are 1-D float arrays sorted ascending.
"""

import functools
import math

import numpy as np

# Off-diagonal Frobenius norm must drop below 1e-12 * max(1, ||M||_F).
_JACOBI_RTOL = 1e-12
_JACOBI_SWEEP_CAP = 100

# Faddeev-LeVerrier is O(n^4); past this order use an eigenvalue method instead.
_CHARPOLY_ORDER_CAP = 64


class NoConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the off-diagonal target within the sweep cap."""


def _as_square_matrix(matrix, name="matrix"):
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def _offdiag_norm(a):
    off = a - np.diag(np.diag(a))
    return math.sqrt(float(np.sum(off * off)))


@functools.lru_cache(maxsize=64)
def _round_robin_step(order):
    """Row/column index pair taking one round's pairing to the next (circle method).

    The pairs of a round sit at positions (0, 1), (2, 3), ...; position 0 stays
    and the others move one seat along the ring 2, 4, ..., order-2, order-1,
    order-3, ..., 1. After ``order - 1`` rounds every pair has met once and
    the layout is back where it started. The arrays are shared, so read-only.
    """
    ring = np.r_[2:order:2, order - 1 : 0 : -2]
    step = np.arange(order)
    step[ring] = np.roll(ring, 1)
    step.flags.writeable = False
    return np.ix_(step, step)


def eigenvalues_symmetric(matrix, sweep_cap=_JACOBI_SWEEP_CAP):
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    Uses Jacobi rotations in round-robin order (Brent & Luk 1985): a sweep is
    n - 1 rounds, each rotating n/2 disjoint pairs as whole-array operations,
    so every pair is visited once per sweep (odd n is padded with a zero row
    and column that no rotation touches). The stopping rule and the cap are
    those of cyclic Jacobi: whole sweeps run until the off-diagonal Frobenius
    norm falls below ``1e-12 * max(1, ||M||_F)``, and pivots below that
    target over ``n^2 + 1`` are skipped. Raises :class:`NoConvergenceError`
    if ``sweep_cap`` sweeps do not reach it (does not happen for finite
    symmetric input in practice; the cap is a hard safety stop).
    """
    a = _as_square_matrix(matrix)
    n = a.shape[0]
    if n == 0:
        return np.empty(0)
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    if n == 1:
        return a.diagonal().copy()

    target = _JACOBI_RTOL * max(1.0, math.sqrt(float(np.sum(a * a))))
    # Skipping pivots this small cannot keep the off-norm above target.
    tiny = target / (n * n + 1)

    order = n + n % 2
    half = order // 2
    b = np.zeros((order, order))
    b[:n, :n] = a
    step = _round_robin_step(order)
    stride = 2 * order + 2  # flat distance from pair i's 2x2 block to pair i+1's
    rot = np.empty((half, 2, 2))

    for _ in range(sweep_cap):
        if _offdiag_norm(b) <= target:
            break
        for _ in range(order - 1):
            flat = b.reshape(-1)
            app, aqq, apq = flat[0::stride], flat[order + 1 :: stride], flat[1::stride]
            active = np.abs(apq) > tiny
            # |theta| <= ||M||_F / tiny, so the denominator of t cannot overflow.
            theta = (aqq - app) / np.where(active, 2.0 * apq, 1.0)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(active, t, 0.0)  # skipped pairs get the identity
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            rot[:, 0, 0] = rot[:, 1, 1] = c
            rot[:, 0, 1] = -s
            rot[:, 1, 0] = s
            # Rows, then columns as the rows of the transpose; this leaves the
            # transpose of the rotated matrix, which has the same eigenvalues.
            b = (rot @ b.reshape(half, 2, order)).reshape(order, order)
            b = (rot @ b.T.reshape(half, 2, order)).reshape(order, order)
            flat = b.reshape(-1)
            flat[1::stride][active] = 0.0
            flat[order::stride][active] = 0.0
            b = b[step]
    else:
        if _offdiag_norm(b) > target:
            raise NoConvergenceError(
                f"Jacobi did not converge within {sweep_cap} sweeps (n={n})"
            )
    # Whole sweeps return every row to its place, so the padding row is last.
    return np.sort(np.diag(b)[:n])


def char_poly(matrix):
    """Monic characteristic polynomial det(xI - M) via the Faddeev-LeVerrier recurrence.

    Trace accumulation uses compensated summation (``math.fsum``). Limited to
    order 64; the method is O(n^4) and loses accuracy well before memory does.
    """
    a = _as_square_matrix(matrix)
    n = a.shape[0]
    if n > _CHARPOLY_ORDER_CAP:
        raise ValueError(f"matrix order {n} exceeds char_poly cap {_CHARPOLY_ORDER_CAP}")
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


def det_lu(matrix):
    """Determinant via partial-pivot LU elimination."""
    a = _as_square_matrix(matrix).copy()
    n = a.shape[0]
    det = 1.0
    for col in range(n):
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


def poly_trim(coeffs):
    """Drop exact trailing zero coefficients (zero polynomial stays ``[0.0]``)."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise ValueError("polynomial coefficients must be a 1-D sequence")
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1].copy()


def poly_from_roots(roots):
    """Monic polynomial with the given real roots, ascending coefficients."""
    coeffs = np.ones(1)
    for r in np.asarray(roots, dtype=float):
        coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
    return coeffs


def poly_mul(p, q):
    """Product of two coefficient arrays."""
    return poly_trim(np.convolve(np.asarray(p, dtype=float), np.asarray(q, dtype=float)))


def poly_eval(coeffs, x):
    """Evaluate a coefficient array at a scalar point (Horner)."""
    acc = 0.0
    for c in reversed(np.asarray(coeffs, dtype=float)):
        acc = acc * x + c
    return acc


def multiset_deviation(a, b):
    """Max elementwise gap between two equal-size multisets after sorting."""
    av = np.sort(np.asarray(a, dtype=float))
    bv = np.sort(np.asarray(b, dtype=float))
    if av.shape != bv.shape:
        raise ValueError(f"multiset length mismatch: {av.size} vs {bv.size}")
    if av.size == 0:
        return 0.0
    return float(np.max(np.abs(av - bv)))


def multiset_close(a, b, tol):
    """True when both sorted multisets agree elementwise within ``tol`` (absolute)."""
    return multiset_deviation(a, b) <= tol


def poly_deviation(p, q):
    """Max coefficient gap scaled by max(1, largest |coefficient| on either side)."""
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    size = max(pv.size, qv.size, 1)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: pv.size] = pv
    qq[: qv.size] = qv
    scale = max(1.0, float(np.max(np.abs(pp))), float(np.max(np.abs(qq))))
    return float(np.max(np.abs(pp - qq))) / scale


def poly_close(p, q, tol):
    """True when zero-padded coefficients agree within ``tol`` relative to the larger scale."""
    return poly_deviation(p, q) <= tol
