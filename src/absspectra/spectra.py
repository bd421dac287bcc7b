"""ABS matrices, spectra, energies, closed-form spectra and transform predictions.

The ABS matrix of a graph carries ``sqrt((d_i + d_j - 2) / (d_i + d_j))`` on
every edge and 0 elsewhere; its entries lie in [0, 1) and its trace is 0. The
ABS energy is the sum of absolute ABS eigenvalues, the graph energy the same
for the adjacency matrix.
"""

import math

import numpy as np

from . import linalg
from .graphs import _integer, adjacency_matrix, check_dense_budget
from .indices import _EDGE_TERMS, degree_index
from .transforms import K_KINDS, TRANSFORM_KINDS

# Each closed-form kind and the least size the paper states it for.
_CLOSED_FORM_LEAST = {"complete": 2, "cycle": 3, "star": 2, "complete_bipartite": 1}
CLOSED_FORM_KINDS = tuple(_CLOSED_FORM_LEAST)
LIFT_KINDS = tuple(kind for kind in TRANSFORM_KINDS if kind not in K_KINDS)


def abs_matrix(graph):
    """Dense ABS matrix of a graph."""
    check_dense_budget(graph.n, graph.n, "ABS matrix")
    degs = graph.degrees
    term = _EDGE_TERMS["abs"]
    a = np.zeros((graph.n, graph.n))
    for u, run in enumerate(graph.higher):
        for v in run:
            a[u, v] = a[v, u] = term(degs[u], degs[v])
    return a


def graph_matrix(graph, kind):
    """Dense matrix of a graph by kind, ``"abs"`` or ``"adjacency"``."""
    if kind == "abs":
        return abs_matrix(graph)
    if kind == "adjacency":
        return adjacency_matrix(graph)
    raise ValueError(f"unknown matrix selector {kind!r}; expected 'abs' or 'adjacency'")


def adjacency_spectrum(graph):
    """Adjacency eigenvalues, sorted ascending."""
    return linalg.eigenvalues_symmetric(adjacency_matrix(graph))


def abs_spectrum(graph):
    """ABS eigenvalues, sorted ascending."""
    return linalg.eigenvalues_symmetric(abs_matrix(graph))


def energy(spectrum):
    """Sum of absolute eigenvalues: the ABS energy of an ABS spectrum, the graph energy of an adjacency one.

    The spectrum is read by ``linalg._real_array``: complex or non-numeric values and shapes other than 1-D are refused.
    """
    return math.fsum(abs(x) for x in linalg._real_array(spectrum, "spectrum", 1).tolist())


def regular_abs_factor(r):
    """Scale factor sqrt(r^2 - r) / r turning adjacency into ABS data for r-regular graphs."""
    r = _integer(r, "regular scaling degree r", 1)
    return math.sqrt(r * r - r) / r


def closed_form_abs_spectrum(kind, *params):
    """Closed-form ABS spectrum of a named family, sorted ascending.

    Kinds and integer parameters (read by ``graphs._integer`` with the least value given):

    * ``complete`` (n >= 2): one eigenvalue ``(n-1)*sqrt((n-2)/(n-1))`` and
      ``-sqrt((n-2)/(n-1))`` with multiplicity n-1;
    * ``cycle`` (n >= 3): ``sqrt(2)*cos(2*pi*i/n)`` for i = 0..n-1;
    * ``star`` (n >= 2): ``+/- sqrt((n-1)(n-2)/n)`` and n-2 zeros;
    * ``complete_bipartite`` (m, n >= 1): ``+/- sqrt(mn(m+n-2)/(m+n))`` and
      m+n-2 zeros.
    """
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"unknown closed-form kind {kind!r}; expected one of {CLOSED_FORM_KINDS}")
    sizes = [_integer(size, f"{kind} closed-form sizes", _CLOSED_FORM_LEAST[kind]) for size in params]
    if kind == "complete":
        (n,) = sizes
        w = math.sqrt((n - 2.0) / (n - 1.0))
        return np.sort(np.array([(n - 1) * w] + [-w] * (n - 1)))
    if kind == "cycle":
        (n,) = sizes
        return np.sort(np.array([math.sqrt(2.0) * math.cos(2.0 * math.pi * i / n) for i in range(n)]))
    if kind == "star":
        (n,) = sizes
        sizes = (1, n - 1)  # S_n is K_{1,n-1}
    a, b = sizes  # complete_bipartite
    w = math.sqrt(a * b * (a + b - 2.0) / (a + b))
    return np.sort(np.array([w, -w] + [0.0] * (a + b - 2)))


def path_abs_charpoly(n):
    """ABS characteristic polynomial of the n-vertex path via the tridiagonal recurrence.

    Valid for integer n >= 5. With Omega_0 = 1, Omega_1 = x and
    Omega_m = x*Omega_{m-1} - (1/2)*Omega_{m-2}, so Omega_2 = x^2 - 1/2, the
    polynomial is ``x^2*Omega_{n-2} - (2/3)*x*Omega_{n-3} + (1/9)*Omega_{n-4}``.
    Omega_0 = 1 is forced by consistency with the determinant recurrence of
    tridiagonal matrices; it is needed exactly when n = 5. From n = 2289 a
    coefficient overflows float64, and the step that overflows raises ``ValueError``.
    """
    n = _integer(n, "path recurrence orders n", 5)
    omegas = [np.array([1.0]), np.array([0.0, 1.0])]  # only the newest three Omega_m, newest last
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused at its first step, whatever the filter
        for m in range(2, n - 1):
            coeffs = np.zeros(m + 1)
            coeffs[1:] = omegas[-1]
            coeffs[: m - 1] -= 0.5 * omegas[-2]
            if not np.isfinite(coeffs).all():
                break
            omegas = omegas[-2:] + [coeffs]
        else:
            result = np.zeros(n + 1)
            result[2:] += omegas[-1]
            result[1 : n - 1] += -2.0 / 3.0 * omegas[-2]
            result[: n - 3] += 1.0 / 9.0 * omegas[-3]
            if np.isfinite(result).all():
                return result
    raise ValueError(f"path recurrence coefficients overflow float64 at n={n}")


def lift_coefficients(kind, r):
    """Coefficients (u, v, w) lifting base eigenvalues of a connected r-regular graph, r >= 1.

    For a base eigenvalue lam (of the adjacency matrix of L(G) for semitotal
    line, of G otherwise) the two ABS eigenvalues of the transformed graph are
    the roots of ``x^2 - u*lam*x - (v*lam + w)``:

    * subdivision:      u = 0,                v = r/(r+2),      w = r^2/(r+2)
    * semitotal_point:  u = sqrt((2r-1)/(2r)), v = r/(r+1),      w = r^2/(r+1)
    * semitotal_line:   u = sqrt((4r-2)/(4r)), v = (3r-2)/(3r),  w = (6r-4)/(3r)

    The printed characteristic-polynomial identities use the same numbers:
    ``phi(x) = (u*x + v) * x^s * psi((x^2 - w) / (u*x + v))`` with psi the
    base characteristic polynomial and s the zero surplus.
    """
    r = _integer(r, "lift degree r", 1)
    if kind == "subdivision":
        return 0.0, r / (r + 2.0), r * r / (r + 2.0)
    if kind == "semitotal_point":
        return math.sqrt((2.0 * r - 1.0) / (2.0 * r)), r / (r + 1.0), r * r / (r + 1.0)
    if kind == "semitotal_line":
        return math.sqrt((4.0 * r - 2.0) / (4.0 * r)), (3.0 * r - 2.0) / (3.0 * r), (6.0 * r - 4.0) / (3.0 * r)
    raise ValueError(f"unknown lift kind {kind!r}; expected one of {LIFT_KINDS}")


def predicted_transform_spectrum(kind, r, base_spectrum, order):
    """Predicted ABS spectrum, ascending, of the ``order`` = n + m vertex lift of a connected r-regular graph.

    Each base eigenvalue (see :func:`lift_coefficients`) gives the two roots of
    its lift quadratic. With ``order - 2 * |base|`` zeros added (m - n for
    subdivision and semitotal point, n - m for semitotal line; none when that
    is negative), the ``order`` values of largest magnitude are kept: a negative
    surplus drops that many roots nearest zero, the structural zeros that cancel.
    """
    u, v, w = lift_coefficients(kind, r)
    order = _integer(order, "transform orders", 0)
    values = []
    for lam in linalg._real_array(base_spectrum, "base spectrum", 1).tolist():
        b, c = u * lam, v * lam + w
        disc = b * b + 4.0 * c
        # A base eigenvalue at -r makes the subdivision quadratic a double
        # root at 0; snap the discriminant there so the square root does not
        # amplify the base eigensolver's rounding error.
        disc = 0.0 if disc < 1e-10 else disc
        root = math.sqrt(disc)
        values.append((b + root) / 2.0)
        values.append((b - root) / 2.0)
    arr = np.array(values + [0.0] * (order - len(values)))
    keep = np.argsort(np.abs(arr), kind="stable")[len(arr) - order :]
    return np.sort(arr[np.sort(keep)])


def splitting_energy_radicands(r, k):
    """(corrected, as printed) radicands of the k-splitting energy factor.

    The corrected value is ``a^2 + 4k b^2`` with ``a^2 = 1 - 1/(r(k+1))`` and
    ``b^2 = 1 - 2/(r(k+2))``, i.e. the squared eigenvalue gap of the (k+1)-order
    weight matrix of the splitting block structure. The printed value is
    ``(5rk^2 + 15rk - 9k + 10r - 10) / (r(k+1)(k+2))``; the two agree exactly
    at k = 1 and differ for k >= 2.
    """
    r = _integer(r, "splitting degree r", 1)
    k = _integer(k, "splitting copy counts k", 1)
    a2 = 1.0 - 1.0 / (r * (k + 1.0))
    b2 = 1.0 - 2.0 / (r * (k + 2.0))
    corrected = a2 + 4.0 * k * b2
    printed = (5.0 * r * k * k + 15.0 * r * k - 9.0 * k + 10.0 * r - 10.0) / (r * (k + 1.0) * (k + 2.0))
    return corrected, printed


def predicted_energy(kind, r, k, base_energy, transformed_energy):
    """(corrected, as printed) ABS energy of the k-splitting or k-shadow of a connected r-regular graph.

    The corrected reading follows the Kronecker structure of the transform's
    ABS matrix and scales the graph's adjacency energy ``base_energy``; the
    as-printed one scales the transform's own, ``transformed_energy``. The
    shadow factor is ``k*sqrt(1 - 1/(kr))`` in both readings; the splitting
    factors are the square roots of :func:`splitting_energy_radicands`.
    """
    if kind not in K_KINDS:
        raise ValueError(f"unknown energy prediction kind {kind!r}; expected one of {K_KINDS}")
    k = _integer(k, f"{kind} copy counts k", 1)
    r = _integer(r, f"{kind} degree r", 1)
    base_energy = linalg._real_array(base_energy, "base energy", 0).tolist()
    transformed_energy = linalg._real_array(transformed_energy, "transformed energy", 0).tolist()
    if kind == "shadow":
        factor = k * math.sqrt(1.0 - 1.0 / (k * r))
        return factor * base_energy, factor * transformed_energy
    radicand, printed_radicand = splitting_energy_radicands(r, k)
    return math.sqrt(radicand) * base_energy, math.sqrt(printed_radicand) * transformed_energy


def spectrum_report(graph, which="abs"):
    """Spectrum/energy summary used by the command-line front end.

    Keys: ``spectrum`` (ascending), ``energy``, ``trace_sq`` (sum of squared
    eigenvalues) and ``harmonic_check`` (``2*(m - H(G))``, the closed form the
    ABS trace square must equal).
    """
    spectrum = linalg.eigenvalues_symmetric(graph_matrix(graph, which))
    trace_sq = math.fsum((x * x for x in spectrum.tolist()))
    harmonic_check = 2.0 * (graph.m - degree_index(graph, "harmonic"))
    return {
        "spectrum": spectrum.tolist(),
        "energy": energy(spectrum),
        "trace_sq": trace_sq,
        "harmonic_check": harmonic_check,
    }
