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

CLOSED_FORM_KINDS = ("complete", "cycle", "star", "complete_bipartite")
LIFT_KINDS = tuple(kind for kind in TRANSFORM_KINDS if kind not in K_KINDS)


def abs_matrix(graph):
    """Dense ABS matrix of a graph."""
    check_dense_budget(graph.n, graph.n, "ABS matrix")
    degs = graph.degrees
    term = _EDGE_TERMS["abs"]
    a = np.zeros((graph.n, graph.n))
    for u, v in graph.edges:
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
    """Sum of absolute eigenvalues: the ABS energy of an ABS spectrum, the graph energy of an adjacency one."""
    return math.fsum(abs(x) for x in np.asarray(spectrum, dtype=float).tolist())


def _at_least_1(value, name, what):
    """``value``, the ``name`` that ``what`` takes, read by ``graphs._integer`` and refused below 1."""
    value = _integer(value, f"{name} for {what}")
    if value < 1:
        raise ValueError(f"{what} needs {name} >= 1, got {value}")
    return value


def regular_abs_factor(r):
    """Scale factor sqrt(r^2 - r) / r turning adjacency into ABS data for r-regular graphs."""
    r = _at_least_1(r, "degree r", "regular scaling")
    return math.sqrt(r * r - r) / r


def closed_form_abs_spectrum(kind, *params):
    """Closed-form ABS spectrum of a named family, sorted ascending.

    Kinds and integer parameters (read by ``graphs._integer``):

    * ``complete`` (n >= 2): one eigenvalue ``(n-1)*sqrt((n-2)/(n-1))`` and
      ``-sqrt((n-2)/(n-1))`` with multiplicity n-1;
    * ``cycle`` (n >= 3): ``sqrt(2)*cos(2*pi*i/n)`` for i = 0..n-1;
    * ``star`` (n >= 2): ``+/- sqrt((n-1)(n-2)/n)`` and n-2 zeros;
    * ``complete_bipartite`` (m, n >= 1): ``+/- sqrt(mn(m+n-2)/(m+n))`` and
      m+n-2 zeros.
    """
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"unknown closed-form kind {kind!r}; expected one of {CLOSED_FORM_KINDS}")
    sizes = [_integer(size, f"{kind} closed-form sizes") for size in params]
    if kind == "complete":
        (n,) = sizes
        if n < 2:
            raise ValueError(f"complete closed form needs n >= 2, got {n}")
        w = math.sqrt((n - 2.0) / (n - 1.0))
        return np.sort(np.array([(n - 1) * w] + [-w] * (n - 1)))
    if kind == "cycle":
        (n,) = sizes
        if n < 3:
            raise ValueError(f"cycle closed form needs n >= 3, got {n}")
        return np.sort(np.array([math.sqrt(2.0) * math.cos(2.0 * math.pi * i / n) for i in range(n)]))
    if kind == "star":
        (n,) = sizes
        if n < 2:
            raise ValueError(f"star closed form needs n >= 2, got {n}")
        w = math.sqrt((n - 1.0) * (n - 2.0) / n)
        return np.sort(np.array([w, -w] + [0.0] * (n - 2)))
    a, b = sizes  # complete_bipartite
    if a < 1 or b < 1:
        raise ValueError(f"complete_bipartite closed form needs part sizes >= 1, got ({a}, {b})")
    w = math.sqrt(a * b * (a + b - 2.0) / (a + b))
    return np.sort(np.array([w, -w] + [0.0] * (a + b - 2)))


def path_abs_charpoly(n):
    """ABS characteristic polynomial of the n-vertex path via the tridiagonal recurrence.

    Valid for integer n >= 5. With Omega_0 = 1, Omega_1 = x and
    Omega_m = x*Omega_{m-1} - (1/2)*Omega_{m-2}, so Omega_2 = x^2 - 1/2, the
    polynomial is ``x^2*Omega_{n-2} - (2/3)*x*Omega_{n-3} + (1/9)*Omega_{n-4}``.
    Omega_0 = 1 is forced by consistency with the determinant recurrence of
    tridiagonal matrices; it is needed exactly when n = 5.
    """
    n = _integer(n, "path orders")
    if n < 5:
        raise ValueError(f"path recurrence is defined for n >= 5, got {n}")
    omegas = [np.array([1.0]), np.array([0.0, 1.0])]
    for m in range(2, n - 1):
        coeffs = np.zeros(m + 1)
        coeffs[1:] = omegas[m - 1]
        coeffs[: m - 1] -= 0.5 * omegas[m - 2]
        omegas.append(coeffs)
    result = np.zeros(n + 1)
    result[2:] += omegas[n - 2]
    result[1 : n - 1] += -2.0 / 3.0 * omegas[n - 3]
    result[: n - 3] += 1.0 / 9.0 * omegas[n - 4]
    return result


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
    r = _at_least_1(r, "degree r", "lift")
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
    its lift quadratic, and ``order - 2 * |base|`` zeros are left over: m - n
    for subdivision and semitotal point, n - m for semitotal line. A negative
    surplus means that many structurally exact zero roots cancel instead, so
    the near-zero values are dropped.
    """
    u, v, w = lift_coefficients(kind, r)
    order = _integer(order, "transform orders")
    if order < 0:
        raise ValueError(f"transform order must be >= 0, got {order}")
    values = []
    for lam in np.asarray(base_spectrum, dtype=float).tolist():
        b, c = u * lam, v * lam + w
        disc = b * b + 4.0 * c
        # A base eigenvalue at -r makes the subdivision quadratic a double
        # root at 0; snap the discriminant there so the square root does not
        # amplify the base eigensolver's rounding error.
        disc = 0.0 if disc < 1e-10 else disc
        root = math.sqrt(disc)
        values.append((b + root) / 2.0)
        values.append((b - root) / 2.0)
    surplus = order - len(values)
    if surplus >= 0:
        values.extend([0.0] * surplus)
        out = np.array(values)
    else:
        arr = np.array(values)
        keep = np.argsort(np.abs(arr), kind="stable")[-surplus:]
        out = arr[np.sort(keep)]
    return np.sort(out)


def splitting_energy_radicands(r, k):
    """(corrected, as printed) radicands of the k-splitting energy factor.

    The corrected value is ``a^2 + 4k b^2`` with ``a^2 = 1 - 1/(r(k+1))`` and
    ``b^2 = 1 - 2/(r(k+2))``, i.e. the squared eigenvalue gap of the (k+1)-order
    weight matrix of the splitting block structure. The printed value is
    ``(5rk^2 + 15rk - 9k + 10r - 10) / (r(k+1)(k+2))``; the two agree exactly
    at k = 1 and differ for k >= 2.
    """
    r = _at_least_1(r, "degree r", "splitting radicands")
    k = _at_least_1(k, "k", "splitting radicands")
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
    k = _at_least_1(k, "k", "energy prediction")
    r = _at_least_1(r, "degree r", f"{kind} energy prediction")
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
