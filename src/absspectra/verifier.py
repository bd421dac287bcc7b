"""Registry of numeric identity checks with machine-readable verdicts.

Each check compares one claimed identity against independent numeric oracles
(the Jacobi eigensolver, the Faddeev-LeVerrier characteristic polynomial, LU
determinants, direct graph construction). Checks whose original scalar
prefactors are inconsistent with ``det(c*M) = c^n * det(M)``, or whose energy
right-hand sides reference the transformed instead of the base graph, emit two
variants: ``corrected`` (the reading consistent with the block/Kronecker
derivation; the one acceptance keys on) and ``as_printed`` (informational).
Each check is one function: the work both variants need (precondition,
transformed graph, tolerance, shared oracles) runs once, and a failure there
marks both variants ``error``; oracle work only one variant needs runs apart,
so its failure marks only that variant ``error``. Everything is deterministic:
two runs over the same inputs produce identical reports.
"""

import csv
import enum
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .graphs import (
    adjacency_matrix,
    degree_sequence,
    generate,
    incidence_matrix,
    is_connected,
    is_path,
    is_regular,
    line_graph,
)
from .indices import degree_index
from .spectra import (
    abs_energy,
    abs_matrix,
    abs_spectrum,
    closed_form_abs_spectrum,
    lift_base_spectrum,
    lift_quadratic,
    path_abs_charpoly,
    predicted_energy,
    predicted_transform_spectrum,
    regular_abs_factor,
)
from .transforms import apply_transform

DEFAULT_TOL = 1e-8
# Eigensolver-limited checks relax to this on graphs with n + m > 100.
RELAXED_TOL = 1e-6

# Fixed evaluation points for pointwise identity checks (all nonzero, so
# negative powers of the variable are well defined).
_SAMPLE_POINTS = (
    0.6180339887498949,
    1.3247179572447460,
    2.4142135623730951,
    -1.6180339887498949,
    -2.2360679774997896,
)


class CheckId(enum.Enum):
    LEM_INCIDENCE_REG = "LEM_INCIDENCE_REG"
    LEM_INCIDENCE_LINE = "LEM_INCIDENCE_LINE"
    LEM_SCHUR = "LEM_SCHUR"
    THM_REG_SCALING = "THM_REG_SCALING"
    THM_SUBDIVISION = "THM_SUBDIVISION"
    THM_SEMITOTAL_POINT = "THM_SEMITOTAL_POINT"
    THM_SEMITOTAL_LINE = "THM_SEMITOTAL_LINE"
    THM_PATH_RECURRENCE = "THM_PATH_RECURRENCE"
    THM_COMPLETE = "THM_COMPLETE"
    THM_CYCLE = "THM_CYCLE"
    THM_KMN = "THM_KMN"
    THM_STAR = "THM_STAR"
    THM_TRACE_HARMONIC = "THM_TRACE_HARMONIC"
    THM_R1_BOUND = "THM_R1_BOUND"
    THM_SPLIT_ENERGY = "THM_SPLIT_ENERGY"
    THM_SHADOW_ENERGY = "THM_SHADOW_ENERGY"


@dataclass(frozen=True)
class CheckReport:
    """Verdict record for one check variant on one graph."""

    check: str
    variant: str
    graph_descriptor: str
    applicable: bool
    verdict: str
    max_deviation: float
    tolerance: float
    details: str


def _fmt(x):
    return f"{x:.12g}"


def _scalar_deviation(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _etol(graph, tol):
    """Effective tolerance for eigensolver-limited checks, with a note when relaxed."""
    if graph.n + graph.m > 100 and tol < RELAXED_TOL:
        return RELAXED_TOL, f"; tolerance relaxed to {RELAXED_TOL:g} (n+m > 100)"
    return tol, ""


# --- structure detectors (used for applicability and naming) ----------------


def _is_complete(graph):
    return graph.n >= 2 and graph.m == graph.n * (graph.n - 1) // 2


def _is_cycle(graph):
    return graph.n >= 3 and is_regular(graph) == 2 and is_connected(graph)


def _is_star(graph):
    if graph.n < 2 or graph.m != graph.n - 1 or not is_connected(graph):
        return False
    return max(degree_sequence(graph)) == graph.n - 1


def _complete_bipartite_parts(graph):
    """Part sizes (a, b) when the graph is a complete bipartite K_{a,b}, else None."""
    if graph.n < 2 or graph.m == 0 or not is_connected(graph):
        return None
    color = [-1] * graph.n
    color[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    nxt.append(v)
                elif color[v] == color[u]:
                    return None
        frontier = nxt
    a = color.count(0)
    b = graph.n - a
    return (a, b) if graph.m == a * b else None


def describe_graph(graph):
    """Deterministic short name: named family when recognized, else n/m summary."""
    if graph.n == 0:
        return "empty(0)"
    if graph.n == 1:
        return "K1"
    if _is_complete(graph):
        return f"K{graph.n}"
    if _is_cycle(graph):
        return f"C{graph.n}"
    if is_path(graph):
        return f"P{graph.n}"
    if _is_star(graph):
        return f"S{graph.n}"
    parts = _complete_bipartite_parts(graph)
    if parts is not None:
        return f"K_{{{parts[0]},{parts[1]}}}"
    return f"graph(n={graph.n},m={graph.m})"


# --- check implementations ---------------------------------------------------
#
# A check takes (graph, params, tol). A single-variant check returns its result
# (applicable, max_deviation, tolerance, details). A two-variant check first
# does the work both variants need, then returns one outcome per variant, in
# the order _CHECKS names them: the result itself, or a zero-argument function
# computing it when that variant has oracle work of its own (see run_check).


def _connected_regular_degree(graph):
    r = is_regular(graph)
    if r is None or r < 1 or not is_connected(graph):
        return None
    return r


def _chk_incidence_reg(graph, params, tol):
    r = is_regular(graph)
    if r is None:
        return False, 0.0, 0.0, "not regular"
    f = incidence_matrix(graph)
    lhs = f @ f.T
    rhs = adjacency_matrix(graph).astype(np.int64) + r * np.eye(graph.n, dtype=np.int64)
    dev = float(np.max(np.abs(lhs - rhs))) if graph.n else 0.0
    return True, dev, 0.0, f"F F^t vs A + {r}I, integer arithmetic"


def _chk_incidence_line(graph, params, tol):
    f = incidence_matrix(graph)
    lhs = f.T @ f
    rhs = 2 * np.eye(graph.m, dtype=np.int64) + adjacency_matrix(line_graph(graph)).astype(np.int64)
    dev = float(np.max(np.abs(lhs - rhs))) if graph.m else 0.0
    return True, dev, 0.0, "F^t F vs 2I + A(L(G)), integer arithmetic"


def _chk_schur(graph, params, tol):
    if graph.n == 0:
        return False, 0.0, tol, "empty graph"
    a = adjacency_matrix(graph)
    shift = (max(degree_sequence(graph)) if graph.n else 0) + 1
    m_blk = a + shift * np.eye(graph.n)  # diagonally dominant, invertible
    n_blk = abs_matrix(graph)
    block = np.block([[m_blk, n_blk], [n_blk, m_blk]])
    lhs = linalg.det_lu(block)
    rhs = linalg.det_lu(m_blk) * linalg.det_lu(m_blk - n_blk @ np.linalg.solve(m_blk, n_blk))
    dev = _scalar_deviation(lhs, rhs)
    return True, dev, tol, f"block det {_fmt(lhs)} vs |M||Q - P M^-1 N| {_fmt(rhs)}"


def _chk_reg_scaling(graph, params, tol):
    r = is_regular(graph)
    vtol, note = _etol(graph, tol)

    def corrected():
        if r is None or r < 1:
            return False, 0.0, tol, "not regular with r >= 1"
        predicted = closed_form_abs_spectrum(
            "regular_scaled", linalg.eigenvalues_symmetric(adjacency_matrix(graph)), r
        )
        dev = linalg.multiset_deviation(predicted, abs_spectrum(graph))
        return True, dev, vtol, f"ABS spectrum vs sqrt(r^2-r)/r scaled adjacency spectrum, r={r}{note}"

    def as_printed():
        if r is None or r < 2:
            return False, 0.0, tol, "needs regular r >= 2 (scale factor positive)"
        c = regular_abs_factor(r)
        psi = linalg.char_poly(adjacency_matrix(graph))
        # printed identity: phi(x) = c * psi(x / c); as a coefficient array the
        # right side is psi_i * c^(1-i), which omits the order-n determinant
        # exponent and differs from phi by c^(1-n).
        printed = np.array([psi[i] * c ** (1 - i) for i in range(psi.size)])
        phi = linalg.char_poly(abs_matrix(graph))
        dev = linalg.poly_deviation(phi, printed)
        return True, dev, vtol, f"char poly vs printed single-power prefactor, r={r}{note}"

    return corrected, as_printed


def _monomial(k):
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return coeffs


def _lift_check(kind):
    def check(graph, params, tol):
        r = _connected_regular_degree(graph)
        if r is None:
            skip = (False, 0.0, tol, "needs a connected regular graph with r >= 1")
            return skip, skip
        transformed = apply_transform(kind, graph)
        vtol, note = _etol(transformed, tol)
        n, m = graph.n, graph.m
        # both semitotal_line variants read phi: it is computed once, or fails in each
        phi = functools.cache(lambda: linalg.char_poly(abs_matrix(transformed)))

        def corrected():
            if kind == "semitotal_line":
                # polynomial route: x^max(0,m-n) * phi(T2) == x^max(0,n-m) * prod(quadratics)
                lhs = linalg.poly_mul(_monomial(max(0, m - n)), phi())
                rhs = _monomial(max(0, n - m))
                for theta in lift_base_spectrum(kind, graph):
                    rhs = linalg.poly_mul(rhs, lift_quadratic(kind, r, theta))
                dev = linalg.poly_deviation(lhs, rhs)
                return True, dev, vtol, f"zero-padded char poly vs product of lift quadratics, r={r}{note}"
            predicted = predicted_transform_spectrum(kind, graph)
            actual = linalg.eigenvalues_symmetric(abs_matrix(transformed))
            dev = linalg.multiset_deviation(predicted, actual)
            return True, dev, vtol, f"predicted lift spectrum vs eigensolver, r={r}{note}"

        def as_printed():
            lhs_poly = phi()
            if kind == "semitotal_line":
                base_poly = linalg.char_poly(adjacency_matrix(line_graph(graph)))
                u = math.sqrt((4.0 * r - 2.0) / (4.0 * r))
                v = (3.0 * r - 2.0) / (3.0 * r)
                power = n - m

                def rhs_at(x):
                    pre = u * x + v
                    if abs(pre) < 1e-9:  # too close to the prefactor's pole
                        return math.nan
                    return pre * x**power * linalg.poly_eval(base_poly, (x * x - (6.0 * r - 4.0) / (3.0 * r)) / pre)

            elif kind == "semitotal_point":
                base_poly = linalg.char_poly(adjacency_matrix(graph))
                s = math.sqrt((2.0 * r - 1.0) / (2.0 * r))
                t = r / (r + 1.0)
                power = m - n

                def rhs_at(x):
                    pre = s * x + t
                    if abs(pre) < 1e-9:
                        return math.nan
                    return pre * x**power * linalg.poly_eval(base_poly, (x * x - r * r / (r + 1.0)) / pre)

            else:  # subdivision
                base_poly = linalg.char_poly(adjacency_matrix(graph))
                power = m - n

                def rhs_at(x):
                    return (r / (r + 2.0)) * x**power * linalg.poly_eval(base_poly, (x * x * (r + 2.0) - r * r) / r)

            devs = []
            for x in _SAMPLE_POINTS:
                lhs = linalg.poly_eval(lhs_poly, x)
                rhs = rhs_at(x)
                if not math.isfinite(rhs):
                    continue
                devs.append(_scalar_deviation(lhs, rhs))
            dev = max(devs)
            return True, dev, vtol, f"pointwise char poly vs printed prefactor identity, r={r}{note}"

        return corrected, as_printed

    return check


def _chk_path_recurrence(graph, params, tol):
    if not (is_path(graph) and graph.n >= 5):
        return False, 0.0, tol, "needs a path on n >= 5 vertices"
    dev = linalg.poly_deviation(path_abs_charpoly(graph.n), linalg.char_poly(abs_matrix(graph)))
    return True, dev, tol, f"recurrence coefficients vs Faddeev-LeVerrier, n={graph.n}"


def _closed_form_check(kind, detect):
    """``detect`` returns the family's parameters, or True for a family sized by n alone."""

    def check(graph, params, tol):
        found = detect(graph)
        if not found:
            return False, 0.0, tol, "graph is not in this family"
        vtol, note = _etol(graph, tol)
        args = (graph.n,) if found is True else found
        dev = linalg.multiset_deviation(closed_form_abs_spectrum(kind, *args), abs_spectrum(graph))
        return True, dev, vtol, f"closed-form spectrum vs eigensolver{note}"

    return check


def _chk_trace_harmonic(graph, params, tol):
    vtol, note = _etol(graph, tol)
    lhs = math.fsum(x * x for x in abs_spectrum(graph).tolist())
    rhs = 2.0 * (graph.m - degree_index(graph, "harmonic"))
    dev = _scalar_deviation(lhs, rhs)
    return True, dev, vtol, f"sum mu^2 = {_fmt(lhs)} vs 2(m - H) = {_fmt(rhs)}{note}"


def _chk_r1_bound(graph, params, tol):
    equality_scope = (False, 0.0, tol, "equality clause scoped to connected regular graphs, n >= 4")
    if graph.n < 4 or not is_connected(graph):
        return (False, 0.0, tol, "needs a connected graph on n >= 4 vertices"), equality_scope
    vtol, note = _etol(graph, tol)
    lhs = math.fsum(x * x for x in abs_spectrum(graph).tolist())
    rhs = (graph.n - 1) * (graph.n - 2.0 * degree_index(graph, "modified_second_zagreb"))
    bound = (True, max(0.0, lhs - rhs), vtol, f"sum mu^2 = {_fmt(lhs)} <= (n-1)(n - 2 R_-1) = {_fmt(rhs)}{note}")
    if is_regular(graph) is None:
        return bound, equality_scope
    details = (
        f"equality-for-regular claim: sum mu^2 = {_fmt(lhs)} vs bound {_fmt(rhs)}"
        f" (equality is observed exactly for complete graphs){note}"
    )
    return bound, (True, _scalar_deviation(lhs, rhs), vtol, details)


def _energy_check(kind):
    def check(graph, params, tol):
        r = _connected_regular_degree(graph)
        if r is None:
            skip = (False, 0.0, tol, "needs a connected regular graph with r >= 1")
            return skip, skip
        k = int(params.get("k", 2))
        if k < 1:
            raise ValueError(f"{kind} energy check needs k >= 1, got {k}")
        transformed = apply_transform(kind, graph, k)
        vtol, note = _etol(transformed, tol)
        lhs = abs_energy(transformed).energy
        predicted = predicted_energy(kind, graph, k)

        def outcome(rhs, side):
            details = f"k={k}, r={r}: E_ABS = {_fmt(lhs)} vs {side} {_fmt(rhs)}{note}"
            return True, _scalar_deviation(lhs, rhs), vtol, details

        return (
            outcome(predicted.corrected, "base-graph energy"),
            outcome(predicted.as_printed, "transformed-graph energy, printed factor"),
        )

    return check


_SINGLE = ("single",)
_BOTH = ("corrected", "as_printed")

_CHECKS = {
    CheckId.LEM_INCIDENCE_REG: (_SINGLE, _chk_incidence_reg),
    CheckId.LEM_INCIDENCE_LINE: (_SINGLE, _chk_incidence_line),
    CheckId.LEM_SCHUR: (_SINGLE, _chk_schur),
    CheckId.THM_REG_SCALING: (_BOTH, _chk_reg_scaling),
    CheckId.THM_SUBDIVISION: (_BOTH, _lift_check("subdivision")),
    CheckId.THM_SEMITOTAL_POINT: (_BOTH, _lift_check("semitotal_point")),
    CheckId.THM_SEMITOTAL_LINE: (_BOTH, _lift_check("semitotal_line")),
    CheckId.THM_PATH_RECURRENCE: (_SINGLE, _chk_path_recurrence),
    CheckId.THM_COMPLETE: (_SINGLE, _closed_form_check("complete", _is_complete)),
    CheckId.THM_CYCLE: (_SINGLE, _closed_form_check("cycle", _is_cycle)),
    CheckId.THM_KMN: (_SINGLE, _closed_form_check("complete_bipartite", _complete_bipartite_parts)),
    CheckId.THM_STAR: (_SINGLE, _closed_form_check("star", _is_star)),
    CheckId.THM_TRACE_HARMONIC: (_SINGLE, _chk_trace_harmonic),
    CheckId.THM_R1_BOUND: (_BOTH, _chk_r1_bound),
    CheckId.THM_SPLIT_ENERGY: (_BOTH, _energy_check("splitting")),
    CheckId.THM_SHADOW_ENERGY: (_BOTH, _energy_check("shadow")),
}


def _error(exc, tol):
    return True, "error", 0.0, tol, f"{type(exc).__name__}: {exc}"


def _settle(outcome, tol):
    """(applicable, verdict, deviation, tolerance, details) of one variant's outcome."""
    try:
        applicable, deviation, vtol, details = outcome() if callable(outcome) else outcome
    except Exception as exc:  # oracle failure -> recorded, not raised
        return _error(exc, tol)
    if not applicable:
        return False, "inapplicable", 0.0, vtol, details
    return True, "pass" if deviation <= vtol else "fail", deviation, vtol, details


def run_check(check, graph, params=None, tol=DEFAULT_TOL):
    """All variant reports for one check on one graph.

    ``params`` may carry ``k`` (copy count for the splitting/shadow energy
    checks, default 2) and ``descriptor`` (display name override). Oracle
    failures are captured as verdict ``error`` instead of raising. Work that
    every variant of a check needs is done once; if it fails, every variant
    reports the error. Work private to one variant fails only that variant,
    so e.g. an ``as_printed`` error leaves the ``corrected`` verdict intact.
    """
    if not isinstance(check, CheckId):
        try:
            check = CheckId[str(check)]
        except KeyError:
            raise ValueError(f"unknown check id {check!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    params = dict(params or {})
    descriptor = params.get("descriptor") or describe_graph(graph)
    variants, func = _CHECKS[check]
    try:
        outcomes = func(graph, params, tol)
    except Exception as exc:  # shared work failed -> every variant records it
        rows = [_error(exc, tol)] * len(variants)
    else:
        if variants == _SINGLE:
            outcomes = (outcomes,)
        rows = [_settle(outcome, tol) for outcome in outcomes]
    return [
        CheckReport(
            check=check.value,
            variant=variant,
            graph_descriptor=descriptor,
            applicable=applicable,
            verdict=verdict,
            max_deviation=float(deviation),
            tolerance=float(vtol),
            details=details,
        )
        for variant, (applicable, verdict, deviation, vtol, details) in zip(variants, rows)
    ]


def run_suite(entries, tol=DEFAULT_TOL):
    """Run every check on every entry; order is graph x check x variant.

    Entries are graphs or (graph, params) pairs. Per-check errors are captured
    in the reports, never raised.
    """
    reports = []
    for entry in entries:
        graph, params = entry if isinstance(entry, tuple) else (entry, None)
        for check in CheckId:
            reports.extend(run_check(check, graph, params, tol))
    return reports


def default_suite():
    """The standard corpus: C3..C8, K3..K6, P5..P8, K_{2,3} and S5, with k = 2."""
    entries = []
    for n in range(3, 9):
        entries.append((generate("cycle", n), {"descriptor": f"C{n}", "k": 2}))
    for n in range(3, 7):
        entries.append((generate("complete", n), {"descriptor": f"K{n}", "k": 2}))
    for n in range(5, 9):
        entries.append((generate("path", n), {"descriptor": f"P{n}", "k": 2}))
    entries.append((generate("complete_bipartite", 2, 3), {"descriptor": "K_{2,3}", "k": 2}))
    entries.append((generate("star", 5), {"descriptor": "S5", "k": 2}))
    return entries


def _round15(x):
    return 0.0 if x == 0 else float(f"{x:.15g}")


def report_to_dict(report):
    """JSON-ready dict with floats rounded to 15 significant digits."""
    return {
        "check": report.check,
        "variant": report.variant,
        "graph_descriptor": report.graph_descriptor,
        "applicable": report.applicable,
        "verdict": report.verdict,
        "max_deviation": _round15(report.max_deviation),
        "tolerance": _round15(report.tolerance),
        "details": report.details,
    }


def reports_to_json(reports):
    """Serialize reports as a JSON array (stable formatting)."""
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


def reports_to_csv(reports):
    """CSV mirror: header plus one row per report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["check", "variant", "graph_descriptor", "applicable", "verdict", "max_deviation", "tolerance", "details"]
    )
    for r in reports:
        writer.writerow(
            [
                r.check,
                r.variant,
                r.graph_descriptor,
                str(r.applicable).lower(),
                r.verdict,
                f"{_round15(r.max_deviation):.15g}",
                f"{_round15(r.tolerance):.15g}",
                r.details,
            ]
        )
    return buf.getvalue()


def has_key_failure(reports):
    """True when any corrected or single variant failed or errored."""
    return any(
        r.variant in ("corrected", "single") and r.verdict in ("fail", "error") for r in reports
    )
