"""Registry of numeric identity checks with machine-readable verdicts.

Each check compares one claimed identity against independent numeric oracles
(the Jacobi eigensolver, the Faddeev-LeVerrier characteristic polynomial, LU
determinants, direct graph construction). Checks whose original scalar
prefactors are inconsistent with ``det(c*M) = c^n * det(M)``, or whose energy
right-hand sides reference the transformed instead of the base graph, emit two
variants: ``corrected`` (the reading consistent with the block/Kronecker
derivation; the one acceptance keys on) and ``as_printed`` (informational).
Each check is one function: the work both variants need (precondition,
transformed graph, shared oracles) runs once, and a failure there marks both
variants ``error``; oracle work only one variant needs runs apart, so its
failure marks only that variant ``error``. A check measures deviations;
``run_check`` judges them against the tolerance its rule in ``_CHECKS`` gives.
Everything is deterministic: two runs over the same inputs produce identical
reports.
"""

import contextlib
import csv
import dataclasses
import enum
import io
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from . import linalg
from .graphs import (
    _integer,
    adjacency_matrix,
    check_dense_budget,
    connected_regular_degree,
    families,
    generate,
    incidence_matrix,
    is_connected,
    is_regular,
    line_graph,
)
from .indices import degree_index
from .spectra import (
    abs_matrix,
    closed_form_abs_spectrum,
    energy,
    graph_matrix,
    lift_coefficients,
    path_abs_charpoly,
    predicted_energy,
    predicted_transform_spectrum,
    regular_abs_factor,
)
from .transforms import K_KINDS, TRANSFORM_KINDS, apply_transform

DEFAULT_TOL = 1e-8
# The tolerance eigensolver checks relax to on large graphs (see _settle).
RELAXED_TOL = 1e-6

# Fixed evaluation points for pointwise identity checks: nonzero, for negative
# powers of x, and where |u*x + v| >= 1/3 for every lift's prefactor.
_SAMPLE_POINTS = (
    0.6180339887498949,
    1.3247179572447460,
    2.4142135623730951,
    -1.6180339887498949,
    -2.2360679774997896,
)


@dataclasses.dataclass(frozen=True)
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


def _copies(params):
    """The copy count k of the energy checks, default 2, read by ``graphs._integer``: a non-integral k raises."""
    return _integer((params or {}).get("k", 2), "copy counts k")


_FAMILY_NAMES = {
    "complete": "K{}",
    "cycle": "C{}",
    "path": "P{}",
    "star": "S{}",
    "complete_bipartite": "K_{{{},{}}}",
}


def describe_graph(graph):
    """Deterministic short name: first named family recognized, else n/m summary."""
    if graph.n == 0:
        return "empty(0)"
    if graph.n == 1:
        return "K1"
    for kind, sizes in families(graph).items():
        return _FAMILY_NAMES[kind].format(*sizes)
    return f"graph(n={graph.n},m={graph.m})"


class _Spectra:
    """Transformed graphs, spectra and characteristic polynomials of one run, each computed once.

    ``run_check`` makes one and ``run_suite`` shares one across its entries;
    it is dropped when that call returns, so nothing outlives a run.
    Transformed graphs are keyed by (kind, graph, k), k read from the params
    by :meth:`transform` alone, so the plan and the checks read one object;
    spectra and polynomials by (graph, matrix kind), kind ``"abs"`` or
    ``"adjacency"``; ``Graph`` hashes by content. Stored arrays are
    read-only, since every check that asks gets the same array. A computation
    that raises is not stored, so it raises again for each caller: an oracle
    error private to one variant stays private. ``run_suite`` has
    :meth:`prefetch` solve its one plan first; a spectrum not prefetched is
    solved alone, as a stack of one, through the same :meth:`_solve`.
    """

    def __init__(self):
        self._graphs = {}
        self._spectra = {}
        self._charpolys = {}

    def transform(self, kind, graph, params=None):
        """The ``kind`` transform of ``graph`` (k from ``params`` for K_KINDS), or L(G) for kind ``"line_graph"``."""
        k = _copies(params) if kind in K_KINDS else None
        key = (kind, graph, k)
        built = self._graphs.get(key)
        if built is None:
            built = self._graphs[key] = line_graph(graph) if kind == "line_graph" else apply_transform(kind, graph, k)
        return built

    def _solve(self, keys):
        """Solve the same-order (graph, kind) ``keys`` in one stacked eigensolve and store their read-only rows."""
        rows = linalg.eigenvalues_symmetric(np.stack([graph_matrix(*key) for key in keys]))
        rows.flags.writeable = False
        self._spectra.update(zip(keys, rows))

    def spectrum(self, graph, kind):
        """Eigenvalues of the graph's ``kind`` matrix, ascending."""
        row = self._spectra.get((graph, kind))
        if row is None:
            self._solve([(graph, kind)])
            row = self._spectra[graph, kind]
        return row

    def charpoly(self, graph, kind):
        """Faddeev-LeVerrier characteristic polynomial of the graph's ``kind`` matrix."""
        poly = self._charpolys.get((graph, kind))
        if poly is None:
            poly = self._charpolys[graph, kind] = linalg.char_poly(graph_matrix(graph, kind))
            poly.flags.writeable = False
        return poly

    def prefetch(self, keys):
        """Solve and store the spectra of the (graph, kind) ``keys``, one :meth:`_solve` per order.

        A Jacobi round costs about as much for a stack of small matrices as
        for one, and each member's eigenvalues are bit for bit those of its
        own solve. A group whose solve raises stores nothing, so each caller
        meets the error when :meth:`spectrum` solves its key alone.
        """
        groups = {}
        for key in dict.fromkeys(keys):
            if key[0].n <= linalg._JACOBI_ORDER_CAP:  # a larger order is refused, so it is not built here
                groups.setdefault(key[0].n, []).append(key)
        for group in groups.values():
            with contextlib.suppress(Exception):  # left to spectrum, which reports it per caller
                self._solve(group)


def _spectral_plan(graph, params, memo):
    """The (graph, kind) spectra the checks ask of one suite entry, in a fixed order.

    It asks what the checks ask: the ABS spectrum of every graph; the adjacency spectrum of an
    r-regular graph with r >= 1 (regular scaling); and, for a graph that ``connected_regular_degree``
    admits as ``_transform_check`` does, what the check of each transform that ``memo`` builds reads:
    the ABS spectrum of the subdivision or the semitotal point graph, L(G)'s adjacency spectrum for
    the semitotal line graph, both spectra of the k-splitting or the k-shadow. A transform that cannot
    be built adds nothing, and only the checks that build it report the error. A key may repeat: L(C3)
    is C3, and the 1-shadow is the graph itself.
    """
    keys = [(graph, "abs")]
    if is_regular(graph):
        keys.append((graph, "adjacency"))
    if connected_regular_degree(graph) is not None:
        for kind in TRANSFORM_KINDS:
            with contextlib.suppress(ValueError):  # not built: the checks that build it report the error
                transformed = memo.transform(kind, graph, params)
                if kind == "semitotal_line":
                    keys.append((memo.transform("line_graph", graph), "adjacency"))
                else:
                    keys += [(transformed, "abs")] + [(transformed, "adjacency")] * (kind in K_KINDS)
    return keys


# --- check implementations ---------------------------------------------------
#
# A check takes (graph, params, memo), memo being the run's _Spectra. A
# single-variant check returns its result (applicable, max_deviation,
# details). A two-variant check first does the work both variants need, then
# returns one outcome per variant, in the order _CHECKS names them: the result
# itself, or a zero-argument function computing it when that variant has
# oracle work of its own (see _settle).


def _chk_incidence_reg(graph, params, memo):
    r = is_regular(graph)
    if r is None:
        return False, 0.0, "not regular"
    check_dense_budget(graph.n, graph.n, "F F^t")
    f = incidence_matrix(graph)
    lhs = f @ f.T
    rhs = adjacency_matrix(graph) + r * np.eye(graph.n)
    dev = float(np.abs(lhs - rhs).max(initial=0))
    return True, dev, f"F F^t vs A + {r}I, integer arithmetic"


def _chk_incidence_line(graph, params, memo):
    check_dense_budget(graph.m, graph.m, "F^t F")
    f = incidence_matrix(graph)
    lhs = f.T @ f
    rhs = 2 * np.eye(graph.m) + adjacency_matrix(memo.transform("line_graph", graph))
    dev = float(np.abs(lhs - rhs).max(initial=0))
    return True, dev, "F^t F vs 2I + A(L(G)), integer arithmetic"


# LEM_SCHUR's three partial-pivot eliminations grow as n^3 in the graph order n:
# C300 takes 0.5 s, C500 2.0 s, C600 3.0 s and C700 5.2 s (2-vCPU Xeon, 2 runs).
_SCHUR_ORDER_CAP = 500


def _chk_schur(graph, params, memo):
    if graph.n == 0:
        return False, 0.0, "empty graph"
    check_dense_budget(2 * graph.n, 2 * graph.n, "block matrix")
    if graph.n > _SCHUR_ORDER_CAP:
        raise ValueError(f"graph order {graph.n} exceeds LEM_SCHUR cap {_SCHUR_ORDER_CAP}")
    a = adjacency_matrix(graph)
    shift = max(graph.degrees) + 1
    m_blk = a + shift * np.eye(graph.n)  # diagonally dominant, invertible
    n_blk = abs_matrix(graph)
    block = np.block([[m_blk, n_blk], [n_blk, m_blk]])
    with np.errstate(over="ignore"):
        lhs = linalg.det_lu(block)
        det_m, m_inv_n = linalg.solve_lu(m_blk, n_blk)
        rhs = det_m * linalg.det_lu(m_blk - n_blk @ m_inv_n)
    details = f"block det {_fmt(lhs)} vs |M||Q - P M^-1 N| {_fmt(rhs)}"
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"a determinant overflows: {details}")
    return True, _scalar_deviation(lhs, rhs), details


def _chk_reg_scaling(graph, params, memo):
    r = is_regular(graph)

    def corrected():
        if r is None or r < 1:
            return False, 0.0, "not regular with r >= 1"
        predicted = regular_abs_factor(r) * memo.spectrum(graph, "adjacency")
        dev = linalg.multiset_deviation(predicted, memo.spectrum(graph, "abs"))
        return True, dev, f"ABS spectrum vs sqrt(r^2-r)/r scaled adjacency spectrum, r={r}"

    def as_printed():
        if r is None or r < 2:
            return False, 0.0, "needs regular r >= 2 (scale factor positive)"
        c = regular_abs_factor(r)
        psi = memo.charpoly(graph, "adjacency")
        # printed identity: phi(x) = c * psi(x / c); as a coefficient array the
        # right side is psi_i * c^(1-i), which omits the order-n determinant
        # exponent and differs from phi by c^(1-n).
        printed = np.array([psi[i] * c ** (1 - i) for i in range(psi.size)])
        phi = memo.charpoly(graph, "abs")
        dev = linalg.poly_deviation(phi, printed)
        return True, dev, f"char poly vs printed single-power prefactor, r={r}"

    return corrected, as_printed


def _transform_check(kind, variants):
    """Check of a ``kind`` transform theorem: both variants skip unless the graph is connected and r-regular, r >= 1."""
    def check(graph, params, memo):
        r = connected_regular_degree(graph)
        if r is None:
            skip = (False, 0.0, "needs a connected regular graph with r >= 1")
            return skip, skip
        return variants(kind, graph, params, memo, r, memo.transform(kind, graph, params))

    return check


def _lift_variants(kind, graph, params, memo, r, transformed):
    u, v, w = lift_coefficients(kind, r)
    base = memo.transform("line_graph", graph) if kind == "semitotal_line" else graph
    surplus = transformed.n - 2 * base.n  # zero roots beyond the lifted pairs

    def corrected():
        if kind == "semitotal_line":
            # polynomial route: x^max(0,-s) * phi(T2) == x^max(0,s) * prod(x^2 - u*lam*x - (v*lam + w))
            lhs = np.concatenate([np.zeros(max(0, -surplus)), memo.charpoly(transformed, "abs")])
            rhs = np.concatenate([np.zeros(max(0, surplus)), [1.0]])
            for lam in memo.spectrum(base, "adjacency").tolist():
                rhs = np.convolve(rhs, [-(v * lam + w), -u * lam, 1.0])
            dev = linalg.poly_deviation(lhs, rhs)
            return True, dev, f"zero-padded char poly vs product of lift quadratics, r={r}"
        predicted = predicted_transform_spectrum(kind, r, memo.spectrum(base, "adjacency"), transformed.n)
        actual = memo.spectrum(transformed, "abs")
        dev = linalg.multiset_deviation(predicted, actual)
        return True, dev, f"predicted lift spectrum vs eigensolver, r={r}"

    def as_printed():
        # np.polyval takes the highest power first
        lhs = np.polyval(memo.charpoly(transformed, "abs")[::-1], _SAMPLE_POINTS).tolist()
        args = [(x * x - w) / (u * x + v) for x in _SAMPLE_POINTS]
        psi = np.polyval(memo.charpoly(base, "adjacency")[::-1], args).tolist()
        rhs = [(u * x + v) * x**surplus * psi_x for x, psi_x in zip(_SAMPLE_POINTS, psi)]
        dev = max(map(_scalar_deviation, lhs, rhs))
        return True, dev, f"pointwise char poly vs printed prefactor identity, r={r}"

    return corrected, as_printed


def _chk_path_recurrence(graph, params, memo):
    if not ("path" in families(graph) and graph.n >= 5):
        return False, 0.0, "needs a path on n >= 5 vertices"
    phi = memo.charpoly(graph, "abs")  # first, so FL's order cap refuses before the recurrence overflows
    dev = linalg.poly_deviation(path_abs_charpoly(graph.n), phi)
    return True, dev, f"recurrence coefficients vs Faddeev-LeVerrier, n={graph.n}"


def _closed_form_check(kind):
    def check(graph, params, memo):
        sizes = families(graph).get(kind)
        if sizes is None:
            return False, 0.0, "graph is not in this family"
        dev = linalg.multiset_deviation(closed_form_abs_spectrum(kind, *sizes), memo.spectrum(graph, "abs"))
        return True, dev, "closed-form spectrum vs eigensolver"

    return check


def _chk_trace_harmonic(graph, params, memo):
    lhs = math.fsum(x * x for x in memo.spectrum(graph, "abs").tolist())
    rhs = 2.0 * (graph.m - degree_index(graph, "harmonic"))
    dev = _scalar_deviation(lhs, rhs)
    return True, dev, f"sum mu^2 = {_fmt(lhs)} vs 2(m - H) = {_fmt(rhs)}"


def _chk_r1_bound(graph, params, memo):
    equality_scope = (False, 0.0, "equality clause scoped to connected regular graphs, n >= 4")
    if graph.n < 4 or not is_connected(graph):
        return (False, 0.0, "needs a connected graph on n >= 4 vertices"), equality_scope
    lhs = math.fsum(x * x for x in memo.spectrum(graph, "abs").tolist())
    rhs = (graph.n - 1) * (graph.n - 2.0 * degree_index(graph, "modified_second_zagreb"))
    bound = (True, max(0.0, lhs - rhs), f"sum mu^2 = {_fmt(lhs)} <= (n-1)(n - 2 R_-1) = {_fmt(rhs)}")
    if is_regular(graph) is None:
        return bound, equality_scope
    details = f"equality-for-regular claim: sum mu^2 = {_fmt(lhs)} vs bound {_fmt(rhs)}"
    return bound, (True, _scalar_deviation(lhs, rhs), details + " (equality is observed exactly for complete graphs)")


def _energy_variants(kind, graph, params, memo, r, transformed):
    k = _copies(params)
    lhs = energy(memo.spectrum(transformed, "abs"))
    base_energy, transformed_energy = (energy(memo.spectrum(g, "adjacency")) for g in (graph, transformed))
    corrected, as_printed = predicted_energy(kind, r, k, base_energy, transformed_energy)

    def outcome(rhs, side):
        return True, _scalar_deviation(lhs, rhs), f"k={k}, r={r}: E_ABS = {_fmt(lhs)} vs {side} {_fmt(rhs)}"

    return (
        outcome(corrected, "base-graph energy"),
        outcome(as_printed, "transformed-graph energy, printed factor"),
    )


_SINGLE = ("single",)
_BOTH = ("corrected", "as_printed")

# name -> (variants, check function, tolerance rule; see _settle), in report
# order; CheckId is built from it.
_CHECKS = {
    "LEM_INCIDENCE_REG": (_SINGLE, _chk_incidence_reg, "exact"),
    "LEM_INCIDENCE_LINE": (_SINGLE, _chk_incidence_line, "exact"),
    "LEM_SCHUR": (_SINGLE, _chk_schur, "fixed"),
    "THM_REG_SCALING": (_BOTH, _chk_reg_scaling, "graph"),
    "THM_SUBDIVISION": (_BOTH, _transform_check("subdivision", _lift_variants), "subdivision"),
    "THM_SEMITOTAL_POINT": (_BOTH, _transform_check("semitotal_point", _lift_variants), "semitotal_point"),
    "THM_SEMITOTAL_LINE": (_BOTH, _transform_check("semitotal_line", _lift_variants), "semitotal_line"),
    "THM_PATH_RECURRENCE": (_SINGLE, _chk_path_recurrence, "fixed"),
    "THM_COMPLETE": (_SINGLE, _closed_form_check("complete"), "graph"),
    "THM_CYCLE": (_SINGLE, _closed_form_check("cycle"), "graph"),
    "THM_KMN": (_SINGLE, _closed_form_check("complete_bipartite"), "graph"),
    "THM_STAR": (_SINGLE, _closed_form_check("star"), "graph"),
    "THM_TRACE_HARMONIC": (_SINGLE, _chk_trace_harmonic, "graph"),
    "THM_R1_BOUND": (_BOTH, _chk_r1_bound, "graph"),
    "THM_SPLIT_ENERGY": (_BOTH, _transform_check("splitting", _energy_variants), "splitting"),
    "THM_SHADOW_ENERGY": (_BOTH, _transform_check("shadow", _energy_variants), "shadow"),
}

CheckId = enum.Enum("CheckId", [(name, name) for name in _CHECKS], module=__name__)

# The checks that read ``params["k"]``, those whose tolerance rule is a copy-count
# transform; the copy count means nothing to the others.
K_CHECKS = tuple(CheckId[name] for name, (_, _, rule) in _CHECKS.items() if rule in K_KINDS)


def _read_tol(tol):
    tol = float(linalg._real_array(tol, "tolerance", 0))
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol


def _settle(outcome, rule, graph, params, tol, memo):
    """(applicable, verdict, deviation, tolerance, details) of a variant's outcome or the shared work's exception.

    The check's ``rule`` gives the tolerance. ``"exact"`` allows 0.0 and ``"fixed"`` the run's
    ``tol``. Another rule names the graph that limits an eigensolver check, ``"graph"`` itself or
    its transform of that kind (already in ``memo``). An applicable outcome relaxes to RELAXED_TOL
    when that graph has n + m > 100. An error row carries the run's ``tol``.
    """
    try:
        if isinstance(outcome, Exception):
            raise outcome
        applicable, deviation, details = outcome() if callable(outcome) else outcome
        if not math.isfinite(deviation):
            raise ValueError(f"deviation is {deviation}: {details}")
        vtol = 0.0 if rule == "exact" else tol
        if applicable and rule not in ("exact", "fixed"):
            sized = graph if rule == "graph" else memo.transform(rule, graph, params)
            if sized.n + sized.m > 100 and tol < RELAXED_TOL:
                vtol, details = RELAXED_TOL, f"{details}; tolerance relaxed to {RELAXED_TOL:g} (n+m > 100)"
    except Exception as exc:  # oracle failure -> recorded, not raised
        return True, "error", 0.0, tol, f"{type(exc).__name__}: {exc}"
    if not applicable:
        return False, "inapplicable", 0.0, vtol, details
    return True, "pass" if deviation <= vtol else "fail", float(deviation), vtol, details


def run_check(check, graph, params=None, tol=DEFAULT_TOL, *, _memo=None):
    """All variant reports for one check on one graph.

    ``params`` may carry ``k`` (copy count for the splitting/shadow energy
    checks, default 2) and ``descriptor`` (display name override). Oracle
    failures are captured as verdict ``error`` instead of raising. Work that
    every variant of a check needs is done once; if it fails, every variant
    reports the error. Work private to one variant fails only that variant,
    so e.g. an ``as_printed`` error leaves the ``corrected`` verdict intact.
    Each spectrum and characteristic polynomial is computed once per call;
    ``run_suite`` passes ``_memo`` to share them across its checks.
    """
    name = check.value if isinstance(check, CheckId) else str(check)
    if name not in _CHECKS:
        raise ValueError(f"unknown check id {check!r}")
    tol = _read_tol(tol)
    params = dict(params or {})
    descriptor = params.get("descriptor") or describe_graph(graph)
    variants, func, rule = _CHECKS[name]
    memo = _Spectra() if _memo is None else _memo
    try:
        outcome = func(graph, params, memo)
        outcomes = [outcome] if variants == _SINGLE else outcome
    except Exception as exc:  # shared work failed -> every variant records it
        outcomes = [exc] * len(variants)
    return [
        CheckReport(name, variant, descriptor, *_settle(outcome, rule, graph, params, tol, memo))
        for variant, outcome in zip(variants, outcomes)
    ]


def run_suite(entries, tol=DEFAULT_TOL):
    """Run every check on every entry; order is graph x check x variant.

    Entries are graphs or (graph, params) pairs. A bad ``tol`` is refused as by ``run_check``, before
    anything is solved; per-check errors are captured in the reports, never raised. Each spectrum and
    characteristic polynomial is computed once per call: the entries' plans (see ``_spectral_plan``)
    are joined into one, solved in one stacked eigensolve per order first.
    """
    tol = _read_tol(tol)
    memo = _Spectra()
    entries = [entry if isinstance(entry, tuple) else (entry, None) for entry in entries]
    memo.prefetch([key for graph, params in entries for key in _spectral_plan(graph, params, memo)])
    runs = (run_check(check, graph, params, tol, _memo=memo) for graph, params in entries for check in CheckId)
    return [r for reports in runs for r in reports]


def default_suite():
    """The standard corpus: C3..C8, K3..K6, P5..P8, K_{2,3} and S5, with k = 2."""
    members = [("cycle", n) for n in range(3, 9)] + [("complete", n) for n in range(3, 7)]
    members += [("path", n) for n in range(5, 9)] + [("complete_bipartite", 2, 3), ("star", 5)]
    return [
        (generate(kind, *sizes), {"descriptor": _FAMILY_NAMES[kind].format(*sizes), "k": 2})
        for kind, *sizes in members
    ]


def _round15(x):
    return 0.0 if x == 0 else float(f"{x:.15g}")


def _fmt15(x):
    """Text of ``_round15(x)`` at 15 significant digits (``-0.0`` prints as ``0``)."""
    return f"{_round15(x):.15g}"


class _JsonText(dict):
    """``text(value)`` is ``json.dumps(value, indent=2)`` with floats rounded by ``_round15``.

    Dicts map strings to anything, and a list holds only dicts and lists or only floats.
    The instance keeps each float's text and nothing else, as ``True`` and ``1.0`` share a key.
    """

    def __missing__(self, x):
        return self.setdefault(x, json.dumps(_round15(x)))

    def text(self, value, indent=""):
        if isinstance(value, float):
            return self[value]
        if not isinstance(value, (dict, list)):
            return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)
        inner = indent + "  "
        if isinstance(value, dict):
            parts = [f"{encode_basestring_ascii(key)}: {self.text(item, inner)}" for key, item in value.items()]
        elif value and isinstance(value[0], (dict, list)):
            parts = [self.text(item, inner) for item in value]
        else:
            parts = map(self.__getitem__, value)
        body = f",\n{inner}".join(parts)
        brackets = "{}" if isinstance(value, dict) else "[]"
        return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}" if body else brackets


def reports_to_json(reports):
    """Serialize reports as a JSON array (stable formatting)."""
    return _JsonText().text([vars(r) for r in reports])


def _csv_cell(value):
    """CSV text of a cell: a bool as true/false, a float by ``_fmt15``, a list as its floats joined by commas."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(_fmt15, value))
    return _fmt15(value) if isinstance(value, float) else value


def reports_to_csv(reports):
    """CSV mirror: header plus one row per report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [field.name for field in dataclasses.fields(CheckReport)]
    writer.writerow(names)
    writer.writerows([_csv_cell(getattr(r, name)) for name in names] for r in reports)
    return buf.getvalue()


def has_key_failure(reports):
    """True when any corrected or single variant failed or errored."""
    return any(
        r.variant in ("corrected", "single") and r.verdict in ("fail", "error") for r in reports
    )
