"""Independent output checks, run outside the timed spans.

Each checker takes the program's stdout for one item and returns ``None`` when
it is correct, or a one-line reason when it is not. The references are numpy's
LAPACK routines and matrices, indices and transforms the benchmark builds
itself from its own edge lists; nothing here calls the package under test.
"""

import json
import math

import numpy as np

import inputs

# Jacobi against LAPACK eigenvalues of matrices with entries in [0, 1), order <= 160.
SPECTRUM_ATOL = 1e-9
# energy, trace_sq and harmonic_check, relative to max(1, |value|).
SCALAR_RTOL = 1e-9
# printed ABS entries (15 significant digits) against numpy.
MATRIX_ATOL = 1e-13
INDEX_RTOL = 1e-12
# Faddeev-LeVerrier against np.poly(eigvalsh): coefficient gap over max(1, largest |coefficient|).
CHARPOLY_TOL = 1e-8
# suite max_deviation against the golden value, relative to max(1, |golden|).
SUITE_DEVIATION_TOL = 1e-9

# Every suite report field except max_deviation must match the golden exactly.
_EXACT_FIELDS = ("check", "variant", "graph_descriptor", "applicable", "verdict", "tolerance", "details")


def abs_matrix(graph):
    """Dense ABS matrix assembled with numpy from the benchmark's own edge list."""
    n, edges = graph
    a = np.zeros((n, n))
    if edges:
        e = np.array(edges)
        deg = np.bincount(e.ravel(), minlength=n).astype(float)
        s = deg[e[:, 0]] + deg[e[:, 1]]
        w = np.sqrt((s - 2.0) / s)
        a[e[:, 0], e[:, 1]] = w
        a[e[:, 1], e[:, 0]] = w
    return a


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _harmonic_gap(graph):
    """2 * (m - H(G)), the value the ABS trace square equals."""
    deg = inputs.degrees(graph)
    return 2.0 * (len(graph[1]) - math.fsum(2.0 / (deg[u] + deg[v]) for u, v in graph[1]))


def check_spectrum(graph, text):
    out = json.loads(text)
    ref = np.linalg.eigvalsh(abs_matrix(graph))
    spec = np.asarray(out["spectrum"], dtype=float)
    if spec.shape != ref.shape:
        return f"spectrum has {spec.size} values, expected {ref.size}"
    gap = float(np.max(np.abs(spec - ref))) if spec.size else 0.0
    if not gap <= SPECTRUM_ATOL:
        return f"spectrum deviates from eigvalsh by {gap:.3g}"
    energy = math.fsum(abs(x) for x in ref.tolist())
    if not _rel(out["energy"], energy) <= SCALAR_RTOL:
        return f"energy {out['energy']!r} vs fsum(|eigvalsh|) {energy!r}"
    if not _rel(out["trace_sq"], out["harmonic_check"]) <= SCALAR_RTOL:
        return f"trace_sq {out['trace_sq']!r} != harmonic_check {out['harmonic_check']!r}"
    harmonic = _harmonic_gap(graph)
    if not _rel(out["harmonic_check"], harmonic) <= SCALAR_RTOL:
        return f"harmonic_check {out['harmonic_check']!r} vs recomputed {harmonic!r}"
    return None


def check_transform(kind, base, k, text):
    out = json.loads(text)
    got = (out["n"], tuple(tuple(e) for e in out["edges"]))
    counts = inputs.transform_counts(kind, base, k)
    if (got[0], len(got[1])) != counts:
        return f"{kind}: {got[0]} vertices / {len(got[1])} edges, formulas give {counts[0]} / {counts[1]}"
    if got != inputs.TRANSFORMS[kind](base, k):
        return f"{kind}: edge set differs from the reference construction"
    return None


def check_matrix(graph, text):
    out = json.loads(text)
    ref = abs_matrix(graph)
    if out["order"] != graph[0]:
        return f"order {out['order']} != {graph[0]}"
    rows = np.asarray(out["rows"], dtype=float).reshape(ref.shape)
    gap = float(np.max(np.abs(rows - ref))) if ref.size else 0.0
    return None if gap <= MATRIX_ATOL else f"ABS matrix deviates by {gap:.3g}"


def reference_indices(graph):
    """The seven degree indices, in the package's documented order."""
    deg = np.asarray(inputs.degrees(graph), dtype=float)
    e = np.array(graph[1], dtype=int).reshape(-1, 2)
    du, dv = deg[e[:, 0]], deg[e[:, 1]]
    s, p = du + dv, du * dv
    terms = {
        "M1": s,
        "M2": p,
        "randic": np.sqrt(1.0 / p),
        "harmonic": 2.0 / s,
        "modified_second_zagreb": 1.0 / p,
        "abc": np.sqrt((s - 2.0) / p),
        "abs": np.sqrt((s - 2.0) / s),
    }
    return {kind: math.fsum(t.tolist()) for kind, t in terms.items()}


def check_indices(graph, text):
    out = json.loads(text)
    ref = reference_indices(graph)
    if list(out) != list(ref):
        return f"index keys {list(out)} != {list(ref)}"
    for kind, value in ref.items():
        if not _rel(out[kind], value) <= INDEX_RTOL:
            return f"index {kind} {out[kind]!r} vs recomputed {value!r}"
    return None


def check_charpoly(graph, text):
    out = json.loads(text)
    ref = np.poly(np.linalg.eigvalsh(abs_matrix(graph)))[::-1]
    coeffs = np.asarray(out["coeffs"], dtype=float)
    if out["order"] != graph[0] or coeffs.shape != ref.shape:
        return f"charpoly order {out['order']} with {coeffs.size} coefficients, expected {graph[0]}"
    scale = max(1.0, float(np.max(np.abs(coeffs))), float(np.max(np.abs(ref))))
    dev = float(np.max(np.abs(coeffs - ref))) / scale
    return None if dev <= CHARPOLY_TOL else f"charpoly deviates from np.poly(eigvalsh) by {dev:.3g}"


def check_suite_entry(golden, text):
    """Compare one entry's reports with its golden slice."""
    out = json.loads(text)
    if len(out) != len(golden):
        return f"{len(out)} reports, golden has {len(golden)}"
    for got, want in zip(out, golden):
        for field in _EXACT_FIELDS:
            if got[field] != want[field]:
                return f"{want['check']}/{want['variant']} on {want['graph_descriptor']}: {field} {got[field]!r} != {want[field]!r}"
        dev, ref = got["max_deviation"], want["max_deviation"]
        if not abs(dev - ref) <= SUITE_DEVIATION_TOL * max(1.0, abs(ref)):
            return f"{want['check']}/{want['variant']} on {want['graph_descriptor']}: max_deviation {dev!r} vs golden {ref!r}"
    return None


def perturb(text):
    """The output with its largest-magnitude number changed: a float by 1e-6 relative, else an integer by one.

    Used by the self-test: every checker must reject the result.
    """
    data = json.loads(text)
    best = None  # ((is float, magnitude), container, key)
    stack = [data]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            value = node[key]
            if isinstance(value, (dict, list)):
                stack.append(value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                rank = (isinstance(value, float), abs(value))
                if best is None or rank > best[0]:
                    best = (rank, node, key)
    if best is None:
        raise ValueError("output holds no number to perturb")
    _, node, key = best
    value = node[key]
    node[key] = value + 1 if isinstance(value, int) else value + 1e-6 * max(1.0, abs(value))
    return json.dumps(data)
