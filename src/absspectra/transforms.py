"""Graph transformations: subdivision, semitotal point/line, k-splitting, k-shadow.

Vertex layout conventions are fixed so that block and Kronecker structure of
the resulting matrices is literal:

* subdivision / semitotal graphs keep the original vertices at ``0..n-1`` and
  place the vertex for edge j at ``n + j``, the ids ``graphs._incidence`` gives;
* ``splitting(G, k)`` keeps originals at ``0..n-1`` and puts copy block
  ``c in 1..k`` at ``c*n .. c*n + n - 1``;
* ``shadow(G, k)`` puts copy ``c in 0..k-1`` at ``c*n .. c*n + n - 1``.

Each transform checks the edge and vertex counts of its result against the
graph budgets before it builds anything. Each reads the base graph's runs and
emits one run per vertex of its result, the vertex's higher neighbours in
ascending order, with its degrees from the formula its docstring states, and
builds its result through ``Graph._canonical``, which neither checks, sorts
nor counts.
"""

from .graphs import Graph, _incidence, _integer, _line_runs, check_budget, line_graph_edge_count

TRANSFORM_KINDS = ("subdivision", "semitotal_point", "semitotal_line", "splitting", "shadow")
# The transforms that take a copy count k.
K_KINDS = ("splitting", "shadow")


def subdivision(graph):
    """Insert one new degree-2 vertex on every edge (n + m vertices, 2m edges)."""
    n, m = graph.n, graph.m
    check_budget(2 * m, n + m, "subdivision")
    return Graph._canonical(n + m, [*_incidence(graph, n), *[()] * m], graph.degrees + (2,) * m)


def semitotal_point(graph):
    """Original edges plus an edge-vertex joined to both endpoints of its edge.

    Original vertex degrees double; edge-vertices have degree 2. The result
    has n + m vertices and 3m edges.
    """
    n, m = graph.n, graph.m
    check_budget(3 * m, n + m, "semitotal_point")
    higher = [run + ids for run, ids in zip(graph.higher, _incidence(graph, n))] + [()] * m
    return Graph._canonical(n + m, higher, [2 * d for d in graph.degrees] + [2] * m)


def semitotal_line(graph):
    """Line-graph edges between edge-vertices plus (vertex, incident edge) edges.

    Original vertices keep their degree; the vertex for edge uv gets degree
    d(u) + d(v).
    """
    n, m = graph.n, graph.m
    check_budget(line_graph_edge_count(graph) + 2 * m, n + m, "semitotal_line")
    incident = _incidence(graph, n)  # the original vertices' runs; _line_runs adds the edge-vertices'
    degs = graph.degrees
    edge_degrees = [degs[u] + degs[v] for u, run in enumerate(graph.higher) for v in run]
    return Graph._canonical(n + m, _line_runs([*incident], graph, incident), [*degs, *edge_degrees])


def _lift(graph, higher, a, copies):
    """Append to ``higher[a + x]`` x's higher neighbours in copy ``a``, then its neighbours in each of ``copies``."""
    for u, run in enumerate(graph.higher):
        for v in run:
            higher[a + u].append(a + v)
    for b in copies:  # outermost, so each list stays ascending
        for u, run in enumerate(graph.higher):
            for v in run:
                higher[a + u].append(b + v)
                higher[a + v].append(b + u)


def splitting(graph, k):
    """Add k copy vertices per vertex, each adjacent to that vertex's original neighbors.

    (k+1)n vertices and (2k+1)m edges; original degrees scale by k+1, copies
    keep the base degree. A k that is a bool or not integral raises ``ValueError``.
    """
    k = _integer(k, "splitting copy counts k", 1)
    check_budget((2 * k + 1) * graph.m, (k + 1) * graph.n, f"splitting with k={k}")
    n, degs = graph.n, graph.degrees
    higher = [[] for _ in range(n)]  # copies join only originals, which have the lower ids
    _lift(graph, higher, 0, range(n, (k + 1) * n, n) if graph.m else ())  # n = 0 has no copy step
    return Graph._canonical((k + 1) * n, higher + [()] * (k * n), [(k + 1) * d for d in degs] + list(degs) * k)


def shadow(graph, k):
    """k copies of the graph with every cross-copy pair of an edge's endpoints joined.

    kn vertices, k^2 m edges, every degree scales by k. ``shadow(G, 1)`` is G
    itself. ``k`` is read as in :func:`splitting`.
    """
    k = _integer(k, "shadow copy counts k", 1)
    if k == 1:
        return graph
    check_budget(k * k * graph.m, k * graph.n, f"shadow with k={k}")
    n = graph.n
    higher = [[] for _ in range(k * n)]
    # an edgeless graph gets no edges, so skip its k^2 empty copy pairs (and n = 0 its zero step)
    copies = range(0, k * n, n) if graph.m else ()
    for c, a in enumerate(copies):
        _lift(graph, higher, a, copies[c + 1 :])
    return Graph._canonical(k * n, higher, [k * d for d in graph.degrees] * k)


def apply_transform(kind, graph, k=None):
    """Dispatch a transform by name; the K_KINDS, splitting and shadow, read the copy count ``k`` (None raises)."""
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform {kind!r}; expected one of {TRANSFORM_KINDS}")
    if kind in K_KINDS:
        return splitting(graph, k) if kind == "splitting" else shadow(graph, k)
    if kind == "subdivision":
        return subdivision(graph)
    return semitotal_point(graph) if kind == "semitotal_point" else semitotal_line(graph)
