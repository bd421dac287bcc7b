"""Graph transformations: subdivision, semitotal point/line, k-splitting, k-shadow.

Vertex layout conventions are fixed so that block and Kronecker structure of
the resulting matrices is literal:

* subdivision / semitotal graphs keep the original vertices at ``0..n-1`` and
  place the vertex for edge j (canonical edge order) at ``n + j``;
* ``splitting(G, k)`` keeps originals at ``0..n-1`` and puts copy block
  ``c in 1..k`` at ``c*n .. c*n + n - 1``;
* ``shadow(G, k)`` puts copy ``c in 0..k-1`` at ``c*n .. c*n + n - 1``.

Each transform checks the edge and vertex counts of its result against the
graph budgets before it builds anything. Each emits distinct in-range
``(min, max)`` pairs and builds its result through ``Graph._canonical``,
without the checks ``Graph`` runs on outside input.
"""

from itertools import chain

from .graphs import Graph, _integer, check_budget, line_graph_edge_count, line_pairs

TRANSFORM_KINDS = ("subdivision", "semitotal_point", "semitotal_line", "splitting", "shadow")
# The transforms that take a copy count k.
K_KINDS = ("splitting", "shadow")


def _edge_vertex_pairs(graph):
    """``(u, n + j)`` and ``(v, n + j)`` for each edge j = uv, joining edge-vertex n + j to both endpoints."""
    for j, (u, v) in enumerate(graph.edges, graph.n):
        yield u, j
        yield v, j


def subdivision(graph):
    """Insert one new degree-2 vertex on every edge (n + m vertices, 2m edges)."""
    check_budget(2 * graph.m, graph.n + graph.m, "subdivision")
    return Graph._canonical(graph.n + graph.m, _edge_vertex_pairs(graph))


def semitotal_point(graph):
    """Original edges plus an edge-vertex joined to both endpoints of its edge.

    Original vertex degrees double; edge-vertices have degree 2. The result
    has n + m vertices and 3m edges.
    """
    check_budget(3 * graph.m, graph.n + graph.m, "semitotal_point")
    return Graph._canonical(graph.n + graph.m, chain(graph.edges, _edge_vertex_pairs(graph)))


def semitotal_line(graph):
    """Line-graph edges between edge-vertices plus (vertex, incident edge) edges.

    Original vertices keep their degree; the vertex for edge uv gets degree
    d(u) + d(v).
    """
    check_budget(line_graph_edge_count(graph) + 2 * graph.m, graph.n + graph.m, "semitotal_line")
    return Graph._canonical(graph.n + graph.m, chain(line_pairs(graph, graph.n), _edge_vertex_pairs(graph)))


def splitting(graph, k):
    """Add k copy vertices per vertex, each adjacent to that vertex's original neighbors.

    (k+1)n vertices and (2k+1)m edges; original degrees scale by k+1, copies
    keep the base degree. A k that is a bool or not integral raises ``ValueError``.
    """
    k = _integer(k, "splitting copy counts k")
    if k < 1:
        raise ValueError(f"splitting needs k >= 1, got {k}")
    check_budget((2 * k + 1) * graph.m, (k + 1) * graph.n, f"splitting with k={k}")
    n = graph.n
    pairs = list(graph.edges)
    for c in range(1, k + 1):
        off = c * n
        for u, v in graph.edges:
            pairs.append((v, off + u))
            pairs.append((u, off + v))
    return Graph._canonical((k + 1) * n, pairs)


def shadow(graph, k):
    """k copies of the graph with every cross-copy pair of an edge's endpoints joined.

    kn vertices, k^2 m edges, every degree scales by k. ``shadow(G, 1)`` is G
    itself. ``k`` is read as in :func:`splitting`.
    """
    k = _integer(k, "shadow copy counts k")
    if k < 1:
        raise ValueError(f"shadow needs k >= 1, got {k}")
    if k == 1:
        return graph
    check_budget(k * k * graph.m, k * graph.n, f"shadow with k={k}")
    n = graph.n
    pairs = []
    # an edgeless graph gets no pairs, so skip its k^2 empty copy pairs
    for c in range(k if graph.m else 0):
        for cp in range(k):
            a, b = c * n, cp * n
            # copy c's vertices all precede copy cp's when c < cp; within one copy u < v
            if c <= cp:
                pairs.extend((a + u, b + v) for u, v in graph.edges)
            else:
                pairs.extend((b + v, a + u) for u, v in graph.edges)
    return Graph._canonical(k * n, pairs)


def apply_transform(kind, graph, k=None):
    """Dispatch a transform by name; the K_KINDS, splitting and shadow, read the copy count ``k`` (None raises)."""
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform {kind!r}; expected one of {TRANSFORM_KINDS}")
    if kind in K_KINDS:
        return splitting(graph, k) if kind == "splitting" else shadow(graph, k)
    if kind == "subdivision":
        return subdivision(graph)
    return semitotal_point(graph) if kind == "semitotal_point" else semitotal_line(graph)
