"""Graph transformations: subdivision, semitotal point/line, k-splitting, k-shadow.

Vertex layout conventions are fixed so that block and Kronecker structure of
the resulting matrices is literal:

* subdivision / semitotal graphs keep the original vertices at ``0..n-1`` and
  place the vertex for edge j (canonical edge order) at ``n + j``;
* ``splitting(G, k)`` keeps originals at ``0..n-1`` and puts copy block
  ``c in 1..k`` at ``c*n .. c*n + n - 1``;
* ``shadow(G, k)`` puts copy ``c in 0..k-1`` at ``c*n .. c*n + n - 1``.

Each transform checks the edge count of its result against the graph edge
budget before it builds anything.
"""

from .graphs import Graph, check_edge_budget, line_graph, line_graph_edge_count

TRANSFORM_KINDS = ("subdivision", "semitotal_point", "semitotal_line", "splitting", "shadow")


def subdivision(graph):
    """Insert one new degree-2 vertex on every edge (n + m vertices, 2m edges)."""
    check_edge_budget(2 * graph.m, "subdivision")
    n = graph.n
    pairs = []
    for j, (u, v) in enumerate(graph.edges):
        pairs.append((u, n + j))
        pairs.append((v, n + j))
    return Graph(n + graph.m, pairs)


def semitotal_point(graph):
    """Original edges plus an edge-vertex joined to both endpoints of its edge.

    Original vertex degrees double; edge-vertices have degree 2. The result
    has n + m vertices and 3m edges.
    """
    check_edge_budget(3 * graph.m, "semitotal_point")
    n = graph.n
    pairs = list(graph.edges)
    for j, (u, v) in enumerate(graph.edges):
        pairs.append((u, n + j))
        pairs.append((v, n + j))
    return Graph(n + graph.m, pairs)


def semitotal_line(graph):
    """Line-graph edges between edge-vertices plus (vertex, incident edge) edges.

    Original vertices keep their degree; the vertex for edge uv gets degree
    d(u) + d(v).
    """
    check_edge_budget(line_graph_edge_count(graph) + 2 * graph.m, "semitotal_line")
    n = graph.n
    pairs = []
    for i, j in line_graph(graph).edges:
        pairs.append((n + i, n + j))
    for j, (u, v) in enumerate(graph.edges):
        pairs.append((u, n + j))
        pairs.append((v, n + j))
    return Graph(n + graph.m, pairs)


def splitting(graph, k):
    """Add k copy vertices per vertex, each adjacent to that vertex's original neighbors.

    (k+1)n vertices and (2k+1)m edges; original degrees scale by k+1, copies
    keep the base degree.
    """
    if k < 1:
        raise ValueError(f"splitting needs k >= 1, got {k}")
    check_edge_budget((2 * k + 1) * graph.m, f"splitting with k={k}")
    n = graph.n
    pairs = list(graph.edges)
    for c in range(1, k + 1):
        off = c * n
        for u, v in graph.edges:
            pairs.append((off + u, v))
            pairs.append((off + v, u))
    return Graph((k + 1) * n, pairs)


def shadow(graph, k):
    """k copies of the graph with every cross-copy pair of an edge's endpoints joined.

    kn vertices, k^2 m edges, every degree scales by k. ``shadow(G, 1)`` is G
    itself.
    """
    if k < 1:
        raise ValueError(f"shadow needs k >= 1, got {k}")
    if k == 1:
        return graph
    check_edge_budget(k * k * graph.m, f"shadow with k={k}")
    n = graph.n
    pairs = []
    for c in range(k):
        for cp in range(k):
            for u, v in graph.edges:
                pairs.append((c * n + u, cp * n + v))
    return Graph(k * n, pairs)


def apply_transform(kind, graph, k=None):
    """Dispatch a transform by name; ``k`` is required for splitting and shadow."""
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform {kind!r}; expected one of {TRANSFORM_KINDS}")
    if kind == "subdivision":
        return subdivision(graph)
    if kind == "semitotal_point":
        return semitotal_point(graph)
    if kind == "semitotal_line":
        return semitotal_line(graph)
    if k is None:
        raise ValueError(f"{kind} requires the copy count k")
    return splitting(graph, k) if kind == "splitting" else shadow(graph, k)
