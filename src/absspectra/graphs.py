"""Immutable simple undirected graphs, named-family generators and structural queries.

Vertices are ``0..n-1``. Edges are stored sorted lexicographically as
``(min, max)`` pairs; the position of an edge in that order is its edge index,
which fixes the column order of the incidence matrix and the vertex order of
the line graph.
"""

import json
import operator

import numpy as np

GENERATOR_KINDS = ("complete", "cycle", "path", "star", "complete_bipartite")

# Largest edge count a generator or transform may build; checked from the
# documented counts before any pair is made, so oversized requests fail fast.
EDGE_BUDGET = 10**6


def check_edge_budget(count, what):
    """Raise ``ValueError`` when building ``what`` would need more than EDGE_BUDGET edges."""
    if count > EDGE_BUDGET:
        raise ValueError(f"{what} would have {count} edges, over the budget of {EDGE_BUDGET}")


class Graph:
    """Simple undirected graph with canonical vertex and edge ordering.

    Construction collapses duplicate pairs, normalizes every pair to
    ``(min, max)`` and rejects self-loops, out-of-range or non-integral
    vertex ids, and a vertex count that is a bool or not a non-negative int.
    Instances are immutable; all operations return new graphs.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n, pairs=()):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"vertex count must be a non-negative integer, got {n!r}")
        seen = set()
        for u, v in pairs:
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"vertex ids must be integers, got ({u!r}, {v!r})") from None
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
            seen.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(ns)) for ns in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # rebuild through the constructor: restoring slots would hit __setattr__
        return (Graph, (self.n, self.edges))

    @property
    def m(self):
        """Edge count."""
        return len(self.edges)

    def degree(self, v):
        return len(self.adjacency[v])

    def has_edge(self, u, v):
        return 0 <= u < self.n and v in self.adjacency[u]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def generate(kind, *params):
    """Generate a named graph family member.

    ``complete``, ``cycle``, ``path`` and ``star`` take one size (cycle needs
    n >= 3, the rest n >= 1; a star on n vertices has center 0 and n-1 leaves).
    ``complete_bipartite`` takes part sizes (m, n) >= 1 with part A on
    ``0..m-1`` and part B on ``m..m+n-1``.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    if kind == "complete_bipartite":
        if len(params) != 2:
            raise ValueError("complete_bipartite takes two part sizes")
        a, b = int(params[0]), int(params[1])
        if a < 1 or b < 1:
            raise ValueError(f"complete_bipartite part sizes must be >= 1, got ({a}, {b})")
        check_edge_budget(a * b, f"complete_bipartite({a}, {b})")
        return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if len(params) != 1:
        raise ValueError(f"{kind} takes one size parameter")
    n = int(params[0])
    if n < 1:
        raise ValueError(f"{kind} needs n >= 1, got {n}")
    check_edge_budget({"complete": n * (n - 1) // 2, "cycle": n}.get(kind, n - 1), f"{kind}({n})")
    if kind == "complete":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    return Graph(n, [(0, i) for i in range(1, n)])  # star


def degree_sequence(graph):
    """Per-vertex degrees in vertex-index order."""
    return [len(ns) for ns in graph.adjacency]


def is_regular(graph):
    """Common degree r when all vertices share it, else None (empty graph is 0-regular)."""
    degs = degree_sequence(graph)
    if not degs:
        return 0
    r = degs[0]
    return r if all(d == r for d in degs) else None


def is_connected(graph):
    """Breadth-first reachability; graphs on 0 or 1 vertices count as connected."""
    if graph.n <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == graph.n


def is_path(graph):
    """True when the graph is a path on n >= 1 vertices."""
    if graph.n < 1 or graph.m != graph.n - 1 or not is_connected(graph):
        return False
    return all(d <= 2 for d in degree_sequence(graph))


def line_graph_edge_count(graph):
    """Edges of the line graph: one per pair of edges at a common vertex, sum of C(d_v, 2)."""
    return sum(d * (d - 1) // 2 for d in degree_sequence(graph))


def line_graph(graph):
    """Line graph: one vertex per edge (canonical edge order), joined when edges share an endpoint."""
    check_edge_budget(line_graph_edge_count(graph), "line graph")
    edges = graph.edges
    incident = [[] for _ in range(graph.n)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        incident[v].append(idx)
    pairs = set()
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                pairs.add((ids[a], ids[b]))
    return Graph(len(edges), sorted(pairs))


def incidence_matrix(graph):
    """n x m 0/1 incidence matrix (integer dtype); column j marks the endpoints of edge j."""
    f = np.zeros((graph.n, graph.m), dtype=np.int64)
    for j, (u, v) in enumerate(graph.edges):
        f[u, j] = 1
        f[v, j] = 1
    return f


def adjacency_matrix(graph):
    """Dense 0/1 adjacency matrix as float64 (ready for the eigensolver)."""
    a = np.zeros((graph.n, graph.n))
    for u, v in graph.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


# --- edge-list text and JSON formats ---------------------------------------
#
# Text: first line "n m", then m lines "u v" (0-indexed); '#' starts a comment.
# JSON: {"n": int, "edges": [[u, v], ...]}.


def to_edge_list_text(graph):
    """Serialize to the edge-list text format."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text):
    """Parse the edge-list text format into a graph."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise ValueError("empty edge-list input")
    if len(rows[0]) != 2:
        raise ValueError(f"header must be 'n m', got {' '.join(rows[0])!r}")
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    pairs = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"edge line must be 'u v', got {' '.join(row)!r}")
        pairs.append((int(row[0]), int(row[1])))
    return Graph(n, pairs)


def to_json_dict(graph):
    """JSON-ready form: {"n": ..., "edges": [[u, v], ...]}."""
    return {"n": graph.n, "edges": [[u, v] for u, v in graph.edges]}


def from_json_dict(data):
    """Inverse of :func:`to_json_dict`."""
    return Graph(data["n"], data["edges"])


def load_graph(path):
    """Load a graph from a file in either the JSON or edge-list text format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_dict(json.loads(text))
    return parse_edge_list_text(text)
