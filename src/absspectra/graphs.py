"""Immutable simple undirected graphs, named-family generators and structural queries.

Vertices are ``0..n-1``. Edges are stored sorted lexicographically as
``(min, max)`` pairs; the position of an edge in that order is its edge index,
which fixes the column order of the incidence matrix and the vertex order of
the line graph. Beside them a graph keeps only its vertex degrees; the one
search that needs neighbour lists, :func:`_two_colouring`, builds its own.
"""

import json
import operator
from itertools import combinations

import numpy as np

GENERATOR_KINDS = ("complete", "cycle", "path", "star", "complete_bipartite")

# Largest edge count a generator or transform may build; checked from the
# documented counts before any pair is made, so oversized requests fail fast.
EDGE_BUDGET = 10**6
# Largest vertex count: the most a connected graph within the edge budget can
# have. Checked with EDGE_BUDGET, and by Graph for any count, such as one read from a file.
VERTEX_BUDGET = EDGE_BUDGET + 1

# Largest entry count of a dense matrix (2^24 entries, 128 MiB as float64);
# checked before the matrix is allocated, so a large order fails fast.
DENSE_BUDGET = 2**24


def check_budget(edges, vertices, what):
    """Raise ``ValueError`` when ``what`` would need more than EDGE_BUDGET edges or VERTEX_BUDGET vertices."""
    if edges > EDGE_BUDGET:
        raise ValueError(f"{what} would have {edges} edges, over the budget of {EDGE_BUDGET}")
    if vertices > VERTEX_BUDGET:
        raise ValueError(f"{what} would have {vertices} vertices, over the budget of {VERTEX_BUDGET}")


def check_dense_budget(rows, cols, what):
    """Raise ``ValueError`` when a dense ``rows`` x ``cols`` ``what`` would exceed DENSE_BUDGET entries."""
    if rows * cols > DENSE_BUDGET:
        raise ValueError(f"{what} would have {rows} x {cols} entries, over the budget of {DENSE_BUDGET}")


def _integer(value, what):
    """The one reader of a passed count or vertex id: ``operator.index(value)``, not a bool, else ``ValueError``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be integers, got {value!r}")


class Graph:
    """Simple undirected graph with canonical vertex and edge ordering.

    ``Graph(n, pairs)`` validates its input: it reads ``n`` and each vertex
    id through :func:`_integer`, collapses duplicate pairs, normalizes every
    pair to ``(min, max)`` and rejects self-loops, out-of-range ids
    (``IndexError``), items that are not pairs, ``pairs`` that is not
    iterable, and a vertex count below 0 or over VERTEX_BUDGET. Every graph read from
    outside the package goes through it: :func:`load_graph`,
    :func:`parse_edge_list_text`, :func:`from_json_dict`, unpickling and any
    direct call. The graphs the package derives from a valid graph, those of
    :func:`generate`, :func:`line_graph` and the five transforms, skip the
    checks: their producers emit distinct in-range ``(min, max)`` pairs by
    construction and pass them to the private core, :meth:`_canonical`.
    Instances hold ``n``, the sorted ``edges`` and the tuple of vertex
    ``degrees``, and are immutable; all operations return new graphs.
    """

    __slots__ = ("n", "edges", "degrees")

    def __init__(self, n, pairs=()):
        n = _integer(n, "vertex counts")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        check_budget(0, n, "graph")
        try:
            pairs = iter(pairs)
        except TypeError:
            raise ValueError(f"edges must be an iterable of vertex pairs, got {pairs!r}") from None
        # a list, with repeats dropped in first-seen order, keeps the ascending
        # runs of the input, which the sort merges in near-linear time; a set
        # would scramble them
        norm = []
        for pair in pairs:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise ValueError(f"an edge must be a pair of vertex ids, got {pair!r}") from None
            if type(u) is not int or type(v) is not int:  # exact ints, the common case, need no conversion
                u, v = _integer(u, "vertex ids"), _integer(v, "vertex ids")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
            norm.append((u, v) if u < v else (v, u))
        self._fill(n, dict.fromkeys(norm))

    @classmethod
    def _canonical(cls, n, pairs):
        """The graph on ``n`` vertices with edges ``pairs``, taken without checks.

        ``pairs`` must already be in range, in ``(min, max)`` form and
        distinct; the package's own producers guarantee that.
        """
        graph = object.__new__(cls)
        graph._fill(n, pairs)
        return graph

    def _fill(self, n, pairs):
        """Set ``n``, the sorted ``edges`` and the per-vertex ``degrees`` from canonical ``pairs``."""
        edges = tuple(sorted(pairs))
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "degrees", tuple(degrees))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # rebuild through the constructor: restoring slots would hit __setattr__
        return (Graph, (self.n, self.edges))

    @property
    def m(self):
        """Edge count."""
        return len(self.edges)

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
    ``0..m-1`` and part B on ``m..m+n-1``. Sizes must be integers (not bool).
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    if kind == "complete_bipartite":
        if len(params) != 2:
            raise ValueError("complete_bipartite takes two part sizes")
        a, b = _integer(params[0], f"{kind} sizes"), _integer(params[1], f"{kind} sizes")
        if a < 1 or b < 1:
            raise ValueError(f"complete_bipartite part sizes must be >= 1, got ({a}, {b})")
        check_budget(a * b, a + b, f"complete_bipartite({a}, {b})")
        return Graph._canonical(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if len(params) != 1:
        raise ValueError(f"{kind} takes one size parameter")
    n = _integer(params[0], f"{kind} sizes")
    if n < 1:
        raise ValueError(f"{kind} needs n >= 1, got {n}")
    check_budget({"complete": n * (n - 1) // 2, "cycle": n}.get(kind, n - 1), n, f"{kind}({n})")
    if kind == "complete":
        return Graph._canonical(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        return Graph._canonical(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    if kind == "path":
        return Graph._canonical(n, [(i, i + 1) for i in range(n - 1)])
    return Graph._canonical(n, [(0, i) for i in range(1, n)])  # star


def is_regular(graph):
    """Common degree r when all vertices share it, else None (empty graph is 0-regular)."""
    degs = graph.degrees
    if not degs:
        return 0
    r = degs[0]
    return r if all(d == r for d in degs) else None


def _two_colouring(graph):
    """Colour a graph on n >= 1 vertices by one search from vertex 0: (colours, bipartite).

    Unreached vertices keep colour -1; ``bipartite`` is False when an edge
    joins two vertices of one colour.
    """
    neighbours = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour = [0] + [-1] * (graph.n - 1)
    bipartite = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in neighbours[u]:
            if colour[v] == -1:
                colour[v] = 1 - colour[u]
                stack.append(v)
            elif colour[v] == colour[u]:
                bipartite = False
    return colour, bipartite


def is_connected(graph):
    """Reachability from vertex 0; graphs on 0 or 1 vertices count as connected."""
    return graph.n <= 1 or -1 not in _two_colouring(graph)[0]


def connected_regular_degree(graph):
    """Common degree r of a connected r-regular graph with r >= 1, else None."""
    r = is_regular(graph)
    return r if r and is_connected(graph) else None


def families(graph):
    """Every named family the graph belongs to, mapped to the sizes :func:`generate` takes.

    The inverse of :func:`generate`: keys are ``GENERATOR_KINDS`` in their
    order, and a graph may belong to several (K3 is ``complete`` and
    ``cycle``; C4 is also ``complete_bipartite`` (2, 2)). The first part of
    K_{a,b} is the side of vertex 0. Graphs on fewer than 2 vertices and
    disconnected graphs belong to none.
    """
    n, m = graph.n, graph.m
    if n < 2:
        return {}
    colour, bipartite = _two_colouring(graph)
    if -1 in colour:
        return {}
    degs = graph.degrees
    found = {}
    if m == n * (n - 1) // 2:
        found["complete"] = (n,)
    if n >= 3 and all(d == 2 for d in degs):
        found["cycle"] = (n,)
    if m == n - 1 and max(degs) <= 2:
        found["path"] = (n,)
    if m == n - 1 and max(degs) == n - 1:
        found["star"] = (n,)
    a = colour.count(0)
    if bipartite and m == a * (n - a):
        found["complete_bipartite"] = (a, n - a)
    return found


def line_graph_edge_count(graph):
    """Edges of the line graph: one per pair of edges at a common vertex, sum of C(d_v, 2)."""
    return sum(d * (d - 1) // 2 for d in graph.degrees)


def line_pairs(graph, offset=0):
    """Edges of the line graph as ``(offset + i, offset + j)`` pairs of edge indices, i < j.

    Two edges of a simple graph share at most one endpoint, so each pair
    comes from exactly one vertex's incident list and none repeats; the lists
    are built in edge-index order, so i < j.
    """
    incident = [[] for _ in range(graph.n)]
    for idx, (u, v) in enumerate(graph.edges, offset):
        incident[u].append(idx)
        incident[v].append(idx)
    for ids in incident:
        yield from combinations(ids, 2)


def line_graph(graph):
    """Line graph: one vertex per edge (canonical edge order), joined when edges share an endpoint."""
    check_budget(line_graph_edge_count(graph), graph.m, "line graph")
    return Graph._canonical(graph.m, line_pairs(graph))


def incidence_matrix(graph):
    """n x m 0/1 incidence matrix (integer dtype); column j marks the endpoints of edge j."""
    check_dense_budget(graph.n, graph.m, "incidence matrix")
    f = np.zeros((graph.n, graph.m), dtype=np.int64)
    for j, (u, v) in enumerate(graph.edges):
        f[u, j] = 1
        f[v, j] = 1
    return f


def adjacency_matrix(graph):
    """Dense 0/1 adjacency matrix as float64 (ready for the eigensolver)."""
    check_dense_budget(graph.n, graph.n, "adjacency matrix")
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


def to_json_text(graph):
    """Serialize to JSON text, equal to ``json.dumps(to_json_dict(graph), indent=2)``."""
    if not graph.edges:
        return '{\n  "n": %d,\n  "edges": []\n}' % graph.n
    body = ",".join(f"\n    [\n      {u},\n      {v}\n    ]" for u, v in graph.edges)
    return '{\n  "n": %d,\n  "edges": [%s\n  ]\n}' % (graph.n, body)


def from_json_dict(data):
    """Inverse of :func:`to_json_dict`."""
    for key in ("n", "edges"):
        if key not in data:
            raise ValueError(f"graph JSON is missing the key {key!r}")
    return Graph(data["n"], data["edges"])


def load_graph(path):
    """Load a graph from a file in either the JSON or edge-list text format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            return from_json_dict(json.loads(text))
        except RecursionError:
            raise ValueError(f"graph JSON in {path} nests too deeply to decode") from None
    return parse_edge_list_text(text)
