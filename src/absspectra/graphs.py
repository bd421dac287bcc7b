"""Immutable simple undirected graphs, named-family generators and structural queries.

Vertices are ``0..n-1``. A graph stores its edges as ``higher``: for each
vertex, the ascending tuple of its neighbours with higher ids. Read in vertex
order, these runs give the edges as ``(min, max)`` pairs in lexicographic
order; the position of an edge in that order is its edge index, which fixes the
column order of the incidence matrix and the vertex order of the line graph.
Every reader walks the runs; ``Graph.edges`` builds the pairs for pickling and
:func:`to_json_dict`. Beside the runs a graph keeps its vertex degrees and, once
asked, its two-colouring; that one search, :func:`_two_colouring`, builds its own neighbour lists.
"""

import json
import operator
import os
import re

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


def _integer(value, what, least=None):
    """The one reader of a passed count or vertex id: ``operator.index(value)``, not a bool, >= ``least``."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None:
        raise ValueError(f"{what} must be integers, got {value!r}")
    if least is not None and index < least:
        raise ValueError(f"{what} >= {least} is required, got {index}")
    return index


class Graph:
    """Simple undirected graph with canonical vertex and edge ordering.

    ``Graph(n, pairs)`` validates its input: it reads ``n`` and each vertex
    id through :func:`_integer`, collapses duplicate pairs, normalizes every
    pair to ``(min, max)`` and rejects self-loops, out-of-range ids
    (``IndexError``), items that are not pairs, ``pairs`` that is not
    iterable, and a vertex count below 0 or over VERTEX_BUDGET; then it sorts the edges, groups them
    into runs and counts the degrees. Every graph read from outside the package goes through it:
    :func:`from_json_dict`, unpickling, any direct call and edge-list text (:func:`parse_edge_list_text`,
    :func:`load_graph`) outside the writer's form. Text in that form goes to :meth:`_from_ids`, which makes the same
    checks on the whole id array and hands input that fails one to ``Graph(n, pairs)``. The graphs
    the package derives from a valid graph, those of :func:`generate`, :func:`line_graph` and the
    five transforms, skip all of that: their producers emit each vertex's run of distinct in-range
    higher neighbours in ascending order and the degrees by construction and pass both to the private
    core, :meth:`_canonical`. Instances hold ``n``, the runs ``higher`` (a tuple of tuples), the tuple
    of vertex ``degrees`` and, once :func:`_two_colouring` has run, its result; they are immutable,
    and all operations return new graphs.
    """

    __slots__ = ("n", "higher", "degrees", "_colouring")

    def __init__(self, n, pairs=()):
        n = _integer(n, "vertex counts", 0)
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
        higher = [[] for _ in range(n)]
        degrees = [0] * n
        for u, v in sorted(dict.fromkeys(norm)):
            higher[u].append(v)
            degrees[u] += 1
            degrees[v] += 1
        self._fill(n, higher, degrees)

    @classmethod
    def _from_ids(cls, n, ids):
        """``Graph(n, pairs)`` for the int64 array ``ids`` of the pairs laid end to end, built in array operations.

        Ids that fail a check go to ``Graph(n, pairs)``, which raises its error for the first bad pair.
        """
        n = _integer(n, "vertex counts", 0)
        check_budget(0, n, "graph")
        u, v = ids[0::2], ids[1::2]
        low, high = np.minimum(u, v), np.maximum(u, v)
        # a self-loop is a zero difference: an int64 == would page in 128 KB more of numpy's code
        if ids.size and (low.min() < 0 or high.max() >= n or (high - low).min() == 0):
            ids = ids.tolist()
            return cls(n, zip(ids[0::2], ids[1::2]))
        # np.unique or an int64 np.sort would raise the peak resident memory of a fresh process
        keys = np.array(sorted(set((low * n + high).tolist())), dtype=np.int64)
        low, high = np.divmod(keys, n)
        degrees = np.bincount(np.concatenate((low, high)), minlength=n)
        # the keys ascend, so each vertex's run is one slice of ``high``, a tuple that _fill keeps as it is
        ends = np.cumsum(np.bincount(low, minlength=n)).tolist()
        high = tuple(high.tolist())
        return cls._canonical(n, [high[a:b] for a, b in zip([0, *ends], ends)], degrees.tolist())

    @classmethod
    def _canonical(cls, n, higher, degrees):
        """The graph on ``n`` vertices with neighbour runs ``higher`` and vertex ``degrees``, taken without checks.

        ``higher[x]`` must hold x's neighbours above x, distinct, ascending and below ``n``, for each of the
        ``n`` vertices, and ``degrees`` the degree of each vertex, as the package's own producers emit them;
        nothing is sorted or counted.
        """
        graph = object.__new__(cls)
        graph._fill(n, higher, degrees)
        return graph

    def _fill(self, n, higher, degrees):
        """Store ``n``, the neighbour runs ``higher`` and the per-vertex ``degrees`` as tuples."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "higher", tuple(map(tuple, higher)))
        object.__setattr__(self, "degrees", tuple(degrees))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # rebuild through the constructor: restoring slots would hit __setattr__
        return (Graph, (self.n, self.edges))

    @property
    def edges(self):
        """The edges as ascending ``(u, v)`` pairs, u < v, built on each call from the runs of ``higher``."""
        return tuple((u, v) for u, run in enumerate(self.higher) for v in run)

    @property
    def m(self):
        """Edge count: half the degree sum."""
        return sum(self.degrees) // 2

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.higher == other.higher

    def __hash__(self):
        return hash((self.n, self.higher))

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
        a, b = (_integer(size, f"{kind} part sizes", 1) for size in params)
        check_budget(a * b, a + b, f"complete_bipartite({a}, {b})")
        return Graph._canonical(a + b, [range(a, a + b)] * a + [()] * b, [b] * a + [a] * b)
    if len(params) != 1:
        raise ValueError(f"{kind} takes one size parameter")
    n = _integer(params[0], f"{kind} sizes n", 3 if kind == "cycle" else 1)
    check_budget({"complete": n * (n - 1) // 2, "cycle": n}.get(kind, n - 1), n, f"{kind}({n})")
    if kind == "complete":
        return Graph._canonical(n, [range(i + 1, n) for i in range(n)], [n - 1] * n)
    if kind == "cycle":
        return Graph._canonical(n, [(1, n - 1)] + [(i + 1,) for i in range(1, n - 1)] + [()], [2] * n)
    if kind == "path":
        return Graph._canonical(n, [(i + 1,) for i in range(n - 1)] + [()], [1] + [2] * (n - 2) + [1] if n > 1 else [0])
    return Graph._canonical(n, [range(1, n)] + [()] * (n - 1), [n - 1] + [1] * (n - 1))  # star


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
    joins two vertices of one colour. The result is kept in the graph's
    ``_colouring`` slot, so each graph object is searched once.
    """
    if hasattr(graph, "_colouring"):
        return graph._colouring
    neighbours = [[] for _ in range(graph.n)]
    for u, run in enumerate(graph.higher):
        neighbours[u] += run  # after its lower neighbours, appended below by the earlier vertices
        for v in run:
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
    object.__setattr__(graph, "_colouring", (tuple(colour), bipartite))
    return graph._colouring


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


def _incidence(graph, offset):
    """Each vertex's incident edge ids ``offset + j`` as ascending tuples: the one walk that numbers the edges."""
    incident = [[] for _ in range(graph.n)]
    i = offset
    for u, run in enumerate(graph.higher):
        a = incident[u]
        for v in run:
            a.append(i)
            incident[v].append(i)
            i += 1
    return tuple(map(tuple, incident))  # so the runs built from these are the tuples that _fill keeps


def _line_runs(runs, graph, incident):
    """Extend ``runs`` with the line graph's run of each edge, read per vertex from ``graph``'s ``incident`` ids.

    The run of edge i = uv (u < v) holds the ids after i of the edges sharing an endpoint with it: the
    later edges at u, the edges uw with w > v, then the later edges at v, whose other ends are above u;
    so each run ascends, and no sort is needed. Two edges of a simple graph share at most one endpoint,
    so no id repeats. u's edges to higher ends close u's ids; a count per vertex finds i among v's.
    """
    passed = [0] * graph.n  # per vertex: how many of its incident ids lie at or before the edge being read
    for ids, run in zip(incident, graph.higher):
        p = len(ids) - len(run)
        for v in run:
            p += 1
            passed[v] = q = passed[v] + 1
            runs.append(ids[p:] + incident[v][q:])
    return runs


def line_graph(graph):
    """Line graph: one vertex per edge (canonical edge order), joined when edges share an endpoint."""
    check_budget(line_graph_edge_count(graph), graph.m, "line graph")
    degs = graph.degrees
    edge_degrees = [degs[u] + degs[v] - 2 for u, run in enumerate(graph.higher) for v in run]
    return Graph._canonical(graph.m, _line_runs([], graph, _incidence(graph, 0)), edge_degrees)


def incidence_matrix(graph):
    """Dense n x m 0/1 incidence matrix as float64; column j marks the endpoints of edge j."""
    check_dense_budget(graph.n, graph.m, "incidence matrix")
    f = np.zeros((graph.n, graph.m))
    j = 0
    for u, run in enumerate(graph.higher):
        for v in run:
            f[u, j] = f[v, j] = 1.0
            j += 1
    return f


def adjacency_matrix(graph):
    """Dense 0/1 adjacency matrix as float64 (ready for the eigensolver)."""
    check_dense_budget(graph.n, graph.n, "adjacency matrix")
    a = np.zeros((graph.n, graph.n))
    for u, run in enumerate(graph.higher):
        for v in run:
            a[u, v] = a[v, u] = 1.0
    return a


# --- edge-list text and JSON formats ---------------------------------------
#
# Text: first line "n m", then m lines "u v" (0-indexed); '#' starts a comment.
# JSON: {"n": int, "edges": [[u, v], ...]}.


# The writers below emit the text ``head % u + tail % v`` of each edge (u, v),
# edges separated by ``sep``. The edges from u to higher ids are u's run in
# ``graph.higher``, so u's text can be formatted once per run and each v's once
# per call. Against one %-template over every id, timed on random graphs with
# 1-16 edges per vertex, the runs break even at 5-6 edges per vertex and take
# 0.7-0.85x its time at 8; graphs with at most 8 take the template.
_RUN_MIN_EDGES_PER_VERTEX = 8


def _edge_texts(graph, head, tail, sep):
    """Texts whose concatenation is ``sep.join(head % u + tail % v for (u, v) in graph.edges)``."""
    higher, m = graph.higher, graph.m
    if m <= _RUN_MIN_EDGES_PER_VERTEX * graph.n:
        ids = []
        for u, run in enumerate(higher):
            for v in run:
                ids.append(u)
                ids.append(v)
        return [sep.join([head + tail] * m) % tuple(ids)]
    tails = [tail % v for v in range(graph.n)]
    texts = []
    for u, run in enumerate(higher):
        if run:
            text = sep + head % u
            texts += text, text.join(map(tails.__getitem__, run))
    texts[0] = texts[0][len(sep) :]  # no separator before the first edge
    return texts


def to_edge_list_text(graph):
    """Serialize to the edge-list text format."""
    return "".join(["%d %d\n" % (graph.n, graph.m), *_edge_texts(graph, "%d ", "%d\n", "")])


# An id or count token is ASCII decimal digits with an optional leading '-', so
# that a negative id still reaches Graph's range check.
_INT_TOKEN = re.compile(r"-?[0-9]+")
# The text to_edge_list_text writes: a header row "n m", then the edge rows, each
# row two ASCII decimal tokens, one space and "\n". A token of at most 18 digits
# fits int64, and the whole match rules out the partial read np.fromstring warns of.
_WRITER_FORM = re.compile(r"[0-9]{1,18} [0-9]{1,18}\n(?:[0-9]{1,18} [0-9]{1,18}\n)*")


def _text_integer(token, what):
    """The one reader of an integer written as text: ``_INT_TOKEN`` or ``ValueError`` naming the token."""
    if _INT_TOKEN.fullmatch(token) is None:
        raise ValueError(f"{what} must be ASCII decimal integers, got {token!r}")
    return int(token)


def _int_pair(line, shape):
    """The two integers of a stripped data line; ``shape`` names the expected line in the error."""
    row = line.split()
    if len(row) != 2:
        raise ValueError(f"{shape}, got {' '.join(row)!r}")
    return tuple(_text_integer(token, "vertex ids and counts") for token in row)


def _check_edge_count(m, rows):
    """Raise ``ValueError`` unless the header's edge count ``m`` equals the number of edge ``rows``."""
    if rows != m:
        raise ValueError(f"header declares {m} edges but {rows} lines follow")


def parse_edge_list_text(text):
    """Parse the edge-list text format into a graph.

    Text in the writer's form is read in one ``np.fromstring`` pass; any other text row by row.
    """
    if _WRITER_FORM.fullmatch(text) is not None:
        ids = np.fromstring(text, dtype=np.int64, sep=" ")
        n, m = ids[:2].tolist()
        _check_edge_count(m, ids.size // 2 - 1)
        return Graph._from_ids(n, ids[2:])
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty edge-list input")
    n, m = _int_pair(rows[0], "header must be 'n m'")
    _check_edge_count(m, len(rows) - 1)
    return Graph(n, [_int_pair(row, "edge line must be 'u v'") for row in rows[1:]])


def to_json_dict(graph):
    """JSON-ready form: {"n": ..., "edges": [[u, v], ...]}."""
    return {"n": graph.n, "edges": [[u, v] for u, v in graph.edges]}


def to_json_text(graph):
    """Serialize to JSON text, equal to ``json.dumps(to_json_dict(graph), indent=2)``."""
    if not graph.m:
        return '{\n  "n": %d,\n  "edges": []\n}' % graph.n
    edges = _edge_texts(graph, "\n    [\n      %d,\n      ", "%d\n    ]", ",")
    return "".join(['{\n  "n": %d,\n  "edges": [' % graph.n, *edges, "\n  ]\n}"])


def from_json_dict(data):
    """Inverse of :func:`to_json_dict`."""
    for key in ("n", "edges"):
        if key not in data:
            raise ValueError(f"graph JSON is missing the key {key!r}")
    return Graph(data["n"], data["edges"])


def load_graph(path):
    """Load a graph from the file at ``path`` (not a file descriptor), in the JSON or edge-list text format."""
    with open(os.fspath(path), "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            return from_json_dict(json.loads(text))
        except RecursionError:
            raise ValueError(f"graph JSON in {path} nests too deeply to decode") from None
    return parse_edge_list_text(text)
