"""Shared deterministic graph corpora for the test suite."""

import itertools
import random

import pytest

try:
    import hypothesis
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # every property test runs the same examples on every run, with no time limit per example
    hypothesis.settings.register_profile("deterministic", derandomize=True, deadline=None)
    hypothesis.settings.load_profile("deterministic")

from absspectra import (
    Graph,
    adjacency_spectrum,
    generate,
    is_connected,
    is_regular,
    line_graph,
    predicted_transform_spectrum,
)


def random_graph(rng, n, p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, pairs)


def predicted_lift(kind, graph):
    """Predicted lift spectrum of a connected regular graph, from its degree and base adjacency spectrum."""
    base = line_graph(graph) if kind == "semitotal_line" else graph
    return predicted_transform_spectrum(kind, is_regular(graph), adjacency_spectrum(base), graph.n + graph.m)


def circulant(n, steps):
    """The circulant graph C_n(steps): vertex i joined to i + s and i - s (mod n) for each step s."""
    return Graph(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def degrees_reference(graph):
    """Per-vertex degrees as a tuple, counted from the edge list alone."""
    return tuple(sum(x in edge for edge in graph.edges) for x in range(graph.n))


def run_pairs(runs, offset=0):
    """The pairs ``(offset + i, j)``, j in ``runs[i]``, read run by run."""
    return [(offset + i, j) for i, run in enumerate(runs) for j in run]


def line_graph_pairs_reference(graph):
    """Sorted line-graph pairs (i, j), i < j, collected through a set from the incident lists."""
    incident = [[] for _ in range(graph.n)]
    for idx, (u, v) in enumerate(graph.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    pairs = set()
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                pairs.add((ids[a], ids[b]))
    return sorted(pairs)


def json_ready_reference(obj):
    """The recursive walk the CLI once ran before ``json.dumps(..., indent=2)``: floats at 15 digits."""
    if isinstance(obj, float):
        return 0.0 if obj == 0 else float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: json_ready_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready_reference(v) for v in obj]
    return obj


def small_graphs(st):
    """Strategy for any graph on 0-7 vertices, or a small cycle or complete graph; ``st`` is ``hypothesis.strategies``."""
    graphs = st.integers(0, 7).flatmap(
        lambda n: st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))) if n > 1 else st.nothing()).map(
            lambda pairs: Graph(n, pairs)
        )
    )
    regular = st.sampled_from(
        [generate("cycle", n) for n in range(3, 8)] + [generate("complete", n) for n in range(2, 6)]
    )
    return st.one_of(graphs, regular)


def gnp_graphs(st):
    """Strategy for G(n, p) on 1-20 vertices, p drawn per example; ``st`` is ``hypothesis.strategies``."""
    return st.builds(random_graph, st.integers(0, 2**32).map(random.Random), st.integers(1, 20), st.floats(0, 1))


def spread_graph(rng, n, per_vertex):
    """Each vertex of a random part of ``0..n-1`` joined to 0..2*per_vertex random vertices of that part.

    Vertices outside the part are isolated, and the largest id of the part has no higher neighbour.
    """
    part = rng.sample(range(n), rng.randint(0, n))
    pairs = [(u, rng.choice(part)) for u in part for _ in range(rng.randint(0, 2 * per_vertex))]
    return Graph(n, [(u, v) for u, v in pairs if u != v])


def spread_graphs(st, max_n=2000, max_per_vertex=20):
    """Strategy for :func:`spread_graph`, sparse to dense; ``st`` is ``hypothesis.strategies``."""
    return st.builds(
        spread_graph, st.integers(0, 2**32).map(random.Random), st.integers(0, max_n), st.integers(0, max_per_vertex)
    )


def random_connected_graph(rng, n):
    while True:
        g = random_graph(rng, n, p=rng.uniform(0.3, 0.8))
        if is_connected(g):
            return g


def random_connected_regular_graph(rng, n, r):
    """Pairing-model sample, rejected until simple and connected."""
    if (n * r) % 2 or r >= n:
        raise ValueError(f"no {r}-regular graph on {n} vertices")
    while True:
        points = [v for v in range(n) for _ in range(r)]
        rng.shuffle(points)
        pairs = list(zip(points[0::2], points[1::2]))
        if any(u == v for u, v in pairs):
            continue
        norm = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(norm) != len(pairs):
            continue
        g = Graph(n, sorted(norm))
        if is_connected(g):
            assert is_regular(g) == r
            return g


def connected_corpus(seed=20240814, count=50, max_n=8):
    """Deterministic list of random connected graphs with n <= max_n."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(2, max_n)
        graphs.append(random_connected_graph(rng, n))
    return graphs


def regular_corpus(seed=20240815):
    """Connected regular graphs with r in {2, 3} and n <= 8, plus small completes."""
    rng = random.Random(seed)
    graphs = [generate("cycle", n) for n in (3, 4, 5, 6)]
    graphs += [generate("complete", 4), generate("complete", 5)]
    graphs += [random_connected_regular_graph(rng, n, 3) for n in (4, 6, 8, 8)]
    graphs += [random_connected_regular_graph(rng, n, 2) for n in (5, 7, 8)]
    return graphs


@pytest.fixture(scope="session")
def golden_corpus():
    """Named families plus 50 seeded random connected graphs (n <= 8)."""
    graphs = []
    graphs += [generate("cycle", n) for n in range(3, 9)]
    graphs += [generate("complete", n) for n in range(3, 7)]
    graphs += [generate("path", n) for n in range(2, 11)]
    graphs += [generate("star", n) for n in range(3, 9)]
    graphs += [
        generate("complete_bipartite", a, b)
        for a in range(1, 8)
        for b in range(a, 8)
        if a + b <= 8
    ]
    graphs += connected_corpus()
    return graphs
