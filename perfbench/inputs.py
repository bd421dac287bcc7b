"""Seeded input generator for the benchmark, independent of the package under test.

A graph here is a pair ``(n, edges)`` with ``edges`` a sorted tuple of
``(min, max)`` pairs, the same canonical form the package documents. The
transforms follow the package's documented vertex layouts, so the build
workload can compare transformed edge sets exactly. Everything is plain Python
driven by a ``random.Random``, so one seed always gives the same bytes.
"""

import math


def canonical(n, pairs):
    """``(n, sorted unique (min, max) pairs)``; rejects loops and out-of-range ids."""
    seen = set()
    for u, v in pairs:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        seen.add((u, v) if u < v else (v, u))
    return n, tuple(sorted(seen))


# --- families ----------------------------------------------------------------


def complete(n):
    return canonical(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return canonical(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return canonical(n, [(i, i + 1) for i in range(n - 1)])


def gnp(n, p, rng):
    """Erdos-Renyi G(n, p)."""
    return canonical(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


PAIR_ATTEMPTS = 50


def random_regular(n, r, rng):
    """Random r-regular simple graph by the pairing model, rejecting single pairs.

    This is Steger and Wormald's variant (1999): two random unpaired points
    are joined unless they would make a loop or a repeated edge, in which case
    the pair is drawn again, and the pairing restarts only when no allowed
    pair turns up in ``PAIR_ATTEMPTS`` draws. It is asymptotically uniform for
    fixed r and, unlike rejecting whole pairings, takes about the same time
    for every seed, so set-up time does not depend on the seed.
    """
    if (n * r) % 2 or r >= n:
        raise ValueError(f"no {r}-regular simple graph on {n} vertices")
    while True:
        points = [v for v in range(n) for _ in range(r)]
        pairs = set()
        while points:
            for _ in range(PAIR_ATTEMPTS):
                i, j = rng.sample(range(len(points)), 2)
                u, v = points[i], points[j]
                key = (u, v) if u < v else (v, u)
                if u != v and key not in pairs:
                    break
            else:
                break
            pairs.add(key)
            for k in (max(i, j), min(i, j)):
                points[k] = points[-1]
                points.pop()
        if not points:
            return canonical(n, pairs)


def relabel(graph, rng):
    """The same graph under a seeded vertex permutation."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return canonical(n, [(perm[u], perm[v]) for u, v in edges])


# --- transforms (package layout: edge j of the base sits at vertex n + j) ----


def degrees(graph):
    n, edges = graph
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def line_graph_edges(graph):
    n, edges = graph
    incident = [[] for _ in range(n)]
    for j, (u, v) in enumerate(edges):
        incident[u].append(j)
        incident[v].append(j)
    return [(a, b) for ids in incident for i, a in enumerate(ids) for b in ids[i + 1 :]]


def subdivision(graph):
    n, edges = graph
    return canonical(n + len(edges), [p for j, (u, v) in enumerate(edges) for p in ((u, n + j), (v, n + j))])


def semitotal_point(graph):
    n, edges = graph
    _, sub = subdivision(graph)
    return canonical(n + len(edges), list(edges) + list(sub))


def semitotal_line(graph):
    n, edges = graph
    _, sub = subdivision(graph)
    return canonical(n + len(edges), [(n + a, n + b) for a, b in line_graph_edges(graph)] + list(sub))


def splitting(graph, k):
    n, edges = graph
    pairs = list(edges)
    for c in range(1, k + 1):
        pairs += [p for u, v in edges for p in ((c * n + u, v), (c * n + v, u))]
    return canonical((k + 1) * n, pairs)


def shadow(graph, k):
    n, edges = graph
    return canonical(k * n, [(c * n + u, d * n + v) for c in range(k) for d in range(k) for u, v in edges])


TRANSFORMS = {
    "subdivision": lambda g, k: subdivision(g),
    "semitotal_point": lambda g, k: semitotal_point(g),
    "semitotal_line": lambda g, k: semitotal_line(g),
    "splitting": splitting,
    "shadow": shadow,
}


def transform_counts(kind, graph, k=None):
    """Vertex and edge counts of a transform, from the closed formulas alone."""
    n, edges = graph
    m = len(edges)
    if kind == "subdivision":
        return n + m, 2 * m
    if kind == "semitotal_point":
        return n + m, 3 * m
    if kind == "semitotal_line":
        return n + m, sum(math.comb(d, 2) for d in degrees(graph)) + 2 * m
    if kind == "splitting":
        return (k + 1) * n, (2 * k + 1) * m
    if kind == "shadow":
        return k * n, k * k * m
    raise ValueError(kind)


def edge_list_text(graph, rng):
    """Edge-list file text with edges in seeded order and orientation."""
    n, edges = graph
    rows = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(rows)
    return f"{n} {len(rows)}\n" + "".join(f"{u} {v}\n" for u, v in rows)
