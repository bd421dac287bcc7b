"""Degree-based topological indices.

Each index is a sum of a per-edge term in the endpoint degrees. Sums run over
the canonical edge order with compensated summation, so values are bit-stable
across runs. An edgeless graph scores 0 for every kind.
"""

import math

_EDGE_TERMS = {
    "M1": lambda di, dj: float(di + dj),
    "M2": lambda di, dj: float(di * dj),
    "randic": lambda di, dj: math.sqrt(1.0 / (di * dj)),
    "harmonic": lambda di, dj: 2.0 / (di + dj),
    "modified_second_zagreb": lambda di, dj: 1.0 / (di * dj),
    "abc": lambda di, dj: math.sqrt((di + dj - 2.0) / (di * dj)),
    "abs": lambda di, dj: math.sqrt((di + dj - 2.0) / (di + dj)),
}
INDEX_KINDS = tuple(_EDGE_TERMS)


def degree_index(graph, kind):
    """Edge-sum index of the given kind (see ``INDEX_KINDS``)."""
    try:
        term = _EDGE_TERMS[kind]
    except KeyError:
        raise ValueError(f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}") from None
    degs = graph.degrees
    return math.fsum(term(degs[u], degs[v]) for u, run in enumerate(graph.higher) for v in run)


def all_indices(graph):
    """All seven indices as an ordered mapping kind -> value."""
    return {kind: degree_index(graph, kind) for kind in INDEX_KINDS}
