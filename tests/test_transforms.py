"""Transform constructions: counts, degree laws, layouts and Kronecker structure."""

import math
import random

import numpy as np
import pytest

from absspectra import (
    Graph,
    abs_matrix,
    adjacency_matrix,
    apply_transform,
    default_suite,
    generate,
    incidence_matrix,
    is_connected,
    is_regular,
    line_graph,
    semitotal_line,
    semitotal_point,
    shadow,
    splitting,
    subdivision,
)

from absspectra import graphs, transforms

from conftest import degrees_reference, line_graph_pairs_reference, random_graph, run_pairs, small_graphs


def test_subdivision_of_triangle_is_hexagon():
    s = subdivision(generate("cycle", 3))
    assert s.n == 6 and s.m == 6
    assert is_regular(s) == 2 and is_connected(s)  # connected 2-regular = cycle


def test_subdivision_of_k2_is_p3():
    s = subdivision(generate("complete", 2))
    assert s == Graph(3, [(0, 2), (1, 2)])


def test_subdivision_of_star_degrees():
    s = subdivision(generate("star", 4))
    assert s.degrees == (3, 1, 1, 1, 2, 2, 2)


def test_subdivision_counts_and_adjacency_block():
    # all three edge-vertex transforms put the vertex of edge j at n + j, which gives these block forms
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8))
        s = subdivision(g)
        assert s.n == g.n + g.m and s.m == 2 * g.m
        a, f = adjacency_matrix(g), incidence_matrix(g)
        expected = np.block(
            [[np.zeros((g.n, g.n)), f], [f.T, np.zeros((g.m, g.m))]]
        )
        np.testing.assert_array_equal(adjacency_matrix(s), expected)
        expected = np.block([[a, f], [f.T, np.zeros((g.m, g.m))]])
        np.testing.assert_array_equal(adjacency_matrix(semitotal_point(g)), expected)
        expected = np.block([[np.zeros((g.n, g.n)), f], [f.T, adjacency_matrix(line_graph(g))]])
        np.testing.assert_array_equal(adjacency_matrix(semitotal_line(g)), expected)


def test_semitotal_point_of_k2_is_triangle():
    t = semitotal_point(generate("complete", 2))
    assert t == generate("complete", 3)


def test_semitotal_point_of_triangle():
    t = semitotal_point(generate("cycle", 3))
    assert t.n == 6 and t.m == 9
    assert sorted(t.degrees) == [2, 2, 2, 4, 4, 4]


def test_semitotal_point_degree_law():
    rng = random.Random(19)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8))
        t = semitotal_point(g)
        assert t.m == 3 * g.m
        degs = t.degrees
        for x, d in enumerate(g.degrees):
            assert degs[x] == 2 * d
        assert all(degs[g.n + j] == 2 for j in range(g.m))


def test_semitotal_line_of_k2_is_p3():
    t = semitotal_line(generate("complete", 2))
    assert t == Graph(3, [(0, 2), (1, 2)])


def test_semitotal_line_of_triangle():
    t = semitotal_line(generate("cycle", 3))
    assert t.n == 6 and t.m == 9
    # the three edge-vertices form a complete triangle
    for i in range(3, 6):
        for j in range(i + 1, 6):
            assert (i, j) in t.edges


def test_semitotal_line_degree_law():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8))
        t = semitotal_line(g)
        degs_g = g.degrees
        degs_t = t.degrees
        for x in range(g.n):
            assert degs_t[x] == degs_g[x]
        for j, (u, v) in enumerate(g.edges):
            assert degs_t[g.n + j] == degs_g[u] + degs_g[v]


def _semitotal_line_reference(g):
    """L(G)'s set-built pairs on the edge-vertices, plus each edge-vertex joined to its endpoints."""
    n = g.n
    pairs = [(n + i, n + j) for i, j in line_graph_pairs_reference(g)]
    pairs += [(x, n + j) for j, edge in enumerate(g.edges) for x in edge]
    return Graph(n + g.m, pairs)


def test_semitotal_line_matches_set_reference():
    rng = random.Random(31)
    cases = [generate(kind, n) for kind in ("complete", "path", "star") for n in range(1, 9)]
    cases += [generate("cycle", n) for n in range(3, 9)]
    cases += [generate("complete_bipartite", a, b) for a in range(1, 5) for b in range(1, 5)]
    cases += [Graph(0), Graph(3)] + [random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(40)]
    for g in cases:
        assert semitotal_line(g) == _semitotal_line_reference(g)


def test_splitting_of_k2_is_p4():
    s = splitting(generate("complete", 2), 1)
    assert s.n == 4 and s.m == 3
    assert sorted(s.degrees) == [1, 1, 2, 2]
    assert is_connected(s)


def test_splitting_of_c4_counts_and_degrees():
    s = splitting(generate("cycle", 4), 2)
    assert s.n == 12 and s.m == 20
    degs = s.degrees
    assert degs[:4] == (6, 6, 6, 6)
    assert degs[4:] == (2,) * 8


def test_splitting_counts_random():
    rng = random.Random(31)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 7))
        for k in (1, 2, 3):
            s = splitting(g, k)
            assert s.n == (k + 1) * g.n
            assert s.m == (2 * k + 1) * g.m
            degs = s.degrees
            for x, d in enumerate(g.degrees):
                assert degs[x] == d * (k + 1)
                for c in range(1, k + 1):
                    assert degs[c * g.n + x] == d


def test_splitting_rejects_bad_k():
    with pytest.raises(ValueError):
        splitting(generate("cycle", 3), 0)


@pytest.mark.parametrize("kind", ["splitting", "shadow"])
@pytest.mark.parametrize("k", [2.5, True, "3", None])
def test_copy_transforms_refuse_a_non_integral_k(kind, k):
    g = generate("cycle", 4)
    for call in (lambda: getattr(transforms, kind)(g, k), lambda: apply_transform(kind, g, k)):
        with pytest.raises(ValueError, match=f"{kind} copy counts k must be integers"):
            call()
    assert apply_transform(kind, g, np.int64(3)) == apply_transform(kind, g, 3)


def test_shadow_identity_case():
    g = generate("path", 4)
    assert shadow(g, 1) is g


def test_shadow_of_k2_is_c4():
    d = shadow(generate("complete", 2), 2)
    assert d.n == 4 and d.m == 4
    assert is_regular(d) == 2 and is_connected(d)


def test_shadow_of_triangle():
    d = shadow(generate("cycle", 3), 2)
    assert d.n == 6 and d.m == 12
    assert is_regular(d) == 4


def test_shadow_counts_random():
    rng = random.Random(37)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 6))
        for k in (2, 3):
            d = shadow(g, k)
            assert d.n == k * g.n and d.m == k * k * g.m
            degs = d.degrees
            for x, dx in enumerate(g.degrees):
                for c in range(k):
                    assert degs[c * g.n + x] == k * dx


def test_shadow_rejects_bad_k():
    with pytest.raises(ValueError):
        shadow(generate("cycle", 3), 0)


def test_shadow_adjacency_is_kron_with_ones():
    rng = random.Random(41)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        a = adjacency_matrix(g)
        for k in (2, 3):
            np.testing.assert_array_equal(adjacency_matrix(shadow(g, k)), np.kron(np.ones((k, k)), a))


def test_splitting_adjacency_is_kron_with_arrow_matrix():
    rng = random.Random(43)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        a = adjacency_matrix(g)
        for k in (1, 2, 3):
            d = np.zeros((k + 1, k + 1))
            d[0, 0] = 1.0
            d[0, 1:] = 1.0
            d[1:, 0] = 1.0
            np.testing.assert_array_equal(adjacency_matrix(splitting(g, k)), np.kron(d, a))


def test_abs_matrix_of_shadow_and_splitting_kron_forms():
    # regular base graphs: the ABS matrices are exact Kronecker products
    rng = random.Random(47)
    for g, r in [(generate("cycle", 5), 2), (generate("complete", 4), 3), (generate("cycle", 6), 2)]:
        a = adjacency_matrix(g)
        for k in (1, 2, 3):
            scale = math.sqrt(1.0 - 1.0 / (k * r))
            np.testing.assert_allclose(
                abs_matrix(shadow(g, k)), scale * np.kron(np.ones((k, k)), a), atol=1e-12
            )
            dm = np.zeros((k + 1, k + 1))
            dm[0, 0] = math.sqrt(1.0 - 1.0 / (r * (k + 1)))
            off = math.sqrt(1.0 - 2.0 / (r * (k + 2)))
            dm[0, 1:] = off
            dm[1:, 0] = off
            np.testing.assert_allclose(abs_matrix(splitting(g, k)), np.kron(dm, a), atol=1e-12)


def test_apply_transform_dispatch():
    g = generate("cycle", 4)
    assert apply_transform("subdivision", g) == subdivision(g)
    assert apply_transform("shadow", g, 2) == shadow(g, 2)
    with pytest.raises(ValueError):
        apply_transform("mystery", g)
    with pytest.raises(ValueError):
        apply_transform("splitting", g)  # k missing


def test_apply_transform_edge_budget_uses_exact_counts(monkeypatch):
    # a budget equal to the result's edge count builds it; one edge less is refused
    rng = random.Random(23)
    bases = [random_graph(rng, 7) for _ in range(4)] + [generate("star", 6)]
    for g in bases:
        for kind in transforms.TRANSFORM_KINDS:
            for k in (2, 3) if kind in ("splitting", "shadow") else (None,):
                m = apply_transform(kind, g, k).m
                monkeypatch.setattr(graphs, "EDGE_BUDGET", m - 1)
                with pytest.raises(ValueError, match="budget"):
                    apply_transform(kind, g, k)
                monkeypatch.setattr(graphs, "EDGE_BUDGET", m)
                assert apply_transform(kind, g, k).m == m
                monkeypatch.undo()


def test_apply_transform_vertex_budget_uses_exact_counts(monkeypatch):
    # a budget equal to the result's vertex count builds it; one vertex less is
    # refused by the transform itself, before it builds anything
    rng = random.Random(29)
    bases = [random_graph(rng, 7) for _ in range(4)] + [Graph(5)]
    for g in bases:
        for kind in transforms.TRANSFORM_KINDS:
            for k in (2, 3) if kind in transforms.K_KINDS else (None,):
                n = apply_transform(kind, g, k).n
                monkeypatch.setattr(graphs, "VERTEX_BUDGET", n - 1)
                with pytest.raises(ValueError, match=f"^{kind}.* vertices, over the budget"):
                    apply_transform(kind, g, k)
                monkeypatch.setattr(graphs, "VERTEX_BUDGET", n)
                assert apply_transform(kind, g, k).n == n
                monkeypatch.undo()


def test_transform_degrees_match_reference():
    rng = random.Random(37)
    bases = [random_graph(rng, rng.randint(0, 8), rng.random()) for _ in range(12)]
    bases += [generate("star", 6), generate("complete", 5), generate("complete_bipartite", 2, 3)]
    for g in bases:
        for kind in transforms.TRANSFORM_KINDS:
            for k in (1, 2, 3) if kind in ("splitting", "shadow") else (None,):
                t = apply_transform(kind, g, k)
                assert t.degrees == degrees_reference(t)


def _core_builds(monkeypatch):
    """(n, higher, degrees, graph) of each later ``Graph._canonical`` build, runs and degrees as passed."""
    builds = []
    real = graphs.Graph._canonical.__func__

    def canonical(cls, n, higher, degrees):
        higher, degrees = [list(run) for run in higher], list(degrees)
        graph = real(cls, n, higher, degrees)
        builds.append((n, higher, degrees, graph))
        return graph

    monkeypatch.setattr(graphs.Graph, "_canonical", classmethod(canonical))
    return builds


def _derive_all(graph):
    line_graph(graph)
    for kind in transforms.TRANSFORM_KINDS:
        for k in (1, 2, 3) if kind in transforms.K_KINDS else (None,):
            apply_transform(kind, graph, k)


def _assert_core_invariant(builds):
    # what Graph._canonical takes on trust: one run per vertex, each run as
    # passed strictly ascending with u < v < n for its vertex u, the degrees
    # they give, and so the graph that validating the producer's own pairs gives
    for n, higher, degrees, graph in builds:
        assert len(higher) == n
        assert all(a < b for run in higher for a, b in zip(run, run[1:]))
        assert all(u < v < n for u, run in enumerate(higher) for v in run)
        assert tuple(degrees) == degrees_reference(graph)
        assert graph == Graph(n, run_pairs(higher))


def test_producers_emit_canonical_pairs_on_the_default_corpus(monkeypatch):
    builds = _core_builds(monkeypatch)
    corpus = [graph for graph, _ in default_suite()]  # all five generators
    for graph in corpus:
        _derive_all(graph)
    # 16 generated graphs, then for each its line graph, three lifts, three
    # splittings and two shadows (the 1-shadow is the graph itself)
    assert len(builds) == 16 + 16 * 9
    _assert_core_invariant(builds)


def test_producers_emit_canonical_pairs_on_random_graphs(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    builds = _core_builds(monkeypatch)

    @hyp.settings(max_examples=60)
    @hyp.given(small_graphs(hyp.strategies))
    @hyp.example(Graph(0))
    @hyp.example(Graph(4))
    @hyp.example(Graph(6, [(1, 4), (2, 4), (3, 5)]))
    def check(graph):
        builds.clear()
        _derive_all(graph)
        assert len(builds) == 9  # L(G), three lifts, three splittings, two shadows
        _assert_core_invariant(builds)

    check()
