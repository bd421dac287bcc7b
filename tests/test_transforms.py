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
    degree_sequence,
    generate,
    incidence_matrix,
    is_connected,
    is_regular,
    semitotal_line,
    semitotal_point,
    shadow,
    splitting,
    subdivision,
)

from absspectra import graphs, transforms

from conftest import random_graph


def test_subdivision_of_triangle_is_hexagon():
    s = subdivision(generate("cycle", 3))
    assert s.n == 6 and s.m == 6
    assert is_regular(s) == 2 and is_connected(s)  # connected 2-regular = cycle


def test_subdivision_of_k2_is_p3():
    s = subdivision(generate("complete", 2))
    assert s == Graph(3, [(0, 2), (1, 2)])


def test_subdivision_of_star_degrees():
    s = subdivision(generate("star", 4))
    assert degree_sequence(s) == [3, 1, 1, 1, 2, 2, 2]


def test_subdivision_counts_and_adjacency_block():
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8))
        s = subdivision(g)
        assert s.n == g.n + g.m and s.m == 2 * g.m
        f = incidence_matrix(g).astype(float)
        expected = np.block(
            [[np.zeros((g.n, g.n)), f], [f.T, np.zeros((g.m, g.m))]]
        )
        np.testing.assert_array_equal(adjacency_matrix(s), expected)


def test_semitotal_point_of_k2_is_triangle():
    t = semitotal_point(generate("complete", 2))
    assert t == generate("complete", 3)


def test_semitotal_point_of_triangle():
    t = semitotal_point(generate("cycle", 3))
    assert t.n == 6 and t.m == 9
    assert sorted(degree_sequence(t)) == [2, 2, 2, 4, 4, 4]


def test_semitotal_point_degree_law():
    rng = random.Random(19)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8))
        t = semitotal_point(g)
        assert t.m == 3 * g.m
        degs = degree_sequence(t)
        for x, d in enumerate(degree_sequence(g)):
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
            assert t.has_edge(i, j)


def test_semitotal_line_degree_law():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8))
        t = semitotal_line(g)
        degs_g = degree_sequence(g)
        degs_t = degree_sequence(t)
        for x in range(g.n):
            assert degs_t[x] == degs_g[x]
        for j, (u, v) in enumerate(g.edges):
            assert degs_t[g.n + j] == degs_g[u] + degs_g[v]


def test_splitting_of_k2_is_p4():
    s = splitting(generate("complete", 2), 1)
    assert s.n == 4 and s.m == 3
    assert sorted(degree_sequence(s)) == [1, 1, 2, 2]
    assert is_connected(s)


def test_splitting_of_c4_counts_and_degrees():
    s = splitting(generate("cycle", 4), 2)
    assert s.n == 12 and s.m == 20
    degs = degree_sequence(s)
    assert degs[:4] == [6, 6, 6, 6]
    assert degs[4:] == [2] * 8


def test_splitting_counts_random():
    rng = random.Random(31)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 7))
        for k in (1, 2, 3):
            s = splitting(g, k)
            assert s.n == (k + 1) * g.n
            assert s.m == (2 * k + 1) * g.m
            degs = degree_sequence(s)
            for x, d in enumerate(degree_sequence(g)):
                assert degs[x] == d * (k + 1)
                for c in range(1, k + 1):
                    assert degs[c * g.n + x] == d


def test_splitting_rejects_bad_k():
    with pytest.raises(ValueError):
        splitting(generate("cycle", 3), 0)


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
            degs = degree_sequence(d)
            for x, dx in enumerate(degree_sequence(g)):
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
