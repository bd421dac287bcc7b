"""Graph construction, generators, structural queries and matrix layouts."""

import copy
import functools
import json
import pickle
import random
from itertools import combinations

import numpy as np
import pytest

from absspectra import (
    Graph,
    adjacency_matrix,
    degree_sequence,
    eigenvalues_symmetric,
    generate,
    incidence_matrix,
    is_connected,
    is_regular,
    line_graph,
    load_graph,
    parse_edge_list_text,
    to_edge_list_text,
)
from absspectra import graphs
from absspectra.graphs import from_json_dict, to_json_dict

from conftest import random_graph


def test_from_edge_list_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert degree_sequence(g) == [1, 2, 1]
    assert g.edges == ((0, 1), (1, 2))


def test_from_edge_list_collapses_duplicates_and_orients():
    g = Graph(2, [(0, 1), (1, 0)])
    assert g.m == 1
    assert g.edges == ((0, 1),)


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(4, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(IndexError):
        Graph(3, [(0, 3)])
    with pytest.raises(IndexError):
        Graph(3, [(-1, 2)])


def test_graph_is_immutable():
    g = generate("path", 3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_graph_pickle_and_copy_roundtrip():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    for h in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert h == g and hash(h) == hash(g)
        assert h.adjacency == g.adjacency


def test_graph_rejects_bool_vertex_count():
    with pytest.raises(ValueError, match="vertex count"):
        Graph(True)


def test_graph_rejects_non_integral_vertex_ids():
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        Graph(3, [(0.0, 1.7)])
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        Graph(3, [(0, 1.0)])


def test_from_json_dict_rejects_non_integral_values():
    with pytest.raises(ValueError, match="vertex count"):
        from_json_dict({"n": 2.9, "edges": [[0, 1]]})
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        from_json_dict({"n": 2, "edges": [[0, 1.5]]})


def test_graph_accepts_numpy_integer_ids():
    g = Graph(3, [(np.int64(0), np.int32(2)), (np.uint8(1), 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert all(type(x) is int for edge in g.edges for x in edge)


def test_generate_star():
    g = generate("star", 4)
    assert degree_sequence(g) == [3, 1, 1, 1]


def test_generate_complete():
    g = generate("complete", 4)
    assert g.m == 6
    assert is_regular(g) == 3


def test_generate_complete_bipartite():
    g = generate("complete_bipartite", 2, 3)
    assert g.m == 6
    assert degree_sequence(g) == [3, 3, 2, 2, 2]


@pytest.mark.parametrize(
    "kind,params",
    [("cycle", (2,)), ("cycle", (0,)), ("path", (0,)), ("complete", (-1,)), ("complete_bipartite", (0, 3))],
)
def test_generate_rejects_bad_sizes(kind, params):
    with pytest.raises(ValueError):
        generate(kind, *params)


def test_edge_budget_rejects_oversized_generators():
    for kind, params in (("complete", (200000,)), ("complete_bipartite", (1001, 1000)), ("cycle", (10**6 + 1,))):
        with pytest.raises(ValueError, match="budget"):
            generate(kind, *params)


def test_edge_budget_uses_exact_counts(monkeypatch):
    # a budget equal to the edge count builds the graph; one edge less is refused
    rng = random.Random(17)
    builders = [
        functools.partial(generate, kind, *params)
        for kind, params in (
            ("complete", (7,)), ("cycle", (7,)), ("path", (7,)), ("star", (7,)), ("complete_bipartite", (3, 4)),
        )
    ]
    builders += [functools.partial(line_graph, random_graph(rng, 8)) for _ in range(5)]
    for build in builders:
        m = build().m
        monkeypatch.setattr(graphs, "EDGE_BUDGET", m - 1)
        with pytest.raises(ValueError, match="budget"):
            build()
        monkeypatch.setattr(graphs, "EDGE_BUDGET", m)
        assert build().m == m
        monkeypatch.undo()


def test_structural_queries():
    c5 = generate("cycle", 5)
    assert is_regular(c5) == 2
    assert is_connected(c5)

    p4 = generate("path", 4)
    assert degree_sequence(p4) == [1, 2, 2, 1]
    assert is_regular(p4) is None

    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert is_regular(two_edges) == 1
    assert not is_connected(two_edges)

    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert is_regular(Graph(3)) == 0


def test_handshake_lemma_random():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 9))
        assert sum(degree_sequence(g)) == 2 * g.m


def _line_graph_bruteforce(g):
    """Independent oracle: enumerate all edge pairs and test shared endpoints."""
    pairs = []
    for (i, e), (j, f) in combinations(enumerate(g.edges), 2):
        if set(e) & set(f):
            pairs.append((i, j))
    return Graph(g.m, pairs)


def test_line_graph_of_path3_is_k2():
    assert line_graph(generate("path", 3)) == generate("complete", 2)


def test_line_graph_of_c4_is_c4():
    lg = line_graph(generate("cycle", 4))
    assert lg.n == 4 and lg.m == 4 and is_regular(lg) == 2 and is_connected(lg)


def test_line_graph_of_star_is_complete():
    assert line_graph(generate("star", 4)) == generate("complete", 3)
    assert line_graph(generate("star", 4)) == _line_graph_bruteforce(generate("star", 4))


def test_line_graph_matches_bruteforce_and_edge_count():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 8))
        lg = line_graph(g)
        assert lg == _line_graph_bruteforce(g)
        degs = degree_sequence(g)
        assert lg.m == sum(d * (d - 1) // 2 for d in degs)


def test_line_graph_invariant_under_relabeling():
    rng = random.Random(13)
    for _ in range(15):
        g = random_graph(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        h = Graph(7, [(perm[u], perm[v]) for u, v in g.edges])
        lg, lh = line_graph(g), line_graph(h)
        assert sorted(degree_sequence(lg)) == sorted(degree_sequence(lh))
        if lg.n:
            np.testing.assert_allclose(
                eigenvalues_symmetric(adjacency_matrix(lg)),
                eigenvalues_symmetric(adjacency_matrix(lh)),
                atol=1e-9,
            )


def test_incidence_matrix_examples():
    np.testing.assert_array_equal(incidence_matrix(generate("path", 3)), [[1, 0], [1, 1], [0, 1]])
    np.testing.assert_array_equal(incidence_matrix(generate("complete", 2)), [[1], [1]])


def test_incidence_matrix_sums():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        f = incidence_matrix(g)
        assert (f.sum(axis=0) == 2).all()
        assert (f.sum(axis=1) == np.array(degree_sequence(g))).all()


def test_incidence_gram_regular_c4():
    g = generate("cycle", 4)
    f = incidence_matrix(g)
    expected = adjacency_matrix(g).astype(np.int64) + 2 * np.eye(4, dtype=np.int64)
    np.testing.assert_array_equal(f @ f.T, expected)


def test_incidence_gram_line_graph_identity_random():
    # F^t F = 2I + A(L(G)) holds for every graph, in integer arithmetic.
    rng = random.Random(29)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 8))
        f = incidence_matrix(g)
        expected = 2 * np.eye(g.m, dtype=np.int64) + adjacency_matrix(line_graph(g)).astype(np.int64)
        np.testing.assert_array_equal(f.T @ f, expected)


def test_edge_list_text_roundtrip():
    g = generate("complete_bipartite", 2, 3)
    assert parse_edge_list_text(to_edge_list_text(g)) == g


def test_edge_list_text_comments_and_errors():
    g = parse_edge_list_text("# a triangle\n3 3\n0 1\n1 2 # last\n0 2\n")
    assert g == generate("cycle", 3)
    with pytest.raises(ValueError):
        parse_edge_list_text("")
    with pytest.raises(ValueError):
        parse_edge_list_text("3 2\n0 1\n")  # count mismatch


def test_json_roundtrip(tmp_path):
    g = generate("cycle", 5)
    assert from_json_dict(to_json_dict(g)) == g
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_dict(g)))
    assert load_graph(path) == g
    path2 = tmp_path / "g.txt"
    path2.write_text(to_edge_list_text(g))
    assert load_graph(path2) == g
