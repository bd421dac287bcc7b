"""Graph construction, generators, structural queries and matrix layouts."""

import copy
import functools
import json
import pickle
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from absspectra import (
    Graph,
    abs_matrix,
    adjacency_matrix,
    apply_transform,
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
from absspectra.graphs import (
    GENERATOR_KINDS,
    connected_regular_degree,
    families,
    from_json_dict,
    line_pairs,
    to_json_dict,
    to_json_text,
)
from absspectra.transforms import K_KINDS, TRANSFORM_KINDS

from conftest import degrees_reference, line_graph_pairs_reference, random_graph


def test_from_edge_list_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.degrees == (1, 2, 1)
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
        assert h.degrees == g.degrees


def test_graph_rejects_bool_vertex_count():
    with pytest.raises(ValueError, match="vertex count"):
        Graph(True)


def test_graph_reads_its_vertex_count_as_an_integer():
    for bad in (3.0, "3", None):
        with pytest.raises(ValueError, match="vertex count"):
            Graph(bad)
    g = Graph(np.int64(3), [(0, 1)])
    assert g == Graph(3, [(0, 1)]) and type(g.n) is int


def test_graph_rejects_non_integral_vertex_ids():
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        Graph(3, [(0.0, 1.7)])
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        Graph(3, [(0, 1.0)])


def test_graph_rejects_malformed_pairs():
    for pairs in (None, 5):
        with pytest.raises(ValueError, match="iterable of vertex pairs"):
            Graph(3, pairs)
    for pairs in ([0, 1], [(0, 1, 2)], [(0,)], [None]):
        with pytest.raises(ValueError, match="pair of vertex ids"):
            Graph(3, pairs)
    for edges in ([0, 1], None):
        with pytest.raises(ValueError):
            from_json_dict({"n": 3, "edges": edges})


def test_from_json_dict_rejects_non_integral_values():
    with pytest.raises(ValueError, match="vertex count"):
        from_json_dict({"n": 2.9, "edges": [[0, 1]]})
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        from_json_dict({"n": 2, "edges": [[0, 1.5]]})


def test_from_json_dict_names_a_missing_key():
    with pytest.raises(ValueError, match="graph JSON is missing the key 'n'"):
        from_json_dict({"edges": []})
    with pytest.raises(ValueError, match="graph JSON is missing the key 'edges'"):
        from_json_dict({"n": 3})


def test_graph_accepts_numpy_integer_ids():
    g = Graph(3, [(np.int64(0), np.int32(2)), (np.uint8(1), 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert all(type(x) is int for edge in g.edges for x in edge)


def test_generate_star():
    g = generate("star", 4)
    assert g.degrees == (3, 1, 1, 1)


def test_generate_complete():
    g = generate("complete", 4)
    assert g.m == 6
    assert is_regular(g) == 3


def test_generate_complete_bipartite():
    g = generate("complete_bipartite", 2, 3)
    assert g.m == 6
    assert g.degrees == (3, 3, 2, 2, 2)


@pytest.mark.parametrize(
    "kind,params",
    [("cycle", (2,)), ("cycle", (0,)), ("path", (0,)), ("complete", (-1,)), ("complete_bipartite", (0, 3))],
)
def test_generate_rejects_bad_sizes(kind, params):
    with pytest.raises(ValueError):
        generate(kind, *params)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_rejects_non_integral_sizes(kind):
    good = [3, 2] if kind == "complete_bipartite" else [4]
    for bad in (4.7, 4.0, True, "5", None):
        for i in range(len(good)):
            params = list(good)
            params[i] = bad
            with pytest.raises(ValueError, match="integers"):
                generate(kind, *params)
    assert generate(kind, *map(np.int64, good)) == generate(kind, *good)


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


def test_vertex_budget_uses_exact_counts(monkeypatch):
    # a budget equal to the vertex count builds the graph; one vertex less is refused
    builders = [
        functools.partial(generate, kind, *params)
        for kind, params in (
            ("complete", (7,)), ("cycle", (7,)), ("path", (7,)), ("star", (7,)), ("complete_bipartite", (3, 4)),
        )
    ]
    builders += [functools.partial(Graph, 7), functools.partial(parse_edge_list_text, "7 0\n")]
    for build in builders:
        n = build().n
        monkeypatch.setattr(graphs, "VERTEX_BUDGET", n - 1)
        with pytest.raises(ValueError, match="budget"):
            build()
        monkeypatch.setattr(graphs, "VERTEX_BUDGET", n)
        assert build().n == n
        monkeypatch.undo()


def test_dense_budget_uses_exact_entry_counts(monkeypatch):
    # a budget equal to the matrix's entry count builds it; one entry less is refused
    g = random_graph(random.Random(19), 9)
    for build, entries in ((adjacency_matrix, g.n * g.n), (abs_matrix, g.n * g.n), (incidence_matrix, g.n * g.m)):
        monkeypatch.setattr(graphs, "DENSE_BUDGET", entries - 1)
        with pytest.raises(ValueError, match="budget"):
            build(g)
        monkeypatch.setattr(graphs, "DENSE_BUDGET", entries)
        assert build(g).size == entries
        monkeypatch.undo()


def _graph_strategy(st, max_n=10):
    """Hypothesis strategy (``st`` is ``hypothesis.strategies``): graphs on 0..max_n vertices.

    Pairs come in either orientation, in any order and possibly repeated.
    """

    def on(n):
        if n < 2:
            return st.just(Graph(n))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        return st.lists(pair, max_size=3 * n).map(lambda pairs: Graph(n, pairs))

    return st.integers(0, max_n).flatmap(on)


def test_degrees_match_reference():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(derandomize=True, deadline=None)
    @hyp.given(_graph_strategy(hyp.strategies))
    def check(g):
        assert g.degrees == degrees_reference(g)

    check()
    for kind, sizes in _family_members(9):
        g = generate(kind, *sizes)
        assert g.degrees == degrees_reference(g)


def test_structural_queries():
    c5 = generate("cycle", 5)
    assert is_regular(c5) == 2
    assert is_connected(c5)

    p4 = generate("path", 4)
    assert p4.degrees == (1, 2, 2, 1)
    assert is_regular(p4) is None

    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert is_regular(two_edges) == 1
    assert not is_connected(two_edges)

    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert is_regular(Graph(3)) == 0


def test_connected_regular_degree():
    assert connected_regular_degree(generate("cycle", 5)) == 2
    assert connected_regular_degree(generate("complete", 2)) == 1
    for g in (Graph(0), Graph(1), Graph(3), generate("path", 4), Graph(4, [(0, 1), (2, 3)])):
        assert connected_regular_degree(g) is None


def _component_count(g):
    """Connected components by union-find over the edge list, independent of the package's search."""
    parent = list(range(g.n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[root(u)] = root(v)
    return sum(root(x) == x for x in range(g.n))


def _assert_connectivity_matches_reference(g):
    connected = _component_count(g) <= 1
    assert is_connected(g) == connected
    degs = degrees_reference(g)
    r = degs[0] if degs and len(set(degs)) == 1 and degs[0] >= 1 and connected else None
    assert connected_regular_degree(g) == r


def test_connectivity_matches_union_find():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(derandomize=True, deadline=None)
    @hyp.given(_graph_strategy(hyp.strategies))
    def check(g):
        _assert_connectivity_matches_reference(g)

    check()
    rng = random.Random(53)
    bases = [random_graph(rng, rng.randint(0, 7), rng.random()) for _ in range(20)]
    bases += [generate("cycle", 5), generate("complete", 4)]
    for g in bases:
        for kind in TRANSFORM_KINDS:
            for k in (1, 2, 3) if kind in K_KINDS else (None,):
                _assert_connectivity_matches_reference(apply_transform(kind, g, k))


# --- family recognition --------------------------------------------------------


def _family_members(max_n):
    """(kind, sizes) of every family member on 2..max_n vertices that families() names."""
    for n in range(2, max_n + 1):
        yield from (("complete", (n,)), ("path", (n,)), ("star", (n,)))
        if n >= 3:
            yield "cycle", (n,)
        yield from (("complete_bipartite", (a, n - a)) for a in range(1, n))


def _relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _unordered_parts(found):
    if "complete_bipartite" in found:
        found = dict(found, complete_bipartite=tuple(sorted(found["complete_bipartite"])))
    return found


def test_families_inverts_generate():
    for kind, sizes in _family_members(24):
        assert families(generate(kind, *sizes))[kind] == sizes


def test_families_invariant_under_relabelling():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    named = st.sampled_from(list(_family_members(9))).map(lambda member: generate(member[0], *member[1]))
    arbitrary = st.integers(0, 8).flatmap(
        lambda n: st.sets(st.sampled_from(list(combinations(range(n), 2))) if n > 1 else st.nothing()).map(
            lambda pairs: Graph(n, pairs)
        )
    )
    graph_and_perm = st.one_of(named, arbitrary).flatmap(
        lambda g: st.tuples(st.just(g), st.permutations(range(g.n)))
    )

    @hyp.settings(derandomize=True, deadline=None)
    @hyp.given(graph_and_perm)
    def check(case):
        g, perm = case
        # only the order of K_{a,b}'s parts may change: part one is vertex 0's side
        assert _unordered_parts(families(_relabel(g, perm))) == _unordered_parts(families(g))

    check()


def test_families_overlaps():
    assert families(generate("complete", 2)) == {
        "complete": (2,), "path": (2,), "star": (2,), "complete_bipartite": (1, 1),
    }
    assert families(generate("complete", 3)) == {"complete": (3,), "cycle": (3,)}
    assert families(generate("path", 3)) == {"path": (3,), "star": (3,), "complete_bipartite": (2, 1)}
    assert families(generate("star", 3)) == {"path": (3,), "star": (3,), "complete_bipartite": (1, 2)}
    assert families(generate("cycle", 4)) == {"cycle": (4,), "complete_bipartite": (2, 2)}
    for n in range(4, 12):
        assert families(generate("star", n)) == {"star": (n,), "complete_bipartite": (1, n - 1)}
    assert list(families(generate("complete", 2))) == ["complete", "path", "star", "complete_bipartite"]


def test_families_empty_for_tiny_and_disconnected_graphs():
    for g in (Graph(0), Graph(1), Graph(2), Graph(4, [(0, 1), (2, 3)]), Graph(5, [(0, 1), (1, 2), (0, 2)])):
        assert families(g) == {}


def test_families_exhaustive_on_small_graphs():
    # every labelled graph on n <= 5 vertices against every relabelling of every family member
    expected = {}
    for kind, sizes in _family_members(5):
        g = generate(kind, *sizes)
        for perm in permutations(range(g.n)):
            found = sizes
            if kind == "complete_bipartite" and perm.index(0) >= sizes[0]:
                found = sizes[::-1]  # vertex 0 now lies in the second part
            expected.setdefault((g.n, _relabel(g, perm).edges), {})[kind] = found
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            want = expected.get((n, g.edges), {})
            assert families(g) == want
            assert list(families(g)) == [kind for kind in GENERATOR_KINDS if kind in want]


def test_handshake_lemma_random():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 9))
        assert sum(g.degrees) == 2 * g.m


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
        degs = g.degrees
        assert lg.m == sum(d * (d - 1) // 2 for d in degs)


def _line_graph_cases(seed):
    """Every family member on up to 9 vertices, then random graphs of varied density."""
    rng = random.Random(seed)
    cases = [generate(kind, *sizes) for kind, sizes in _family_members(9)]
    return cases + [random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(40)]


def test_line_graph_matches_set_reference():
    for g in _line_graph_cases(43):
        assert line_graph(g) == Graph(g.m, line_graph_pairs_reference(g))


def test_line_pairs_distinct_ascending_and_offset():
    for g in _line_graph_cases(47):
        reference = line_graph_pairs_reference(g)
        for offset in (0, 5):
            pairs = list(line_pairs(g, offset))
            assert all(i < j for i, j in pairs)
            assert sorted(pairs) == [(offset + i, offset + j) for i, j in reference]


def test_line_graph_invariant_under_relabeling():
    rng = random.Random(13)
    for _ in range(15):
        g = random_graph(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        h = Graph(7, [(perm[u], perm[v]) for u, v in g.edges])
        lg, lh = line_graph(g), line_graph(h)
        assert sorted(lg.degrees) == sorted(lh.degrees)
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
        assert (f.sum(axis=1) == np.array(g.degrees)).all()


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


def test_to_json_text_equals_indented_json_dumps():
    rng = random.Random(41)
    cases = [Graph(0), Graph(1), Graph(3), generate("complete", 2), Graph(3, [(np.int64(2), np.int64(0))])]
    cases += [generate(kind, *sizes) for kind, sizes in _family_members(9)]
    cases += [random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(30)]
    for g in cases:
        assert to_json_text(g) == json.dumps(to_json_dict(g), indent=2)


def test_json_roundtrip(tmp_path):
    g = generate("cycle", 5)
    assert from_json_dict(to_json_dict(g)) == g
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_dict(g)))
    assert load_graph(path) == g
    path2 = tmp_path / "g.txt"
    path2.write_text(to_edge_list_text(g))
    assert load_graph(path2) == g
