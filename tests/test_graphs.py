"""Graph construction, generators, structural queries and matrix layouts."""

import copy
import functools
import io
import json
import os
import pickle
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, combinations, permutations

import numpy as np
import pytest

from absspectra import (
    Graph,
    abs_matrix,
    adjacency_matrix,
    apply_transform,
    closed_form_abs_spectrum,
    eigenvalues_symmetric,
    generate,
    incidence_matrix,
    is_connected,
    is_regular,
    line_graph,
    load_graph,
    parse_edge_list_text,
    path_abs_charpoly,
    predicted_energy,
    predicted_transform_spectrum,
    shadow,
    splitting,
    to_edge_list_text,
)
from absspectra import graphs
from absspectra.cli import main
from absspectra.graphs import (
    GENERATOR_KINDS,
    connected_regular_degree,
    families,
    from_json_dict,
    to_json_dict,
    to_json_text,
)
from absspectra.spectra import (
    CLOSED_FORM_KINDS,
    LIFT_KINDS,
    lift_coefficients,
    regular_abs_factor,
    splitting_energy_radicands,
)
from absspectra.transforms import K_KINDS, TRANSFORM_KINDS, semitotal_line

from conftest import degrees_reference, line_graph_pairs_reference, random_graph, run_pairs, spread_graphs


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


def test_graph_init_hands_its_checked_ids_to_from_ids_once(monkeypatch):
    calls = []
    real = Graph._from_ids.__func__

    def from_ids(cls, n, ids):
        calls.append((n, ids.dtype, ids.tolist()))
        return real(cls, n, ids)

    monkeypatch.setattr(Graph, "_from_ids", classmethod(from_ids))
    g = Graph(4, [(1, 0), (0, 1), (3, 2)])
    assert calls == [(4, np.int64, [1, 0, 0, 1, 3, 2])]
    assert g.higher == ((1,), (), (3,), ()) and g.degrees == (1, 1, 1, 1)


def _set_reference(n, pairs):
    """(higher, degrees) of the graph on ``n`` vertices with ``pairs``, collected through a set of (min, max) pairs."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    higher = [[] for _ in range(n)]
    degrees = [0] * n
    for u, v in edges:
        higher[u].append(v)
        degrees[u] += 1
        degrees[v] += 1
    return tuple(map(tuple, higher)), tuple(degrees)


def _shuffled_pairs(rng, edges):
    """``edges`` with a third of them repeated, each pair reversed at random, in a shuffled order."""
    pairs = edges + rng.sample(edges, len(edges) // 3)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    rng.shuffle(pairs)
    return pairs


def test_graph_matches_a_set_reference_on_shuffled_pairs():
    rng = random.Random(4001)
    cases = []
    for n in range(61):
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        pairs = _shuffled_pairs(rng, edges)
        cases += [(n, pairs), (np.int64(n), [(np.int32(u), np.int64(v)) for u, v in pairs])]
    big = 10**5
    cases.append((big, _shuffled_pairs(rng, [(0, big - 1), (5, 70000), (99998, 99999)])))
    for n, pairs in cases:
        g = Graph(n, pairs)
        assert (g.higher, g.degrees) == _set_reference(int(n), [(int(u), int(v)) for u, v in pairs]), int(n)
        assert all(type(x) is int for x in (g.n, *chain.from_iterable(g.higher), *g.degrees))


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


def _floors():
    """(name, call of one count, least legal count) of every count read with a floor by ``graphs._integer``."""
    c4 = generate("cycle", 4)
    closed_least = {"complete": 2, "cycle": 3, "star": 2, "complete_bipartite": 1}  # as the paper states them
    assert tuple(closed_least) == CLOSED_FORM_KINDS
    rows = [("Graph n", Graph, 0), ("path_abs_charpoly n", path_abs_charpoly, 5)]
    for kind in ("complete", "cycle", "path", "star"):
        rows.append((f"generate {kind}", functools.partial(generate, kind), 3 if kind == "cycle" else 1))
    for kind in ("complete", "cycle", "star"):
        rows.append((f"closed form {kind}", functools.partial(closed_form_abs_spectrum, kind), closed_least[kind]))
    for name, read in (("generate", generate), ("closed form", closed_form_abs_spectrum)):
        rows.append((f"{name} complete_bipartite m", lambda m, read=read: read("complete_bipartite", m, 2), 1))
        rows.append((f"{name} complete_bipartite n", lambda n, read=read: read("complete_bipartite", 2, n), 1))
    rows.append(("regular_abs_factor r", regular_abs_factor, 1))
    for kind in LIFT_KINDS:
        rows.append((f"lift_coefficients {kind} r", functools.partial(lift_coefficients, kind), 1))
        rows.append((f"transform {kind} r", lambda r, kind=kind: predicted_transform_spectrum(kind, r, [], 0), 1))
    rows.append(("transform order", functools.partial(predicted_transform_spectrum, "subdivision", 2, []), 0))
    rows.append(("splitting_energy_radicands r", lambda r: splitting_energy_radicands(r, 2), 1))
    rows.append(("splitting_energy_radicands k", lambda k: splitting_energy_radicands(2, k), 1))
    for kind in K_KINDS:
        rows.append((f"predicted_energy {kind} r", lambda r, kind=kind: predicted_energy(kind, r, 2, 1.0, 1.0), 1))
        rows.append((f"predicted_energy {kind} k", lambda k, kind=kind: predicted_energy(kind, 2, k, 1.0, 1.0), 1))
    rows.append(("splitting k", functools.partial(splitting, c4), 1))
    rows.append(("shadow k", functools.partial(shadow, c4), 1))
    return rows


@pytest.mark.parametrize("call,least", [pytest.param(call, least, id=name) for name, call, least in _floors()])
def test_every_floor_at_its_edge(call, least):
    call(least)
    with pytest.raises(ValueError, match=f">= {least} is required, got {least - 1}$"):
        call(least - 1)
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match=f"must be integers, got {bad!r}$"):
            call(bad)


def test_verify_k_floor_at_its_edge():
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--check", "THM_SPLIT_ENERGY", "--graph", "cycle:4", "--k"]
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv + ["1"]) == 0
    assert json.loads(out.getvalue()) and err.getvalue() == ""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv + ["0"]) == 2
    assert out.getvalue() == "" and "verify --k >= 1 is required, got 0" in err.getvalue()


def test_generated_degrees_match_reference():
    # the generators state their degrees by formula; sizes 1-7 include path:1,
    # star:1, complete:1, complete_bipartite:1:b and cycle:3
    for n in range(1, 8):
        members = [generate(kind, n) for kind in ("complete", "path", "star")]
        members += [generate("complete_bipartite", n, b) for b in range(1, 8)]
        members += [generate("cycle", n)] if n >= 3 else []
        for g in members:
            assert g.degrees == degrees_reference(g)


# (kind, sizes) -> the error text each bad call names
_BAD_SIZES = {
    ("cycle", (2,)): "n >= 3",
    ("cycle", (0,)): "n >= 3",
    ("path", (0,)): "n >= 1",
    ("complete", (-1,)): "n >= 1",
    ("complete_bipartite", (0, 3)): "part sizes >= 1",
    ("wheel", (5,)): "unknown generator kind",
    ("complete_bipartite", (3,)): "takes two part sizes",
    ("cycle", (3, 4)): "takes one size parameter",
}


@pytest.mark.parametrize("kind,params", list(_BAD_SIZES))
def test_generate_rejects_bad_sizes(kind, params):
    with pytest.raises(ValueError, match=_BAD_SIZES[kind, params]):
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


def test_incidence_line_pairs_distinct_ascending_and_offset():
    for g in _line_graph_cases(47):
        reference = line_graph_pairs_reference(g)
        for offset in (0, 5):
            incident = graphs._incidence(g, offset)
            assert incident == tuple(
                tuple(offset + j for j, edge in enumerate(g.edges) if x in edge) for x in range(g.n)
            )
            runs = graphs._line_runs([], g, incident)
            assert len(runs) == g.m
            pairs = run_pairs(runs, offset)
            assert all(i < j for i, j in pairs)
            assert pairs == [(offset + i, offset + j) for i, j in reference]


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
    assert incidence_matrix(generate("path", 3)).dtype == np.float64


def test_incidence_gram_products_in_float64_are_the_integer_products():
    # Every entry and partial sum of F F^t and F^t F is an integer no larger than the
    # largest degree, so BLAS's float64 products are exact in any summation order.
    rng = random.Random(34)
    completes = [generate("complete", n) for n in (2, 7, 20, 41, 60)]
    for g in completes + [random_graph(rng, n) for n in (1, 5, 12, 30, 45, 60)]:
        f = incidence_matrix(g)
        exact = f.astype(np.int64)
        np.testing.assert_array_equal(f @ f.T, exact @ exact.T)
        np.testing.assert_array_equal(f.T @ f, exact.T @ exact)


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


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+1", "1.0", "0x1", "a", "--1", "1-"])
def test_edge_list_ids_refuse_what_int_alone_takes(token):
    for text in (f"3 1\n0 {token}\n", f"{token} 1\n0 1\n", f"3 {token}\n0 1\n"):
        with pytest.raises(ValueError, match=f"ASCII decimal integers, got {re.escape(repr(token))}$"):
            parse_edge_list_text(text)


def test_edge_list_ids_take_ascii_decimal_with_minus():
    assert parse_edge_list_text("03 1\n002\t\u20030 # tab and em space\n") == Graph(3, [(0, 2)])
    with pytest.raises(IndexError, match=r"edge \(0, -1\)"):
        parse_edge_list_text("3 1\n0 -1\n")


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
    # the sizes the build benchmark writes: over 10^4 edges, ids of 10^4 and more
    cases += [semitotal_line(generate("cycle", 6000)), semitotal_line(generate("complete", 20))]
    assert cases[-2].m > 10**4 and cases[-2].edges[-1][1] >= 10**4
    for g in cases:
        assert to_json_text(g) == json.dumps(to_json_dict(g), indent=2)


# --- the text layer against its per-edge and row-by-row forms -----------------


def _per_edge_edge_list_text(graph):
    """The edge-list text written with one f-string per edge."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def _generator_line_pairs(graph, offset=0):
    """The line-graph pairs yielded by one generator frame, vertex by vertex."""
    incident = [[] for _ in range(graph.n)]
    for idx, (u, v) in enumerate(graph.edges, offset):
        incident[u].append(idx)
        incident[v].append(idx)
    for ids in incident:
        yield from combinations(ids, 2)


_ROW_INT_TOKEN = re.compile(r"-?[0-9]+")
_ROW_INT_PAIR = re.compile(r"(-?[0-9]+)\s+(-?[0-9]+)")


def _row_int_pair(line, shape):
    match = _ROW_INT_PAIR.fullmatch(line)
    if match is not None:
        return int(match[1]), int(match[2])
    row = line.split()
    if len(row) != 2:
        raise ValueError(f"{shape}, got {' '.join(row)!r}")
    token = next(token for token in row if not _ROW_INT_TOKEN.fullmatch(token))
    raise ValueError(f"vertex ids and counts must be ASCII decimal integers, got {token!r}")


def _row_by_row_reader(text):
    """The edge-list reader that matches and converts one row at a time."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty edge-list input")
    n, m = _row_int_pair(rows[0], "header must be 'n m'")
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    return Graph(n, [_row_int_pair(row, "edge line must be 'u v'") for row in rows[1:]])


def test_graph_text_layer_matches_its_per_edge_forms(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40)
    @hyp.given(spread_graphs(st), st.integers(0, 3))
    def check(g, offset):
        expected_json, expected_text = json.dumps(to_json_dict(g), indent=2), _per_edge_edge_list_text(g)
        # 0 sends every graph with an edge through the vertex runs, 10**9 every graph through one template
        for per_vertex in (0, 10**9, graphs._RUN_MIN_EDGES_PER_VERTEX):
            monkeypatch.setattr(graphs, "_RUN_MIN_EDGES_PER_VERTEX", per_vertex)
            assert to_json_text(g) == expected_json
            assert to_edge_list_text(g) == expected_text
        assert parse_edge_list_text(expected_text) == g
        runs = graphs._line_runs([], g, graphs._incidence(g, offset))
        assert run_pairs(runs, offset) == sorted(_generator_line_pairs(g, offset))

    check()


@pytest.mark.parametrize(
    "text",
    [
        "3 2\n0 1\n1 x\n",  # a bad token
        "3 2\n0 1 2\n1 2\n",  # three fields
        "11 1\n0 1_0\n",
        "4 1\n٠ ٣\n",  # Unicode digits
        "3 2\v0 1\f1 2\n",  # \v and \f break rows
        "3 2\v0 1\f1 x\n",
        "3 2\r\n0 1\r\n1 2\r\n",  # CRLF
        "3 2\r\n0 1\r\n1 2 3\r\n",
        "# only\n  # comment rows\n",
        "# a\n3 1\n# b\n0 2 # c\n#\n",
        "3 2\n0 1\n",  # count mismatch
        "3 1\n0 1\n1 2\n",
        "3 3\n0 x\n0 1 2\n1_0 2\n",  # the first bad row is named
        "3 3\n0 1\n0 1 2\n0 x\n",
        "3\n0 1\n",
        "x 1\n0 1\n",
        "3 1\n0 3\n",
        "3 1\n1 1\n",
        "3 1\n0 -1\n",
        "3 1\n0 \t2\n",
        "3 1\n0\x1f2\n",  # a separator str.split takes and splitlines does not
        "3 0\n",
        "0 0\n",
        "",
        # texts in the writer's form, read in one pass, and texts just outside it
        "4 5\n0 1\n1 0\n3 2\n2 3\n0 1\n",  # duplicate and reversed pairs
        "04 2\n00 01\n002 3\n",  # leading zeros
        "3 1\n-0 1\n",
        "3 1\n0 999999999999999999\n",  # 18 digits
        "3 1\n0 1000000000000000000\n",  # 19 digits
        "1000000000000000000 0\n",
        f"{graphs.VERTEX_BUDGET + 1} 0\n",
        f"{graphs.VERTEX_BUDGET + 1} 1\n",  # the count is checked before the budget
        f"{graphs.VERTEX_BUDGET} 1\n0 {graphs.VERTEX_BUDGET - 1}\n",
        "3 2\n0 1\n2 2\n",  # a self-loop
        "3 2\n0 1\n0 3\n",  # an out-of-range id
        "3 3\n0 5\n1 1\n2 2\n",  # the first bad pair is named
        "3 3\n1 1\n0 5\n2 2\n",
        "0 1\n0 0\n",
        "3 3\n0 1\n1 2\n",  # m too high
        "3 1\n0 1\n1 2\n0 2\n",  # m too low
        "3 1\n0 1",  # no final newline
        "3 1\n0 1\n\n",  # a trailing blank line
        "3 1\n 0 1\n",
        "3 1\n0  1\n",
        "5 0\n",
        "5 0",
        "0 0",
    ],
)
def test_edge_list_reader_matches_the_row_by_row_reader(text):
    def outcome(read):
        try:
            g = read(text)
        except (ValueError, IndexError) as exc:
            return type(exc), str(exc)
        assert all(type(i) is int for i in (g.n, *chain.from_iterable(g.edges), *g.degrees))
        return g, g.degrees

    assert outcome(parse_edge_list_text) == outcome(_row_by_row_reader)


class _GraphInitCalled(Exception):
    pass


def test_writer_form_text_is_read_without_graph_init(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def refuse(self, n, pairs=()):
        raise _GraphInitCalled

    @hyp.settings(max_examples=40)
    @hyp.given(spread_graphs(st))
    def check(g):
        text = to_edge_list_text(g)
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "__init__", refuse)
            read = parse_edge_list_text(text)
            assert read == g and read.degrees == g.degrees
            # a comment row takes the text out of the writer's form, to the row reader and Graph(n, pairs)
            with pytest.raises(_GraphInitCalled):
                parse_edge_list_text(text.replace("\n", "\n# comment\n", 1))

    check()


def test_text_integer_is_ascii_decimal_with_minus():
    tokens = ("0", "007", "-3", "12345678901234567890")
    assert [graphs._text_integer(token, "sizes") for token in tokens] == [0, 7, -3, 12345678901234567890]
    for token in ("1_0", "٣", "+1", " 1", "1.0", "", "-"):
        with pytest.raises(ValueError, match=f"^sizes must be ASCII decimal integers, got {re.escape(repr(token))}$"):
            graphs._text_integer(token, "sizes")


def test_json_roundtrip(tmp_path):
    g = generate("cycle", 5)
    assert from_json_dict(to_json_dict(g)) == g
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_dict(g)))
    assert load_graph(path) == g
    path2 = tmp_path / "g.txt"
    path2.write_text(to_edge_list_text(g))
    assert load_graph(path2) == g


def test_load_graph_drops_a_byte_order_mark(tmp_path):
    g = generate("cycle", 5)
    for name, text in (("g.json", json.dumps(to_json_dict(g))), ("g.txt", to_edge_list_text(g))):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_graph(marked) == load_graph(plain) == g


def test_load_graph_takes_a_path_not_a_file_descriptor():
    # open() takes an int too, and would read that descriptor to its end and close it: load_graph(0) would
    # consume and close stdin
    text = to_edge_list_text(generate("cycle", 5)).encode()
    read_fd, write_fd = os.pipe()
    os.write(write_fd, text)
    os.close(write_fd)
    try:
        with pytest.raises(TypeError, match="PathLike"):
            load_graph(read_fd)
        assert os.read(read_fd, len(text) + 1) == text  # still open, nothing read
    finally:
        os.close(read_fd)
