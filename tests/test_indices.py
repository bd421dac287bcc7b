"""Degree-based index values, closed forms and invariances."""

import math
import random

import numpy as np
import pytest

from absspectra import Graph, all_indices, degree_index, generate
from absspectra.indices import INDEX_KINDS
from absspectra.spectra import abs_matrix

from conftest import random_graph


def test_harmonic_of_cycles():
    # every edge contributes 2/4, so H(C_n) = n/2
    for n in range(3, 11):
        assert degree_index(generate("cycle", n), "harmonic") == pytest.approx(n / 2.0)
    assert degree_index(generate("cycle", 6), "harmonic") == pytest.approx(3.0)


def test_abs_of_k2_is_zero():
    assert degree_index(generate("complete", 2), "abs") == 0.0


def test_zagreb_of_p3():
    p3 = generate("path", 3)
    assert degree_index(p3, "M1") == pytest.approx(6.0)
    assert degree_index(p3, "M2") == pytest.approx(4.0)


def test_modified_second_zagreb_of_k4():
    assert degree_index(generate("complete", 4), "modified_second_zagreb") == pytest.approx(2.0 / 3.0)


def test_edgeless_graph_scores_zero():
    g = Graph(5)
    assert all(v == 0.0 for v in all_indices(g).values())


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown index kind"):
        degree_index(generate("path", 3), "wiener")


def test_abs_index_matches_abs_matrix_entries():
    rng = random.Random(61)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        upper = float(np.sum(np.triu(abs_matrix(g))))
        assert abs(degree_index(g, "abs") - upper) <= 1e-12


@pytest.mark.parametrize("gen,kind_sizes", [("cycle", range(3, 11)), ("complete", range(2, 11))])
def test_regular_closed_forms(gen, kind_sizes):
    for n in kind_sizes:
        g = generate(gen, n)
        r = 2 if gen == "cycle" else n - 1
        assert degree_index(g, "harmonic") == pytest.approx(g.m / r)
        assert degree_index(g, "abs") == pytest.approx(g.m * math.sqrt((2 * r - 2) / (2 * r)))


def test_indices_invariant_under_relabeling():
    rng = random.Random(67)
    for _ in range(15):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        for kind, value in all_indices(g).items():
            assert degree_index(h, kind) == pytest.approx(value, abs=1e-12)


def test_index_kinds_in_order():
    assert INDEX_KINDS == ("M1", "M2", "randic", "harmonic", "modified_second_zagreb", "abc", "abs")
    assert tuple(all_indices(generate("cycle", 4))) == INDEX_KINDS
