"""ABS matrices, spectra, energies, closed forms and transform predictions."""

import math
import random

import numpy as np
import pytest

from absspectra import (
    abs_matrix,
    abs_spectrum,
    adjacency_matrix,
    adjacency_spectrum,
    apply_transform,
    char_poly,
    closed_form_abs_spectrum,
    degree_index,
    det_lu,
    eigenvalues_symmetric,
    energy,
    generate,
    is_regular,
    path_abs_charpoly,
    predicted_energy,
    predicted_transform_spectrum,
    semitotal_line,
    semitotal_point,
    shadow,
    splitting,
    subdivision,
)
from absspectra.linalg import multiset_deviation, poly_deviation
from absspectra.spectra import lift_coefficients, regular_abs_factor, spectrum_report, splitting_energy_radicands

from conftest import predicted_lift, random_graph, regular_corpus


def _predicted_energy(kind, graph, k):
    """Both readings for the k-splitting or k-shadow of a connected regular graph, from its degree and energies."""
    transformed_energy = energy(adjacency_spectrum(apply_transform(kind, graph, k)))
    return predicted_energy(kind, is_regular(graph), k, energy(adjacency_spectrum(graph)), transformed_energy)


def test_abs_matrix_k2_is_zero():
    np.testing.assert_array_equal(abs_matrix(generate("complete", 2)), np.zeros((2, 2)))


def test_abs_matrix_p3_entries():
    m = abs_matrix(generate("path", 3))
    w = math.sqrt(1.0 / 3.0)
    np.testing.assert_allclose(m, [[0, w, 0], [w, 0, w], [0, w, 0]], atol=1e-15)


def test_abs_matrix_c4_is_scaled_adjacency():
    g = generate("cycle", 4)
    np.testing.assert_allclose(abs_matrix(g), adjacency_matrix(g) / math.sqrt(2.0), atol=1e-15)


def test_abs_matrix_entries_in_unit_interval_and_trace_zero():
    rng = random.Random(71)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        m = abs_matrix(g)
        assert np.all(m >= 0.0) and np.all(m < 1.0)
        assert np.trace(m) == 0.0
        for u, v in g.edges:
            du, dv = g.degrees[u], g.degrees[v]
            assert (m[u, v] == 0.0) == (du == 1 and dv == 1)


def test_abs_spectrum_c4():
    np.testing.assert_allclose(
        abs_spectrum(generate("cycle", 4)), [-math.sqrt(2), 0.0, 0.0, math.sqrt(2)], atol=1e-12
    )
    assert energy(abs_spectrum(generate("cycle", 4))) == pytest.approx(2.0 * math.sqrt(2), abs=1e-12)


def test_abs_energy_k4():
    # one eigenvalue 3*sqrt(2/3), three at -sqrt(2/3): energy 2*sqrt(6)
    assert energy(abs_spectrum(generate("complete", 4))) == pytest.approx(2.0 * math.sqrt(6), abs=1e-12)


def test_abs_energy_k2_zero():
    assert energy(abs_spectrum(generate("complete", 2))) == 0.0


def test_closed_form_star_and_bipartite_agree():
    w = math.sqrt(1.5)
    np.testing.assert_allclose(
        closed_form_abs_spectrum("complete_bipartite", 1, 3), [-w, 0.0, 0.0, w], atol=1e-15
    )
    np.testing.assert_allclose(
        closed_form_abs_spectrum("star", 4), closed_form_abs_spectrum("complete_bipartite", 1, 3), atol=1e-15
    )


def test_closed_form_cycle3():
    expected = sorted([math.sqrt(2), -math.sqrt(2) / 2, -math.sqrt(2) / 2])
    np.testing.assert_allclose(closed_form_abs_spectrum("cycle", 3), expected, atol=1e-12)


def test_regular_abs_factor_r1_is_zero():
    assert regular_abs_factor(1) == 0.0
    # the scaled adjacency spectrum is not a closed-form kind
    with pytest.raises(ValueError, match="unknown closed-form kind"):
        closed_form_abs_spectrum("regular_scaled", [1.0, -1.0], 1)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("complete", (1,)),
        ("cycle", (2,)),
        ("star", (1,)),
        ("complete_bipartite", (0, 2)),
        ("regular_scaled", ([1.0], 0)),
        ("cycle", (5.0,)),
        ("complete", (2.5,)),
        ("complete_bipartite", (2.5, 3)),
        ("star", (4.0,)),
    ],
)
def test_closed_form_rejects_bad_params(kind, params):
    with pytest.raises(ValueError):
        closed_form_abs_spectrum(kind, *params)


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_form_complete_matches_eigensolver(n):
    assert multiset_deviation(closed_form_abs_spectrum("complete", n), abs_spectrum(generate("complete", n))) <= 1e-9


@pytest.mark.parametrize("n", range(3, 13))
def test_closed_form_cycle_matches_eigensolver(n):
    assert multiset_deviation(closed_form_abs_spectrum("cycle", n), abs_spectrum(generate("cycle", n))) <= 1e-9


def _tridiagonal_charpoly(offdiag):
    """Oracle: determinant recurrence p_k = x*p_{k-1} - b_{k-1}^2 * p_{k-2}."""
    polys = [np.array([1.0]), np.array([0.0, 1.0])]
    for b in offdiag:
        prev, prev2 = polys[-1], polys[-2]
        nxt = np.zeros(prev.size + 1)
        nxt[1:] = prev
        nxt[: prev2.size] -= b * b * prev2
        polys.append(nxt)
    return polys[-1]


def _path_offdiagonals(n):
    return [math.sqrt(1.0 / 3.0)] + [math.sqrt(0.5)] * (n - 3) + [math.sqrt(1.0 / 3.0)]


def test_path_charpoly_n5_exact():
    expected = np.array([0.0, 4.0 / 9.0, 0.0, -5.0 / 3.0, 0.0, 1.0])
    assert poly_deviation(path_abs_charpoly(5), expected) <= 1e-12


@pytest.mark.parametrize("n", range(5, 13))
def test_path_charpoly_matches_tridiagonal_oracle(n):
    oracle = _tridiagonal_charpoly(_path_offdiagonals(n))
    assert poly_deviation(path_abs_charpoly(n), oracle) <= 1e-12


@pytest.mark.parametrize("n", range(5, 16))
def test_path_charpoly_matches_faddeev_leverrier(n):
    assert poly_deviation(path_abs_charpoly(n), char_poly(abs_matrix(generate("path", n)))) <= 1e-9


def test_path_charpoly_constant_term_is_determinant():
    g = generate("path", 6)
    coeffs = path_abs_charpoly(6)
    assert coeffs[0] == pytest.approx(det_lu(abs_matrix(g)), abs=1e-12)


def test_path_charpoly_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 5"):
        path_abs_charpoly(4)
    with pytest.raises(ValueError, match="must be integers"):
        path_abs_charpoly(5.0)


def test_predicted_subdivision_of_c3_is_c6_spectrum():
    pred = predicted_transform_spectrum("subdivision", 2, adjacency_spectrum(generate("cycle", 3)), 6)
    assert multiset_deviation(pred, closed_form_abs_spectrum("cycle", 6)) <= 1e-9


def test_predicted_semitotal_point_of_k2():
    # T1(K2) = K3, whose ABS spectrum is the scaled complete-graph spectrum
    pred = predicted_transform_spectrum("semitotal_point", 1, adjacency_spectrum(generate("complete", 2)), 3)
    assert multiset_deviation(pred, closed_form_abs_spectrum("complete", 3)) <= 1e-9


def test_predicted_semitotal_line_of_c3():
    g = generate("cycle", 3)
    pred = predicted_lift("semitotal_line", g)
    actual = eigenvalues_symmetric(abs_matrix(semitotal_line(g)))
    assert multiset_deviation(pred, actual) <= 1e-9


@pytest.mark.parametrize("kind,transform", [
    ("subdivision", subdivision),
    ("semitotal_point", semitotal_point),
    ("semitotal_line", semitotal_line),
])
def test_predicted_transform_spectra_on_regular_corpus(kind, transform):
    for g in regular_corpus():
        pred = predicted_lift(kind, g)
        actual = eigenvalues_symmetric(abs_matrix(transform(g)))
        assert multiset_deviation(pred, actual) <= 1e-8


def test_lift_coefficients_table():
    r = 3
    assert lift_coefficients("subdivision", r) == pytest.approx((0.0, 3 / 5, 9 / 5))
    assert lift_coefficients("semitotal_point", r) == pytest.approx((math.sqrt(5 / 6), 3 / 4, 9 / 4))
    assert lift_coefficients("semitotal_line", r) == pytest.approx((math.sqrt(10 / 12), 7 / 9, 14 / 9))
    with pytest.raises(ValueError, match="unknown lift kind"):
        lift_coefficients("splitting", r)


def test_predictions_reject_degree_below_1():
    for r in (0, -1):
        for kind in ("subdivision", "semitotal_point", "semitotal_line"):
            with pytest.raises(ValueError, match="r >= 1"):
                lift_coefficients(kind, r)
            with pytest.raises(ValueError, match="r >= 1"):
                predicted_transform_spectrum(kind, r, [], 1)
        for kind in ("splitting", "shadow"):
            with pytest.raises(ValueError, match="r >= 1"):
                predicted_energy(kind, r, 2, 0.0, 0.0)
        with pytest.raises(ValueError, match="r >= 1"):
            splitting_energy_radicands(r, 1)
    for k in (0, -2):
        with pytest.raises(ValueError, match="k >= 1"):
            splitting_energy_radicands(3, k)
    with pytest.raises(ValueError, match="order"):
        predicted_transform_spectrum("subdivision", 2, [2.0, -1.0, -1.0], -1)
    # r, k and the order are read by graphs._integer: bools, floats and strings are refused
    calls = [
        lambda: regular_abs_factor(True),
        lambda: lift_coefficients("subdivision", 2.5),
        lambda: predicted_transform_spectrum("subdivision", 2, [1.0, -1.0], 4.5),
        lambda: splitting_energy_radicands(2, 1.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be integers"):
            call()


def test_splitting_radicands_agree_at_k1():
    corrected, printed = splitting_energy_radicands(2, 1)
    assert corrected == pytest.approx(41.0 / 12.0, abs=1e-15)
    assert printed == pytest.approx(41.0 / 12.0, abs=1e-15)
    # and they part ways for k >= 2
    corrected2, printed2 = splitting_energy_radicands(2, 2)
    assert corrected2 != pytest.approx(printed2)


def test_predicted_shadow_energy_c4_k2():
    corrected, _ = _predicted_energy("shadow", generate("cycle", 4), 2)
    assert corrected == pytest.approx(4.0 * math.sqrt(3), abs=1e-12)
    assert energy(abs_spectrum(shadow(generate("cycle", 4), 2))) == pytest.approx(corrected, abs=1e-8)


def test_predicted_shadow_energy_k1_reduces_to_abs_energy():
    for g in (generate("cycle", 5), generate("complete", 4)):
        corrected, as_printed = _predicted_energy("shadow", g, 1)
        assert corrected == pytest.approx(energy(abs_spectrum(g)), abs=1e-10)
        assert as_printed == pytest.approx(corrected, abs=1e-10)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_predicted_energies_match_bruteforce(k):
    for g in regular_corpus()[:8]:
        assert energy(abs_spectrum(splitting(g, k))) == pytest.approx(
            _predicted_energy("splitting", g, k)[0], abs=1e-8
        )
        assert energy(abs_spectrum(shadow(g, k))) == pytest.approx(
            _predicted_energy("shadow", g, k)[0], abs=1e-8
        )


def test_predicted_energy_validation():
    with pytest.raises(ValueError):
        predicted_energy("splitting", 2, 0, 4.0, 4.0)
    with pytest.raises(ValueError):
        predicted_energy("shadow", 0, 2, 4.0, 8.0)
    with pytest.raises(ValueError):
        predicted_energy("total", 2, 1, 4.0, 4.0)
    for kind, r, k in [("shadow", 2, 2.5), ("splitting", 2, True), ("shadow", 2, "3"), ("shadow", 2.0, 2)]:
        with pytest.raises(ValueError, match="must be integers"):
            predicted_energy(kind, r, k, 1.0, 1.0)


def test_trace_identities_random():
    rng = random.Random(83)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        mu = abs_spectrum(g)
        assert math.fsum(mu.tolist()) == pytest.approx(0.0, abs=1e-9)
        lhs = math.fsum((x * x for x in mu.tolist()))
        rhs = 2.0 * (g.m - degree_index(g, "harmonic"))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_regular_scaling_on_connected_regular_corpus():
    for g in regular_corpus():
        r = g.degrees[0]
        scaled = math.sqrt(r * r - r) / r * adjacency_spectrum(g)
        assert multiset_deviation(abs_spectrum(g), np.sort(scaled)) <= 1e-9


def test_energy_reports():
    g = generate("cycle", 4)
    spectrum = adjacency_spectrum(g)
    assert energy(spectrum) == pytest.approx(4.0, abs=1e-12)
    assert energy(spectrum) >= abs(spectrum[-1])
    assert energy([-1.5, 0.0, 0.5, 1.0]) == 3.0  # any sequence of eigenvalues
    report = spectrum_report(g, "abs")
    assert set(report) == {"spectrum", "energy", "trace_sq", "harmonic_check"}
    assert report["trace_sq"] == pytest.approx(report["harmonic_check"], abs=1e-10)
    with pytest.raises(ValueError):
        spectrum_report(g, "laplacian")
