"""Check registry behavior: applicability, variants, determinism, serialization."""

import collections
import csv
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import pickle
import random
import time
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest

from absspectra import (
    Graph,
    CheckId,
    CheckReport,
    default_suite,
    describe_graph,
    generate,
    reports_to_csv,
    reports_to_json,
    run_check,
    run_suite,
)
from absspectra import NoConvergenceError, cli, graphs, linalg, spectra, verifier
from absspectra.verifier import _round15, has_key_failure

from conftest import circulant, gnp_graphs, small_graphs

GOLDEN_SUITE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden_suite.json"


def _single(reports, variant):
    matches = [r for r in reports if r.variant == variant]
    assert len(matches) == 1
    return matches[0]


def test_trace_harmonic_on_p3():
    reports = run_check(CheckId.THM_TRACE_HARMONIC, generate("path", 3))
    r = _single(reports, "single")
    assert r.verdict == "pass"
    # sum mu^2 = 4/3 = 2*(2 - 4/3) for the 3-vertex path
    assert "1.33333333333" in r.details


def test_reg_scaling_inapplicable_on_path():
    reports = run_check(CheckId.THM_REG_SCALING, generate("path", 4))
    assert all(r.verdict == "inapplicable" for r in reports)
    assert all(not r.applicable for r in reports)


def test_shadow_energy_variants_on_c4_k2():
    reports = run_check(CheckId.THM_SHADOW_ENERGY, generate("cycle", 4), {"k": 2})
    corrected = _single(reports, "corrected")
    printed = _single(reports, "as_printed")
    assert corrected.verdict == "pass"
    assert f"{4.0 * math.sqrt(3):.6f}"[:6] in corrected.details
    # the printed right-hand side uses the shadow graph's own energy (k times larger)
    assert printed.verdict == "fail"


def test_shadow_energy_printed_matches_at_k1():
    reports = run_check(CheckId.THM_SHADOW_ENERGY, generate("cycle", 4), {"k": 1})
    assert _single(reports, "corrected").verdict == "pass"
    assert _single(reports, "as_printed").verdict == "pass"


def test_split_energy_printed_fails_even_at_k1():
    reports = run_check(CheckId.THM_SPLIT_ENERGY, generate("cycle", 4), {"k": 1})
    assert _single(reports, "corrected").verdict == "pass"
    assert _single(reports, "as_printed").verdict == "fail"


def test_transform_checks_pass_corrected_fail_printed():
    g = generate("cycle", 5)
    for check in (CheckId.THM_SUBDIVISION, CheckId.THM_SEMITOTAL_POINT, CheckId.THM_SEMITOTAL_LINE):
        reports = run_check(check, g)
        assert _single(reports, "corrected").verdict == "pass"
        assert _single(reports, "as_printed").verdict == "fail"


def test_sample_points_stay_away_from_every_lift_pole():
    # as_printed divides by the prefactor u*x + v at every sample point, with no guard;
    # the bound 1/3 is reached at r = 1 for subdivision (u = 0, v = 1/3)
    degrees = [*range(1, 2001), 10**4, 10**5, 2 * 10**5]
    for kind in spectra.LIFT_KINDS:
        for r in degrees:
            u, v, _ = spectra.lift_coefficients(kind, r)
            nearest = min(abs(u * x + v) for x in verifier._SAMPLE_POINTS)
            assert nearest >= 1 / 3, (kind, r, nearest)


def test_reg_scaling_on_k2_degenerate_pass():
    reports = run_check(CheckId.THM_REG_SCALING, generate("complete", 2))
    corrected = _single(reports, "corrected")
    assert corrected.verdict == "pass"  # zero spectrum vs zero scaling
    assert _single(reports, "as_printed").verdict == "inapplicable"  # needs r >= 2


def test_incidence_checks_exact():
    for g in (generate("cycle", 6), generate("complete", 5)):
        (r,) = run_check(CheckId.LEM_INCIDENCE_REG, g)
        assert r.verdict == "pass" and r.max_deviation == 0.0 and r.tolerance == 0.0
    (r,) = run_check(CheckId.LEM_INCIDENCE_LINE, generate("star", 6))
    assert r.verdict == "pass" and r.max_deviation == 0.0
    (r,) = run_check(CheckId.LEM_INCIDENCE_REG, generate("path", 4))
    assert r.verdict == "inapplicable"


def test_schur_check_passes():
    for g in (generate("complete", 4), generate("cycle", 6), generate("star", 5)):
        (r,) = run_check(CheckId.LEM_SCHUR, g)
        assert r.verdict == "pass"


def test_schur_overflow_is_an_error_whatever_the_warning_filter():
    # The block determinant of K100 passes 1.8e308; before, inf - inf made the
    # deviation NaN and the verdict "fail" once RuntimeWarnings were let pass.
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            (r,) = run_check(CheckId.LEM_SCHUR, generate("complete", 100))
        assert r.verdict == "error" and r.max_deviation == 0.0
        assert r.details == "ValueError: a determinant overflows: block det inf vs |M||Q - P M^-1 N| inf"


def test_path_recurrence_past_the_charpoly_cap_is_refused_whatever_the_warning_filter():
    # The recurrence's coefficients overflow from n = 2289 on; FL's order cap
    # must refuse the path before the recurrence runs, so no warning is raised.
    for action in ("always", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            (r,) = run_check(CheckId.THM_PATH_RECURRENCE, generate("path", 2300))
        assert caught == []
        assert r.verdict == "error" and r.details == "ValueError: matrix order 2300 exceeds char_poly cap 64"


def test_schur_order_cap():
    cap = verifier._SCHUR_ORDER_CAP
    assert cap >= 500  # test_verify_schur_overflow_prints_valid_json runs C500
    start = time.perf_counter()
    (r,) = run_check(CheckId.LEM_SCHUR, generate("cycle", cap + 1))
    assert time.perf_counter() - start < 1.0
    assert r.verdict == "error" and r.details == f"ValueError: graph order {cap + 1} exceeds LEM_SCHUR cap {cap}"


def test_nonfinite_deviation_is_an_error(monkeypatch):
    def judge(order, deviation):
        row = (verifier._SINGLE, lambda graph, params, memo: (True, deviation, "lhs vs rhs"), "graph")
        monkeypatch.setitem(verifier._CHECKS, "THM_TRACE_HARMONIC", row)
        (r,) = run_check(CheckId.THM_TRACE_HARMONIC, generate("cycle", order))
        return r

    # C60 has n + m = 120, over the size that relaxes its "graph" rule: a non-finite deviation is
    # refused first, at the run's tolerance and without the relaxation note
    for order in (5, 60):
        for deviation in (math.nan, math.inf):
            r = judge(order, deviation)
            assert (r.applicable, r.verdict, r.max_deviation, r.tolerance) == (True, "error", 0.0, 1e-8)
            assert r.details == f"ValueError: deviation is {deviation}: lhs vs rhs"
    r = judge(60, 3e-7)
    assert (r.verdict, r.max_deviation, r.tolerance) == ("pass", 3e-7, 1e-6)
    assert r.details == "lhs vs rhs; tolerance relaxed to 1e-06 (n+m > 100)"


def test_reports_keep_float_types_whatever_the_tolerance_type():
    reports = run_suite(default_suite(), 1)
    # the 10^6-splitting is over the edge budget: the shared work fails, both variants are errors
    reports += run_check(CheckId.THM_SPLIT_ENERGY, generate("cycle", 5), {"k": 10**6}, 1)
    # order 80 is over char_poly's cap: as_printed alone is an error, corrected passes
    reports += run_check(CheckId.THM_SUBDIVISION, generate("cycle", 40), None, 1)
    assert {r.verdict for r in reports} == {"pass", "fail", "inapplicable", "error"}
    assert [r.verdict for r in reports[-4:]] == ["error", "error", "pass", "error"]
    for r in reports:
        assert type(r.max_deviation) is float and type(r.tolerance) is float, r
    text = reports_to_json(reports)
    assert '"tolerance": 1.0,' in text and '"tolerance": 1,' not in text


@pytest.mark.parametrize(
    "check, graph, product",
    [
        ("LEM_INCIDENCE_LINE", generate("complete", 100), "F^t F would have 4950 x 4950"),
        ("LEM_INCIDENCE_REG", Graph(4097), "F F^t would have 4097 x 4097"),
        ("LEM_SCHUR", Graph(4096), "block matrix would have 8192 x 8192"),
    ],
)
def test_lemma_products_are_budgeted_before_they_are_formed(check, graph, product):
    start = time.perf_counter()
    (r,) = run_check(check, graph)
    assert time.perf_counter() - start < 1.0
    assert r.verdict == "error" and product in r.details and "over the budget" in r.details


def test_path_recurrence_check_range():
    for n in range(5, 21):
        (r,) = run_check(CheckId.THM_PATH_RECURRENCE, generate("path", n))
        assert r.verdict == "pass" and r.max_deviation <= 1e-8
    (r,) = run_check(CheckId.THM_PATH_RECURRENCE, generate("path", 4))
    assert r.verdict == "inapplicable"
    (r,) = run_check(CheckId.THM_PATH_RECURRENCE, generate("cycle", 6))
    assert r.verdict == "inapplicable"


def test_kmn_and_star_agree_on_stars():
    for n in range(3, 11):
        g = generate("star", n)
        (kmn,) = run_check(CheckId.THM_KMN, g)
        (star,) = run_check(CheckId.THM_STAR, g)
        assert kmn.verdict == "pass" and star.verdict == "pass"


def test_closed_form_checks_detect_families():
    (r,) = run_check(CheckId.THM_CYCLE, generate("cycle", 7))
    assert r.verdict == "pass"
    (r,) = run_check(CheckId.THM_COMPLETE, generate("complete", 5))
    assert r.verdict == "pass"
    (r,) = run_check(CheckId.THM_KMN, generate("cycle", 4))  # C4 = K_{2,2}
    assert r.verdict == "pass"
    (r,) = run_check(CheckId.THM_KMN, generate("cycle", 6))  # bipartite but not complete bipartite
    assert r.verdict == "inapplicable"
    (r,) = run_check(CheckId.THM_COMPLETE, generate("path", 5))
    assert r.verdict == "inapplicable"


def test_r1_bound_variants():
    (ineq, eq) = run_check(CheckId.THM_R1_BOUND, generate("complete", 5))
    assert ineq.variant == "corrected" and ineq.verdict == "pass"
    assert eq.variant == "as_printed" and eq.verdict == "pass"  # equality for complete graphs
    (ineq, eq) = run_check(CheckId.THM_R1_BOUND, generate("cycle", 6))
    assert ineq.verdict == "pass"
    assert eq.verdict == "fail"  # regular but equality does not hold
    reports = run_check(CheckId.THM_R1_BOUND, generate("path", 3))
    assert all(r.verdict == "inapplicable" for r in reports)  # n < 4


def test_run_check_accepts_string_ids_and_rejects_unknown():
    reports = run_check("THM_CYCLE", generate("cycle", 5))
    assert reports[0].check == "THM_CYCLE"
    with pytest.raises(ValueError, match="unknown check"):
        run_check("THM_NOPE", generate("cycle", 5))
    for tol in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            run_check(CheckId.THM_CYCLE, generate("cycle", 5), tol=tol)


@pytest.mark.parametrize("tol", ["1e-8", None, 1e-8j, [1e-8]])
def test_run_check_reads_the_tolerance_as_one_real_number(tol):
    # read by linalg._real_array, as every real value a caller passes: a ValueError, never a TypeError
    with pytest.raises(ValueError, match="^tolerance must be"):
        run_check(CheckId.THM_CYCLE, generate("cycle", 5), tol=tol)


def test_run_suite_refuses_a_bad_tolerance_before_it_solves(monkeypatch, capsys):
    eigensolves = _count_calls(monkeypatch, linalg, "eigenvalues_symmetric")
    for tol in (-1, math.nan, "1e-8"):
        with pytest.raises(ValueError, match="^tolerance must be"):
            run_suite(default_suite(), tol=tol)
    assert cli.main(["verify", "--suite", "default", "--tol", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: tolerance must be positive and finite, got -1.0\n")
    assert eigensolves == []


def test_error_captured_in_report():
    reports = run_check(CheckId.THM_SPLIT_ENERGY, generate("cycle", 4), {"k": -2})
    assert all(r.verdict == "error" for r in reports)
    assert all("k >= 1" in r.details for r in reports)


@pytest.mark.parametrize("check", ["THM_SPLIT_ENERGY", "THM_SHADOW_ENERGY"])
def test_energy_checks_refuse_a_non_integral_k(check):
    c4 = generate("cycle", 4)
    for k in (2.7, True, "3"):
        reports = run_check(check, c4, {"k": k})
        suite_reports = [r for r in run_suite([(c4, {"k": k})]) if r.check == check]
        for r in reports + suite_reports:
            assert r.verdict == "error" and "copy counts k must be integers" in r.details, (k, r)
    assert run_check(check, c4, {"k": np.int64(3)}) == run_check(check, c4, {"k": 3})


_TRANSFORM_CHECKS = ("THM_SUBDIVISION", "THM_SEMITOTAL_POINT", "THM_SEMITOTAL_LINE", "THM_SPLIT_ENERGY", "THM_SHADOW_ENERGY")


@pytest.mark.parametrize("check", _TRANSFORM_CHECKS)
def test_transform_checks_skip_a_graph_not_connected_regular_unbuilt(check):
    two_triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])  # 2-regular, disconnected
    for graph in (generate("path", 5), two_triangles, Graph(5, [])):
        memo = verifier._Spectra()
        reports = run_check(check, graph, _memo=memo)
        assert [(r.variant, r.verdict, r.details) for r in reports] == [
            (variant, "inapplicable", "needs a connected regular graph with r >= 1")
            for variant in ("corrected", "as_printed")
        ]
        assert memo._graphs == {}


def test_a_bad_k_errors_only_the_energy_checks():
    c4 = generate("cycle", 4)
    for check in _TRANSFORM_CHECKS:
        reports = run_check(check, c4, {"k": 2.7})
        if CheckId[check] in verifier.K_CHECKS:
            assert all(r.verdict == "error" and "copy counts k must be integers" in r.details for r in reports)
        else:
            assert reports == run_check(check, c4)


def test_describe_graph_names():
    assert describe_graph(generate("complete", 4)) == "K4"
    assert describe_graph(generate("cycle", 6)) == "C6"
    assert describe_graph(generate("path", 5)) == "P5"
    assert describe_graph(generate("star", 5)) == "S5"
    assert describe_graph(generate("complete_bipartite", 2, 3)) == "K_{2,3}"
    assert describe_graph(generate("complete", 3)) == "K3"  # complete wins over cycle
    assert describe_graph(generate("complete", 2)) == "K2"  # complete wins over path, star, K_{1,1}
    assert describe_graph(generate("path", 3)) == "P3"  # path wins over star and K_{2,1}
    assert describe_graph(generate("cycle", 4)) == "C4"  # cycle wins over K_{2,2}
    assert describe_graph(Graph(1)) == "K1"
    assert describe_graph(Graph(0)) == "empty(0)"
    assert describe_graph(Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])).startswith("graph(")


def test_run_suite_deterministic_and_ordered():
    entries = [(generate("cycle", 4), {"k": 2}), (generate("path", 5), None)]
    first = run_suite(entries)
    second = run_suite(entries)
    assert first == second
    assert reports_to_json(first) == reports_to_json(second)
    # order: graph-major, check order within a graph follows CheckId declaration
    per_graph = len(first) // 2
    assert all(r.graph_descriptor == "C4" for r in first[:per_graph])
    assert all(r.graph_descriptor == "P5" for r in first[per_graph:])


def test_run_suite_empty():
    assert run_suite([]) == []


def test_suite_with_k2_degenerate_graph():
    reports = run_suite([generate("complete", 2)])
    by_check = {(r.check, r.variant): r for r in reports}
    assert by_check[("THM_TRACE_HARMONIC", "single")].verdict == "pass"
    assert by_check[("THM_REG_SCALING", "corrected")].verdict == "pass"
    assert not has_key_failure(reports)
    # P3 and K3 have 3 vertices, and K2's base spectrum lifts to 4 roots: the one nearest zero is dropped
    for check in ("THM_SUBDIVISION", "THM_SEMITOTAL_POINT"):
        lift = by_check[(check, "corrected")]
        assert (lift.verdict, lift.details) == ("pass", "predicted lift spectrum vs eigensolver, r=1")
        assert lift.max_deviation <= 1e-15
        assert run_check(check, generate("complete", 2)) == [r for r in reports if r.check == check]
    assert by_check[("THM_SUBDIVISION", "as_printed")].max_deviation == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert by_check[("THM_SEMITOTAL_POINT", "as_printed")].max_deviation == pytest.approx(1.924950591148529, rel=1e-12)


def test_default_suite_all_key_variants_pass():
    reports = run_suite(default_suite())
    assert not has_key_failure(reports)
    # internal consistency: a pass never exceeds its tolerance
    for r in reports:
        if r.verdict == "pass":
            assert r.max_deviation <= r.tolerance


def test_report_serialization():
    reports = run_check(CheckId.THM_CYCLE, generate("cycle", 5))
    data = json.loads(reports_to_json(reports))
    assert data[0]["check"] == "THM_CYCLE"
    assert set(data[0]) == {
        "check", "variant", "graph_descriptor", "applicable", "verdict",
        "max_deviation", "tolerance", "details",
    }
    rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
    assert rows[0][0] == "check"
    assert rows[1][0] == "THM_CYCLE"
    assert data[0]["verdict"] == "pass"


def test_csv_floats_print_at_15_digits():
    report = CheckReport("THM_CYCLE", "single", "C5", True, "pass", -0.0, 1.0 / 3.0, "d")
    row = list(csv.reader(io.StringIO(reports_to_csv([report]))))[1]
    assert row[5:7] == ["0", "0.333333333333333"]


def test_csv_header_is_the_report_fields():
    header = reports_to_csv([]).rstrip("\n").split(",")
    assert header == [field.name for field in dataclasses.fields(CheckReport)]
    assert header == list(json.loads(reports_to_json(run_check(CheckId.THM_CYCLE, generate("cycle", 5))))[0])


def _reports_json_reference(reports):
    rounded = [
        {**vars(r), "max_deviation": _round15(r.max_deviation), "tolerance": _round15(r.tolerance)} for r in reports
    ]
    return json.dumps(rounded, indent=2)


def _cli_stdout_md5(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return hashlib.md5(out.getvalue().encode()).hexdigest()


def test_reports_to_json_bytes():
    """``reports_to_json`` is ``json.dumps(..., indent=2)`` of the report fields, the two floats at 15 digits."""
    suite = run_suite(default_suite())
    errors = run_check(CheckId.THM_SPLIT_ENERGY, generate("cycle", 5), {"k": 2.7})
    inapplicable = run_check(CheckId.THM_CYCLE, generate("path", 5))
    unicode = [CheckReport("THM_CYCLE", "single", "C₅ ü", True, "pass", -0.0, 1.0 / 3.0, "ü \"q\"\n")]
    assert {r.verdict for r in errors} == {"error"} and {r.verdict for r in inapplicable} == {"inapplicable"}
    for reports in (suite, errors, inapplicable, unicode, []):
        assert reports_to_json(reports) == _reports_json_reference(reports)
    # the bytes of this build's default-suite reports, JSON and CSV
    assert _cli_stdout_md5("verify", "--suite", "default") == "0a5b139e13f3664e84a637472c6fb30c"
    assert _cli_stdout_md5("verify", "--suite", "default", "--csv") == "5c3dded66818d2da7d4b5c8cee6f8309"


_CHECK_NAMES = (
    "LEM_INCIDENCE_REG", "LEM_INCIDENCE_LINE", "LEM_SCHUR", "THM_REG_SCALING", "THM_SUBDIVISION",
    "THM_SEMITOTAL_POINT", "THM_SEMITOTAL_LINE", "THM_PATH_RECURRENCE", "THM_COMPLETE", "THM_CYCLE",
    "THM_KMN", "THM_STAR", "THM_TRACE_HARMONIC", "THM_R1_BOUND", "THM_SPLIT_ENERGY", "THM_SHADOW_ENERGY",
)


def test_check_ids_members_values_order_and_pickling():
    assert [c.name for c in CheckId] == list(_CHECK_NAMES)
    assert [c.value for c in CheckId] == list(_CHECK_NAMES)
    assert CheckId.__module__ == "absspectra.verifier" and CheckId.__qualname__ == "CheckId"
    for name in _CHECK_NAMES:
        check = CheckId[name]
        assert CheckId(name) is check and getattr(CheckId, name) is check
        assert pickle.loads(pickle.dumps(check)) is check
    assert pickle.loads(pickle.dumps(list(CheckId))) == list(CheckId)


def test_derived_kind_lists():
    # K_CHECKS comes from the _CHECKS rows, LIFT_KINDS from the transform kinds
    assert verifier.K_CHECKS == (CheckId.THM_SPLIT_ENERGY, CheckId.THM_SHADOW_ENERGY)
    assert spectra.LIFT_KINDS == ("subdivision", "semitotal_point", "semitotal_line")
    assert spectra.CLOSED_FORM_KINDS == ("complete", "cycle", "star", "complete_bipartite")


@pytest.mark.parametrize(
    "check, graph",
    [(CheckId.THM_SUBDIVISION, generate("cycle", 40)), (CheckId.THM_REG_SCALING, generate("cycle", 70))],
)
def test_variant_error_stays_private(check, graph):
    # as_printed hits the char_poly order cap; corrected needs no char_poly
    reports = run_check(check, graph)
    assert _single(reports, "corrected").verdict == "pass"
    printed = _single(reports, "as_printed")
    assert printed.verdict == "error" and "char_poly cap" in printed.details
    assert not has_key_failure(reports)


def test_default_suite_matches_golden():
    golden = json.loads(GOLDEN_SUITE.read_text())
    got = json.loads(reports_to_json(run_suite(default_suite())))
    assert len(got) == len(golden)
    for g, w in zip(got, golden):
        assert {k: v for k, v in g.items() if k != "max_deviation"} == {
            k: v for k, v in w.items() if k != "max_deviation"
        }
        assert abs(g["max_deviation"] - w["max_deviation"]) <= 1e-9 * max(1.0, abs(w["max_deviation"]))


def _count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to log the number of matrices in each call (k for a (k, n, n) stack)."""
    calls = []
    real = getattr(module, name)

    def counted(matrix, *args, **kwargs):
        calls.append(len(matrix) if np.ndim(matrix) == 3 else 1)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_spectrum_is_computed_once_per_run(monkeypatch):
    eigensolves = _count_calls(monkeypatch, linalg, "eigenvalues_symmetric")
    charpolys = _count_calls(monkeypatch, linalg, "char_poly")
    suite = default_suite()
    # One run over the corpus: 86 distinct matrices, 57 distinct charpoly inputs
    # (C3 and K3 are the same graph, so their entries share every result).
    run_suite(suite)
    assert (sum(eigensolves), sum(charpolys)) == (86, 57)
    # The run's one plan falls in 15 orders, one stacked solve each.
    assert len(eigensolves) == 15
    # One run per entry: K3's run solves again what C3's solved, nothing else repeats.
    eigensolves.clear()
    charpolys.clear()
    for entry in suite:
        run_suite([entry])
    assert (sum(eigensolves), sum(charpolys)) == (94, 62)
    # The 94 matrices fall in 40 (entry, order) groups, one stacked solve each.
    assert len(eigensolves) == 40


def test_each_transformed_graph_is_built_once_per_run(monkeypatch):
    keys = collections.Counter()
    real_transform, real_line_graph = verifier.apply_transform, verifier.line_graph

    def transform(kind, graph, k=None):
        keys[kind, graph, k] += 1
        return real_transform(kind, graph, k)

    def line_graph(graph):
        keys["line_graph", graph, None] += 1
        return real_line_graph(graph)

    builds = []
    real_canonical = graphs.Graph._canonical.__func__

    def canonical(cls, n, higher, degrees):
        builds.append(n)
        return real_canonical(cls, n, higher, degrees)

    suite = default_suite()
    monkeypatch.setattr(verifier, "apply_transform", transform)
    monkeypatch.setattr(verifier, "line_graph", line_graph)
    monkeypatch.setattr(graphs.Graph, "_canonical", classmethod(canonical))
    # The plan and the checks share one build per (kind, graph, k): six for each
    # of the ten connected regular entries, and L(G) for the other six.
    per_entry = []
    for entry in suite:
        keys.clear()
        run_suite([entry])
        assert set(keys.values()) == {1}
        per_entry.append(len(keys))
    assert len(builds) == sum(per_entry) == 66
    # K3 and C3 are one graph, so one run over the corpus builds its six once.
    keys.clear()
    builds.clear()
    run_suite(suite)
    assert set(keys.values()) == {1} and len(builds) == sum(keys.values()) == 60


def test_each_graph_is_two_coloured_once_per_object(monkeypatch):
    # families, is_connected and connected_regular_degree share one search per graph object
    calls = []  # (graph, whether its colouring was stored before the call, the colouring returned)
    real_colouring = graphs._two_colouring

    def two_colouring(graph):
        stored = hasattr(graph, "_colouring")
        calls.append((graph, stored, real_colouring(graph)))
        return calls[-1][2]

    monkeypatch.setattr(graphs, "_two_colouring", two_colouring)
    run_suite(default_suite())
    assert len(calls) == 154
    first = {}
    for graph, stored, colouring in calls:
        # only the first call on a graph object searches; later calls return its very result
        assert stored == (id(graph) in first)
        assert first.setdefault(id(graph), colouring) is colouring
    assert len(first) == 16  # the 16 entries: K3 and C3 are equal graphs but two objects


def test_one_run_reports_what_its_entries_report_alone(monkeypatch):
    entries = default_suite() + [(generate("cycle", 6), {"k": 1}), (generate("complete", 4), {"k": 3})]
    # the 10^6-splitting exceeds the edge budget: its spectra stay out of the plan, its rows are errors
    entries.append((generate("cycle", 5), {"k": 10**6}))
    alone = [run_suite([entry]) for entry in entries]
    split_rows = [r for r in alone[-1] if r.check == "THM_SPLIT_ENERGY"]
    assert len(split_rows) == 2 and all(r.verdict == "error" and "budget" in r.details for r in split_rows)
    prefetching, outside = [False], []
    real, real_prefetch = linalg.eigenvalues_symmetric, verifier._Spectra.prefetch

    def prefetch(self, keys):
        prefetching[0] = True
        real_prefetch(self, keys)
        prefetching[0] = False

    def eigenvalues(matrix, *args, **kwargs):
        if not prefetching[0]:
            outside.append(np.shape(matrix))
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(verifier._Spectra, "prefetch", prefetch)
    monkeypatch.setattr(linalg, "eigenvalues_symmetric", eigenvalues)
    assert run_suite(entries) == [r for reports in alone for r in reports]
    # at an edge budget of 11, K4 builds no transform and not L(K4), and C5 its subdivision alone
    monkeypatch.setattr(graphs, "EDGE_BUDGET", 11)
    small = [(generate("complete", 4), {"k": 2}), (generate("cycle", 5), {"k": 2})]
    alone = [run_suite([entry]) for entry in small]
    assert run_suite(small) == [r for reports in alone for r in reports]
    assert outside == []  # every spectrum asked for was prefetched


def test_nothing_outlives_a_run(monkeypatch):
    eigensolves = _count_calls(monkeypatch, linalg, "eigenvalues_symmetric")
    suite = default_suite()
    run_suite(suite)
    once = sum(eigensolves)
    assert once > 0
    eigensolves.clear()
    run_suite(suite)
    run_suite(suite)
    assert sum(eigensolves) == 2 * once
    eigensolves.clear()
    run_check(CheckId.THM_REG_SCALING, generate("cycle", 5))
    once = sum(eigensolves)
    run_check(CheckId.THM_REG_SCALING, generate("cycle", 5))
    assert once == 2 and sum(eigensolves) == 2 * once


def _requested_spectra(monkeypatch, graph, params):
    """The (graph, kind) spectra the checks ask for on one entry, with no prefetch."""
    requested = set()
    real = verifier._Spectra.spectrum

    def spectrum(self, graph, kind):
        requested.add((graph, kind))
        return real(self, graph, kind)

    with monkeypatch.context() as patch:
        patch.setattr(verifier._Spectra, "spectrum", spectrum)
        memo = verifier._Spectra()
        for check in CheckId:
            run_check(check, graph, params, _memo=memo)
    return requested


def _assert_plan_is_exact(monkeypatch, graph, params):
    plan = set(verifier._spectral_plan(graph, params, verifier._Spectra()))
    assert plan == _requested_spectra(monkeypatch, graph, params)  # no miss, no waste


def test_spectral_plan_is_what_the_checks_ask_for(monkeypatch):
    entries = default_suite()
    entries += [(graph, {"k": k}) for graph, _ in default_suite() for k in (1, 3)]
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])  # regular, not connected
    entries += [(two_triangles, None), (Graph(0), None), (Graph(3), None), (generate("cycle", 4), {"k": -2})]
    # the edges of the transforms' precondition: K1 (0-regular), K2 (the one connected 1-regular graph) and
    # S4 (connected, not regular)
    precondition_edges = (Graph(1), generate("complete", 2), generate("star", 4))
    entries += [(graph, {"k": k}) for graph in precondition_edges for k in (1, 2, 3)]
    # 4-regular C8(1,2), C9(1,3) and C12(2,3), 3-regular C10(1,5), 6-regular C11(1,2,4), C10(2,4), which is
    # regular but not connected, and C7(1,2,3), which is K7
    circulants = [(8, (1, 2)), (9, (1, 3)), (12, (2, 3)), (10, (1, 5)), (11, (1, 2, 4)), (10, (2, 4)), (7, (1, 2, 3))]
    entries += [(circulant(n, steps), {"k": 2}) for n, steps in circulants]
    # their 10^6-splittings and 10^6-shadows are over the edge budget
    entries += [(generate(kind, 5), {"k": 10**6}) for kind in ("cycle", "complete")]
    for graph, params in entries:
        _assert_plan_is_exact(monkeypatch, graph, params)
    # under a smaller edge budget some transforms cannot be built: at 11, K4 builds none, nor L(K4); at 35,
    # L(K5) fits but T2 does not; at 9, C5 builds none; then 60 seeded draws of a graph, k and budget
    budgets = [(generate("complete", 4), 2, 11), (generate("complete", 5), 2, 35), (generate("cycle", 5), 2, 9)]
    bases = [generate("cycle", n) for n in range(3, 9)] + [generate("complete", n) for n in range(2, 7)]
    bases += [generate("path", 5), generate("star", 5)] + [circulant(n, steps) for n, steps in circulants[:3]]
    rng = random.Random(20261020)
    budgets += [(g, rng.randint(1, 3), rng.randint(g.m, 8 * g.m + 10)) for g in rng.choices(bases, k=60)]
    for graph, k, budget in budgets:
        monkeypatch.setattr(graphs, "EDGE_BUDGET", budget)
        _assert_plan_is_exact(monkeypatch, graph, {"k": k})


def test_spectral_plan_on_random_graphs(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60)
    @hyp.given(small_graphs(st), st.integers(1, 3))
    def check(graph, k):
        _assert_plan_is_exact(monkeypatch, graph, {"k": k})

    check()


# The checks that need no regularity: they hold on every graph.
_ANY_GRAPH_CHECKS = ("LEM_INCIDENCE_REG", "LEM_INCIDENCE_LINE", "LEM_SCHUR", "THM_TRACE_HARMONIC", "THM_R1_BOUND")


def test_any_graph_checks_hold_on_random_graphs():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=200)
    @hyp.given(gnp_graphs(hyp.strategies))
    def check(graph):
        memo = verifier._Spectra()
        reports = [r for name in _ANY_GRAPH_CHECKS for r in run_check(name, graph, _memo=memo)]
        assert not has_key_failure(reports), [r for r in reports if r.verdict in ("fail", "error")]

    check()


@pytest.mark.parametrize("order_cap", [None, 7])
def test_failed_stacked_solve_leaves_the_lazy_path(monkeypatch, order_cap):
    if order_cap is not None:  # prefetch leaves the order-8 matrices to the lazy path, which refuses them
        monkeypatch.setattr(linalg, "_JACOBI_ORDER_CAP", order_cap)
    with monkeypatch.context() as patch:
        patch.setattr(verifier._Spectra, "prefetch", lambda self, keys: None)
        lazy = [run_suite([entry]) for entry in default_suite()]
    assert any(r.verdict == "error" for reports in lazy for r in reports) == (order_cap is not None)
    assert [run_suite([entry]) for entry in default_suite()] == lazy
    real = linalg.eigenvalues_symmetric

    def solo_only(matrix, *args, **kwargs):
        if len(matrix) > 1:  # a spectrum solved alone is a stack of one
            raise NoConvergenceError("stacked solve refused")
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(linalg, "eigenvalues_symmetric", solo_only)
    assert [run_suite([entry]) for entry in default_suite()] == lazy


def test_prefetch_stacks_no_order_over_the_eigensolver_cap(monkeypatch):
    monkeypatch.setattr(linalg, "_JACOBI_ORDER_CAP", 7)
    real, stacks = linalg.eigenvalues_symmetric, []

    def recording(matrix, *args, **kwargs):
        stacks.append(np.shape(matrix))
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(linalg, "eigenvalues_symmetric", recording)
    run_suite(default_suite())
    # an order over the cap is solved alone, on the lazy path, and refused there
    over = [shape for shape in stacks if shape[-1] > 7]
    assert over and all(shape[0] == 1 for shape in over)


def test_memoized_arrays_are_read_only():
    memo = verifier._Spectra()
    g = generate("cycle", 5)
    for array in (memo.spectrum(g, "abs"), memo.spectrum(g, "adjacency"), memo.charpoly(g, "abs")):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert memo.spectrum(g, "abs") is memo.spectrum(generate("cycle", 5), "abs")
    assert memo.spectrum(g, "abs")[-1] < memo.spectrum(g, "adjacency")[-1]  # kinds kept apart
    # prefetched rows are stored read-only too, and equal their own solves
    h = generate("path", 5)
    memo.prefetch([(h, "abs"), (h, "adjacency"), (g, "abs")])
    for kind in ("abs", "adjacency"):
        row = memo.spectrum(h, kind)
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
        assert np.array_equal(row, verifier._Spectra().spectrum(h, kind))


def test_eigensolver_order_cap_is_an_error(monkeypatch):
    monkeypatch.setattr(linalg, "_JACOBI_ORDER_CAP", 8)
    (r,) = run_check(CheckId.THM_CYCLE, generate("cycle", 8))
    assert r.verdict == "pass"
    monkeypatch.setattr(linalg, "_JACOBI_ORDER_CAP", 7)
    (r,) = run_check(CheckId.THM_CYCLE, generate("cycle", 8))
    assert r.verdict == "error" and "eigensolver cap" in r.details


_RELAXED = "; tolerance relaxed to 1e-06 (n+m > 100)"
_BOTH = ("corrected", "as_printed")
_LIFT_ROWS = {("THM_SUBDIVISION", "corrected"), ("THM_SEMITOTAL_POINT", "corrected")}
_ENERGY_ROWS = {(check, variant) for check in ("THM_SPLIT_ENERGY", "THM_SHADOW_ENERGY") for variant in _BOTH}
_LIFT_ERRORS = {("THM_SUBDIVISION", "as_printed"), ("THM_SEMITOTAL_POINT", "as_printed")}
_LIFT_ERRORS |= {("THM_SEMITOTAL_LINE", variant) for variant in _BOTH}  # char_poly cap
_GRAPH_ROWS = {("THM_TRACE_HARMONIC", "single"), ("THM_R1_BOUND", "corrected")}
# (graph, k) -> (rows relaxed at tol 1e-8, error rows). A lift or an energy
# check is sized by its transformed graph, every other eigensolver check by the
# graph itself, and n + m > 100 relaxes. The incidence lemmas allow 0.0;
# LEM_SCHUR, THM_PATH_RECURRENCE and every error row the run's tolerance.
_TOLERANCE_CASES = {
    ("cycle", 34, 2): (_LIFT_ROWS | _ENERGY_ROWS, _LIFT_ERRORS),  # n + m = 68; its transforms exceed 100
    ("cycle", 10, 3): (_ENERGY_ROWS, set()),  # the 3-splitting and 3-shadow have n + m = 120
    ("cycle", 60, 2): (
        _LIFT_ROWS | _ENERGY_ROWS | _GRAPH_ROWS | {("THM_CYCLE", "single"), ("THM_R1_BOUND", "as_printed")}
        | {("THM_REG_SCALING", variant) for variant in _BOTH},
        _LIFT_ERRORS,
    ),
    ("path", 60, 2): (_GRAPH_ROWS, set()),
    ("star", 60, 2): (_GRAPH_ROWS | {("THM_KMN", "single"), ("THM_STAR", "single")}, set()),
}


@pytest.mark.parametrize("case", list(_TOLERANCE_CASES), ids=lambda case: f"{case[0]}{case[1]}-k{case[2]}")
def test_tolerance_policy_per_check_and_variant(case):
    kind, n, k = case
    relaxed, errors = _TOLERANCE_CASES[case]
    memo = verifier._Spectra()
    for tol in (1e-8, 1e-6):
        reports = [r for check in CheckId for r in run_check(check, generate(kind, n), {"k": k}, tol, _memo=memo)]
        assert {(r.check, r.variant) for r in reports if r.verdict == "error"} == errors
        by_row = {(r.check, r.variant): r for r in reports}
        for row, r in by_row.items():
            if row[0].startswith("LEM_INCIDENCE"):
                assert r.tolerance == 0.0 and "relaxed" not in r.details, row
            elif row in relaxed and tol < 1e-6:  # at 1e-6 nothing relaxes
                assert r.tolerance == 1e-6 and r.details.endswith(_RELAXED), row
            else:
                assert r.tolerance == tol and "relaxed" not in r.details, row
        # P60 has n + m = 119: the recurrence keeps the run's tolerance, LEM_INCIDENCE_REG is inapplicable at 0.0
        if kind == "path":
            assert by_row["THM_PATH_RECURRENCE", "single"].applicable
            assert by_row["LEM_INCIDENCE_REG", "single"].verdict == "inapplicable"
