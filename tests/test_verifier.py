"""Check registry behavior: applicability, variants, determinism, serialization."""

import csv
import io
import json
import math
import pathlib

import pytest

from absspectra import (
    Graph,
    CheckId,
    default_suite,
    describe_graph,
    generate,
    reports_to_csv,
    reports_to_json,
    run_check,
    run_suite,
)
from absspectra.verifier import has_key_failure, report_to_dict

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


def test_error_captured_in_report():
    reports = run_check(CheckId.THM_SPLIT_ENERGY, generate("cycle", 4), {"k": -2})
    assert all(r.verdict == "error" for r in reports)
    assert all("k >= 1" in r.details for r in reports)


def test_describe_graph_names():
    assert describe_graph(generate("complete", 4)) == "K4"
    assert describe_graph(generate("cycle", 6)) == "C6"
    assert describe_graph(generate("path", 5)) == "P5"
    assert describe_graph(generate("star", 5)) == "S5"
    assert describe_graph(generate("complete_bipartite", 2, 3)) == "K_{2,3}"
    assert describe_graph(generate("complete", 3)) == "K3"  # complete wins over cycle
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
    assert report_to_dict(reports[0])["verdict"] == "pass"


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
