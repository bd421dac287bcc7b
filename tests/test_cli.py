"""Command-line behavior: output schemas, graph grammar, exit codes, round-trips."""

import io
import json
import math
import time
from contextlib import redirect_stdout, redirect_stderr

import pytest

from absspectra import generate, to_edge_list_text
from absspectra.cli import GraphSpecError, main, parse_graph_spec


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_gen_json():
    code, out, _ = run_cli("gen", "cycle", "4")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}


def test_gen_csv_roundtrip(tmp_path):
    code, out, _ = run_cli("gen", "complete_bipartite", "2", "3", "--csv")
    assert code == 0
    path = tmp_path / "g.txt"
    path.write_text(out)
    code, loaded, _ = run_cli("load", str(path), "--csv")
    assert code == 0
    assert loaded == out == to_edge_list_text(generate("complete_bipartite", 2, 3))


def test_gen_bad_params_exit2():
    code, _, err = run_cli("gen", "cycle", "2")
    assert code == 2 and "n >= 3" in err
    code, _, _ = run_cli("gen", "mystery", "4")
    assert code == 2
    code, _, _ = run_cli("gen", "cycle", "4", "--bogus-flag")
    assert code == 2


def test_load_missing_file_exit2(tmp_path):
    code, _, err = run_cli("load", str(tmp_path / "nope.txt"))
    assert code == 2 and "error" in err


def test_transform_subcommand():
    code, out, _ = run_cli("transform", "shadow", "--k", "2", "--graph", "complete:2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and len(data["edges"]) == 4
    code, _, err = run_cli("transform", "splitting", "--graph", "cycle:3")
    assert code == 2 and "k" in err


def test_graph_spec_grammar():
    assert parse_graph_spec("cycle:6") == generate("cycle", 6)
    assert parse_graph_spec("complete_bipartite:2:3") == generate("complete_bipartite", 2, 3)
    g = parse_graph_spec("splitting:cycle:4:k=2")
    assert g.n == 12 and g.m == 20
    nested = parse_graph_spec("subdivision:shadow:complete:3:k=2")
    assert nested.n == 6 + 12 and nested.m == 24
    with pytest.raises(GraphSpecError):
        parse_graph_spec("cycle")
    with pytest.raises(GraphSpecError):
        parse_graph_spec("splitting:cycle:4")
    with pytest.raises(GraphSpecError):
        parse_graph_spec("cycle:4:junk")
    with pytest.raises(GraphSpecError):
        parse_graph_spec("wat:3")


def test_graph_spec_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(to_edge_list_text(generate("cycle", 5)))
    assert parse_graph_spec(f"file:{path}") == generate("cycle", 5)
    doubled = parse_graph_spec(f"shadow:file:{path}:k=2")
    assert doubled.n == 10


def test_energy_cycle4():
    code, out, _ = run_cli("energy", "--abs", "--graph", "cycle:4")
    assert code == 0
    data = json.loads(out)
    assert data["energy"] == pytest.approx(2.0 * math.sqrt(2), abs=1e-7)
    assert data["trace_sq"] == pytest.approx(4.0, abs=1e-9)


def test_spectrum_adjacency():
    code, out, _ = run_cli("spectrum", "--adjacency", "--graph", "complete:3")
    data = json.loads(out)
    assert code == 0
    assert data["spectrum"] == pytest.approx([-1.0, -1.0, 2.0], abs=1e-9)
    assert data["energy"] == pytest.approx(4.0, abs=1e-9)


def test_indices_path3():
    code, out, _ = run_cli("indices", "--graph", "path:3")
    data = json.loads(out)
    assert code == 0
    assert data["M1"] == 6.0
    assert data["harmonic"] == pytest.approx(1.3333333, abs=1e-6)


def test_matrix_csv():
    code, out, _ = run_cli("matrix", "--adjacency", "--graph", "path:3", "--csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows == [["0", "1", "0"], ["1", "0", "1"], ["0", "1", "0"]]


def test_spectrum_and_indices_csv():
    code, out, _ = run_cli("spectrum", "--abs", "--graph", "cycle:4", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("spectrum,") and len(lines[0].split(",")) == 5
    assert dict(line.split(",") for line in lines[1:]).keys() == {"energy", "trace_sq", "harmonic_check"}
    code, out, _ = run_cli("indices", "--graph", "path:3", "--csv")
    assert code == 0
    values = dict(line.split(",") for line in out.strip().splitlines())
    assert values["M1"] == "6"


def test_charpoly_routes_agree():
    _, out_fl, _ = run_cli("charpoly", "--abs", "--graph", "path:6", "--via", "fl")
    _, out_roots, _ = run_cli("charpoly", "--abs", "--graph", "path:6", "--via", "roots")
    _, out_rec, _ = run_cli("charpoly", "--abs", "--graph", "path:6", "--via", "recurrence")
    c_fl = json.loads(out_fl)["coeffs"]
    c_roots = json.loads(out_roots)["coeffs"]
    c_rec = json.loads(out_rec)["coeffs"]
    assert c_fl == pytest.approx(c_rec, abs=1e-8)
    assert c_roots == pytest.approx(c_rec, abs=1e-8)


def test_charpoly_recurrence_requires_abs_path():
    code, _, err = run_cli("charpoly", "--adjacency", "--graph", "path:6", "--via", "recurrence")
    assert code == 2 and "ABS" in err
    code, _, err = run_cli("charpoly", "--abs", "--graph", "cycle:6", "--via", "recurrence")
    assert code == 2 and "path" in err


def test_verify_single_check_pass():
    code, out, _ = run_cli("verify", "--check", "THM_PATH_RECURRENCE", "--graph", "path:5")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["verdict"] == "pass"
    assert reports[0]["graph_descriptor"] == "path:5"


def test_verify_strict_tolerance_exits_1():
    # an absurdly small tolerance turns rounding noise into a key failure
    code, out, _ = run_cli("verify", "--check", "THM_TRACE_HARMONIC", "--graph", "complete:5", "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)[0]["verdict"] == "fail"


def test_verify_env_tolerance(monkeypatch):
    monkeypatch.setenv("ABS_SPECTRA_TOL", "1e-30")
    code, _, _ = run_cli("verify", "--check", "THM_TRACE_HARMONIC", "--graph", "complete:5")
    assert code == 1
    monkeypatch.setenv("ABS_SPECTRA_TOL", "1e-6")
    code, _, _ = run_cli("verify", "--check", "THM_TRACE_HARMONIC", "--graph", "complete:5")
    assert code == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_nonfinite_tolerance(value, monkeypatch):
    code, out, err = run_cli("verify", "--check", "THM_CYCLE", "--graph", "cycle:5", f"--tol={value}")
    assert code == 2 and out == "" and "tolerance" in err
    monkeypatch.setenv("ABS_SPECTRA_TOL", value)
    code, out, err = run_cli("verify", "--check", "THM_CYCLE", "--graph", "cycle:5")
    assert code == 2 and out == "" and "tolerance" in err


@pytest.mark.parametrize(
    "argv",
    [("energy", "--abs", "--graph", "shadow:complete:100:k=1000"), ("gen", "complete", "200000")],
)
def test_edge_budget_fails_fast(argv):
    start = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "budget" in err


def test_verify_as_printed_failures_do_not_flip_exit_code():
    code, out, _ = run_cli("verify", "--check", "THM_SHADOW_ENERGY", "--graph", "cycle:4", "--k", "2")
    assert code == 0
    verdicts = {(r["variant"]): r["verdict"] for r in json.loads(out)}
    assert verdicts == {"corrected": "pass", "as_printed": "fail"}


def test_verify_usage_errors():
    code, _, err = run_cli("verify", "--check", "THM_CYCLE")
    assert code == 2 and "--graph" in err
    code, _, err = run_cli("verify")
    assert code == 2
    code, _, err = run_cli("verify", "--check", "NOT_A_CHECK", "--graph", "cycle:4")
    assert code == 2


def test_verify_suite_csv_shape():
    code, out, _ = run_cli("verify", "--suite", "default", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,variant,graph_descriptor,applicable,verdict,max_deviation,tolerance,details"
    assert len(lines) > 300


def test_json_numbers_have_at_most_15_significant_digits():
    _, out, _ = run_cli("energy", "--abs", "--graph", "cycle:4")
    data = json.loads(out)
    for value in data["spectrum"] + [data["energy"]]:
        assert value == float(f"{value:.15g}")


def test_no_subcommand_exit2():
    code, _, _ = run_cli()
    assert code == 2
