"""Command-line behavior: output schemas, graph grammar, exit codes, round-trips."""

import argparse
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from absspectra import Graph, apply_transform, generate, load_graph, to_edge_list_text
from absspectra import CheckId, cli, graphs, linalg, run_check
from absspectra.cli import GraphSpecError, build_parser, main, parse_graph_spec
from absspectra.graphs import GENERATOR_KINDS, adjacency_matrix, to_json_dict, to_json_text
from absspectra.indices import all_indices
from absspectra.linalg import char_poly, eigenvalues_symmetric
from absspectra.spectra import abs_matrix, path_abs_charpoly, spectrum_report
from absspectra.transforms import K_KINDS, TRANSFORM_KINDS
from absspectra.verifier import _JsonText

from conftest import json_ready_reference

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("gen", "load", "transform", "matrix", "spectrum", "energy", "indices", "charpoly", "verify")


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


@pytest.mark.parametrize("text,key", [('{"edges": []}', "n"), ('{"n": 3}', "edges")])
def test_graph_json_missing_key_names_it(tmp_path, text, key):
    path = tmp_path / "graph.json"
    path.write_text(text)
    message = f"error: graph JSON is missing the key '{key}'\n"
    assert run_cli("load", str(path)) == (2, "", message)
    assert run_cli("indices", "--graph", f"file:{path}") == (2, "", message)


def test_transform_subcommand():
    code, out, _ = run_cli("transform", "shadow", "--k", "2", "--graph", "complete:2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and len(data["edges"]) == 4
    code, _, err = run_cli("transform", "splitting", "--graph", "cycle:3")
    assert code == 2 and "k" in err


def test_graph_commands_print_json_text(tmp_path):
    files = {
        "empty.json": '{"n": 0, "edges": []}',
        "k1.txt": "1 0\n",
        "edgeless.txt": "3 0\n",
        "k2.json": '{"n": 2, "edges": [[1, 0]]}',
        "c5.txt": to_edge_list_text(generate("cycle", 5)),
    }
    cases = []
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        cases.append((("load", str(path)), load_graph(path)))
        for kind in TRANSFORM_KINDS:
            k = 2 if kind in ("splitting", "shadow") else None
            argv = ("transform", kind, "--graph", f"file:{path}") + (("--k", "2") if k else ())
            cases.append((argv, apply_transform(kind, load_graph(path), k)))
    for kind, sizes in (("complete", (1,)), ("complete", (5,)), ("cycle", (4,)), ("path", (6,)), ("star", (4,))):
        cases.append((("gen", kind, *map(str, sizes)), generate(kind, *sizes)))
    cases.append((("gen", "complete_bipartite", "2", "3"), generate("complete_bipartite", 2, 3)))
    assert any(g == Graph(0) for _, g in cases) and any(g == Graph(1) for _, g in cases)
    for argv, graph in cases:
        code, out, err = run_cli(*argv)
        assert code == 0 and err == ""
        assert out == to_json_text(graph) + "\n" == json.dumps(to_json_dict(graph), indent=2) + "\n"


NUMERIC_ARGVS = [
    ("matrix", "--abs"),
    ("matrix", "--adjacency"),
    ("spectrum", "--abs"),
    ("spectrum", "--adjacency"),
    ("energy", "--abs"),
    ("energy", "--adjacency"),
    ("indices",),
    ("charpoly", "--abs", "--via", "fl"),
    ("charpoly", "--adjacency", "--via", "fl"),
    ("charpoly", "--abs", "--via", "roots"),
    ("charpoly", "--adjacency", "--via", "roots"),
    ("charpoly", "--abs", "--via", "recurrence"),
]


def _numeric_command_data(argv, graph):
    """What the command once passed to the JSON walk, built from the library alone."""
    if argv[0] == "indices":
        return all_indices(graph)
    which = "abs" if "--abs" in argv else "adjacency"
    if argv[0] in ("spectrum", "energy"):
        return spectrum_report(graph, which)
    matrix = abs_matrix(graph) if which == "abs" else adjacency_matrix(graph)
    if argv[0] == "matrix":
        return {"order": matrix.shape[0], "rows": [list(row) for row in matrix]}
    via = argv[-1]
    if via == "fl":
        coeffs = char_poly(matrix)
    elif via == "roots":
        coeffs = np.atleast_1d(np.poly(eigenvalues_symmetric(matrix)))[::-1]
    else:
        coeffs = path_abs_charpoly(graph.n)
    return {"order": len(coeffs) - 1, "coeffs": list(coeffs)}


def test_numeric_commands_equal_indented_json_dumps(tmp_path):
    (tmp_path / "empty.json").write_text('{"n": 0, "edges": []}')
    (tmp_path / "edgeless.txt").write_text("3 0\n")
    specs = {
        f"file:{tmp_path / 'empty.json'}": Graph(0),
        "complete:1": Graph(1),
        f"file:{tmp_path / 'edgeless.txt'}": Graph(3),
        "complete:2": generate("complete", 2),
        "cycle:5": generate("cycle", 5),
        "complete:12": generate("complete", 12),
        "path:8": generate("path", 8),
    }
    for argv in NUMERIC_ARGVS:
        for spec, graph in specs.items():
            code, out, err = run_cli(*argv, "--graph", spec)
            if argv[-1] == "recurrence" and spec != "path:8":
                # the recurrence route serves paths with n >= 5 only
                assert code == 2 and out == "" and err.startswith("error: "), (argv, spec)
                continue
            expected = json.dumps(json_ready_reference(_numeric_command_data(argv, graph)), indent=2) + "\n"
            assert (code, out, err) == (0, expected, ""), (argv, spec)


def test_json_text_of_nonfinite_and_signed_zero():
    nan, inf = math.nan, math.inf
    values = [
        nan,
        inf,
        -inf,
        -0.0,
        {"a": [nan, inf, -inf, -0.0, 0.0, -0.0, 1 / 3, 1 / 3, 1e-300, -2.5e300], "b": nan, "c": -0.0, "n": 3},
        {"rows": [[nan, -0.0], [-inf, 0.1], []], "empty": {}, "none": [], "order": 0},
        [],
        {},
        [{"a": 1.0, "b": True}, {"c": 0.0, "d": False, "e": None, "f": 3}],  # bools beside the floats they equal
        {"C₅ ü": "ü ₅ \u2028 \"q\"\n", "ascii": "plain"},
        {"reports": [], "rows": [{}]},
    ]
    for value in values:
        assert _JsonText().text(value) == json.dumps(json_ready_reference(value), indent=2)
    assert _JsonText().text([-0.0, 0.0, nan, inf, -inf]) == "[\n  0.0,\n  0.0,\n  NaN,\n  Infinity,\n  -Infinity\n]"


def _run_all_commands_parser(argv):
    """stdout, stderr and exit code of parsing ``argv`` with every sub-parser built."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        build_parser().parse_args(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("-h",),
        ("--help",),
        ("bogus",),
        ("bogus", "--graph", "cycle:4"),
        ("--bogus",),
        ("matrix", "--abs", "--graph", "path:3", "--bogus"),
        ("indices", "--graph", "path:3", "extra", "words"),
        ("matrix", "--abs"),
        ("spectrum", "--adjacency"),
        ("matrix", "--abs", "--adjacency", "--graph", "path:3"),
        ("charpoly", "--abs", "--via", "nope", "--graph", "path:6"),
        ("gen", "mystery", "4"),
    ]
    + [(command, "-h") for command in COMMANDS],
)
def test_main_usage_text_equals_all_commands_parser(argv):
    assert run_cli(*argv) == _run_all_commands_parser(argv)


def _command_parser(command):
    """The sub-parser of ``command`` inside the shared parser, or the parser itself for None."""
    parser = build_parser()
    if command is None:
        return parser
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return sub.choices[command]


@pytest.mark.parametrize("command", (None,) + COMMANDS)
def test_build_parser_is_shared(command):
    assert build_parser() is build_parser()
    assert _command_parser(command) is _command_parser(command)
    assert _command_parser(command).prog == " ".join(filter(None, ("absspectra", command)))


@pytest.mark.parametrize(
    "argv", [("indices", "--graph", "cycle:6"), ("matrix", "--abs"), ("spectrum", "-h")], ids=["valid", "usage", "help"]
)
def test_one_shot_process_prints_what_main_prints(argv):
    # main(argv=None) reads sys.argv, as the installed absspectra command does
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "absspectra.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(*argv)


def test_main_builds_parsers_only_on_the_first_call(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    counts = []
    for _ in range(5):
        before = len(built)
        assert run_cli("spectrum", "--abs", "--graph", "cycle:5")[0] == 0
        counts.append(len(built) - before)
    assert counts[0] > 0 and counts[1:] == [0] * 4


def test_cached_parser_prints_what_a_fresh_one_prints(monkeypatch):
    # a usage error, help, a handler error and a valid call, each on a parser
    # an earlier call of the sequence may have used
    sequence = [
        ("matrix", "--abs"),
        ("spectrum", "-h"),
        ("transform", "shadow", "--k", "0", "--graph", "cycle:4"),
        ("spectrum", "--abs", "--graph", "cycle:5"),
    ]
    cached = [run_cli(*argv) for argv in sequence * 2]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [run_cli(*argv) for argv in sequence]
    assert [code for code, _, _ in fresh] == [2, 0, 2, 0]
    assert cached == fresh * 2


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_callers_collector_state(monkeypatch, caller_enabled):
    def raising(*args):
        raise RuntimeError("not a usage error")

    exits = [
        (("indices", "--graph", "cycle:4"), 0),
        (("verify", "--check", "THM_TRACE_HARMONIC", "--graph", "complete:5", "--tol", "1e-30"), 1),
        (("gen", "cycle", "2"), 2),
        (("matrix", "--abs"), 2),  # argparse usage error, before the command runs
    ]
    try:
        gc.enable() if caller_enabled else gc.disable()
        for argv, code in exits:
            assert run_cli(*argv)[0] == code
            assert gc.isenabled() is caller_enabled
        monkeypatch.setattr(cli, "generate", raising)
        with pytest.raises(RuntimeError, match="not a usage error"):
            run_cli("gen", "cycle", "4")
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable()


# Reference counting alone frees what a command drops only while the command
# makes no reference cycles: every command kind of the benchmark's build and
# spectrum workloads, the graph commands and each charpoly route, on generator
# and file specs, the default suite, a key failure and two handler errors.
# Argparse usage errors are left out: argparse's own exception leaves cycles.
_ACYCLIC_COMMANDS = [
    (("transform", "subdivision", "--graph", "complete:12"), 0),
    (("transform", "semitotal_point", "--graph", "file:{tmp}/g.txt"), 0),
    (("transform", "semitotal_line", "--graph", "complete:12"), 0),
    (("transform", "splitting", "--k", "2", "--graph", "file:{tmp}/g.txt"), 0),
    (("transform", "shadow", "--k", "3", "--graph", "complete:12"), 0),
    (("matrix", "--abs", "--graph", "file:{tmp}/g.txt"), 0),
    (("indices", "--graph", "complete:12"), 0),
    (("charpoly", "--abs", "--via", "fl", "--graph", "file:{tmp}/g.txt"), 0),
    (("spectrum", "--abs", "--graph", "file:{tmp}/g.txt"), 0),
    (("energy", "--abs", "--graph", "shadow:complete:8:k=4"), 0),
    (("verify", "--suite", "default"), 0),
    (("verify", "--check", "THM_TRACE_HARMONIC", "--graph", "complete:5", "--tol", "1e-30"), 1),
    (("transform", "shadow", "--k", "0", "--graph", "cycle:4"), 2),
    (("spectrum", "--abs", "--graph", "file:{tmp}/missing.txt"), 2),
    (("gen", "cycle", "20"), 0),
    (("gen", "complete", "12", "--csv"), 0),
    (("load", "{tmp}/g.txt"), 0),
    (("load", "--csv", "{tmp}/commented.txt"), 0),
    (("charpoly", "--abs", "--via", "roots", "--graph", "file:{tmp}/g.txt"), 0),
    (("charpoly", "--abs", "--via", "recurrence", "--graph", "path:12"), 0),
    (("transform", "semitotal_line", "--graph", "complete:12", "--csv"), 0),
    (("verify", "--suite", "default", "--csv"), 0),
    (("verify", "--check", "THM_SPLIT_ENERGY", "--graph", "cycle:6", "--k", "3"), 0),
]


def _command_ids(commands):
    """Each command's first two tokens and exit code, or its whole argv where that repeats an earlier id."""
    ids = []
    for argv, code in commands:
        short = f"{' '.join(argv[:2])} exit {code}"
        ids.append(f"{' '.join(argv)} exit {code}" if short in ids else short)
    return ids


@pytest.mark.parametrize("argv,code", _ACYCLIC_COMMANDS, ids=_command_ids(_ACYCLIC_COMMANDS))
def test_commands_leave_no_cyclic_garbage(tmp_path, argv, code):
    text = to_edge_list_text(generate("cycle", 20))
    (tmp_path / "g.txt").write_text(text)
    (tmp_path / "commented.txt").write_text("# a cycle\n" + text)
    argv = [token.format(tmp=tmp_path) for token in argv]
    build_parser()
    gc.collect()
    # with the collector off, a cycle the command drops is still there for gc.collect() to count
    gc.disable()
    try:
        result = run_cli(*argv)
    finally:
        gc.enable()
    assert gc.collect() == 0
    assert result[0] == code


@pytest.mark.parametrize(
    "extra",
    [("--check", "THM_CYCLE"), ("--graph", "cycle:5"), ("--k", "2"), ("--check", "THM_CYCLE", "--graph", "cycle:5")],
)
def test_verify_suite_refuses_single_check_options(extra):
    code, out, err = run_cli("verify", "--suite", "default", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(opt in err for opt in extra if opt.startswith("--"))


@pytest.mark.parametrize("kind", ["subdivision", "semitotal_point", "semitotal_line"])
def test_transform_refuses_k_without_copies(kind):
    code, out, err = run_cli("transform", kind, "--k", "3", "--graph", "cycle:4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--k" in err and err.count("\n") == 1
    code, out, err = run_cli("transform", kind, "--graph", "cycle:4")
    assert code == 0 and out == to_json_text(apply_transform(kind, generate("cycle", 4))) + "\n"


@pytest.mark.parametrize("kind", ["splitting", "shadow"])
def test_transform_refuses_copies_without_k(kind):
    code, out, err = run_cli("transform", kind, "--graph", "cycle:4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--k" in err and err.count("\n") == 1
    code, out, err = run_cli("transform", kind, "--k", "3", "--graph", "cycle:4")
    assert code == 0 and out == to_json_text(apply_transform(kind, generate("cycle", 4), 3)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--abs"),
        ("matrix", "--adjacency"),
        ("spectrum", "--abs"),
        ("energy", "--adjacency"),
        ("charpoly", "--abs", "--via", "fl"),
    ],
)
def test_dense_budget_exits_2(argv, monkeypatch):
    # P8 needs 8 x 8 = 64 entries: a budget of 64 runs, 63 is refused before any output
    monkeypatch.setattr(graphs, "DENSE_BUDGET", 64)
    code, out, _ = run_cli(*argv, "--graph", "path:8")
    assert code == 0 and out
    monkeypatch.setattr(graphs, "DENSE_BUDGET", 63)
    code, out, err = run_cli(*argv, "--graph", "path:8")
    assert code == 2 and out == "" and "budget" in err


@pytest.mark.parametrize(
    "argv",
    [("spectrum", "--abs"), ("energy", "--adjacency"), ("charpoly", "--abs", "--via", "roots")],
)
def test_eigensolve_order_cap_exits_2(argv, monkeypatch):
    # P8's matrices have order 8: a cap of 8 runs, 7 is refused before any output
    monkeypatch.setattr(linalg, "_JACOBI_ORDER_CAP", 8)
    code, out, _ = run_cli(*argv, "--graph", "path:8")
    assert code == 0 and out
    monkeypatch.setattr(linalg, "_JACOBI_ORDER_CAP", 7)
    code, out, err = run_cli(*argv, "--graph", "path:8")
    assert code == 2 and out == "" and "eigensolver cap" in err


@pytest.mark.parametrize("check", [c.value for c in CheckId] + ["THM_NOPE"])
def test_verify_check_takes_k_only_for_energy_checks(check):
    code, out, err = run_cli("verify", "--check", check, "--graph", "cycle:5", "--k", "3")
    if check in ("THM_SPLIT_ENERGY", "THM_SHADOW_ENERGY"):
        assert code == 0 and all("k=3" in r["details"] for r in json.loads(out))
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("unknown check id" if check == "THM_NOPE" else "takes no --k") in err


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
    for spec in ("", "subdivision"):
        with pytest.raises(GraphSpecError, match="empty graph spec"):
            parse_graph_spec(spec)
    for spec in ("file", "file:", "file::k=2", "splitting:file:k=2"):
        with pytest.raises(GraphSpecError, match="file: needs a path"):
            parse_graph_spec(spec)


def _documented_graph_specs():
    """The ``--graph`` examples of the cli module docstring, README's grammar block and README's commands."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    grammar_block = readme.split("transforms and files:\n\n```\n", 1)[1].split("```", 1)[0]
    documented = {
        "cli docstring": re.findall(r"--graph (\S+)", cli.__doc__),
        "README grammar block": grammar_block.split(),
        "README commands": re.findall(r"^absspectra .*--graph (\S+)", readme, re.MULTILINE),
    }
    for source, specs in documented.items():
        assert specs, source
    return [spec for specs in documented.values() for spec in specs]


def test_documented_graph_specs_parse(tmp_path, monkeypatch):
    (tmp_path / "path" / "to").mkdir(parents=True)
    (tmp_path / "path" / "to" / "graph.txt").write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the examples' file:path/to/graph.txt
    for spec in _documented_graph_specs():
        assert parse_graph_spec(spec).n >= 1, spec


def test_readme_commands_run(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = [line.split("#", 1)[0].split()[1:] for line in readme.splitlines() if line.startswith("absspectra ")]
    assert len(commands) >= 10
    (tmp_path / "graph.txt").write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the example's load graph.txt
    for argv in commands:
        code, out, _ = run_cli(*argv)
        assert code == 0 and out.strip(), argv


def _nested_spec(head, depth, base):
    suffix = ["k=1"] * depth if head == "shadow" else []
    return ":".join([head] * depth + [base] + suffix)


@pytest.mark.parametrize("head", ["shadow", "subdivision"])
def test_deep_graph_spec_parses_to_its_base(head):
    base = "cycle:3" if head == "shadow" else "path:1"  # neither grows under its head
    # the grammar sets no nesting limit; 1,200 levels is far past Python's recursion limit
    for depth in (65, 1200):
        spec = _nested_spec(head, depth, base)
        assert parse_graph_spec(spec) == parse_graph_spec(base)
        code, out, err = run_cli("transform", "shadow", "--k", "1", "--graph", spec)
        assert (code, out, err) == (0, to_json_text(parse_graph_spec(base)) + "\n", "")


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


# --csv text of the numeric commands on K3, written by the per-command branches they replace
_K3_CSV = {
    ("matrix", "--abs"): (
        "0,0.707106781186548,0.707106781186548\n"
        "0.707106781186548,0,0.707106781186548\n"
        "0.707106781186548,0.707106781186548,0\n"
    ),
    ("spectrum", "--abs"): (
        "spectrum,-0.707106781186547,-0.707106781186547,1.41421356237309\n"
        "energy,2.82842712474619\ntrace_sq,3\nharmonic_check,3\n"
    ),
    ("indices",): (
        "M1,12\nM2,12\nrandic,1.5\nharmonic,1.5\nmodified_second_zagreb,0.75\n"
        "abc,2.12132034355964\nabs,2.12132034355964\n"
    ),
    ("charpoly", "--abs"): "coeffs,-0.707106781186548,-1.5,0,1\n",
}


@pytest.mark.parametrize("command", list(_K3_CSV))
def test_numeric_csv_text_pinned(command):
    assert run_cli(*command, "--graph", "complete:3", "--csv") == (0, _K3_CSV[command], "")


def test_edgeless_spectrum_csv_keeps_its_label_comma(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    code, out, _ = run_cli("spectrum", "--abs", "--graph", f"file:{path}", "--csv")
    assert (code, out) == (0, "spectrum,\nenergy,0\ntrace_sq,0\nharmonic_check,0\n")
    assert run_cli("matrix", "--abs", "--graph", f"file:{path}", "--csv") == (0, "", "")


def test_charpoly_routes_agree():
    _, out_fl, _ = run_cli("charpoly", "--abs", "--graph", "path:6", "--via", "fl")
    _, out_roots, _ = run_cli("charpoly", "--abs", "--graph", "path:6", "--via", "roots")
    _, out_rec, _ = run_cli("charpoly", "--abs", "--graph", "path:6", "--via", "recurrence")
    c_fl = json.loads(out_fl)["coeffs"]
    c_roots = json.loads(out_roots)["coeffs"]
    c_rec = json.loads(out_rec)["coeffs"]
    assert c_fl == pytest.approx(c_rec, abs=1e-8)
    assert c_roots == pytest.approx(c_rec, abs=1e-8)


def test_charpoly_via_roots_small_cases(tmp_path):
    # lowest power first; a graph with no vertices has the constant polynomial 1
    (tmp_path / "empty.json").write_text('{"n": 0, "edges": []}')
    cases = {f"file:{tmp_path / 'empty.json'}": [1.0], "complete:1": [0.0, 1.0], "complete:2": [-1.0, 0.0, 1.0]}
    for spec, want in cases.items():
        code, out, err = run_cli("charpoly", "--adjacency", "--graph", spec, "--via", "roots")
        assert (code, err) == (0, "") and json.loads(out)["coeffs"] == pytest.approx(want, abs=1e-15), spec


@pytest.mark.parametrize("fmt", [(), ("--csv",)], ids=["json", "csv"])
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_charpoly_refuses_overflowing_coefficients(monkeypatch, fmt, action):
    # (x - 1e200)^3 has coefficients 3e400 and -1e600, past float64
    monkeypatch.setattr(linalg, "eigenvalues_symmetric", lambda matrix: np.array([1e200] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code, out, err = run_cli("charpoly", "--abs", "--via", "roots", "--graph", "path:3", *fmt)
    assert (code, out) == (2, "") and "overflow" in err


def test_graph_spec_fuzz_exits_0_or_2(tmp_path, monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    monkeypatch.chdir(tmp_path)  # a "file" head must find no graph files
    size = st.integers(-1, 12).map(str)
    k_token = st.integers(0, 3).map("k={}".format)
    junk = st.sampled_from(["", "file", "x", "k=", "k=-1", "k=1.5", "2.5", " 3", "0x3", "1e1", "\u0663"])
    token = st.one_of(st.sampled_from(GENERATOR_KINDS + TRANSFORM_KINDS), size, k_token, junk)
    # well-formed specs nest at most two transforms: three semitotal_line layers
    # over complete:12 take seconds to build
    spec = st.one_of(
        st.tuples(st.sampled_from(("complete", "cycle", "path", "star")), size).map(list),
        st.tuples(st.just("complete_bipartite"), size, size).map(list),
    )
    for _ in range(2):
        spec = st.one_of(
            spec,
            st.tuples(st.sampled_from(("subdivision", "semitotal_point", "semitotal_line")), spec).map(
                lambda t: [t[0], *t[1]]
            ),
            st.tuples(st.sampled_from(("splitting", "shadow")), spec, k_token).map(lambda t: [t[0], *t[1], t[2]]),
        )

    def replace(case):
        tokens, edits = case
        for i, tok in edits:
            tokens[i % len(tokens)] = tok
        return tokens

    # a well-formed spec with up to two tokens replaced, or any short token list
    mutated = st.tuples(spec, st.lists(st.tuples(st.integers(0, 7), token), max_size=2)).map(replace)
    tokens = st.one_of(spec, mutated, st.lists(token, min_size=1, max_size=6))

    @hyp.given(tokens.map(":".join))
    def check(text):
        code, out, err = run_cli("indices", "--graph", text)
        assert code in (0, 2), (text, code, err)
        if code == 0:
            assert set(json.loads(out)) and not err
        else:
            assert not out and err

    check()


def test_graph_spec_matches_direct_calls(tmp_path, monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    monkeypatch.chdir(tmp_path)
    files = {"g.txt": to_edge_list_text(generate("cycle", 5)), "a:b.json": json.dumps(to_json_dict(generate("star", 4)))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    size = st.integers(1, 4)
    base = st.one_of(
        st.tuples(st.sampled_from(("complete", "path", "star")), size),
        st.tuples(st.just("cycle"), st.integers(3, 5)),
        st.tuples(st.just("complete_bipartite"), size, size),
        st.tuples(st.just("file"), st.sampled_from(sorted(files))),
    )
    # (kind, k) transform layers, outermost first; k means nothing to the lifts
    layers = st.lists(st.tuples(st.sampled_from(TRANSFORM_KINDS), st.integers(1, 2)), max_size=3)

    @hyp.given(base, layers)
    def check(base, layers):
        head, *params = base
        graph = load_graph(params[0]) if head == "file" else generate(head, *params)
        for kind, k in reversed(layers):
            graph = apply_transform(kind, graph, k)
        k_tokens = [f"k={k}" for kind, k in reversed(layers) if kind in K_KINDS]
        spec = ":".join([kind for kind, _ in layers] + [head, *map(str, params)] + k_tokens)
        assert parse_graph_spec(spec) == graph

    check()


def test_charpoly_recurrence_requires_abs_path():
    for spec in ("path:6", "path:5000"):  # path:5000's adjacency matrix is over the dense budget, and never built
        code, _, err = run_cli("charpoly", "--adjacency", "--graph", spec, "--via", "recurrence")
        assert code == 2 and err == "error: --via recurrence only applies to the ABS matrix (--abs)\n"
    code, _, err = run_cli("charpoly", "--abs", "--graph", "cycle:6", "--via", "recurrence")
    assert code == 2 and "path" in err


def test_charpoly_recurrence_builds_no_matrix(monkeypatch):
    expected = run_cli("charpoly", "--abs", "--graph", "path:6", "--via", "recurrence")
    assert expected[0] == 0 and json.loads(expected[1])["order"] == 6

    def refuse(*args, **kwargs):
        raise AssertionError("graph_matrix called on the recurrence route")

    monkeypatch.setattr(cli, "graph_matrix", refuse)
    assert run_cli("charpoly", "--abs", "--graph", "path:6", "--via", "recurrence") == expected


@pytest.mark.parametrize("action", ["always", "error"])
def test_charpoly_recurrence_refuses_an_overflowing_path(action):
    for n in (2300, 5000):  # path:5000's ABS matrix would be over the dense budget, and is never built
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code, out, err = run_cli("charpoly", "--abs", "--graph", f"path:{n}", "--via", "recurrence")
        assert (code, out, caught) == (2, "", [])
        assert err == f"error: path recurrence coefficients overflow float64 at n={n}\n"


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc", "1_0e-9", "\u0661e-8"])
def test_verify_rejects_nonfinite_tolerance(value, monkeypatch):
    # --tol and ABS_SPECTRA_TOL are ASCII text without "_", as integer text is; float() alone reads
    # "1_0e-9" as 1e-8 and Arabic-Indic "\u0661e-8" as 1e-8
    number = value in ("nan", "inf", "-inf")
    code, out, err = run_cli("verify", "--check", "THM_CYCLE", "--graph", "cycle:5", f"--tol={value}")
    assert code == 2 and out == "" and "tolerance" in err
    assert number or err == f"error: tolerance --tol={value!r} is not a number\n"
    monkeypatch.setenv("ABS_SPECTRA_TOL", value)
    code, out, err = run_cli("verify", "--check", "THM_CYCLE", "--graph", "cycle:5")
    assert code == 2 and out == "" and "tolerance" in err
    assert number or err == f"error: tolerance ABS_SPECTRA_TOL={value!r} is not a number\n"
    assert not number or err == f"error: tolerance must be positive and finite, got {float(value)}\n"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_schur_order_cap_fails_fast():
    start = time.perf_counter()
    code, out, _ = run_cli("verify", "--check", "LEM_SCHUR", "--graph", "cycle:1200")
    assert time.perf_counter() - start < 2.0
    (row,) = json.loads(out)
    assert code == 1 and row["verdict"] == "error"
    assert row["details"] == "ValueError: graph order 1200 exceeds LEM_SCHUR cap 500"


def test_verify_schur_overflow_prints_valid_json():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run_cli("verify", "--check", "LEM_SCHUR", "--graph", "cycle:500")
    (row,) = json.loads(out, parse_constant=_refuse_constant)
    assert code == 1 and row["verdict"] == "error" and row["max_deviation"] == 0.0
    assert row["details"].startswith("ValueError: a determinant overflows: block det -inf")


@pytest.mark.parametrize(
    "argv",
    [("energy", "--abs", "--graph", "shadow:complete:100:k=1000"), ("gen", "complete", "200000")],
)
def test_edge_budget_fails_fast(argv):
    start = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "budget" in err


def test_vertex_budget_fails_fast(tmp_path):
    (tmp_path / "big.txt").write_text("100000000 0\n")
    (tmp_path / "big.json").write_text('{"n": 100000000, "edges": []}')
    specs = [f"file:{tmp_path / name}" for name in ("big.txt", "big.json")]
    specs += ["splitting:path:1:k=100000000", "shadow:path:1:k=100000000", "path:100000000"]
    specs += [f"{kind}:file:{tmp_path / 'big.txt'}" for kind in ("subdivision", "semitotal_point", "semitotal_line")]
    for spec in specs:
        start = time.perf_counter()
        code, out, err = run_cli("indices", "--graph", spec)
        assert time.perf_counter() - start < 2.0, spec
        assert code == 2 and out == "" and "budget" in err, spec
    code, out, err = run_cli("load", str(tmp_path / "big.txt"))
    assert code == 2 and out == "" and "budget" in err


def test_shadow_of_edgeless_graph_is_fast():
    start = time.perf_counter()
    code, out, err = run_cli("indices", "--graph", "shadow:path:1:k=100000")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and not err and set(json.loads(out).values()) == {0.0}


@pytest.mark.parametrize(
    "text",
    ['{"n": 3, "edges": [0, 1]}', '{"n": 3, "edges": null}', '{"n": 3, "edges": [[0, 1, 2]]}', '{"n": 2, "edges": [[0, true]]}'],
)
def test_malformed_json_edges_exit_2(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (("load", str(path)), ("indices", "--graph", f"file:{path}")):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_json_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"n": 2, "edges": ' + "[" * depth + "]" * depth + "}")
    for argv in (("load", str(path)), ("spectrum", "--abs", "--graph", f"file:{path}")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "") and err.count("\n") == 1 and "nests too deeply" in err


@pytest.mark.parametrize(
    "name,text",
    [("bad.json", '{"n": 3, "edges": [[0, 9]]}'), ("bad.txt", "3 1\n0 7\n"), ("negative.txt", "3 1\n0 -1\n")],
)
def test_out_of_range_edge_exits_2(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    for argv in (("load", str(path)), ("spectrum", "--abs", "--graph", f"file:{path}")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "") and err.startswith("error: edge (0, ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text,token",
    [
        ("11 1\n0 1_0\n", "1_0"),
        ("4 1\n\u0660 \u0663\n", "\u0660"),
        ("3 1\n+0 1\n", "+0"),
        ("3 1\n0 1.0\n", "1.0"),
        ("\u0663 1\n0 1\n", "\u0663"),
        ("3 1_0\n0 1\n", "1_0"),
    ],
)
def test_edge_list_ids_must_be_ascii_decimal(tmp_path, text, token):
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    message = f"error: vertex ids and counts must be ASCII decimal integers, got {token!r}\n"
    assert run_cli("load", str(path)) == (2, "", message)
    assert run_cli("spectrum", "--abs", "--graph", f"file:{path}") == (2, "", message)


@pytest.mark.parametrize(
    "argv, token",
    [
        (("indices", "--graph", "cycle:1_0"), "1_0"),
        (("indices", "--graph", "cycle:\u0663"), "\u0663"),
        (("gen", "cycle", "+1_0"), "+1_0"),
        (("transform", "shadow", "--k", "\u0662", "--graph", "cycle:4"), "\u0662"),
        (("spectrum", "--abs", "--graph", "shadow:cycle:4:k=\u0662"), "k=\u0662"),
        (("verify", "--check", "THM_SHADOW_ENERGY", "--graph", "cycle:4", "--k", "+2"), "+2"),
        (("gen", "complete_bipartite", "2", " 3"), " 3"),
        (("spectrum", "--abs", "--graph", "shadow:cycle:4:k=2\n"), "k=2\n"),
    ],
)
def test_integers_in_text_are_ascii_decimal(argv, token):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and repr(token) in err


def test_integers_in_text_keep_leading_zeros():
    assert run_cli("gen", "cycle", "007") == run_cli("gen", "cycle", "7")
    assert run_cli("indices", "--graph", "shadow:cycle:04:k=02") == run_cli("indices", "--graph", "shadow:cycle:4:k=2")


def test_verify_refuses_k_below_1():
    code, out, err = run_cli("verify", "--check", "THM_SPLIT_ENERGY", "--graph", "cycle:4", "--k", "0")
    assert code == 2 and out == "" and "k >= 1" in err
    # callers of run_check still get an error verdict, not an exception
    reports = run_check("THM_SPLIT_ENERGY", generate("cycle", 4), {"k": 0})
    assert {r.verdict for r in reports} == {"error"}


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
    code, out, err = run_cli()
    assert code == 2 and out == ""
    assert err.endswith("\nabsspectra: error: the following arguments are required: command\n")
