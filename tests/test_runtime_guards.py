"""Guards on the runtime routes and the source.

No numpy.linalg call, no numpy.polynomial import, no read of a graph's edge
pairs outside the three places that hand them out, large CLI inputs answer in
seconds, the tracer's hooks resolve, no count's floor is written out beside
``graphs._integer``, and no blanket catch sits outside the verifier's three
places that make an error a report row.
"""

import ast
import importlib
import io
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from absspectra import CheckId, cli, default_suite, generate, graphs, reports_to_json, run_suite
from absspectra.transforms import K_KINDS, TRANSFORM_KINDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# one graph per check on which the check applies
_CHECK_GRAPHS = {
    "LEM_INCIDENCE_REG": "cycle:5",
    "LEM_INCIDENCE_LINE": "cycle:5",
    "LEM_SCHUR": "cycle:5",
    "THM_REG_SCALING": "complete:4",
    "THM_SUBDIVISION": "cycle:5",
    "THM_SEMITOTAL_POINT": "cycle:5",
    "THM_SEMITOTAL_LINE": "cycle:5",
    "THM_PATH_RECURRENCE": "path:6",
    "THM_COMPLETE": "complete:4",
    "THM_CYCLE": "cycle:5",
    "THM_KMN": "complete_bipartite:2:3",
    "THM_STAR": "star:5",
    "THM_TRACE_HARMONIC": "path:5",
    "THM_R1_BOUND": "complete:4",
    "THM_SPLIT_ENERGY": "cycle:5",
    "THM_SHADOW_ENERGY": "cycle:5",
}


def _command_outputs(argvs):
    """(exit code, stdout, stderr) of ``cli.main`` on each argv."""
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def _outputs():
    checks = [["verify", "--check", check, "--graph", spec] for check, spec in _CHECK_GRAPHS.items()]
    return [reports_to_json(run_suite(default_suite())), *_command_outputs(checks)]


def test_no_runtime_path_calls_numpy_linalg(monkeypatch):
    assert list(_CHECK_GRAPHS) == [c.value for c in CheckId]
    expected = _outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on a runtime path")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError):
        np.linalg.solve(np.eye(2), np.ones(2))
    # the checks record an oracle failure as verdict "error", so compare whole outputs
    assert _outputs() == expected
    assert '"verdict": "error"' not in expected[0] + "".join(out for _, out, _ in expected[1:])


def test_no_command_reads_the_edge_pairs(monkeypatch, tmp_path):
    # the commands walk each graph's runs; Graph.edges builds the pairs anew for pickling and to_json_dict
    text, data = tmp_path / "g.txt", tmp_path / "g.json"
    text.write_text("7 5\n0 1\n0 4\n1 2\n2 4\n5 6\n", encoding="utf-8")  # the writer's form, vertex 3 isolated
    data.write_text('{"n": 5, "edges": [[3, 1], [1, 0], [0, 1], [2, 4]]}', encoding="utf-8")
    argvs = [["gen", "complete", "5"], ["gen", "cycle", "4"], ["load", str(text)], ["load", str(data)]]
    for spec in ("complete_bipartite:2:3", f"file:{text}", f"file:{data}", "subdivision:shadow:complete:4:k=2"):
        for kind in TRANSFORM_KINDS:
            for k in ("2", "3") if kind in K_KINDS else (None,):
                argvs.append(["transform", kind, "--graph", spec, *(["--k", k] if k else [])])
        argvs += [
            ["matrix", "--abs", "--graph", spec],
            ["indices", "--graph", spec],
            ["spectrum", "--abs", "--graph", spec],
            ["charpoly", "--abs", "--via", "fl", "--graph", spec],
        ]
    argvs.append(["verify", "--suite", "default"])
    argvs += [[*argv, "--csv"] for argv in argvs]
    expected = _command_outputs(argvs)
    assert {code for code, _, _ in expected} == {0}

    def refuse(graph):
        raise AssertionError("Graph.edges read on a command's path")

    monkeypatch.setattr(graphs.Graph, "edges", property(refuse))
    with pytest.raises(AssertionError):
        generate("cycle", 3).edges
    assert _command_outputs(argvs) == expected


def _scoped_nodes(source):
    """(qualified name of the enclosing functions and classes, node) of every node of ``source``, in preorder."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    return visit(ast.parse(source), "")


def _edges_reads(source):
    """(qualified function name, line) of each ``.edges`` attribute."""
    return [
        (scope, node.lineno)
        for scope, node in _scoped_nodes(source)
        if isinstance(node, ast.Attribute) and node.attr == "edges"
    ]


def test_edge_pairs_are_read_only_where_they_are_handed_out():
    # a graph stores its runs; the pairs are built on each read, once per edge
    probe = "class G:\n    def f(self):\n        return self.edges\ndef g(x):\n    return x.higher, x['edges'], x.edges\n"
    assert _edges_reads(probe) == [("G.f", 3), ("g", 5)]
    found = {
        (path.name, scope)
        for path in sorted((ROOT / "src" / "absspectra").glob("*.py"))
        for scope, _ in _edges_reads(path.read_text(encoding="utf-8"))
    }
    allowed = {("graphs.py", "Graph.edges"), ("graphs.py", "Graph.__reduce__"), ("graphs.py", "to_json_dict")}
    assert found <= allowed, f"edge pairs read outside {sorted(allowed)}: {sorted(found - allowed)}"


def test_no_runtime_path_imports_numpy_polynomial():
    # numpy does not load numpy.polynomial itself; importing it costs every process time and memory
    code = f"""
import sys
from contextlib import redirect_stdout
import io
from absspectra import cli, default_suite, run_suite
run_suite(default_suite())
with redirect_stdout(io.StringIO()):
    for check, spec in {_CHECK_GRAPHS!r}.items():
        cli.main(["verify", "--check", check, "--graph", spec])
assert "numpy" in sys.modules
assert "numpy.polynomial" not in sys.modules, "numpy.polynomial imported on a runtime path"
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# Inputs at the edges of the caps and budgets, with their exit codes. Each answers in well
# under a second, so the 20 s timeout leaves a margin of 20x for the host's speed drift.
_FAIL_FAST = [
    (["verify", "--check", "LEM_INCIDENCE_LINE", "--graph", "cycle:1600"], 0),
    (["verify", "--check", "LEM_INCIDENCE_REG", "--graph", "cycle:1600"], 0),
    (["charpoly", "--abs", "--via", "recurrence", "--graph", "path:200000"], 2),
    (["spectrum", "--abs", "--graph", "cycle:1000"], 2),
    (["verify", "--check", "LEM_SCHUR", "--graph", "cycle:501"], 1),
]


def test_large_inputs_answer_fast():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys; from absspectra.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, exit_code in _FAIL_FAST:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=20,
        )
        assert proc.returncode == exit_code, (argv, proc.stderr)


def test_tracer_targets_resolve():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    for module, attribute in targets:
        owner = importlib.import_module(f"absspectra.{module}")
        assert callable(getattr(owner, attribute, None)), f"{module}.{attribute}"


def _below_an_int(node):
    """Whether ``node`` is a comparison with a ``<`` whose right side is an int literal."""
    return isinstance(node, ast.Compare) and any(
        isinstance(op, ast.Lt) and isinstance(right, ast.Constant) and type(right.value) is int
        for op, right in zip(node.ops, node.comparators)
    )


def _hand_written_floors(source):
    """Lines of each ``if`` whose test compares a value ``<`` an int literal and whose body raises."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and any(map(_below_an_int, ast.walk(node.test)))
        and any(isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt))
    ]


def test_every_floor_is_read_by_graphs_integer():
    # a count's least value is the ``least`` of graphs._integer, the one place that refuses it
    assert _hand_written_floors("if n < 3:\n    raise ValueError(n)\nif a < 1 or b:\n    f()\n    raise E") == [1, 3]
    assert _hand_written_floors("if n < 3:\n    return 0\nif x < 1e-10:\n    raise E\nif n < m:\n    raise E") == []
    found = [
        f"{path.name}:{line}"
        for path in sorted((ROOT / "src" / "absspectra").glob("*.py"))
        for line in _hand_written_floors(path.read_text(encoding="utf-8"))
    ]
    assert not found, f"hand-written lower bounds: {found}"


_BLANKET = {"Exception", "BaseException"}

_BLANKET_PROBE = """
class A:
    def f(self):
        try:
            g()
        except (ValueError, Exception):
            pass
def h():
    with contextlib.suppress(Exception):
        g()
    try:
        g()
    except:
        pass
def ok():
    with suppress(ValueError):
        g()
    try:
        g()
    except TypeError:
        pass
"""


def _blanket_catches(source):
    """(qualified function name, line) of each bare ``except``, ``except Exception`` and ``suppress(Exception)``."""
    found = []
    for scope, child in _scoped_nodes(source):
        if isinstance(child, ast.ExceptHandler):
            caught = [] if child.type is None else getattr(child.type, "elts", [child.type])
            if child.type is None or {getattr(name, "id", None) for name in caught} & _BLANKET:
                found.append((scope, child.lineno))
        elif isinstance(child, ast.Call):
            callee = getattr(child.func, "attr", getattr(child.func, "id", None))
            if callee == "suppress" and {getattr(arg, "id", None) for arg in child.args} & _BLANKET:
                found.append((scope, child.lineno))
    return found


def test_every_blanket_catch_makes_a_report_row():
    # three places turn an error into a report row or leave it to the caller that does;
    # a blanket catch anywhere else would hide a bug
    assert _blanket_catches(_BLANKET_PROBE) == [("A.f", 6), ("h", 9), ("h", 13)]
    found = {
        (path.name, scope)
        for path in sorted((ROOT / "src" / "absspectra").glob("*.py"))
        for scope, _ in _blanket_catches(path.read_text(encoding="utf-8"))
    }
    allowed = {("verifier.py", "_Spectra.prefetch"), ("verifier.py", "_settle"), ("verifier.py", "run_check")}
    assert found <= allowed, f"blanket catches outside the report rows: {sorted(found - allowed)}"


def test_package_source_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10. This reads grammar only (and ast's
    # feature_version is best effort), not library features such as possessive regex quantifiers.
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted((ROOT / "src" / "absspectra").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
