"""Command-line front end.

Graphs are supplied with ``--graph`` using a colon-separated mini-grammar that
composes generators and transforms in one token, e.g.::

    --graph cycle:6
    --graph complete_bipartite:2:3
    --graph splitting:cycle:4:k=2
    --graph subdivision:shadow:complete:4:k=2
    --graph file:path/to/graph.txt

Output is JSON on stdout (floats at 15 significant digits); ``--csv`` switches
to a CSV/edge-list rendering. Exit codes: 0 success, 1 when a verification
check whose variant is ``corrected`` or ``single`` fails, 2 on usage or I/O
errors.
"""

import argparse
import functools
import os
import re
import sys
from itertools import takewhile

import numpy as np

from .graphs import GENERATOR_KINDS, _integer, _text_integer, families, generate, load_graph
from .graphs import to_edge_list_text, to_json_text
from . import linalg
from .indices import all_indices
from .spectra import graph_matrix, path_abs_charpoly, spectrum_report
from .transforms import K_KINDS, TRANSFORM_KINDS, apply_transform
from .verifier import (
    DEFAULT_TOL,
    K_CHECKS,
    CheckId,
    _JsonText,
    _csv_cell,
    default_suite,
    has_key_failure,
    reports_to_csv,
    reports_to_json,
    run_check,
    run_suite,
)

_GENERATOR_ARITY = {kind: 2 if kind == "complete_bipartite" else 1 for kind in GENERATOR_KINDS}
_K_TOKEN = re.compile(r"k=([0-9]+)")


class GraphSpecError(ValueError):
    """A ``--graph`` mini-grammar string could not be parsed."""


def parse_graph_spec(spec):
    """Parse the colon-separated graph grammar into a graph.

    Leading transform heads wrap a base, a generator or ``file:``, and apply
    innermost first; each splitting or shadow head takes the next ``k=N``
    token after the base. Nesting is bounded only by the spec and the budgets.
    """
    tokens = spec.split(":")
    heads = list(takewhile(TRANSFORM_KINDS.__contains__, tokens))
    tokens = tokens[len(heads) :]
    if not tokens or not tokens[0]:
        raise GraphSpecError("empty graph spec")
    base, rest = tokens[0], tokens[1:]
    if base == "file":
        # leave trailing k=N tokens to the splitting/shadow heads
        path_end = len(rest)
        while path_end and _K_TOKEN.fullmatch(rest[path_end - 1]):
            path_end -= 1
        path = ":".join(rest[:path_end])
        if not path:
            raise GraphSpecError("file: needs a path")
        graph, rest = load_graph(path), rest[path_end:]
    elif base in _GENERATOR_ARITY:
        arity = _GENERATOR_ARITY[base]
        params = []
        for token in rest[:arity]:
            try:
                params.append(_text_integer(token, f"{base} sizes"))
            except ValueError:
                raise GraphSpecError(f"expected an integer for {base}, got {token!r}") from None
        if len(params) < arity:
            raise GraphSpecError(f"missing integer parameter for {base}")
        graph, rest = generate(base, *params), rest[arity:]
    else:
        raise GraphSpecError(f"unknown graph spec head {base!r}")
    for head in reversed(heads):
        k = None
        if head in K_KINDS:
            match = _K_TOKEN.fullmatch(rest[0]) if rest else None
            if not match:
                got = f", got {rest[0]!r}" if rest else ""
                raise GraphSpecError(f"{head}: expects :k=K after the inner graph spec{got}")
            k, rest = _text_integer(match[1], "copy counts k"), rest[1:]
        graph = apply_transform(head, graph, k)
    if rest:
        raise GraphSpecError(f"unexpected trailing tokens {':'.join(rest)!r} in graph spec {spec!r}")
    return graph


def _emit_graph(graph, csv_mode):
    if csv_mode:
        sys.stdout.write(to_edge_list_text(graph))
    else:
        print(to_json_text(graph))


def _cmd_gen(args):
    _emit_graph(generate(args.kind, *args.params), args.csv)
    return 0


def _cmd_load(args):
    _emit_graph(load_graph(args.path), args.csv)
    return 0


def _cmd_transform(args):
    if (args.k is None) == (args.kind in K_KINDS):
        need = "needs" if args.k is None else "takes no"
        raise ValueError(f"transform {args.kind} {need} --k (only {' and '.join(K_KINDS)} do)")
    _emit_graph(apply_transform(args.kind, parse_graph_spec(args.graph), args.k), args.csv)
    return 0


def _emit(args, value, rows):
    """Print ``value`` as JSON, or with ``--csv`` each row of ``rows`` as its ``_csv_cell`` texts joined by commas."""
    if args.csv:
        for row in rows:
            print(",".join(map(_csv_cell, row)))
    else:
        print(_JsonText().text(value))
    return 0


def _cmd_matrix(args):
    rows = graph_matrix(parse_graph_spec(args.graph), args.matrix).tolist()
    return _emit(args, {"order": len(rows), "rows": rows}, rows)


def _cmd_spectrum(args):
    report = spectrum_report(parse_graph_spec(args.graph), args.matrix)
    return _emit(args, report, report.items())


def _cmd_indices(args):
    values = all_indices(parse_graph_spec(args.graph))
    return _emit(args, values, values.items())


def _cmd_charpoly(args):
    graph = parse_graph_spec(args.graph)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, whatever the warning filter
        if args.via == "fl":
            coeffs = linalg.char_poly(graph_matrix(graph, args.matrix))
        elif args.via == "roots":
            # np.poly gives the highest power first, and a scalar for no roots
            coeffs = np.atleast_1d(np.poly(linalg.eigenvalues_symmetric(graph_matrix(graph, args.matrix))))[::-1]
        else:  # recurrence
            if args.matrix != "abs":
                raise ValueError("--via recurrence only applies to the ABS matrix (--abs)")
            if "path" not in families(graph):
                raise ValueError("--via recurrence needs a path graph")
            coeffs = path_abs_charpoly(graph.n)
    if not np.isfinite(coeffs).all():
        raise ValueError(f"characteristic polynomial coefficients overflow float64 (--via {args.via})")
    coeffs = coeffs.tolist()
    return _emit(args, {"order": len(coeffs) - 1, "coeffs": coeffs}, [("coeffs", coeffs)])


def _cmd_verify(args):
    where, text = ("--tol", args.tol) if args.tol is not None else ("ABS_SPECTRA_TOL", os.getenv("ABS_SPECTRA_TOL"))
    try:  # ASCII text without "_", as integer text is: float() alone reads "1_0e-9" and other scripts' digits
        tol = DEFAULT_TOL if text is None else float(text if text.isascii() and "_" not in text else "not a number")
    except ValueError:
        raise ValueError(f"tolerance {where}={text!r} is not a number") from None
    if args.suite:
        given = [opt for opt in ("check", "graph", "k") if getattr(args, opt) is not None]
        if given:
            raise ValueError(f"verify --suite takes no {', '.join('--' + opt for opt in given)}")
        reports = run_suite(default_suite(), tol)
    elif args.check:
        if not args.graph:
            raise ValueError("verify --check needs --graph")
        params = {"descriptor": args.graph}
        if args.k is not None:
            k_checks = [c.value for c in K_CHECKS]
            if args.check in CheckId.__members__ and args.check not in k_checks:  # run_check names unknown ids
                raise ValueError(f"verify --check {args.check} takes no --k (only {' and '.join(k_checks)} do)")
            params["k"] = _integer(args.k, "verify --k", 1)
        reports = run_check(args.check, parse_graph_spec(args.graph), params, tol)
    else:
        raise ValueError("verify needs --suite default or --check ID")
    sys.stdout.write(reports_to_csv(reports) if args.csv else reports_to_json(reports) + "\n")
    return 1 if has_key_failure(reports) else 0


def _add_graph_option(parser, required=True):
    parser.add_argument("--graph", required=required, help="graph spec (see module help)")


def _add_matrix_options(parser, via=False):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--abs", dest="matrix", action="store_const", const="abs", help="use the ABS matrix")
    group.add_argument(
        "--adjacency", dest="matrix", action="store_const", const="adjacency", help="use the adjacency matrix"
    )
    if via:
        parser.add_argument("--via", choices=("fl", "roots", "recurrence"), default="fl")
    _add_graph_option(parser)


def _int_option(token):
    """argparse ``type`` of the integer options: :func:`graphs._text_integer`, with argparse's own message."""
    try:
        return _text_integer(token, "integer options")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


def _gen_arguments(p):
    p.add_argument("kind", choices=sorted(_GENERATOR_ARITY))
    p.add_argument("params", nargs="+", type=_int_option, help="size parameters")


def _transform_arguments(p):
    p.add_argument("kind", choices=TRANSFORM_KINDS)
    p.add_argument("--k", type=_int_option, default=None, help="copy count for splitting/shadow")
    _add_graph_option(p)


def _verify_arguments(p):
    p.add_argument("--suite", choices=("default",), default=None)
    p.add_argument("--check", default=None, help="single check id, e.g. THM_CYCLE")
    _add_graph_option(p, required=False)
    p.add_argument("--k", type=_int_option, default=None, help="copy count for the energy checks")
    p.add_argument("--tol", default=None, help="tolerance (default 1e-8, env ABS_SPECTRA_TOL)")


# name -> (help, argument adder, handler); every command also takes --csv, added last
_COMMANDS = {
    "gen": ("generate a named graph family member", _gen_arguments, _cmd_gen),
    "load": ("load a graph from a file and echo it", lambda p: p.add_argument("path"), _cmd_load),
    "transform": ("apply a transform to a graph", _transform_arguments, _cmd_transform),
    "matrix": ("emit the ABS or adjacency matrix", _add_matrix_options, _cmd_matrix),
    "spectrum": ("emit the spectrum report", _add_matrix_options, _cmd_spectrum),
    "energy": ("emit the energy report", _add_matrix_options, _cmd_spectrum),
    "indices": ("emit all degree-based indices", _add_graph_option, _cmd_indices),
    "charpoly": (
        "emit characteristic polynomial coefficients (ascending)",
        lambda p: _add_matrix_options(p, via=True),
        _cmd_charpoly,
    ),
    "verify": ("run identity checks and report verdicts", _verify_arguments, _cmd_verify),
}


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser of every command.

    It is built once per process (about 1.5 ms) and shared by every later
    call; callers must not change it. Parsing leaves the parser as it was,
    and usage and help text are formatted when they are printed.
    """
    parser = argparse.ArgumentParser(prog="absspectra", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.add_argument("--csv", action="store_true")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code instead of raising SystemExit."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    # GraphSpecError is a ValueError; LookupError covers KeyError and the IndexError of an edge outside 0..n-1
    try:
        return args.handler(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
