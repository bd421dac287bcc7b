"""The benchmark's three workloads, built from a seed.

Every item drives the package's public surface from outside:
``absspectra.cli.main(argv)`` with stdout captured, or ``run_suite`` followed
by ``reports_to_json``. Functions are looked up on their module at call time so
that the tracer's wrappers are the ones called. Each item carries an
independent checker from :mod:`oracles`.

* ``suite``: the ``verify --suite default`` corpus (16 graphs, orders 3-8,
  k=2), one item per corpus entry, seven passes in seeded order. Many tiny
  matrices and much repeated work: it shows a spectral cache and per-call
  overhead.
* ``spectrum``: ``spectrum --abs`` / ``energy --abs`` on 100 distinct graphs of
  order 15-44 (cycles, paths, sparse and dense G(n, p), random regular graphs
  and their transforms), one eigensolve each: it shows the eigensolver.
* ``build``: ``transform`` (all five kinds), ``matrix --abs``, ``indices`` and
  ``charpoly --abs --via fl`` on ER, regular and complete graphs, with line
  graphs of 10^3-10^5 edges and no eigensolve: it shows graph construction,
  assembly and output.
"""

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import inputs
import oracles

SUITE_PASSES = 7
# verify --suite default at the commit the golden was taken from.
SUITE_GOLDEN_COUNTS = {"reports": 368, "pass": 155, "inapplicable": 148, "fail": 65}


@dataclass(frozen=True)
class Item:
    label: str  # names the input: items with one label run the same input
    kind: str  # which checker judges the output; the self-test perturbs one output per kind
    call: Callable[[], tuple]  # () -> (exit code, stdout text)
    check: Callable[[str], Optional[str]]  # stdout text -> None, or why it is wrong


@dataclass(frozen=True)
class Workload:
    items: tuple
    pass_len: int  # items per traversal of the distinct inputs
    files: dict  # relative name -> bytes written at set-up


def _cli(pkg, argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(argv)
        return code, buf.getvalue()

    return call


def _write(workdir, files):
    os.makedirs(workdir, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)


def _file_spec(workdir, files, name, graph, rng):
    files[name] = inputs.edge_list_text(graph, rng).encode()
    return "file:" + os.path.join(workdir, name)


# --- suite -------------------------------------------------------------------


def load_golden(path):
    """Golden reports grouped by graph descriptor, after checking the recorded totals."""
    with open(path, encoding="utf-8") as fh:
        reports = json.load(fh)
    counts = {"reports": len(reports)}
    for r in reports:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    if counts != SUITE_GOLDEN_COUNTS:
        raise ValueError(f"golden suite counts {counts} != {SUITE_GOLDEN_COUNTS}")
    by_graph = {}
    for r in reports:
        by_graph.setdefault(r["graph_descriptor"], []).append(r)
    return by_graph


def _suite_call(pkg, entry):
    def call():
        return 0, pkg.reports_to_json(pkg.run_suite([entry]))

    return call


def suite(pkg, seed, workdir, golden):
    rng = random.Random(seed)
    entries = pkg.default_suite()
    items = []
    for _ in range(SUITE_PASSES):
        for entry in rng.sample(entries, len(entries)):
            name = entry[1]["descriptor"]
            check = functools.partial(oracles.check_suite_entry, golden[name])
            items.append(Item(f"suite {name}", "suite", _suite_call(pkg, entry), check))
    return Workload(tuple(items), len(entries), {})


# --- spectrum ----------------------------------------------------------------

SPECTRUM_FILE_ITEMS = 94
# Grammar specs whose graphs the benchmark builds itself for the oracle.
SPECTRUM_GRAMMAR = (
    ("shadow:complete:8:k=4", lambda: inputs.shadow(inputs.complete(8), 4)),
    ("splitting:cycle:12:k=2", lambda: inputs.splitting(inputs.cycle(12), 2)),
    ("subdivision:complete:7", lambda: inputs.subdivision(inputs.complete(7))),
    ("semitotal_point:cycle:16", lambda: inputs.semitotal_point(inputs.cycle(16))),
    ("shadow:cycle:15:k=2", lambda: inputs.shadow(inputs.cycle(15), 2)),
    ("semitotal_line:complete:6", lambda: inputs.semitotal_line(inputs.complete(6))),
)
SPECTRUM_FAMILIES = (
    "cycle", "path", "gnp_sparse", "gnp_dense", "regular3", "regular4", "subdivision", "splitting", "shadow",
)


def _even(x):
    return max(4, 2 * round(x / 2))


def _spectrum_graph(family, order, i, rng):
    """A graph of about ``order`` vertices from one family; only its structure depends on the seed."""
    if family == "cycle":
        return inputs.relabel(inputs.cycle(order), rng)
    if family == "path":
        return inputs.relabel(inputs.path(order), rng)
    if family == "gnp_sparse":
        return inputs.gnp(order, 3.0 / order, rng)
    if family == "gnp_dense":
        return inputs.gnp(order, 0.3, rng)
    if family == "regular3":
        return inputs.random_regular(_even(order), 3, rng)
    if family == "regular4":
        return inputs.random_regular(order, 4, rng)
    if family == "subdivision":
        return inputs.subdivision(inputs.random_regular(_even(order / 2.5), 3, rng))
    k = 1 + i % 2 if family == "splitting" else 2 + i % 2
    base = inputs.random_regular(_even(order / (k + 1 if family == "splitting" else k)), 3, rng)
    return inputs.TRANSFORMS[family](base, k)


def spectrum(pkg, seed, workdir, golden=None):
    rng = random.Random(seed)
    files, items = {}, []

    def add(label, spec, graph, command):
        argv = [command, "--abs", "--graph", spec]
        check = functools.partial(oracles.check_spectrum, graph)
        items.append(Item(f"{command} {label} (n={graph[0]})", "spectrum", _cli(pkg, argv), check))

    for i in range(SPECTRUM_FILE_ITEMS):
        # Orders rise steeply towards the end: most items are small, the last
        # tenth sets item_p90_ms, and ten passes fit in a run.
        order = round(16 + 28 * (i / (SPECTRUM_FILE_ITEMS - 1)) ** 3)
        family = SPECTRUM_FAMILIES[i % len(SPECTRUM_FAMILIES)]
        graph = _spectrum_graph(family, order, i, rng)
        name = f"spectrum_{i:03d}.txt"
        add(f"{family} {name}", _file_spec(workdir, files, name, graph, rng), graph, ("spectrum", "energy")[i % 2])
    for j, (spec, build) in enumerate(SPECTRUM_GRAMMAR):
        add(spec, spec, build(), ("spectrum", "energy")[j % 2])
    rng.shuffle(items)
    return Workload(tuple(items), len(items), files)


# --- build -------------------------------------------------------------------

# (family, order, density or degree); complete graphs go in as grammar specs.
BUILD_BASES = (
    ("gnp", 20, 0.15), ("gnp", 20, 0.5), ("gnp", 32, 0.15), ("gnp", 32, 0.5),
    ("gnp", 44, 0.15), ("gnp", 44, 0.5), ("gnp", 56, 0.15), ("gnp", 56, 0.5),
    ("regular", 24, 3), ("regular", 40, 4), ("regular", 56, 3), ("regular", 60, 4),
    ("complete", 12, None), ("complete", 24, None), ("complete", 40, None), ("complete", 60, None),
)
# Faddeev-LeVerrier stays within CHARPOLY_TOL of np.poly(eigvalsh) only on
# low-degree or small graphs, so the charpoly items keep to those.
CHARPOLY_BASES = (
    ("cycle", 16), ("cycle", 24), ("cycle", 32), ("cycle", 40), ("cycle", 48),
    ("path", 16), ("path", 24), ("path", 32), ("path", 40), ("path", 48),
    ("regular", 12), ("regular", 16), ("regular", 20), ("regular", 24),
    ("gnp", 8), ("gnp", 10), ("complete", 8), ("complete", 10),
)


def build(pkg, seed, workdir, golden=None):
    rng = random.Random(seed)
    files, items = {}, []

    def spec_for(name, family, n, graph):
        return f"complete:{n}" if family == "complete" else _file_spec(workdir, files, name, graph, rng)

    for b, (family, n, param) in enumerate(BUILD_BASES):
        if family == "gnp":
            graph = inputs.gnp(n, param, rng)
        elif family == "regular":
            graph = inputs.random_regular(n, param, rng)
        else:
            graph = inputs.complete(n)
        spec = spec_for(f"build_{b:02d}.txt", family, n, graph)
        label = f"{family}{n} #{b}"
        k = 2 + b % 2
        for kind in inputs.TRANSFORMS:
            argv = ["transform", kind, "--graph", spec]
            kk = k if kind in ("splitting", "shadow") else None
            if kk is not None:
                argv += ["--k", str(kk)]
            check = functools.partial(oracles.check_transform, kind, graph, kk)
            items.append(Item(f"transform {kind} {label}", "transform", _cli(pkg, argv), check))
        items.append(Item(f"matrix {label}", "matrix", _cli(pkg, ["matrix", "--abs", "--graph", spec]),
                          functools.partial(oracles.check_matrix, graph)))
        items.append(Item(f"indices {label}", "indices", _cli(pkg, ["indices", "--graph", spec]),
                          functools.partial(oracles.check_indices, graph)))
    for c, (family, n) in enumerate(CHARPOLY_BASES):
        if family in ("cycle", "path"):
            graph = inputs.relabel(getattr(inputs, family)(n), rng)
        elif family == "regular":
            graph = inputs.random_regular(n, 3, rng)
        elif family == "gnp":
            graph = inputs.gnp(n, 0.5, rng)
        else:
            graph = inputs.complete(n)
        spec = spec_for(f"charpoly_{c:02d}.txt", family, n, graph)
        argv = ["charpoly", "--abs", "--via", "fl", "--graph", spec]
        items.append(Item(f"charpoly {family}{n}", "charpoly", _cli(pkg, argv),
                          functools.partial(oracles.check_charpoly, graph)))
    rng.shuffle(items)
    return Workload(tuple(items), len(items), files)


WORKLOAD_BUILDS = {"suite": suite, "spectrum": spectrum, "build": build}


def generate(name, pkg, seed, workdir, golden):
    """Build a workload's items and write its input files under ``workdir``."""
    workload = WORKLOAD_BUILDS[name](pkg, seed, workdir, golden)
    _write(workdir, workload.files)
    return workload
