"""Outside-in tracer for the traced run.

The package is not changed: each traced function is replaced by a wrapper in
every ``absspectra`` module namespace that binds it, and in every closure cell
of the package's functions that captured it (the verifier builds its checks
from closures over the transforms, and ``verifier`` and ``cli`` import names
with ``from .x import y``). ``Graph`` is traced through its constructor.

Spans are kept in memory as ``(id, parent id, name, tag, item, start, end,
self seconds)`` and written as JSON lines when the run ends. A span's self time
is its duration minus the whole time of its child wrappers, so the tracer's own
bookkeeping inside a child is not charged to the parent. Eigensolver inputs
are hashed before their span opens, to count distinct matrices per pass.
"""

import hashlib
import json
import sys
import time
import types

import numpy as np

PACKAGE = "absspectra"

# (module, attribute); the metric prefix is "<module>.<attribute>".
TARGETS = (
    ("graphs", "Graph"),
    ("graphs", "line_graph"),
    ("graphs", "generate"),
    ("graphs", "load_graph"),
    ("transforms", "subdivision"),
    ("transforms", "semitotal_point"),
    ("transforms", "semitotal_line"),
    ("transforms", "splitting"),
    ("transforms", "shadow"),
    ("linalg", "eigenvalues_symmetric"),
    ("linalg", "char_poly"),
    ("linalg", "det_lu"),
    ("spectra", "abs_matrix"),
    ("spectra", "predicted_energy"),
    ("spectra", "predicted_transform_spectrum"),
    ("indices", "degree_index"),
    ("verifier", "run_check"),
    ("verifier", "reports_to_json"),
    ("cli", "main"),
    ("cli", "parse_graph_spec"),
)
EIGENSOLVER = "linalg.eigenvalues_symmetric"
# Spans of this function are also summed per first argument (the CheckId).
TAGGED = "verifier.run_check"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _closure_cells(modules):
    """Closure cells of every package function reachable from the package's module namespaces."""
    cells, seen = [], set()
    stack = [v for m in modules for k, v in vars(m).items() if not k.startswith("__")]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            if obj.__module__.startswith(PACKAGE) and obj.__closure__:
                for cell in obj.__closure__:
                    try:
                        stack.append(cell.cell_contents)
                    except ValueError:  # empty cell
                        continue
                    cells.append(cell)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return cells


class Tracer:
    """Wraps the package's public functions while installed; collects spans and per-pass counts."""

    def __init__(self):
        self.spans = []
        self.bindings = {}  # metric prefix -> where the wrapper was bound
        self.item = None
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._start = time.perf_counter()
        self._seen_inputs = set()
        self.reset_stats()

    # --- per-repetition statistics ---------------------------------------------

    def reset_stats(self):
        self.calls = {}
        self.self_s = {}
        self.tag_s = {}
        self.distinct = 0
        self.order_max = 0

    def snapshot(self):
        """Statistics gathered since :meth:`reset_stats`."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "tag_s": dict(self.tag_s),
            "distinct": self.distinct,
            "order_max": self.order_max,
        }

    def new_pass(self):
        """Start a new traversal of the inputs: distinct eigensolver inputs are counted per pass."""
        self._seen_inputs = set()

    # --- installing the wrappers ---------------------------------------------------

    def install(self):
        modules = _package_modules()
        cells = _closure_cells(modules)
        self.bindings = {}
        for modname, attr in TARGETS:
            name = f"{modname}.{attr}"
            owner = sys.modules[f"{PACKAGE}.{modname}"]
            orig = getattr(owner, attr)
            if isinstance(orig, type):
                init = orig.__dict__["__init__"]
                orig.__init__ = self._wrap(name, init)
                self._patches.append((setattr, orig, "__init__", init))
                self.bindings[name] = [f"{owner.__name__}.{attr}.__init__"]
                continue
            wrapper = self._wrap(name, orig)
            where = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((setattr, mod, key, orig))
                        where.append(f"{mod.__name__}.{key}")
            for cell in cells:
                if cell.cell_contents is orig:
                    cell.cell_contents = wrapper
                    self._patches.append((_set_cell, cell, None, orig))
                    where.append("closure cell")
            self.bindings[name] = where

    def uninstall(self):
        while self._patches:
            setter, target, key, orig = self._patches.pop()
            setter(target, key, orig)

    # --- spans -------------------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        hashed = name == EIGENSOLVER
        tagged = name == TAGGED

        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            if hashed:
                tracer._count_input(args[0])
            tag = getattr(args[0], "value", str(args[0])) if tagged else None
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(name, tag, frame, parent, start, end)
                if parent is not None:
                    parent[1] += time.perf_counter() - enter

        return wrapper

    def _count_input(self, matrix):
        a = np.ascontiguousarray(matrix, dtype=float)
        key = (a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest())
        if key not in self._seen_inputs:
            self._seen_inputs.add(key)
            self.distinct += 1
        self.order_max = max(self.order_max, a.shape[0] if a.ndim else 0)

    def _close(self, name, tag, frame, parent, start, end):
        own = (end - start) - frame[1]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if tag is not None:
            self.tag_s[tag] = self.tag_s.get(tag, 0.0) + (end - start)
        self.spans.append(
            (frame[0], parent[0] if parent else None, name, tag, self.item, start - self._start, end - self._start, own)
        )

    def write(self, path, header):
        """Write the header and every span as JSON lines."""
        keys = ("id", "parent", "name", "tag", "item", "start_s", "end_s", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _set_cell(cell, _key, value):
    cell.cell_contents = value
