"""absspectra benchmark: one workload per process, seeded inputs, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout. With ``--trace 0``
the last line of stdout is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the spans
go to ``perfbench/out/trace-<workload>-<seed>.jsonl``. Earlier lines describe
the environment, sample counts, the measured (unscaled) times and any failed
item. See README.md for the workloads, metrics and bounds.
"""

import os
import sys

# Load comes from this one process. BLAS threads are pinned before numpy is
# imported, so that OpenBLAS does not start its own pool.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden_suite.json")

# Set-up (fresh import of the package, input generation, file writes) is
# repeated and its median reported; the repeats also prove the generator is
# byte-identical for one seed.
SETUP_REPEATS = 21
WARMUP_ITEMS = 3
# Each item's median time is taken over at least this many passes.
MIN_PASSES = 3

# Metric names are fixed here rather than read from the package, so that they
# match BENCHMARK.json whatever the program under test does.
CHECK_IDS = (
    "LEM_INCIDENCE_REG", "LEM_INCIDENCE_LINE", "LEM_SCHUR", "THM_REG_SCALING", "THM_SUBDIVISION",
    "THM_SEMITOTAL_POINT", "THM_SEMITOTAL_LINE", "THM_PATH_RECURRENCE", "THM_COMPLETE", "THM_CYCLE",
    "THM_KMN", "THM_STAR", "THM_TRACE_HARMONIC", "THM_R1_BOUND", "THM_SPLIT_ENERGY", "THM_SHADOW_ENERGY",
)
# (traced function, statistics reported for it); times are self seconds per pass.
LAYER_STATS = (
    ("linalg.eigenvalues_symmetric", ("calls", "self_s")),
    ("linalg.char_poly", ("calls", "self_s")),
    ("linalg.det_lu", ("self_s",)),
    ("verifier.run_check", ("self_s",)),
    ("verifier.reports_to_json", ("self_s",)),
    ("graphs.Graph", ("calls", "self_s")),
    ("graphs.line_graph", ("self_s",)),
    ("graphs.generate", ("self_s",)),
    ("graphs.load_graph", ("self_s",)),
    ("transforms.subdivision", ("calls", "self_s")),
    ("transforms.semitotal_point", ("calls", "self_s")),
    ("transforms.semitotal_line", ("calls", "self_s")),
    ("transforms.splitting", ("calls", "self_s")),
    ("transforms.shadow", ("calls", "self_s")),
    ("spectra.abs_matrix", ("self_s",)),
    ("spectra.predicted_energy", ("self_s",)),
    ("spectra.predicted_transform_spectrum", ("self_s",)),
    ("indices.degree_index", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
    ("cli.parse_graph_spec", ("self_s",)),
)


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for func, stats in LAYER_STATS:
        names += [(f"{func}.{stat}", "count" if stat == "calls" else "s") for stat in stats]
        if func == "linalg.eigenvalues_symmetric":
            names += [(f"{func}.distinct_ratio", "ratio"), (f"{func}.order_max", "count")]
    names += [(f"verifier.check.{cid}.s", "s") for cid in CHECK_IDS]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


class Tally:
    """Attempted and failed items; an item fails when it raises, exits non-zero or fails its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.samples = {}  # checker kind -> (item, a correct output), for the perturbation self-test

    def record(self, label, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {error}")


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "threads": threading.active_count(),
    }


def set_up(name, seed, golden, workdir):
    """Import the package afresh, generate the inputs and write them; returns (workload, seconds, file digest)."""
    shutil.rmtree(workdir, ignore_errors=True)
    for mod in [m for m in sys.modules if m == "absspectra" or m.startswith("absspectra.")]:
        del sys.modules[mod]
    gc.collect()
    start = time.perf_counter()
    pkg = importlib.import_module("absspectra")
    importlib.import_module("absspectra.cli")
    workload = workloads.generate(name, pkg, seed, workdir, golden)
    elapsed = time.perf_counter() - start
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"absspectra imported from {pkg.__file__}, not from {SRC}")
    digest = hashlib.sha256()
    for fname in sorted(workload.files):
        with open(os.path.join(workdir, fname), "rb") as fh:
            digest.update(fname.encode() + b"\0" + fh.read())
    return workload, elapsed, digest.hexdigest()


def run_pass(workload, ref, tally, digests, tracer=None):
    """Run every item once; returns the per-item seconds and the reference kernel's seconds after each item.

    Each item starts after a garbage collection, so the collections inside
    it are the same in every pass. The first pass checks each output with
    its oracle and keeps a digest; later passes compare against that digest.
    Checks run outside the timed span.
    """
    times, kernel_times = [], []
    first = not digests
    for idx, item in enumerate(workload.items):
        if tracer is not None:
            if idx % workload.pass_len == 0:
                tracer.new_pass()
            tracer.item = idx
        error = None
        gc.collect()
        start = time.perf_counter()
        try:
            code, text = item.call()
        except Exception as exc:  # an item that raises is a failed item, not a crashed run
            code, text, error = None, "", f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        kernel_times.append(ref.after_item(times[-1]))
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
            if first:
                digests.append(digest)
                error = item.check(text)
                if error is None:
                    tally.samples.setdefault(item.kind, (item, text))
            elif digest != digests[idx]:
                error = "output differs from the first pass"
        elif first:
            digests.append(None)
        tally.record(item.label, error)
    return times, kernel_times


def self_test_checkers(tally):
    """Each checker must reject a perturbed output, and the rejection must count as a failed item."""
    problems = []
    for kind, (item, text) in sorted(tally.samples.items()):
        scratch = Tally()
        scratch.record(item.label, item.check(text))
        scratch.record(item.label, item.check(oracles.perturb(text)))
        if (scratch.attempted, scratch.failed) != (2, 1):
            problems.append(f"checker '{kind}' did not reject a perturbed output ({item.label})")
    return problems


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_run(workload, ref, seconds, tally, trace):
    """Repeat passes while another one fits in ``seconds`` (at least ``MIN_PASSES``).

    With tracing, untraced and traced passes alternate, so both see the same
    machine state.
    """
    digests = []
    for item in workload.items[:WARMUP_ITEMS]:
        try:
            item.call()
        except Exception:  # the timed pass runs the item again and records the failure
            pass
    plain, traced, layer_reps, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(workload, ref, tally, digests))
        if trace is not None:
            trace.reset_stats()
            trace.install()
            try:
                traced.append(run_pass(workload, ref, tally, digests, trace))
            finally:
                trace.uninstall()
            layer_reps.append(trace.snapshot())
        now = time.perf_counter()
        rounds.append(now - round_start)
        # Start another round only if a typical one still ends within the budget.
        if len(rounds) >= MIN_PASSES and now - start + statistics.median(rounds) > seconds:
            return plain, traced, layer_reps


def item_times(workload, ref, passes):
    """Each item's median scaled time over the passes and over the items that run the same input, ascending.

    A sample is scaled by the reference kernel's speed around it (see
    reference.py), which removes the host's drift from one spell to the next.
    """
    by_input = {}
    for times, kernel_times in passes:
        for item, t, scale in zip(workload.items, times, ref.scales(kernel_times)):
            by_input.setdefault(item.label, []).append(t * scale)
    medians = {label: statistics.median(samples) for label, samples in by_input.items()}
    return sorted(medians[item.label] for item in workload.items)


def end_to_end(workload, ref, plain, setups):
    samples = item_times(workload, ref, plain)
    return {
        "wall_s": (math.fsum(samples), "s"),
        "item_p50_ms": (1000 * quantile(samples, 0.5), "ms"),
        "item_p90_ms": (1000 * quantile(samples, 0.9), "ms"),
        "setup_s": (statistics.median(t * scale for t, scale in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(samples)


def per_layer(workload, ref, plain, traced, layer_reps, problems):
    passes = len(workload.items) // workload.pass_len
    first = layer_reps[0]
    if any((rep["calls"], rep["distinct"]) != (first["calls"], first["distinct"]) for rep in layer_reps):
        problems.append("traced call counts differ between repetitions")

    def per_pass(table, key):
        return statistics.median(rep[table].get(key, 0.0) for rep in layer_reps) / passes

    metrics = {}
    for func, stats in LAYER_STATS:
        for stat in stats:
            metrics[f"{func}.{stat}"] = first["calls"].get(func, 0) / passes if stat == "calls" else per_pass("self_s", func)
        if func == "linalg.eigenvalues_symmetric":
            calls = first["calls"].get(func, 0)
            metrics[f"{func}.distinct_ratio"] = first["distinct"] / calls if calls else 0.0
            metrics[f"{func}.order_max"] = first["order_max"]
    for cid in CHECK_IDS:
        metrics[f"verifier.check.{cid}.s"] = per_pass("tag_s", cid)
    metrics["trace.overhead_ratio"] = math.fsum(item_times(workload, ref, traced)) / math.fsum(item_times(workload, ref, plain))
    units = dict(per_layer_names())
    return {name: (metrics[name], units[name]) for name, _ in per_layer_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "spectrum", "build"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "absspectra", "__init__.py")):
        print(f"error: package source not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment()
    print("env: " + json.dumps(env))
    golden = workloads.load_golden(GOLDEN) if args.workload == "suite" else None

    problems = []
    workdir = os.path.join(OUT, "inputs", f"{args.workload}-{args.seed}")
    setups, digests, workload = [], set(), None
    ref = reference.Reference(args.workload)
    ref.timed(reference.SETUP_KERNELS)  # warm-up
    try:
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            kernel_times = ref.timed(reference.SETUP_KERNELS)
            workload, elapsed, digest = set_up(args.workload, args.seed, golden, workdir)
            kernel_times += ref.timed(reference.SETUP_KERNELS)
            setups.append((elapsed, ref.scale(kernel_times)))
            digests.add(digest)
        if len(digests) != 1:
            problems.append(f"seed {args.seed} gave {len(digests)} different input file sets")

        tally = Tally()
        trace = tracer.Tracer() if args.trace else None
        # What set-up left is never garbage; freezing it keeps each item's
        # collection to the objects the item made.
        gc.collect()
        gc.freeze()
        plain, traced, layer_reps = timed_run(workload, ref, args.seconds, tally, trace)
        problems += self_test_checkers(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(workload, ref, plain, traced, layer_reps, problems)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        trace.write(path, {"env": env, "workload": args.workload, "seed": args.seed, "bindings": trace.bindings})
        print(f"trace: {len(trace.spans)} spans over {len(traced)} traced passes -> {os.path.relpath(path, ROOT)}")
    else:
        metrics, samples = end_to_end(workload, ref, plain, setups)
        print(f"samples: {samples} items, each timed in {len(plain)} passes; "
              f"set-up repeated {len(setups)} times")
        print("measured pass_s: " + " ".join(f"{sum(times):.4f}" for times, _ in plain))
        print(f"pass scale ({ref.name} kernel, nominal over median time): "
              + " ".join(f"{ref.scale([t for batch in k for t in batch]):.3f}" for _, k in plain))
        print("measured setup_s: " + " ".join(f"{t:.4f}" for t, _ in setups))
        print("setup scale: " + " ".join(f"{scale:.3f}" for _, scale in setups))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    fail_ratio = tally.failed / tally.attempted
    print(f"fail_ratio = {fail_ratio:.6g} ({tally.failed}/{tally.attempted})")
    for line in tally.messages + problems:
        print(f"FAIL {line}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
