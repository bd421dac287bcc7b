"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and are not meant to be tuned.
"""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from absspectra import (
    abs_matrix,
    abs_spectrum,
    adjacency_matrix,
    adjacency_spectrum,
    char_poly,
    closed_form_abs_spectrum,
    degree_index,
    eigenvalues_symmetric,
    energy,
    generate,
    incidence_matrix,
    is_connected,
    is_regular,
    line_graph,
    path_abs_charpoly,
    semitotal_line,
    semitotal_point,
    shadow,
    splitting,
    subdivision,
)
from absspectra.cli import main as cli_main
from absspectra.linalg import multiset_deviation, poly_deviation
from absspectra.spectra import splitting_energy_radicands

from conftest import predicted_lift, regular_corpus


def _announce(criterion, text):
    print(f"ACCEPTANCE {criterion} {text}: PASS")


def test_c01_trace_harmonic_identity(golden_corpus):
    for g in golden_corpus:
        lhs = math.fsum(x * x for x in abs_spectrum(g).tolist())
        rhs = 2.0 * (g.m - degree_index(g, "harmonic"))
        assert abs(lhs - rhs) <= 1e-8, f"trace identity failed on {g!r}"
    _announce("C1", f"trace/harmonic identity on {len(golden_corpus)} graphs (tol 1e-8)")


def test_c02_closed_form_spectra():
    cases = []
    cases += [("complete", (n,), generate("complete", n)) for n in range(3, 9)]
    cases += [("cycle", (n,), generate("cycle", n)) for n in range(3, 13)]
    cases += [("star", (n,), generate("star", n)) for n in range(3, 11)]
    cases += [
        ("complete_bipartite", (a, b), generate("complete_bipartite", a, b))
        for a in range(1, 6)
        for b in range(a, 6)
    ]
    for kind, params, graph in cases:
        assert multiset_deviation(closed_form_abs_spectrum(kind, *params), abs_spectrum(graph)) <= 1e-8, (
            f"closed form mismatch for {kind}{params}"
        )
    _announce("C2", f"closed-form spectra on {len(cases)} family members (tol 1e-8)")


def test_c03_path_recurrence():
    frozen_p5 = np.array([0.0, 4.0 / 9.0, 0.0, -5.0 / 3.0, 0.0, 1.0])
    p5 = path_abs_charpoly(5)
    assert np.max(np.abs(p5 - frozen_p5)) <= 1e-12
    for n in range(5, 21):
        assert poly_deviation(path_abs_charpoly(n), char_poly(abs_matrix(generate("path", n)))) <= 1e-8, (
            f"path recurrence mismatch at n={n}"
        )
    _announce("C3", "path charpoly recurrence, n = 5..20 (tol 1e-8; n=5 frozen at 1e-12)")


def test_c04_transform_spectra_corrected():
    graphs = [generate("cycle", n) for n in (3, 4, 5, 6)]
    graphs += [generate("complete", 4), generate("complete", 5)]
    graphs += [g for g in regular_corpus() if g.n <= 8]
    transforms = [
        ("subdivision", subdivision),
        ("semitotal_point", semitotal_point),
        ("semitotal_line", semitotal_line),
    ]
    checked = 0
    for g in graphs:
        for kind, build in transforms:
            predicted = predicted_lift(kind, g)
            actual = eigenvalues_symmetric(abs_matrix(build(g)))
            assert multiset_deviation(predicted, actual) <= 1e-8, f"{kind} spectrum mismatch on {g!r}"
            checked += 1
    _announce("C4", f"transform spectra (corrected) on {checked} graph/transform pairs (tol 1e-8)")


def test_c05_kronecker_structure():
    checked = 0
    for g in regular_corpus():
        r = is_regular(g)
        a = adjacency_matrix(g)
        for k in (1, 2, 3):
            shadow_scale = math.sqrt(1.0 - 1.0 / (k * r))
            assert np.max(np.abs(abs_matrix(shadow(g, k)) - shadow_scale * np.kron(np.ones((k, k)), a))) <= 1e-12
            dm = np.zeros((k + 1, k + 1))
            dm[0, 0] = math.sqrt(1.0 - 1.0 / (r * (k + 1)))
            off = math.sqrt(1.0 - 2.0 / (r * (k + 2)))
            dm[0, 1:] = off
            dm[1:, 0] = off
            assert np.max(np.abs(abs_matrix(splitting(g, k)) - np.kron(dm, a))) <= 1e-12
            checked += 2
    _announce("C5", f"Kronecker structure of shadow/splitting ABS matrices, {checked} cases (tol 1e-12)")


def test_c06_shadow_energy_corrected():
    for g in regular_corpus():
        r = is_regular(g)
        base = energy(adjacency_spectrum(g))
        for k in (1, 2, 3):
            expected = k * math.sqrt(1.0 - 1.0 / (k * r)) * base
            actual = energy(abs_spectrum(shadow(g, k)))
            assert abs(actual - expected) <= 1e-8, f"shadow energy mismatch on {g!r}, k={k}"
    special = energy(abs_spectrum(shadow(generate("cycle", 4), 2)))
    assert abs(special - 4.0 * math.sqrt(3)) <= 1e-8
    _announce("C6", "shadow energy k <= 3 on the regular corpus; shadow(C4,2) = 4*sqrt(3) (tol 1e-8)")


def test_c07_splitting_energy():
    # at k = 1 the two radicands coincide, and the energy formula must hold
    for g in regular_corpus():
        r = is_regular(g)
        corrected, printed = splitting_energy_radicands(r, 1)
        assert abs(corrected - printed) <= 1e-12
        expected = math.sqrt(corrected) * energy(adjacency_spectrum(g))
        assert abs(energy(abs_spectrum(splitting(g, 1))) - expected) <= 1e-8
    # at k = 2, 3 the brute-force oracle decides: the corrected radicand wins
    printed_survives = True
    for g in regular_corpus()[:6]:
        r = is_regular(g)
        base = energy(adjacency_spectrum(g))
        for k in (2, 3):
            corrected, printed = splitting_energy_radicands(r, k)
            actual = energy(abs_spectrum(splitting(g, k)))
            assert abs(actual - math.sqrt(corrected) * base) <= 1e-8, (
                f"corrected splitting energy mismatch on {g!r}, k={k}"
            )
            if abs(actual - math.sqrt(printed) * base) > 1e-8:
                printed_survives = False
    assert not printed_survives, "printed radicand unexpectedly matched for k >= 2"
    _announce("C7", "splitting energy: corrected radicand holds for k = 1..3; printed fails for k >= 2")


def test_c08_modified_zagreb_bound(golden_corpus):
    equality_complete = []
    strict_cycles = []
    for g in golden_corpus:
        if g.n < 4 or not is_connected(g):
            continue
        lhs = math.fsum(x * x for x in abs_spectrum(g).tolist())
        rhs = (g.n - 1) * (g.n - 2.0 * degree_index(g, "modified_second_zagreb"))
        assert lhs <= rhs + 1e-8, f"bound violated on {g!r}"
        if g.m == g.n * (g.n - 1) // 2:
            equality_complete.append(abs(lhs - rhs))
        if is_regular(g) == 2 and is_connected(g):
            strict_cycles.append(rhs - lhs)
    assert equality_complete and max(equality_complete) <= 1e-8
    assert strict_cycles and min(strict_cycles) > 1e-6  # equality genuinely fails off complete graphs
    _announce("C8", "sum mu^2 <= (n-1)(n - 2 R_-1): bound holds; equality exactly on complete graphs")


def test_c09_incidence_lemmas(golden_corpus):
    regular_checked = 0
    for g in golden_corpus + regular_corpus():
        f = incidence_matrix(g)
        line_rhs = 2 * np.eye(g.m, dtype=np.int64) + adjacency_matrix(line_graph(g)).astype(np.int64)
        assert np.array_equal(f.T @ f, line_rhs), f"F^t F identity failed on {g!r}"
        r = is_regular(g)
        if r is not None:
            gram_rhs = adjacency_matrix(g).astype(np.int64) + r * np.eye(g.n, dtype=np.int64)
            assert np.array_equal(f @ f.T, gram_rhs), f"F F^t identity failed on {g!r}"
            regular_checked += 1
    assert regular_checked >= 10
    _announce("C9", "incidence lemmas hold exactly in integer arithmetic across the corpus")


def test_c10_suite_determinism_and_runtime():
    def run_once():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["verify", "--suite", "default"])
        return code, buf.getvalue()

    start = time.monotonic()
    code1, out1 = run_once()
    code2, out2 = run_once()
    elapsed = time.monotonic() - start
    assert code1 == 0 and code2 == 0
    assert out1.encode() == out2.encode(), "suite output is not byte-identical"
    assert elapsed < 60.0, f"two suite runs took {elapsed:.1f}s"
    _announce("C10", f"verify --suite default: byte-identical output, 2 runs in {elapsed:.1f}s (< 60s)")
