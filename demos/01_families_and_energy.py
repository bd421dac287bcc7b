"""Tour of ABS matrices, spectra and energies on the named graph families.

Run as: python demos/01_families_and_energy.py
"""

import numpy as np

from absspectra import (
    abs_matrix,
    abs_spectrum,
    adjacency_spectrum,
    all_indices,
    closed_form_abs_spectrum,
    energy,
    generate,
)

np.set_printoptions(precision=6, suppress=True)

# The ABS matrix puts sqrt((d_i + d_j - 2) / (d_i + d_j)) on every edge.
# On a path with 3 vertices, both edges join degrees 1 and 2:
p3 = generate("path", 3)
print("ABS matrix of P3 (entries sqrt(1/3)):")
print(abs_matrix(p3))
print()

# Degree-based indices of the same graph.
print("Indices of P3:")
for kind, value in all_indices(p3).items():
    print(f"  {kind:>24}: {value:.6f}")
print()

# For regular graphs the ABS matrix is a scalar multiple of the adjacency
# matrix, so ABS eigenvalues are scaled adjacency eigenvalues. Closed forms
# exist for complete graphs, cycles, stars and complete bipartite graphs;
# each should match the eigensolver.

families = [
    ("complete", (5,)),
    ("cycle", (8,)),
    ("star", (6,)),
    ("complete_bipartite", (2, 3)),
]

for kind, params in families:
    graph = generate(kind, *params)
    closed = closed_form_abs_spectrum(kind, *params)
    solved = abs_spectrum(graph)
    gap = np.max(np.abs(closed - solved))
    print(f"{kind}{params}: closed-form vs eigensolver gap = {gap:.2e}")
    print(f"  spectrum: {solved}")
    print(f"  ABS energy: {energy(solved):.6f}   graph energy: {energy(adjacency_spectrum(graph)):.6f}")
print()

# The ABS trace identity: sum of squared ABS eigenvalues equals 2*(m - H(G)).
from absspectra import degree_index

for kind, params in families:
    graph = generate(kind, *params)
    mu = abs_spectrum(graph)
    lhs = float(np.sum(mu * mu))
    rhs = 2.0 * (graph.m - degree_index(graph, "harmonic"))
    print(f"{kind}{params}: sum mu^2 = {lhs:.10f}   2(m - H) = {rhs:.10f}")
