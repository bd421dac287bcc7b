"""Predicted vs computed ABS spectra and energies of transformed regular graphs.

Run as: python demos/02_transform_spectra.py
"""

import math

import numpy as np

from absspectra import (
    abs_matrix,
    abs_spectrum,
    adjacency_spectrum,
    eigenvalues_symmetric,
    energy,
    generate,
    line_graph,
    predicted_energy,
    predicted_transform_spectrum,
    semitotal_line,
    semitotal_point,
    shadow,
    splitting,
    subdivision,
)

np.set_printoptions(precision=6, suppress=True)

# For a connected r-regular graph G, every adjacency eigenvalue of G (of its
# line graph L(G) for the semitotal line graph) lifts to a pair of ABS
# eigenvalues of the subdivision / semitotal transforms through a quadratic;
# leftover dimensions are zeros. The prediction needs only r, that spectrum
# and the transform's order n + m; it is checked against the eigensolver on
# the explicitly constructed transform.

base = generate("cycle", 5)
r = 2  # the degree of C5 here and of C4 below
for kind, build in (
    ("subdivision", subdivision),
    ("semitotal_point", semitotal_point),
    ("semitotal_line", semitotal_line),
):
    lifted = line_graph(base) if kind == "semitotal_line" else base
    predicted = predicted_transform_spectrum(kind, r, adjacency_spectrum(lifted), base.n + base.m)
    actual = eigenvalues_symmetric(abs_matrix(build(base)))
    print(f"{kind}(C5): max |predicted - actual| = {np.max(np.abs(predicted - actual)):.2e}")
    print(f"  spectrum: {actual}")
print()

# Energies of k-splitting and k-shadow graphs follow from the Kronecker
# structure of their ABS matrices. Two readings are reported: the corrected
# one multiplies the base graph's adjacency energy, the as-printed one keeps
# the original scalar factor and multiplies the transformed graph's.
# Shadow example: E_ABS(D_2(C4)) = 2*sqrt(1 - 1/4)*E_A(C4) = 4*sqrt(3).

c4 = generate("cycle", 4)
e_c4 = energy(adjacency_spectrum(c4))
print(f"E_A(C4) = {e_c4:.6f}")
for kind, build in (("shadow", shadow), ("splitting", splitting)):
    for k in (1, 2, 3):
        transformed = build(c4, k)
        actual = energy(abs_spectrum(transformed))
        corrected, as_printed = predicted_energy(kind, r, k, e_c4, energy(adjacency_spectrum(transformed)))
        print(f"{kind} k={k}: actual {actual:.6f}  corrected {corrected:.6f}  as_printed {as_printed:.6f}")
    if kind == "shadow":
        print(f"(4*sqrt(3) = {4 * math.sqrt(3):.6f})")
    print()

print("The corrected readings track the brute-force energies; the as-printed")
print("factors drift because they reference the transformed graph's energy")
print("(and, for splitting with k >= 2, use a radicand inconsistent with the")
print("transform's Kronecker block structure).")
