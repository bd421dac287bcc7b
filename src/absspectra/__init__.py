"""ABS (atom-bond sum-connectivity) matrices, spectra and energies for graphs.

The package bundles an immutable graph type with named-family generators, the
five structural transforms whose ABS spectra have closed descriptions
(subdivision, semitotal point/line, k-splitting, k-shadow), degree-based
topological indices, a self-contained dense symmetric eigensolver and
characteristic-polynomial layer, and a verification harness that scores every
supported identity against independent numeric oracles.
"""

import types

from .graphs import (
    Graph,
    adjacency_matrix,
    generate,
    incidence_matrix,
    is_connected,
    is_regular,
    line_graph,
    load_graph,
    parse_edge_list_text,
    to_edge_list_text,
)
from .transforms import (
    apply_transform,
    semitotal_line,
    semitotal_point,
    shadow,
    splitting,
    subdivision,
)
from .linalg import (
    NoConvergenceError,
    char_poly,
    det_lu,
    eigenvalues_symmetric,
)
from .indices import INDEX_KINDS, all_indices, degree_index
from .spectra import (
    abs_matrix,
    abs_spectrum,
    adjacency_spectrum,
    closed_form_abs_spectrum,
    energy,
    path_abs_charpoly,
    predicted_energy,
    predicted_transform_spectrum,
)
from .verifier import (
    CheckId,
    CheckReport,
    default_suite,
    describe_graph,
    reports_to_csv,
    reports_to_json,
    run_check,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
