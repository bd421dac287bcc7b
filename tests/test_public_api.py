"""The package's public name list."""

import types

import absspectra


def test_all_lists_resolving_names_and_no_submodule():
    assert absspectra.__all__ and len(set(absspectra.__all__)) == len(absspectra.__all__)
    for name in absspectra.__all__:
        value = getattr(absspectra, name)
        assert not isinstance(value, types.ModuleType), name
    assert "__version__" not in absspectra.__all__ and "types" not in absspectra.__all__
    assert {"graphs", "linalg", "verifier"}.isdisjoint(absspectra.__all__)
    namespace = {}
    exec("from absspectra import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(absspectra.__all__)


def test_energy_wrappers_and_graph_taking_predictions_are_gone():
    from absspectra import spectra

    assert "energy" in absspectra.__all__ and absspectra.energy is spectra.energy
    for name in ("EnergyReport", "PredictedEnergy", "abs_energy", "adjacency_energy"):
        assert name not in absspectra.__all__ and not hasattr(absspectra, name), name
        assert not hasattr(spectra, name), name
    for name in ("lift_base_graph", "lift_quadratic"):
        assert not hasattr(spectra, name), name


def test_polynomial_helpers_and_has_edge_are_gone():
    from absspectra import linalg, verifier

    for name in ("poly_trim", "poly_mul", "poly_eval", "poly_from_roots"):
        assert not hasattr(linalg, name) and not hasattr(absspectra, name), name
    assert not hasattr(verifier, "_monomial")
    assert not hasattr(absspectra.Graph, "has_edge")


def test_degree_sequence_and_neighbour_lists_are_gone():
    from absspectra import graphs

    assert not hasattr(graphs, "degree_sequence") and not hasattr(absspectra, "degree_sequence")
    # line_graph and semitotal_line build their edge runs through _line_runs from _incidence's ids
    assert not hasattr(graphs, "line_pairs")
    # the colouring slot holds the one two-colouring search's result, not neighbour lists
    assert absspectra.Graph.__slots__ == ("n", "higher", "degrees", "_colouring")
    assert not hasattr(absspectra.Graph, "adjacency")
    assert not hasattr(absspectra.generate("cycle", 4), "adjacency")


def test_edge_vertex_runs_are_gone():
    from absspectra import transforms

    # the edge-vertex transforms read each vertex's incident edge ids from graphs._incidence
    assert not hasattr(transforms, "_edge_vertex_runs")


def test_tolerance_helper_is_gone():
    from absspectra import verifier

    # _settle reads each check's tolerance rule itself
    assert not hasattr(verifier, "_tolerance")
