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
