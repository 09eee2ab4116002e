"""The public surface: ``pathpack.__all__`` is pinned, and every name any
module exports resolves.  A name joins the package surface only when code
outside the tests needs it."""

import importlib
import pkgutil

import pytest

import pathpack

PACKAGE_API = {
    "Graph", "Workspace", "GraphFormatError",
    "parse_graph", "load_graph", "format_graph", "random_gnp",
    "PackingInstance", "Solution", "from_packing", "validate_solution",
    "SolverConfig", "SolveStats", "config_from_name", "CONFIG_NAMES",
    "solve",
    "oracle_decide",
}

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(pathpack.__path__)
                 if name != "__main__")


def test_package_all_is_pinned():
    assert len(pathpack.__all__) == len(set(pathpack.__all__))
    assert set(pathpack.__all__) == PACKAGE_API


@pytest.mark.parametrize("modname", ["pathpack"]
                         + [f"pathpack.{name}" for name in MODULES])
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    names = mod.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mod, name), f"{modname}.__all__ names missing {name}"
