"""Public names: every name a module exports resolves, and each name is
exported by one module only."""

import dataclasses
import importlib
import inspect
from collections import Counter

import numpy as np
import pytest

MODULES = ("grassmann", "catalog", "expressions", "surface_analysis", "helix_construct")


def exports(name: str) -> list[str]:
    return importlib.import_module(f"helix4.{name}").__all__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"helix4.{name}")
    assert [k for k in exports(name) if not hasattr(module, k)] == []


def test_no_name_is_exported_by_two_modules():
    counts = Counter(k for name in MODULES for k in exports(name))
    assert [k for k, n in counts.items() if n > 1] == []


def test_test_only_helpers_are_not_in_the_package():
    grassmann = importlib.import_module("helix4.grassmann")
    assert not hasattr(grassmann, "bivector_inner")
    assert not hasattr(grassmann.Plane, "reversed")
    surface_analysis = importlib.import_module("helix4.surface_analysis")
    assert not hasattr(surface_analysis, "patch_from_position")
    assert not hasattr(surface_analysis, "patch_from_grid")
    helix_construct = importlib.import_module("helix4.helix_construct")
    assert not hasattr(helix_construct.HelixParams, "c_normalized")
    assert not hasattr(helix_construct.SolutionGrid, "fx")


def test_removed_graph_and_problem_names_stay_removed():
    # formula graphs are plain patches (graph_patch); a GraphSurface is only
    # the grid-backed graph, holding its two value grids (its derivatives
    # are taken where they are read), and a PDEProblem is checked when it is
    # built
    surface_analysis = importlib.import_module("helix4.surface_analysis")
    helix_construct = importlib.import_module("helix4.helix_construct")
    G = surface_analysis.GraphSurface([0, 1, 2], [0, 1, 2], np.zeros((3, 3)), np.zeros((3, 3)))
    for name in ("from_callables", "sample", "sample_grid", "source", "sampler", "arrays",
                 "from_grids"):
        assert not hasattr(G, name), name
    assert [f.name for f in dataclasses.fields(G)] == ["xs", "ys", "f", "g", "name"]
    for name in ("GRAPH_FIELDS", "JET_PARTS"):
        assert not hasattr(surface_analysis, name), name
    assert list(inspect.signature(helix_construct.symplecto_check).parameters) == ["G", "P"]
    for name in ("validate", "x_nodes", "y_steps"):
        assert not hasattr(helix_construct.PDEProblem, name), name
