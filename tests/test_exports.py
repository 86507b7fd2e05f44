"""Public names: every name a module exports resolves, and each name is
exported by one module only."""

import ast
import dataclasses
import importlib
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

MODULES = ("grassmann", "catalog", "expressions", "surface_analysis", "helix_construct",
           "numtext")


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
    # default_problem walks the scanned seeds itself
    assert not hasattr(helix_construct, "choose_feasible_seed")
    # the march takes surface_analysis.fd_d1/fd_d2, the one stencil kernel
    for name in ("_row_d1", "_row_d2", "_flat"):
        assert not hasattr(helix_construct, name), name
    # each catalog kind's parameters, their JSON kinds and defaults are one
    # table, catalog.PARAMS
    catalog = importlib.import_module("helix4.catalog")
    for name in ("PARAM_KINDS", "REQUIRED_PARAMS"):
        assert not hasattr(catalog, name), name
    # planes are JSON only on the command line, read by cli._field
    grassmann = importlib.import_module("helix4.grassmann")
    for name in ("plane_from_json", "plane_to_json", "_json_coords"):
        assert not hasattr(grassmann, name), name


def test_helix_construct_imports_no_private_name():
    # a verify pass is driven in surface_analysis only: helix_construct
    # reads none of its stages, and the composition criterion is exported
    # from there alone
    path = Path(importlib.import_module("helix4.helix_construct").__file__)
    private = [(node.module, a.name) for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or node.module.split(".")[0] == "helix4")
               for a in node.names if a.name.startswith("_")]
    assert private == []
    owners = {k: [name for name in MODULES if k in exports(name)]
              for k in ("first_normal_rank", "CompositionVerdict", "composition_test")}
    assert owners == dict.fromkeys(owners, ["surface_analysis"])
