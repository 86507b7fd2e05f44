"""Span recording at the helix4 module boundaries, from outside the package.

The traced run wraps public functions where their callers look them up: the
module attribute of the defining module (for the benchmark's own calls and
calls inside that module) and the names other modules import with ``from ...
import``.  ``SurfacePatch.jet`` is wrapped on the patch instances the
benchmark builds, and on the patches ``catalog.named_example`` returns.  No
program file is changed; ``uninstall`` restores every attribute.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are
single-threaded and properly nested, so the children never overlap.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# span name -> modules whose attribute of the same name the callers use
WRAPPED = {
    "grassmann.principal_angles": ("grassmann", "catalog", "cli"),
    "grassmann.orthogonal_complement": ("grassmann", "catalog", "surface_analysis"),
    "grassmann.plane_angles_via_bivectors": ("grassmann", "cli"),
    "grassmann.gauss_point": ("grassmann", "surface_analysis"),
    "grassmann.wedge": ("grassmann", "surface_analysis"),
    "expressions.parse_expr": ("expressions", "cli"),
    "surface_analysis.verify_helix": ("surface_analysis", "cli", "helix_construct"),
    "surface_analysis.adapted_frame": ("surface_analysis",),
    "surface_analysis.fundamental_forms": ("surface_analysis",),
    "surface_analysis.brioschi_curvature": ("surface_analysis",),
    "helix_construct.default_problem": ("helix_construct",),
    "helix_construct.paper_initial_data": ("helix_construct",),
    "helix_construct.solve_pde": ("helix_construct",),
    "helix_construct.recover_g": ("helix_construct",),
    "helix_construct.solution_graph": ("helix_construct",),
    "helix_construct.symplecto_check": ("helix_construct",),
    "helix_construct.helix_condition_residual": ("helix_construct",),
    "helix_construct.choose_feasible_seed": ("helix_construct",),
}

CLI_COMMANDS = ("angles", "example", "verify", "construct", "export")

# the benchmark's calibration samples, which interrupt program spans
CALIBRATION_SPAN = "perfbench.calibration"

# spans reported with .calls and .self_s (paper_initial_data only feeds the
# seed-candidate count)
REPORTED_SPANS = (
    [n for n in WRAPPED if n != "helix_construct.paper_initial_data"]
    + ["catalog.named_example", "catalog.jet", "expressions.jet"]
    + [f"cli.{c}" for c in CLI_COMMANDS])


class Tracer:
    """In-memory span recorder plus numeric counters.

    A span is ``[name, start, end, parent span or None, child seconds]``.
    Parents are held by reference, not by index, so a signal handler that
    opens a span of its own between two statements of ``traced`` cannot
    shift the parent of later spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list = [None]

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` recording one span per call.

        ``observe(args, kwargs, result)`` returns ``{counter: amount}`` to add.
        """
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1], 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if rec[3] is not None:
                    rec[3][4] += rec[2] - rec[1]
            if observe is not None:
                for key, amount in observe(args, kwargs, result).items():
                    counters[key] += amount
            return result

        return traced

    def aggregate(self) -> tuple[dict, dict, dict]:
        """(calls, self seconds, child counts keyed (parent name, child name))."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        pairs: dict[tuple[str, str], int] = defaultdict(int)
        for name, start, end, parent, child_s in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_s
            if parent is not None:
                pairs[(parent[0], name)] += 1
        return calls, self_s, pairs


class Installation:
    """Wrappers installed on the program modules; ``uninstall`` undoes them."""

    def __init__(self, tracer: Tracer, mods, patches=()):
        self._saved: list[tuple[object, str, object]] = []
        for span, users in WRAPPED.items():
            home, attr = span.split(".")
            original = getattr(getattr(mods, home), attr, None)
            if original is None:
                continue
            wrapped = tracer.wrap(span, original, _OBSERVERS.get(span))
            for user in users:
                module = getattr(mods, user)
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrapped)

        def named_example(name, _orig=mods.catalog.named_example):
            cs = _orig(name)
            cs.patch.jet = tracer.wrap("catalog.jet", cs.patch.jet)
            return cs

        self._set(mods.catalog, "named_example",
                  tracer.wrap("catalog.named_example", named_example))

        jet_factory = getattr(mods.cli, "scalar_jet_from_exprs", None)
        if jet_factory is not None:
            def scalar_jet_from_exprs(expr, _orig=jet_factory):
                return tracer.wrap("expressions.jet", _orig(expr))
            self._set(mods.cli, "scalar_jet_from_exprs", scalar_jet_from_exprs)

        def cli_main(argv, _orig=mods.cli.main):
            return tracer.wrap(f"cli.{argv[0]}", _orig)(argv)

        self._set(mods.cli, "main", cli_main)

        for patch in patches:
            self._set(patch, "jet", tracer.wrap("catalog.jet", patch.jet))

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._saved):
            setattr(obj, attr, value)
        self._saved.clear()


def _verify_nodes(args, kwargs, _report):
    n, m = args[2] if len(args) > 2 else kwargs["grid"]
    return {"verify_nodes": n * m}


def _solve_nodes(_args, _kwargs, sol):
    return {"solve_valid_nodes": float(sol.valid.sum()),
            "solve_grid_nodes": float(sol.valid.size)}


_OBSERVERS = {
    "surface_analysis.verify_helix": _verify_nodes,
    "helix_construct.solve_pde": _solve_nodes,
}


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-pass layer figures from the spans of ``n_passes`` traced passes."""
    calls, self_s, pairs = tracer.aggregate()
    c = tracer.counters
    per = 1.0 / n_passes
    out: dict[str, float] = {}
    for span in REPORTED_SPANS:
        out[f"{span}.calls"] = calls.get(span, 0) * per
        out[f"{span}.self_s"] = self_s.get(span, 0.0) * per

    nodes = c["verify_nodes"]
    for span in ("grassmann.orthogonal_complement", "catalog.jet",
                 "surface_analysis.adapted_frame"):
        out[f"{span}.calls_per_node"] = calls.get(span, 0) / nodes if nodes else 0.0
    out["surface_analysis.verify_helix.nodes"] = nodes * per

    solve_s = self_s.get("helix_construct.solve_pde", 0.0)
    valid = c["solve_valid_nodes"]
    out["helix_construct.solve_pde.valid_nodes"] = valid * per
    out["helix_construct.solve_pde.valid_fraction"] = (
        valid / c["solve_grid_nodes"] if c["solve_grid_nodes"] else 0.0)
    out["helix_construct.solve_pde.nodes_per_s"] = valid / solve_s if solve_s else 0.0

    seeds = calls.get("helix_construct.choose_feasible_seed", 0)
    tried = pairs.get(("helix_construct.choose_feasible_seed",
                       "helix_construct.paper_initial_data"), 0)
    out["helix_construct.choose_feasible_seed.candidates_tried"] = tried * per
    out["helix_construct.choose_feasible_seed.accept_ratio"] = (
        seeds / tried if tried else 0.0)
    out["trace.spans"] = (len(tracer.spans) - calls.get(CALIBRATION_SPAN, 0)) * per
    return out
