"""Command-line front end.

Subcommands: ``angles`` (principal angles of two planes), ``verify``
(structure report for a configured surface), ``construct`` (solve the
construction PDE for prescribed angles), ``deform`` (angles <-> (m, c)),
``example`` (generate and verify a catalog surface), ``export`` (convert a
saved solution grid).

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 numerical
degeneracy, 5 residual gate failure.  All angles are radians; degree-looking
input is rejected, never converted.  JSON output formats floats with 17
significant digits, so identical configurations produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog, helix_construct as hc
from .expressions import EvalError, ParseError, parse_expr, scalar_jet_from_exprs
from .grassmann import (Plane, plane_angles_via_bivectors, plane_from_json,
                        plane_to_json, principal_angles)
from .surface_analysis import (GraphSurface, ImmersionError, default_gate, stack4,
                               verify_helix)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DEGENERATE = 4
EXIT_GATE = 5

SOLUTION_FIELDS = ("f", "g", "fx", "fy", "gx", "gy")
# sidecar entries that ``export`` reads
SIDECAR_KEYS = {"nx", "ny", "x0", "y0", "hx", "hy", "fields"}


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def dumps_stable(obj) -> str:
    """JSON with floats rendered at 17 significant digits (non-finite -> null)."""

    def render(o, depth):
        sp = " " * (depth * 2)
        spi = " " * ((depth + 1) * 2)
        if o is None:
            return "null"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            v = float(o)
            if not math.isfinite(v):
                return "null"
            return f"{v:.17g}"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (list, tuple, np.ndarray)):
            items = [render(v, depth + 1) for v in o]
            return "[" + ", ".join(items) + "]"
        if isinstance(o, dict):
            items = [f"{spi}{json.dumps(str(k))}: {render(v, depth + 1)}"
                     for k, v in o.items()]
            return "{\n" + ",\n".join(items) + "\n" + sp + "}"
        raise TypeError(f"cannot serialize {type(o)}")

    return render(obj, 0) + "\n"


def _emit(obj, out: str | None) -> None:
    text = dumps_stable(obj)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# CSV and OBJ text
# ---------------------------------------------------------------------------

# rows converted to Python numbers at a time: converting a whole export grid
# at once holds several MB of Python floats
ROW_BLOCK = 1024


def _write_rows(fh, line: str, rows: np.ndarray) -> None:
    """Write every row of the 2-D array ``rows`` as ``line % tuple(row)``."""
    for start in range(0, len(rows), ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _write_csv(path: str, names, columns) -> None:
    """CSV with the header ``names`` and one row per element of the
    same-shaped ``columns``, in C order, floats at 17 significant digits."""
    table = np.stack(columns, axis=-1).reshape(-1, len(columns))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        _write_rows(fh, ",".join(["%.17g"] * len(names)) + "\n", table)


def _write_obj(path: str, points: np.ndarray, coords: tuple[int, int, int]) -> None:
    """OBJ mesh of the (N, M, 4) grid ``points`` projected to the coordinates
    ``coords``: a comment naming the dropped coordinate, the vertices in C
    order, then 1-based faces, two triangles (a, b, d), (a, d, c) per cell
    with corners a = [i, j], b = [i, j+1], c = [i+1, j], d = [i+1, j+1]."""
    N, M, _ = points.shape
    dropped = ({0, 1, 2, 3} - set(coords)).pop()
    node = np.arange(1, N * M + 1).reshape(N, M)
    a, b, c, d = node[:-1, :-1], node[:-1, 1:], node[1:, :-1], node[1:, 1:]
    with open(path, "w") as fh:
        fh.write(f"# projection to coordinates {coords}; dropped coordinate: "
                 f"{'xyzw'[dropped]} (index {dropped})\n")
        _write_rows(fh, "v %.17g %.17g %.17g\n",
                    points[..., list(coords)].reshape(-1, 3))
        _write_rows(fh, "f %d %d %d\n",
                    np.stack([a, b, d, a, d, c], axis=-1).reshape(-1, 3))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _radians_guard(name: str, value: float) -> float:
    if abs(value) > math.pi:
        raise CliError(EXIT_PRECONDITION,
                       f"{name} = {value} exceeds pi; angles are radians only "
                       "(degree input is rejected, not converted)")
    return value


def _load_json(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(EXIT_PARSE, f"{path} must hold a JSON object")
    return cfg


def _plane(obj, what: str) -> Plane:
    """Plane from decoded JSON: a wrongly shaped document is a parse error,
    a frame that is not orthonormal a precondition violation."""
    try:
        return plane_from_json(obj)
    except TypeError as exc:
        raise CliError(EXIT_PARSE, f"{what}: {exc}") from exc
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, f"{what}: {exc}") from exc


def _plane_from_arg(text: str, what: str) -> Plane:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, f"{what}: invalid JSON: {exc}") from exc
    return _plane(obj, what)


def _single_var_data(expr_src: str, var_hint: str, order: int):
    """Parse a phi/psi expression of x; return the evaluator of it and of its
    first ``order`` derivatives (an array of x in, a tuple of arrays out)."""
    if not isinstance(expr_src, str):
        raise CliError(EXIT_PARSE, f"{var_hint} must be an expression string, "
                                   f"got {expr_src!r}")
    try:
        expr = parse_expr(expr_src)
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"{var_hint}: {exc}") from exc
    if "y" in expr.variables():
        raise CliError(EXIT_PRECONDITION,
                       f"{var_hint} must be a function of x only")
    parts = [expr]
    while len(parts) <= order:
        parts.append(parts[-1].diff("x"))
    return lambda x: tuple(e.eval(x) for e in parts)


def _seed_from(seed_cfg) -> tuple[float, float]:
    """(u0, v0) from a seed object or a "u0,v0" string; anything else is
    a parse error."""
    try:
        parts = ((seed_cfg["u0"], seed_cfg["v0"]) if isinstance(seed_cfg, dict)
                 else seed_cfg.split(","))
        u0, v0 = (float(t) for t in parts)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, 'seed must be "auto", "u0,v0" or an object '
                                   f"with numbers u0 and v0: {exc!r}") from exc
    return u0, v0


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_numbers(v, n: int) -> bool:
    """``v`` is a list of exactly ``n`` finite numbers."""
    return isinstance(v, (list, tuple)) and len(v) == n and all(map(_is_number, v))


def _grid_and_gate(patch, grid, gate: float | None) -> tuple[tuple[int, int], float]:
    """Sampling grid (N, M) and residual gate of a ``verify`` or ``example``
    run.  The grid must be two finite numbers (exit 2 otherwise), truncated
    to integers, and the square of each grid step a positive normal float
    (exit 3 otherwise: the second differences divide by it); a gate of None
    takes ``default_gate`` at the coarser spacing of that grid, any other
    gate (0 included) is kept."""
    if not _is_numbers(grid, 2):
        raise CliError(EXIT_PARSE, "config 'grid' must be a list of two numbers")
    N, M = int(grid[0]), int(grid[1])
    steps = [(b - a) / max(n - 1, 1)
             for (a, b), n in ((patch.u_range, N), (patch.v_range, M))]
    if not all(sys.float_info.min <= h * h < math.inf for h in steps):
        raise CliError(EXIT_PRECONDITION,
                       f"domain {[*patch.u_range, *patch.v_range]} is too narrow or too "
                       f"wide for a {N}x{M} grid: each squared grid step must be a "
                       "positive normal float")
    if gate is None:
        gate = default_gate(patch, max(steps))
    return (N, M), float(gate)


def _report_payload(report, gate: float, extra: dict | None = None) -> dict:
    payload = {"gate": gate, "angle_std": report.angle_std(),
               "helix_pass": report.helix_pass(gate),
               "dependencia_skipped": report.dependencia_skipped}
    if extra:
        payload.update(extra)
    payload["report"] = report.to_json_dict()
    return payload


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_angles(args) -> int:
    if args.config:
        cfg = _load_json(args.config)
        try:
            V, W = cfg["V"], cfg["W"]
        except KeyError as exc:
            raise CliError(EXIT_PARSE, f"config is missing plane {exc}")
        V, W = _plane(V, "V"), _plane(W, "W")
    elif args.v and args.w:
        V = _plane_from_arg(args.v, "--v")
        W = _plane_from_arg(args.w, "--w")
    else:
        raise CliError(EXIT_PARSE, "angles needs --config or both --v and --w")
    pa = principal_angles(V, W)
    theta, theta_perp = plane_angles_via_bivectors(V, W)
    _emit({"theta1": pa.theta1, "theta2": pa.theta2,
           "theta": theta, "theta_perp": theta_perp,
           "degenerate": pa.degenerate}, args.out)
    return EXIT_OK


def _surface_from_config(cfg: dict):
    """Build (patch, plane, meta) from a verify-config dictionary."""
    for key in ("surface", "graph"):
        if not isinstance(cfg.get(key, {}), dict):
            raise CliError(EXIT_PARSE, f"config '{key}' must be an object")
    if "surface" in cfg:
        spec = dict(cfg["surface"])
        kind = spec.pop("kind", None)
        if kind is None:
            raise CliError(EXIT_PARSE, "surface config needs a 'kind'")
        try:
            cs = catalog.generate(kind, **spec)
        except (ValueError, TypeError) as exc:
            raise CliError(EXIT_PRECONDITION, f"surface: {exc}") from exc
        plane = cs.plane
        if "plane" in cfg:
            plane = _plane(cfg["plane"], "plane")
        return cs.patch, plane, {"kind": kind,
                                 "expected": [cs.expected.theta1, cs.expected.theta2]}
    if "graph" in cfg:
        g = cfg["graph"]
        try:
            fe = parse_expr(g["f"])
            ge = parse_expr(g["g"])
        except KeyError as exc:
            raise CliError(EXIT_PARSE, f"graph config needs {exc}")
        except ParseError as exc:
            raise CliError(EXIT_PARSE, str(exc))
        dom = g.get("domain", [-1.0, 1.0, -1.0, 1.0])
        if not _is_numbers(dom, 4):
            raise CliError(EXIT_PARSE, "graph 'domain' must be a list of four numbers")
        patch = GraphSurface.from_callables(scalar_jet_from_exprs(fe),
                                            scalar_jet_from_exprs(ge),
                                            (dom[0], dom[1]), (dom[2], dom[3])).patch()
        plane = _plane(cfg["plane"], "plane") if "plane" in cfg else \
            Plane(np.eye(4)[0], np.eye(4)[1])
        return patch, plane, {"kind": "graph", "f": g["f"], "g": g["g"]}
    raise CliError(EXIT_PARSE, "config needs a 'surface' or 'graph' entry")


def _cmd_verify(args) -> int:
    cfg = _load_json(args.config)
    patch, plane, meta = _surface_from_config(cfg)
    if "gate" in cfg and not _is_number(cfg["gate"]):
        raise CliError(EXIT_PARSE, "config 'gate' must be a number")
    grid, gate = _grid_and_gate(patch, cfg.get("grid", [30, 30]),
                                cfg.get("gate", args.gate))
    try:
        report = verify_helix(patch, plane, grid)
    except ImmersionError as exc:
        raise CliError(EXIT_DEGENERATE, str(exc))
    except (ValueError, EvalError) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))
    _emit(_report_payload(report, gate, meta), args.out)
    if args.csv:
        _write_csv(args.csv, ("u", "v", "p1", "p2", "p3", "p4", "theta1", "theta2",
                              "K", "K_perp", "structure_residual", "codazzi_residual"),
                   [*np.meshgrid(report.u, report.v, indexing="ij"),
                    *np.moveaxis(report.points, -1, 0), report.theta1, report.theta2,
                    report.K, report.K_perp, report.structure_residual,
                    report.codazzi_residual])
    return EXIT_OK if report.helix_pass(gate) else EXIT_GATE


def _cmd_example(args) -> int:
    try:
        cs = catalog.named_example(args.name)
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))
    grid, gate = _grid_and_gate(cs.patch, args.grid, args.gate)
    report = verify_helix(cs.patch, cs.plane, grid)
    meta = {"example": args.name,
            "plane": plane_to_json(cs.plane),
            "expected": [cs.expected.theta1, cs.expected.theta2],
            "spec": {k: v for k, v in cs.spec.items()
                     if isinstance(v, (int, float, str, bool))}}
    _emit(_report_payload(report, gate, meta), args.out)
    if args.obj:
        _write_obj(args.obj, report.points, (0, 1, 2))
    return EXIT_OK if report.helix_pass(gate) else EXIT_GATE


def _cmd_deform(args) -> int:
    try:
        if args.m is not None and args.c is not None:
            pa = hc.deform(args.m, args.c)
            _emit({"m": args.m, "c": args.c,
                   "theta1": pa.theta1, "theta2": pa.theta2}, args.out)
        elif args.theta1 is not None and args.theta2 is not None:
            _radians_guard("--theta1", args.theta1)
            _radians_guard("--theta2", args.theta2)
            m, c = hc.deform_inverse((args.theta1, args.theta2))
            _emit({"theta1": args.theta1, "theta2": args.theta2,
                   "m": m, "c": c}, args.out)
        else:
            raise CliError(EXIT_PARSE,
                           "deform needs --m with --c, or --theta1 with --theta2")
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))
    return EXIT_OK


def _write_solution_bundle(prefix: str, graph: GraphSurface,
                           params: hc.HelixParams) -> dict:
    """Binary dump + 8-field sidecar + CSV next to `prefix`, indexed [y, x]."""
    xs, ys = graph.xs, graph.ys
    layers = {k: v.T for k, v in graph.sample(xs, ys).items()}
    stack = np.stack([layers[k] for k in SOLUTION_FIELDS])
    Path(prefix + ".bin").write_bytes(np.ascontiguousarray(stack).tobytes())
    sidecar = {
        "nx": int(xs.size),
        "ny": int(ys.size),
        "x0": float(xs[0]),
        "y0": float(ys[0]),
        "hx": float(xs[1] - xs[0]),
        "hy": float(ys[1] - ys[0]),
        "fields": list(SOLUTION_FIELDS),
        "dtype": "float64",
    }
    Path(prefix + ".meta.json").write_text(dumps_stable(sidecar))

    grads = [layers[k] for k in ("fx", "fy", "gx", "gy")]
    _write_csv(prefix + ".csv", ("x", "y", *SOLUTION_FIELDS, "residual_trace", "residual_det"),
               [*np.meshgrid(xs, ys), *stack,
                *(hc.GRAPH_RESIDUALS[k](*grads, params) for k in ("helix_trace", "helix_det"))])
    return sidecar


def _cmd_construct(args) -> int:
    cfg = _load_json(args.config) if args.config else {}

    if args.theta1 is not None or args.theta2 is not None:
        if args.theta1 is None or args.theta2 is None:
            raise CliError(EXIT_PARSE, "construct needs both --theta1 and --theta2")
        _radians_guard("--theta1", args.theta1)
        _radians_guard("--theta2", args.theta2)
        try:
            params = hc.HelixParams(args.theta1, args.theta2)
            m_scale, c_norm = hc.deform_inverse((args.theta1, args.theta2))
        except ValueError as exc:
            raise CliError(EXIT_PRECONDITION, str(exc))
    elif "c1" in cfg:
        if not _is_number(cfg["c1"]):
            raise CliError(EXIT_PARSE, f"config c1 must be a finite number, got {cfg['c1']!r}")
        c_norm = float(cfg["c1"])
        if c_norm <= 2:
            raise CliError(EXIT_PRECONDITION, "config c1 must exceed 2")
        m_scale = 1.0
        pa = hc.deform(1.0, c_norm)
        params = hc.HelixParams(pa.theta1, pa.theta2)
    else:
        raise CliError(EXIT_PARSE,
                       "construct needs --theta1/--theta2 or a config with c1")

    try:
        x0, x1 = (float(t) for t in cfg.get("x", (args.x0, args.x1)))
        y_max, hx, hy = (float(cfg.get(k, getattr(args, k))) for k in ("ymax", "hx", "hy"))
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, "config x (two numbers), ymax, hx and hy "
                                   f"must be numbers: {exc}") from exc
    branch = cfg.get("branch", args.branch)
    if branch not in (1, -1):
        raise CliError(EXIT_PARSE, f"config branch must be 1 or -1, got {branch!r}")
    branch = int(branch)
    x_range = (x0, x1)
    hc.check_window(x_range, y_max, hx, hy)   # ValueError: exit 3

    custom_data = "phi" in cfg or "psi" in cfg
    seed_cfg = cfg.get("seed", "auto" if args.seed is None else args.seed)
    if seed_cfg != "auto":
        seed = _seed_from(seed_cfg)
    else:
        try:
            if custom_data:
                seed = hc.find_noncharacteristic_seed(c_norm, branch)
            else:
                # pick the best-scoring seed whose quadratic data actually
                # fits the requested window
                seed = hc.choose_feasible_seed(c_norm, x_range, y_max, hx, hy,
                                               args.curvature, branch)
        except ValueError as exc:
            raise CliError(EXIT_DEGENERATE, f"seed scan failed: {exc}") from exc

    if custom_data:
        if not ("phi" in cfg and "psi" in cfg):
            raise CliError(EXIT_PARSE, "config must give both phi and psi")
        phi = _single_var_data(cfg["phi"], "phi", 2)
        psi = _single_var_data(cfg["psi"], "psi", 1)
    else:
        phi, psi = hc.paper_initial_data(seed[0], seed[1], args.curvature)

    try:
        prob = hc.PDEProblem(c_norm, x_range, y_max, hx, hy,
                             seed[0], seed[1], phi, psi, branch=branch)
        prob.validate()
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))

    try:
        sol = hc.recover_g(hc.solve_pde(prob))
        graph = hc.solution_graph(sol, m=m_scale)
    except (hc.SolverHalt, ValueError) as exc:
        raise CliError(EXIT_DEGENERATE, f"solver: {exc}") from exc

    xs, ys = graph.sample_grid()
    # residuals over the centered-difference interior; the outermost nodes
    # carry one-sided derivative closures whose larger constant is a property
    # of the edge stencil, not of the surface
    d = graph.sample(xs, ys)
    inner = [d[k][1:-1, 1:-1] for k in ("fx", "fy", "gx", "gy")]
    residuals = dict(zip(hc.GRAPH_RESIDUALS,
                         hc.residual_maxima(hc.GRAPH_RESIDUALS, inner, params)))
    gate = args.gate
    passed = max(residuals.values()) < gate

    header = {
        "theta1": params.theta1,
        "theta2": params.theta2,
        "c1": params.c1,
        "c2": params.c2,
        "c_normalized": c_norm,
        "m": m_scale,
        "branch": branch,
        "seed": {"u0": seed[0], "v0": seed[1]},
        "hx": hx, "hy": hy,
        "x_window": [float(xs[0]), float(xs[-1])],
        "y_window": [float(ys[0]), float(ys[-1])],
        "termination": {"up": sol.termination_up, "down": sol.termination_down},
        "max_loop_defect": float(np.nanmax(np.abs(sol.loop_defect))),
        "residuals": residuals,
        "gate": gate,
        "passed": passed,
    }

    if args.verify:
        report = verify_helix(graph.patch(), catalog.PI_12, (xs.size, ys.size))
        header["verify"] = report.to_json_dict()

    _emit(header, args.out)
    if args.save:
        _write_solution_bundle(args.save, graph, params)
    return EXIT_OK if passed else EXIT_GATE


def _cmd_export(args) -> int:
    meta_path = Path(args.grid + ".meta.json")
    bin_path = Path(args.grid + ".bin")
    if not meta_path.exists() or not bin_path.exists():
        raise CliError(EXIT_PARSE,
                       f"no saved grid at {args.grid} (.bin/.meta.json missing)")
    meta = _load_json(str(meta_path))
    fields = meta.get("fields")
    if not (SIDECAR_KEYS <= meta.keys() and isinstance(fields, list) and fields
            and all(isinstance(k, str) for k in fields)):
        raise CliError(EXIT_PARSE, f"{meta_path} needs the fields "
                                   f"{', '.join(sorted(SIDECAR_KEYS))}, "
                                   "with 'fields' a list of names")
    if args.format == "obj" and not {"f", "g"} <= set(fields):
        raise CliError(EXIT_PARSE, f"{meta_path}: an OBJ export needs the fields f and g")
    try:
        nx, ny = int(meta["nx"]), int(meta["ny"])
        x0, y0, hx, hy = (float(meta[k]) for k in ("x0", "y0", "hx", "hy"))
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"{meta_path}: nx, ny, x0, y0, hx and hy "
                                   f"must be numbers: {exc}") from exc
    data = np.frombuffer(bin_path.read_bytes(), dtype=np.float64)
    data = data.reshape(len(fields), ny, nx)   # ValueError (size mismatch): exit 3
    xs = x0 + hx * np.arange(nx)
    ys = y0 + hy * np.arange(ny)
    layers = dict(zip(fields, data))

    if args.format == "csv":
        _write_csv(args.out, ("x", "y", *fields),
                   [*np.meshgrid(xs, ys), *(layers[k] for k in fields)])
    elif args.format == "json":
        _emit({"meta": meta, "x": xs, "y": ys, "fields": layers}, args.out)
    elif args.format == "obj":
        names = args.coords.split(",")
        allowed = {"x": 0, "y": 1, "f": 2, "g": 3}
        if len(names) != 3 or len(set(names) & allowed.keys()) != 3:
            raise CliError(EXIT_PARSE, "--coords must be three distinct names "
                                       "of x,y,f,g (comma separated)")
        f, g = layers["f"].T, layers["g"].T
        _write_obj(args.out, stack4(f, xs[:, None], ys, f, g),
                   tuple(allowed[n] for n in names))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="helix4",
        description="constant principal-angle surfaces in R^4: angles, "
                    "verification, PDE construction, deformation, examples")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("angles", help="principal angles between two planes")
    pa.add_argument("--config", help="JSON file with planes V and W")
    pa.add_argument("--v", help="plane V as inline JSON")
    pa.add_argument("--w", help="plane W as inline JSON")
    pa.add_argument("--out")
    pa.set_defaults(func=_cmd_angles)

    pv = sub.add_parser("verify", help="structure report for a configured surface")
    pv.add_argument("--config", required=True)
    pv.add_argument("--gate", type=float)
    pv.add_argument("--csv", help="also write per-point samples as CSV")
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pc = sub.add_parser("construct", help="solve the construction PDE")
    pc.add_argument("--theta1", type=float)
    pc.add_argument("--theta2", type=float)
    pc.add_argument("--config", help="JSON: {c1, x, ymax, hx, hy, seed, phi, psi}")
    pc.add_argument("--x0", type=float, default=-0.05)
    pc.add_argument("--x1", type=float, default=0.05)
    pc.add_argument("--ymax", type=float, default=0.006)
    pc.add_argument("--hx", type=float, default=1e-3)
    pc.add_argument("--hy", type=float, default=1e-3)
    pc.add_argument("--seed", help='"u0,v0" (default: auto scan)')
    pc.add_argument("--curvature", type=float, default=1.0,
                    help="phi''(x)/2 of the default quadratic data")
    pc.add_argument("--branch", type=int, choices=(1, -1), default=1,
                    help="sign of the sqrt branch (-1 gives the mirror surface)")
    pc.add_argument("--gate", type=float, default=1e-3,
                    help="residual gate for self-verification")
    pc.add_argument("--verify", action="store_true",
                    help="attach a full structure report")
    pc.add_argument("--save", help="prefix for .bin/.meta.json/.csv outputs")
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_construct)

    pd = sub.add_parser("deform", help="convert (m, c) <-> (theta1, theta2)")
    pd.add_argument("--m", type=float)
    pd.add_argument("--c", type=float)
    pd.add_argument("--theta1", type=float)
    pd.add_argument("--theta2", type=float)
    pd.add_argument("--out")
    pd.set_defaults(func=_cmd_deform)

    pe = sub.add_parser("example", help="generate and verify a catalog surface")
    pe.add_argument("name", choices=catalog.EXAMPLE_NAMES)
    pe.add_argument("--grid", type=int, nargs=2, default=(30, 30))
    pe.add_argument("--gate", type=float)
    pe.add_argument("--obj", help="write the sampled grid as an OBJ mesh")
    pe.add_argument("--out")
    pe.set_defaults(func=_cmd_example)

    px = sub.add_parser("export", help="convert a saved solution grid")
    px.add_argument("--grid", required=True, help="prefix used with construct --save")
    px.add_argument("--format", choices=("csv", "json", "obj"), required=True)
    px.add_argument("--coords", default="x,y,f",
                    help="OBJ projection coordinates (three of x,y,f,g)")
    px.add_argument("--out", required=True)
    px.set_defaults(func=_cmd_export)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ImmersionError, hc.SolverHalt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
