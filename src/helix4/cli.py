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
import functools
import json
import math
import re
import reprlib
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import catalog, helix_construct as hc
from .expressions import EvalError, ParseError, parse_expr, scalar_jet_from_exprs
from .grassmann import Plane, plane_angles_via_bivectors, principal_angles
from .surface_analysis import (GraphSurface, ImmersionError, default_gate, graph_patch,
                               verify_helix)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DEGENERATE = 4
EXIT_GATE = 5

SOLUTION_FIELDS = ("f", "g", "fx", "fy", "gx", "gy")


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
            if (isinstance(o, np.ndarray) and o.ndim in (1, 2) and o.size
                    and o.dtype.kind == "f" and np.isfinite(o).all()):
                return _array_text(o)
            items = [render(v, depth + 1) for v in o]
            return "[" + ", ".join(items) + "]"
        if isinstance(o, dict):
            items = [f"{spi}{json.dumps(str(k))}: {render(v, depth + 1)}"
                     for k, v in o.items()]
            return "{\n" + ",\n".join(items) + "\n" + sp + "}"
        raise TypeError(f"cannot serialize {type(o)}")

    return render(obj, 0) + "\n"


def _array_text(a) -> str:
    """The JSON of a non-empty 1-D or 2-D array of finite floats, through
    ``numtext.texts`` in blocks of at most 8 ``ROW_BLOCK`` values: each value is
    followed by ", ", the last of a row by "], [", which the ends trim."""
    from . import numtext
    flat, cols, body = a.reshape(-1), a.shape[-1], []
    for start in range(0, flat.size, 8 * ROW_BLOCK):
        cell = numtext.texts("%.17g", flat[start:start + 8 * ROW_BLOCK])
        last = np.zeros((len(cell), 1), bool)
        last[(cols - 1 - start) % cols::cols] = True
        sep = np.where(last, np.frombuffer(b"], [", np.uint8), np.frombuffer(b", \0\0", np.uint8))
        body.append(numtext.joined([], [cell, sep]))
    return "[" * a.ndim + "".join(body)[:-3] + "]" * (a.ndim - 1)


def _open(path, mode: str = "w"):
    """``open(path, mode)``; a file that cannot be opened is a parse error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot {'read' if 'r' in mode else 'write'} "
                                   f"{path}: {exc}") from exc


def _emit(obj, out: str | None) -> None:
    text = dumps_stable(obj)
    if out:
        with _open(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# CSV and OBJ text
# ---------------------------------------------------------------------------

# the writers hold at most 8 * ROW_BLOCK value texts (48 bytes each) at a time,
# and numtext.joined drops their zero bytes in one bytes.translate pass over a
# copy, so the block, not the grid, bounds the working memory.  They import
# numtext where they first run, so that importing the command line does not compile it.
ROW_BLOCK = 1024


def _write_rows(fh, line: str, cells) -> None:
    """Write ``line`` once per node of an (N, M) grid, in C order, with its
    k-th ``%`` conversion ("%.17g" or "%d") filled from ``cells[k]``: an
    (N, M) array, or a grid axis ``(axis, values)`` giving each node the
    value at its index along ``axis``.  At least one cell is an array, and
    the arrays share one conversion.  Each axis value is formatted once.  The
    nodes go in blocks of at most 8 ``ROW_BLOCK`` cells (at least one node),
    each block's array values in one ``numtext.texts`` call, whose text is
    ``conv % v`` byte for byte."""
    from . import numtext
    parts = re.split(r"(%[.\d]*[a-z])", line)   # text, conversion, text, ..., text
    literals, convs = parts[0::2], parts[1::2]
    grids = [k for k, c in enumerate(cells) if not isinstance(c, tuple)]
    (conv,) = {convs[k] for k in grids}
    N, M = cells[grids[0]].shape
    axes = {k: (c[0], numtext.texts(convs[k], c[1]))
            for k, c in enumerate(cells) if isinstance(c, tuple)}
    nodes = max(1, 8 * ROW_BLOCK // len(cells))
    for start in range(0, N * M, nodes):
        stop = min(start + nodes, N * M)
        rows = slice(start // M, (stop - 1) // M + 1)
        offset = start - rows.start * M
        block = [cells[k][rows].reshape(-1)[offset:offset + stop - start] for k in grids]
        chars = numtext.texts(conv, np.concatenate(block)).reshape(len(grids), stop - start, -1)
        pieces = dict(zip(grids, chars))
        i = np.arange(start, stop)
        row = i // M
        node = (row, i - row * M)
        pieces.update({k: axis_chars[node[axis]] for k, (axis, axis_chars) in axes.items()})
        fh.write(numtext.joined(literals, [pieces[k] for k in range(len(cells))]))


def _write_csv(path: str, names, cells) -> None:
    """CSV with the header ``names`` and one row per node of the grid of the
    ``_write_rows`` cells ``cells``, in C order, floats at 17 significant digits."""
    with _open(path) as fh:
        fh.write(",".join(names) + "\n")
        _write_rows(fh, ",".join(["%.17g"] * len(names)) + "\n", cells)


def _write_obj(path: str, points, coords: tuple[int, int, int]) -> None:
    """OBJ mesh of the 4-vectors given by the ``_write_rows`` cells ``points``
    (the last two (N, M) arrays), projected to ``coords``: a comment naming the
    dropped coordinate, the vertices in C order, then 1-based faces, two
    triangles (a, b, d), (a, d, c) per cell with corners a = [i, j],
    b = [i, j+1], c = [i+1, j], d = [i+1, j+1]."""
    N, M = points[2].shape
    dropped = ({0, 1, 2, 3} - set(coords)).pop()
    node = np.arange(1, N * M + 1).reshape(N, M)
    a, b, c, d = node[:-1, :-1], node[:-1, 1:], node[1:, :-1], node[1:, 1:]
    with _open(path) as fh:
        fh.write(f"# projection to coordinates {coords}; dropped coordinate: "
                 f"{'xyzw'[dropped]} (index {dropped})\n")
        _write_rows(fh, "v %.17g %.17g %.17g\n", [points[k] for k in coords])
        _write_rows(fh, "f %d %d %d\nf %d %d %d\n", [a, b, d, a, d, c])


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Kind(NamedTuple):
    """A kind of decoded JSON value: its name, its membership test and how a
    member is read (numbers as floats, so no Python int reaches numpy)."""
    what: str
    test: Callable[[object], bool]
    read: Callable[[object], object] = lambda v: v


# booleans are never numbers; a JSON integer beyond float range is not finite
NUMBER = _Kind("a finite number",
               lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, float)
STRING = _Kind("a string", lambda v: isinstance(v, str))
BOOLEAN = _Kind("true or false", lambda v: isinstance(v, bool))
OBJECT = _Kind("an object", lambda v: isinstance(v, dict))
NAMES = _Kind("a non-empty list of strings",
              lambda v: isinstance(v, list) and v != [] and all(isinstance(k, str) for k in v))
COUNT = _Kind("an integer >= 1", lambda v: type(v) is int and v >= 1)
BRANCH = _Kind("1 or -1", lambda v: not isinstance(v, bool) and v in (1, -1))
SEED = _Kind('"auto", a "u0,v0" string or an object with numbers u0 and v0',
             lambda v: isinstance(v, (str, dict)))


def _numbers(n: int) -> _Kind:
    return _Kind(f"a list of {n} finite numbers",
                 lambda v: isinstance(v, list) and len(v) == n and all(map(NUMBER.test, v)),
                 lambda v: [float(x) for x in v])


def _is_matrix(v) -> bool:
    return (isinstance(v, list) and v != [] and isinstance(v[0], list) and v[0] != []
            and all(map(_numbers(len(v[0])).test, v)))


# the reader of each JSON kind of ``catalog.PARAMS``
CATALOG_KINDS = {
    "number": NUMBER,
    "range": _numbers(2),
    "vector": _numbers(4),
    "string": STRING,
    "coefficients": _Kind("a non-empty list of equally long non-empty lists of finite numbers",
                          _is_matrix, lambda v: [[float(x) for x in row] for row in v]),
}

_REQUIRED = object()


def _field(cfg: dict, key: str, kind: _Kind, default=_REQUIRED, *, where: str = "config"):
    """The value of ``key`` in the decoded JSON object ``cfg``, of the kind
    ``kind``, or ``default`` (taken as it is) when the key is absent.  A
    nested key is named through its parent (``"seed.u0"``) and looked up by
    its last part in ``cfg``, the parent object.  A required key that is
    absent or a value of another kind (echoed as ``reprlib.repr`` shortens
    it) is a parse error naming the key in ``where``; a value of the kind is
    returned as ``kind.read`` gives it (a number as a float), never coerced."""
    name = key.rpartition(".")[2]
    if name not in cfg:
        if default is _REQUIRED:
            raise CliError(EXIT_PARSE, f"{where} is missing {key}")
        return default
    value = cfg[name]
    if not kind.test(value):
        raise CliError(EXIT_PARSE, f"{where} {key} must be {kind.what}, got {reprlib.repr(value)}")
    return kind.read(value)


def _seed_pair(text: str) -> tuple[float, float]:
    """(u0, v0) from the text form "u0,v0" of a seed: two JSON numbers."""
    try:
        pair = json.loads(f"[{text}]")
    except json.JSONDecodeError:
        pair = None
    if not _numbers(2).test(pair):
        raise CliError(EXIT_PARSE, f"seed must be {SEED.what}, got {text!r}")
    return float(pair[0]), float(pair[1])


def _finite_flag(flag: str, value: float | None) -> float | None:
    """An optional float option; nan and inf are precondition violations."""
    if value is not None and not math.isfinite(value):
        raise CliError(EXIT_PRECONDITION, f"{flag} must be finite, got {value}")
    return value


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


def _plane(doc: dict, key: str, where: str = "config") -> Plane:
    """The plane ``doc[key]``, read by ``_field``: an object with the frame
    vectors ``b1`` and ``b2`` and the flag ``oriented`` (default true).  A
    frame that is not orthonormal is a precondition violation."""
    obj = _field(doc, key, OBJECT, where=where)
    b1, b2 = (_field(obj, f"{key}.{k}", CATALOG_KINDS["vector"], where=where)
              for k in ("b1", "b2"))
    try:
        return Plane(b1, b2, _field(obj, f"{key}.oriented", BOOLEAN, True, where=where))
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, f"{key}: {exc}") from exc


def _plane_from_arg(text: str, what: str) -> Plane:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, f"{what}: invalid JSON: {exc}") from exc
    return _plane({what: obj}, what, "command line")


def _single_var_data(expr_src: str, var_hint: str, order: int):
    """Parse a phi/psi expression of x; return the evaluator of it and of its
    first ``order`` derivatives (an array of x in, a tuple of arrays out)."""
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


def _grid_and_gate(patch, grid, gate: float | None) -> tuple[tuple[int, int], float]:
    """Sampling grid (N, M) and residual gate of a ``verify`` or ``example``
    run.  The grid is two finite numbers, truncated to integers of at most
    sys.maxsize; the square of each grid step must be a positive normal
    float (exit 3 otherwise: the second differences divide by it).  A gate
    of None takes ``default_gate`` at the coarser spacing of that grid, any
    other gate (0 included) is kept."""
    N, M = map(math.trunc, grid)
    if max(N, M) > sys.maxsize:   # numpy counts nodes in signed 64-bit integers
        raise CliError(EXIT_PRECONDITION, f"a {N}x{M} grid has more nodes than numpy can count")
    steps = [(b - a) / max(n - 1, 1)
             for (a, b), n in ((patch.u_range, N), (patch.v_range, M))]
    if not all(sys.float_info.min <= h * h < math.inf for h in steps):
        raise CliError(EXIT_PRECONDITION,
                       f"domain {[*patch.u_range, *patch.v_range]} is too narrow or too "
                       f"wide for a {N}x{M} grid: each squared grid step must be a "
                       "positive normal float")
    if gate is None:
        gate = default_gate(patch, max(steps))
    return (N, M), gate


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
        for k in ("V", "W"):   # both planes are objects before either is read
            _field(cfg, k, OBJECT)
        V, W = _plane(cfg, "V"), _plane(cfg, "W")
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
    surface, graph, plane = (_field(cfg, k, OBJECT, None)
                             for k in ("surface", "graph", "plane"))
    if surface is not None:
        kind = _field(surface, "surface.kind", STRING)
        params = catalog.PARAMS.get(kind, {})   # an unknown kind: exit 3 below
        for key in surface:
            if params and key not in ("kind", *params):
                raise CliError(EXIT_PARSE, f"config surface.{key} is not a parameter of "
                                           f"{kind} (it takes {', '.join(params)})")
        values = {key: _field(surface, f"surface.{key}", CATALOG_KINDS[json_kind])
                  for key, (json_kind, default) in params.items()
                  if key in surface or default is catalog.REQUIRED}
        try:
            with np.errstate(over="raise", invalid="raise"):   # FloatingPointError: exit 4
                cs = catalog.generate(kind, **values)
        except (ValueError, TypeError) as exc:
            raise CliError(EXIT_PRECONDITION, f"surface: {exc}") from exc
        patch, default_plane = cs.patch, cs.plane
        meta = {"kind": kind, "expected": [cs.expected.theta1, cs.expected.theta2]}
    elif graph is not None:
        f, g = (_field(graph, f"graph.{k}", STRING) for k in ("f", "g"))
        dom = _field(graph, "graph.domain", _numbers(4), [-1.0, 1.0, -1.0, 1.0])
        patch = graph_patch(scalar_jet_from_exprs(parse_expr(f)),
                            scalar_jet_from_exprs(parse_expr(g)),
                            (dom[0], dom[1]), (dom[2], dom[3]))
        default_plane = catalog.PI_12
        meta = {"kind": "graph", "f": f, "g": g}
    else:
        raise CliError(EXIT_PARSE, "config needs a 'surface' or 'graph' entry")
    return patch, default_plane if plane is None else _plane(cfg, "plane"), meta


def _cmd_verify(args) -> int:
    cfg = _load_json(args.config)
    patch, plane, meta = _surface_from_config(cfg)
    grid, gate = _grid_and_gate(patch, _field(cfg, "grid", _numbers(2), [30, 30]),
                                _field(cfg, "gate", NUMBER, _finite_flag("--gate", args.gate)))
    try:
        report = verify_helix(patch, plane, grid)
    except EvalError as exc:   # 3 in verify; main() gives it 2 (construct)
        raise CliError(EXIT_PRECONDITION, str(exc))
    _emit(_report_payload(report, gate, meta), args.out)
    if args.csv:
        _write_csv(args.csv, ("u", "v", "p1", "p2", "p3", "p4", "theta1", "theta2",
                              "K", "K_perp", "structure_residual", "codazzi_residual"),
                   [(0, report.u), (1, report.v), *np.moveaxis(report.points, -1, 0),
                    report.theta1, report.theta2, report.K, report.K_perp,
                    report.structure_residual, report.codazzi_residual])
    return EXIT_OK if report.helix_pass(gate) else EXIT_GATE


def _cmd_example(args) -> int:
    cs = catalog.named_example(args.name)
    grid, gate = _grid_and_gate(cs.patch, args.grid, _finite_flag("--gate", args.gate))
    report = verify_helix(cs.patch, cs.plane, grid)
    meta = {"example": args.name,
            "plane": {"b1": list(cs.plane.b1), "b2": list(cs.plane.b2),
                      "oriented": cs.plane.oriented},
            "expected": [cs.expected.theta1, cs.expected.theta2],
            "spec": {k: v for k, v in cs.spec.items()
                     if isinstance(v, (int, float, str, bool))}}
    _emit(_report_payload(report, gate, meta), args.out)
    if args.obj:
        _write_obj(args.obj, np.moveaxis(report.points, -1, 0), (0, 1, 2))
    return EXIT_OK if report.helix_pass(gate) else EXIT_GATE


def _cmd_deform(args) -> int:
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
        raise CliError(EXIT_PARSE, "deform needs --m with --c, or --theta1 with --theta2")
    return EXIT_OK


def _grid_axes(sidecar: dict) -> tuple[np.ndarray, np.ndarray]:
    """The x and y nodes of a saved bundle, x0 + hx k and y0 + hy k, from its sidecar."""
    return tuple(sidecar[start] + sidecar[step] * np.arange(sidecar[n], dtype=float)
                 for start, step, n in (("x0", "hx", "nx"), ("y0", "hy", "ny")))


def _write_solution_bundle(prefix: str, graph: GraphSurface, grads,
                           params: hc.HelixParams) -> None:
    """Binary dump + CSV + 8-field sidecar next to `prefix`, indexed [y, x];
    ``grads`` are the graph's (f_x, f_y, g_x, g_y).  The sidecar, which
    ``export`` looks for, is removed first and written last, so a bundle
    whose writing fails is never read."""
    xs, ys = graph.xs, graph.ys
    meta_path = Path(prefix + ".meta.json")
    try:
        meta_path.unlink(missing_ok=True)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot write {meta_path}: {exc}") from exc
    stack = np.stack([a.T for a in (graph.f, graph.g, *grads)])   # SOLUTION_FIELDS
    with _open(prefix + ".bin", "wb") as fh:
        fh.write(np.ascontiguousarray(stack).tobytes())
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
    x_axis, y_axis = _grid_axes(sidecar)
    _write_csv(prefix + ".csv", ("x", "y", *SOLUTION_FIELDS, "residual_trace", "residual_det"),
               [(1, x_axis), (0, y_axis), *stack,
                *(hc.GRAPH_RESIDUALS[k](*stack[2:], params) for k in ("helix_trace", "helix_det"))])
    with _open(meta_path) as fh:
        fh.write(dumps_stable(sidecar))


def _cmd_construct(args) -> int:
    cfg = _load_json(args.config) if args.config else {}

    if args.theta1 is not None or args.theta2 is not None:
        if args.theta1 is None or args.theta2 is None:
            raise CliError(EXIT_PARSE, "construct needs both --theta1 and --theta2")
        _radians_guard("--theta1", args.theta1)
        _radians_guard("--theta2", args.theta2)
        params = hc.HelixParams(args.theta1, args.theta2)   # ValueError: exit 3
        m_scale, c_norm = hc.deform_inverse((args.theta1, args.theta2))
    elif "c1" in cfg:
        c_norm = _field(cfg, "c1", NUMBER)
        if c_norm <= 2:
            raise CliError(EXIT_PRECONDITION, "config c1 must exceed 2")
        m_scale = 1.0
        pa = hc.deform(1.0, c_norm)
        params = hc.HelixParams(pa.theta1, pa.theta2)
    else:
        raise CliError(EXIT_PARSE,
                       "construct needs --theta1/--theta2 or a config with c1")

    x_range = tuple(_field(cfg, "x", _numbers(2), (args.x0, args.x1)))
    y_max, hx, hy = (_field(cfg, k, NUMBER, getattr(args, k)) for k in ("ymax", "hx", "hy"))
    branch = _field(cfg, "branch", BRANCH, args.branch)
    seed = _field(cfg, "seed", SEED, "auto" if args.seed is None else args.seed)
    if isinstance(seed, dict):
        seed = tuple(_field(seed, f"seed.{k}", NUMBER) for k in ("u0", "v0"))
    elif seed != "auto":
        seed = _seed_pair(seed)
    custom_data = "phi" in cfg or "psi" in cfg
    if custom_data:
        phi = _single_var_data(_field(cfg, "phi", STRING), "phi", 2)
        psi = _single_var_data(_field(cfg, "psi", STRING), "psi", 0)
    _finite_flag("--curvature", args.curvature)
    gate = _finite_flag("--gate", args.gate)
    hc.check_window(x_range, y_max, hx, hy)   # ValueError: exit 3
    if not custom_data:
        hc.check_curvature(args.curvature)     # ValueError: exit 3

    try:
        if not custom_data:
            prob = hc.default_problem(c_norm, x_range, y_max, hx, hy,
                                      None if seed == "auto" else seed, args.curvature, branch)
        elif seed == "auto":   # data that do not depend on the seed: no walk
            seed = hc.find_noncharacteristic_seed(c_norm, branch)
    except ValueError as exc:
        if seed != "auto":
            raise                                 # a given seed's problem: exit 3
        raise CliError(EXIT_DEGENERATE, f"seed scan failed: {exc}") from exc
    if custom_data:
        prob = hc.PDEProblem(c_norm, x_range, y_max, hx, hy,
                             seed[0], seed[1], phi, psi, branch=branch)   # ValueError: exit 3
    try:
        sol = hc.recover_g(hc.solve_pde(prob))
        graph = hc.solution_graph(sol, m=m_scale)
    except (hc.SolverHalt, ValueError) as exc:
        raise CliError(EXIT_DEGENERATE, f"solver: {exc}") from exc

    xs, ys = graph.xs, graph.ys
    # residuals over the centered-difference interior; the outermost nodes
    # carry one-sided derivative closures whose larger constant is a property
    # of the edge stencil, not of the surface
    grads = graph.gradients()
    inner = [a[1:-1, 1:-1] for a in grads]
    residuals = dict(zip(hc.GRAPH_RESIDUALS,
                         hc.residual_maxima(hc.GRAPH_RESIDUALS, inner, params)))
    passed = max(residuals.values()) < gate

    header = {
        "theta1": params.theta1,
        "theta2": params.theta2,
        "c1": params.c1,
        "c2": params.c2,
        "c_normalized": c_norm,
        "m": m_scale,
        "branch": branch,
        "seed": {"u0": prob.u0, "v0": prob.v0},
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
        _write_solution_bundle(args.save, graph, grads, params)
    return EXIT_OK if passed else EXIT_GATE


def _cmd_export(args) -> int:
    meta_path = Path(args.grid + ".meta.json")
    bin_path = Path(args.grid + ".bin")
    if not meta_path.exists() or not bin_path.exists():
        raise CliError(EXIT_PARSE,
                       f"no saved grid at {args.grid} (.bin/.meta.json missing)")
    meta = _load_json(str(meta_path))
    where = str(meta_path)
    fields = _field(meta, "fields", NAMES, where=where)
    nx, ny = (_field(meta, k, COUNT, where=where) for k in ("nx", "ny"))
    for k in ("x0", "y0", "hx", "hy"):
        _field(meta, k, NUMBER, where=where)
    if args.format == "obj" and not {"f", "g"} <= set(fields):
        raise CliError(EXIT_PARSE, f"{meta_path}: an OBJ export needs the fields f and g")
    with _open(bin_path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype=np.float64)
    data = data.reshape(len(fields), ny, nx)   # ValueError (size mismatch): exit 3
    xs, ys = _grid_axes(meta)
    layers = dict(zip(fields, data))

    if args.format == "csv":
        _write_csv(args.out, ("x", "y", *fields),
                   [(1, xs), (0, ys), *(layers[k] for k in fields)])
    elif args.format == "json":
        _emit({"meta": meta, "x": xs, "y": ys, "fields": layers}, args.out)
    elif args.format == "obj":
        names = args.coords.split(",")
        allowed = {"x": 0, "y": 1, "f": 2, "g": 3}
        if len(names) != 3 or len(set(names) & allowed.keys()) != 3:
            raise CliError(EXIT_PARSE, "--coords must be three distinct names "
                                       "of x,y,f,g (comma separated)")
        _write_obj(args.out, [(0, xs), (1, ys), layers["f"].T, layers["g"].T],
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls in one process: parsing
    never changes it, since every call gets a fresh Namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:   # its text names no input, and where it trips varies
        print("error: input is nested too deeply (an expression or a JSON value)",
              file=sys.stderr)
        return EXIT_PARSE
    except (ImmersionError, hc.SolverHalt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FloatingPointError as exc:   # a surface whose arithmetic leaves float64
        print(f"error: float64 arithmetic failed: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:       # an input whose arrays do not fit in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
