"""Surface providers evaluated as arrays: every sampled jet must agree with
the derivatives of its own lower-order fields and with the pointwise view,
and array expression evaluation with scalar evaluation."""

import numpy as np
import pytest

from helix4.catalog import EXAMPLE_NAMES, generate, named_example, round_sphere_patch
from helix4.expressions import EvalError, parse_expr, scalar_jet_from_exprs
from helix4.surface_analysis import JET_FIELDS, GraphSurface, _fd_jet, graph_patch

# the graph of the command-line benchmark session
CLI_GRAPH = ("0.3*sin(2*x)*cos(y) + 0.2*x*y^2", "0.25*exp(0.5*x)*y - 0.1*x^3")


def random_poly(seed):
    rng = np.random.default_rng(seed)
    return generate("graph_poly", f_coeffs=rng.normal(scale=0.5, size=(3, 3)),
                    g_coeffs=rng.normal(scale=0.5, size=(3, 3))).patch


def expression_graph():
    f, g = (scalar_jet_from_exprs(parse_expr(src)) for src in CLI_GRAPH)
    return graph_patch(f, g, (-1.0, 1.0), (-1.0, 1.0))


def constant_entry_graph():
    # providers whose constant entries are plain numbers
    return graph_patch(lambda x, y: (x * y + 0.5 * x, y + 0.5, x, 0.0, 1, 0.0),
                       lambda x, y: (x * x - y, 2 * x, -1.0, 2.0, 0, 0), (-1, 1), (-0.5, 1))


PATCHES = {
    **{name: lambda n=name: named_example(n).patch for name in EXAMPLE_NAMES},
    "round-sphere": round_sphere_patch,
    **{f"graph-poly-{s}": lambda s=s: random_poly(s) for s in range(3)},
    "expression-graph": expression_graph,
    "constant-entry-graph": constant_entry_graph,
}

# (field, lower-order field, direction of the central difference)
DERIVATIVES = (("p_u", "p", 0), ("p_v", "p", 1), ("p_uu", "p_u", 0),
               ("p_uv", "p_u", 1), ("p_uv", "p_v", 0), ("p_vv", "p_v", 1))


@pytest.mark.parametrize("make", PATCHES.values(), ids=PATCHES)
def test_jets_are_the_derivatives_of_their_lower_order_fields(make):
    patch = make()
    # five interior base points per direction, each with its +-h neighbours
    steps = [1e-5 * (b - a) for a, b in (patch.u_range, patch.v_range)]
    axes = [(np.linspace(a, b, 7)[1:-1, None] + h * np.array([-1.0, 0.0, 1.0])).ravel()
            for (a, b), h in zip((patch.u_range, patch.v_range), steps)]
    J = patch.sample(*axes)

    def at(field, offset):
        """The field at the base points moved by offset (in steps)."""
        return getattr(J, field).reshape(5, 3, 5, 3, 4)[:, 1 + offset[0], :, 1 + offset[1]]

    for field, lower, axis in DERIVATIVES:
        ahead, behind = [0, 0], [0, 0]
        ahead[axis], behind[axis] = 1, -1
        fd = (at(lower, ahead) - at(lower, behind)) / (2 * steps[axis])
        exact = at(field, (0, 0))
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(fd - exact).max() <= 1e-6 * scale, (field, lower)

    # the pointwise jet is the sample at that node
    for i, j in ((0, 0), (4, 10), (14, 7)):
        node = patch.jet(axes[0][i], axes[1][j])
        for k in ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv"):
            np.testing.assert_array_equal(getattr(node, k), getattr(J, k)[i, j])


def layout_graphs():
    """An analytic and a grid-backed graph of the same fields, nx != ny, each
    as its patch and the 2-jets of f and g on the nodes (value, d/dx, d/dy,
    d2/dx2, d2/dxdy, d2/dy2)."""
    xs, ys = np.linspace(-1.0, 1.0, 7), np.linspace(-0.5, 1.0, 4)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    f_jet = lambda x, y: (x * y + 0.5 * x, y + 0.5, x, 0.0, 1.0, 0.0)  # noqa: E731
    g_jet = lambda x, y: (x * x - y, 2 * x, -1.0, 2.0, 0.0, 0.0)  # noqa: E731
    analytic = {k: [np.broadcast_to(v, X.shape) for v in jet(X, Y)]
                for k, jet in (("f", f_jet), ("g", g_jet))}
    grid = GraphSurface(xs, ys, X * Y + 0.5 * X, X * X - Y)
    h = (xs[1] - xs[0], ys[1] - ys[0])
    nodes = {"f": _fd_jet(grid.f, *h), "g": _fd_jet(grid.g, *h)}
    return xs, ys, X, Y, {"analytic": (graph_patch(f_jet, g_jet, (-1, 1), (-0.5, 1)), analytic),
                          "grid": (grid.patch(), nodes)}


@pytest.mark.parametrize("kind", ["analytic", "grid"])
def test_graph_patch_is_the_scalar_sampler_indexed_x_y(kind):
    xs, ys, X, Y, graphs = layout_graphs()
    patch, d = graphs[kind]
    np.testing.assert_array_equal(d["f"][0], X * Y + 0.5 * X)
    J = patch.sample(xs, ys)
    np.testing.assert_array_equal(J.p[..., 0], X)
    np.testing.assert_array_equal(J.p[..., 1], Y)
    for k, field in enumerate(JET_FIELDS):
        for axis, key in ((2, "f"), (3, "g")):
            assert getattr(J, field)[..., axis].tobytes() == d[key][k].tobytes()


def test_array_eval_matches_scalar_eval():
    X, Y = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(-0.8, 0.8, 7))
    for src in (*CLI_GRAPH, "2", "sqrt(1 + x^2) / (2 + tan(0.5*y))"):
        e = parse_expr(src)
        for d in (e, e.diff("x"), e.diff("y"), e.diff("x").diff("y")):
            values = d.eval(X, Y)
            assert values.shape == X.shape
            scalar = [[d.eval(x, y) for x, y in zip(xr, yr)] for xr, yr in zip(X, Y)]
            np.testing.assert_allclose(values, scalar, rtol=1e-15, atol=0)


@pytest.mark.parametrize("src, x, y", [
    ("1/(x-1)", [0.0, 1.0, 2.0], 0.0),
    ("sqrt(x)", [[1.0, 0.5], [-2.0, -3.0]], 0.0),
    # element 0 fails at the '/', element 1 earlier in the tree, at sqrt
    ("sqrt(x) + 1/y", [1.0, -1.0], [0.0, 1.0]),
    ("sqrt(x) + 1/y", [1.0, -1.0], [1.0, 0.0]),
    ("x^-1 + (y-1)^0.5", [0.0, 1.0], [2.0, 0.0]),
    ("(y-1)^0.5 + x^-1", [1.0, 0.0], [0.0, 2.0]),
    ("exp(x)", [1.0, 800.0], 0.0),
])
def test_array_eval_raises_what_the_first_failing_element_raises(src, x, y):
    e = parse_expr(src)
    with pytest.raises(EvalError) as on_array:
        e.eval(np.array(x), np.array(y))
    for xi, yi in zip(*(a.ravel() for a in np.broadcast_arrays(x, y))):
        try:
            e.eval(float(xi), float(yi))
        except EvalError as exc:
            first = exc
            break
    assert (str(on_array.value), on_array.value.span) == (str(first), first.span)
