"""Graph-condition, PDE-solver, and deformation tests."""

import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from helix4 import helix_construct as hc
from helix4 import surface_analysis
from helix4.catalog import named_example
from helix4.grassmann import Plane
from helix4.helix_construct import (GRAPH_RESIDUALS, HelixParams, PDEProblem,
                                    SolutionGrid, annulus_bounds, default_problem,
                                    deform, deform_inverse, find_noncharacteristic_seed,
                                    paper_initial_data, recover_g, residual_maxima,
                                    solution_graph, solve_pde, symplecto_check)
from helix4.surface_analysis import (CompositionVerdict, GraphSurface, SurfaceJet,
                                     SurfacePatch, _fd_jet, composition_test, fd_d1,
                                     first_normal_rank, fundamental_forms, graph_patch,
                                     snap_to_nodes, verify_helix)

PI = Plane(np.eye(4)[0], np.eye(4)[1])
C_THIRD = 10.0 / 3.0


def patch_from_grid(us, vs, points):
    """Patch backed by position samples (len(us), len(vs), 4) on a grid: jets
    from finite differences of the samples, queries snapped to the nodes."""
    arrays = SurfaceJet(*_fd_jet(points, us[1] - us[0], vs[1] - vs[0]))

    def sample(qu, qv):
        i, j = snap_to_nodes(us, vs, qu, qv)
        return arrays[i][:, j]

    return SurfacePatch((us[0], us[-1]), (vs[0], vs[-1]), sample, jet_source="grid")


def oracle_fx(sol):
    """d f / d x row by row on each row's valid run (NaN elsewhere and on
    rows with fewer than 3 valid nodes)."""
    out = np.full_like(sol.f, np.nan)
    for j in range(sol.y.size):
        idx = np.flatnonzero(sol.valid[j])
        if idx.size >= 3:
            out[j, idx[0]:idx[-1] + 1] = fd_d1(sol.f[j, idx[0]:idx[-1] + 1], sol.hx)
    return out


def grid_graph(f, g, n: int = 5, m: int = 7) -> GraphSurface:
    """The graph of the values f(X, Y), g(X, Y) on n x m nodes of [-1, 1]^2."""
    X, Y = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, m), indexing="ij")
    return GraphSurface(X[:, 0], Y[0], f(X, Y), g(X, Y))


def linear_graph(a: float, b: float) -> GraphSurface:
    """f = a x, g = b y; finite differences are exact on linear values up to
    rounding."""
    return grid_graph(lambda x, y: a * x, lambda x, y: b * y)


def analytic_jets(f_jet, g_jet, n: int = 5, m: int = 7) -> SurfaceJet:
    """The jets of the graph of two 2-jet providers on n x m nodes of [-1, 1]^2."""
    patch = graph_patch(f_jet, g_jet, (-1, 1), (-1, 1))
    return patch.sample(np.linspace(-1, 1, n), np.linspace(-1, 1, m))


def linear_jets(a: float, b: float) -> SurfaceJet:
    return analytic_jets(lambda x, y: (a * x, a, 0.0, 0.0, 0.0, 0.0),
                         lambda x, y: (b * y, 0.0, b, 0.0, 0.0, 0.0))


def gradients(J: SurfaceJet) -> list[np.ndarray]:
    """(f_x, f_y, g_x, g_y) of the jets of a graph (x, y, f, g)."""
    return [J.p_u[..., 2], J.p_v[..., 2], J.p_u[..., 3], J.p_v[..., 3]]


def helix_residuals(grads, P: HelixParams) -> list[np.ndarray]:
    """The (trace, determinant) defects of the graph metric from the
    gradient arrays, by the residual table."""
    return [GRAPH_RESIDUALS[k](*grads, P) for k in ("helix_trace", "helix_det")]


def node_gradients(G: GraphSurface) -> list[np.ndarray]:
    return list(G.gradients())


def hess_det_f(J: SurfaceJet) -> np.ndarray:
    """det Hess f on the jets of a graph (x, y, f, g)."""
    return J.p_uu[..., 2] * J.p_vv[..., 2] - J.p_uv[..., 2] * J.p_uv[..., 2]


def n1_rank(J: SurfaceJet) -> np.ndarray:
    return first_normal_rank(fundamental_forms(J))


# ---------------------------------------------------------------------------
# parameters and pointwise conditions
# ---------------------------------------------------------------------------

def test_helix_params_constants():
    P = HelixParams(math.pi / 6, math.pi / 3)
    assert P.c1 == pytest.approx(C_THIRD, abs=1e-12)
    assert P.c2 == pytest.approx(1.0, abs=1e-12)
    assert P.c1 / P.c2 == pytest.approx(C_THIRD, abs=1e-12)
    assert P.sec2_sum == pytest.approx(4.0 / 3.0 + 4.0)
    assert P.sec2_prod == pytest.approx(16.0 / 3.0)


def test_helix_params_inequality_and_equality_case():
    # c1 >= 2 c2, equality exactly when the angles coincide
    rng = np.random.default_rng(3)
    for _ in range(100):
        t1, t2 = np.sort(rng.uniform(0.05, 1.5, size=2))
        P = HelixParams(t1, t2)
        assert P.c1 >= 2 * P.c2 - 1e-12
    Pe = HelixParams(0.7, 0.7)
    assert Pe.c1 == pytest.approx(2 * Pe.c2)
    assert Pe.c1 / Pe.c2 == pytest.approx(2.0)
    with pytest.raises(ValueError):
        HelixParams(1.0, 0.5)
    with pytest.raises(ValueError):
        HelixParams(0.5, math.pi / 2)


def test_flat_graph_zero_residual():
    P = HelixParams(0.0, 0.0)
    for grads in (node_gradients(linear_graph(0.0, 0.0)), gradients(linear_jets(0.0, 0.0))):
        for r in helix_residuals(grads, P):
            assert np.all(r == 0.0)


def test_linear_graph_residuals_read_off():
    # f = a x, g = b y: E = 1 + a^2, G = 1 + b^2, F = 0
    a, b = 0.6, 1.1
    P = HelixParams(math.atan(a), math.atan(b))
    for grads in (node_gradients(linear_graph(a, b)), gradients(linear_jets(a, b))):
        rt, rd = helix_residuals(grads, P)
        assert rt == pytest.approx(0.0, abs=1e-12)
        assert rd == pytest.approx(0.0, abs=1e-12)
        # and against other angles the residual is the closed-form gap
        rt2, _ = helix_residuals(grads, HelixParams(0.0, 0.0))
        assert rt2 == pytest.approx(a * a + b * b)


def test_equal_angle_linear_solutions_are_geodesic_branch():
    # c1 = 2 c2: the scaled identity satisfies both constraints with zero
    # residual and vanishing second derivatives
    t = math.pi / 4
    G = linear_graph(math.tan(t), math.tan(t))
    J = linear_jets(math.tan(t), math.tan(t))
    P = HelixParams(t, t)
    assert P.c1 / P.c2 == pytest.approx(2.0)
    for grads in (node_gradients(G), gradients(J)):
        for r in helix_residuals(grads, P):
            assert r == pytest.approx(0.0, abs=1e-12)
    assert symplecto_check(G, P) == pytest.approx((0.0, 0.0))
    assert np.all(n1_rank(G.patch().sample(G.xs, G.ys)) == 0)
    assert np.all(n1_rank(J) == 0)
    assert np.all(hess_det_f(J) == 0.0)


def test_symplecto_check_linear_cases():
    c2 = 0.8
    s = math.sqrt(c2)
    G = linear_graph(s, s)
    t = math.atan(s)
    P = HelixParams(t, t)
    dev_j, dev_n = symplecto_check(G, P)
    assert dev_j == pytest.approx(0.0, abs=1e-12)
    assert dev_n == pytest.approx(abs(2 * c2 - P.c1), abs=1e-12)

    # rotation-like map with unit determinant
    th = 0.4
    R = grid_graph(lambda x, y: math.cos(th) * x - math.sin(th) * y,
                   lambda x, y: math.sin(th) * x + math.cos(th) * y, 4, 4)
    P2 = HelixParams(math.pi / 6, math.pi / 3)  # c2 = 1
    dev_j, _ = symplecto_check(R, P2)
    assert dev_j == pytest.approx(abs(1 - P2.c2), abs=1e-12)


def test_symplecto_check_needs_a_positive_c2():
    P = HelixParams(0.0, 0.5)   # c2 = tan(theta1) tan(theta2) = 0
    with pytest.raises(ValueError, match="needs c2 > 0"):
        symplecto_check(linear_graph(0.5, 0.5), P)


# ---------------------------------------------------------------------------
# seeds and problem validation
# ---------------------------------------------------------------------------

def band_margins(u, v, c, branch=1):
    """The seed scan's score: the smallest margin of Delta = u^2 + v^2 and of
    D = |F_x|^2 = u^2 + g_x^2 to the edges of the band, the annulus less
    0.1% of its width at each end."""
    dmin, dmax = annulus_bounds(c)
    lo, hi = dmin + 1e-3 * (dmax - dmin), dmax - 1e-3 * (dmax - dmin)
    delta = u * u + v * v
    gx = (-v + branch * np.sqrt(c * delta - 1.0 - delta * delta) * u) / delta
    D = u * u + gx * gx
    return np.minimum.reduce([delta - lo, hi - delta, D - lo, hi - D])


def test_annulus_bounds_and_seed():
    dmin, dmax = annulus_bounds(C_THIRD)
    assert dmin == pytest.approx(1.0 / 3.0)
    assert dmax == pytest.approx(3.0)
    u0, v0 = find_noncharacteristic_seed(C_THIRD)
    d0 = u0 * u0 + v0 * v0
    assert dmin < d0 < dmax
    # its Delta and D = |F_x|^2 lie deep inside the band
    assert min(band_margins(np.array([u0]), np.array([v0]), C_THIRD)) > 1.0


def test_seed_is_deterministic():
    assert find_noncharacteristic_seed(C_THIRD) == find_noncharacteristic_seed(C_THIRD)


def test_degenerate_annulus_rejected():
    with pytest.raises(ValueError, match="annulus|margin"):
        find_noncharacteristic_seed(2.0 + 1e-12)
    with pytest.raises(ValueError):
        annulus_bounds(2.0)


def test_problem_validation():
    with pytest.raises(ValueError, match="annulus"):
        phi, psi = paper_initial_data(0.1, 0.1)
        PDEProblem(C_THIRD, (-0.05, 0.05), 0.004, 1e-3, 1e-3, 0.1, 0.1, phi, psi)
    # phi'' == 0 fails the non-characteristic requirement
    u0, v0 = find_noncharacteristic_seed(C_THIRD)
    phi, psi = paper_initial_data(u0, v0, curvature=0.0)
    with pytest.raises(ValueError, match="phi''"):
        PDEProblem(C_THIRD, (-0.05, 0.05), 0.004, 1e-3, 1e-3, u0, v0, phi, psi)
    with pytest.raises(ValueError, match="divide"):
        default_problem(C_THIRD, y_max=0.0055, hx=1e-3, hy=1e-3)
    # D = |F_x|^2 leaves the band: near-characteristic data
    with pytest.raises(ValueError, match="^near-characteristic data: "):
        default_problem(C_THIRD, (0.2, 0.3), 0.006, 1e-3, 1e-3,
                        seed=(-0.18104267892575457, 1.2881855960876407))


def test_default_problem_walks_to_the_first_seed_whose_data_fits():
    # the seed construct prints for (0.7, 0.9) on this window; the quadratic
    # data of the three best-scoring seeds leave the annulus there
    m, c = deform_inverse((0.7, 0.9))
    prob = default_problem(c, (0.2, 0.3), 0.004, 2e-3, 2e-3)
    assert (prob.u0, prob.v0) == (0.21708416465263758, -1.0213006973157768)
    assert (prob.u0, prob.v0) == tuple(hc._seed_scan(c)[3].tolist())
    for seed in hc._seed_scan(c)[:3].tolist():
        with pytest.raises(ValueError, match="leaves the admissible annulus"):
            default_problem(c, (0.2, 0.3), 0.004, 2e-3, 2e-3, seed=seed)


@pytest.mark.parametrize("c", [2.5, C_THIRD, 5.0, 12.0])
@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("half_width", [0.05, 0.1])
def test_the_walked_seed_takes_its_first_step_both_ways(c, branch, half_width):
    # admissible data keep |beta| small enough that the first output step
    # fits the window: a row above and a row below the base row
    sol = solve_pde(default_problem(c, (-half_width, half_width), branch=branch))
    j0 = sol.row0()
    assert sol.valid[j0 + 1].any() and sol.valid[j0 - 1].any()


def test_problem_is_checked_once_when_built():
    u0, v0 = find_noncharacteristic_seed(C_THIRD)
    data = paper_initial_data(u0, v0)
    calls = []

    def phi(x):
        calls.append(x.size)
        return data[0](x)

    prob = PDEProblem(C_THIRD, (-0.05, 0.05), 0.004, 1e-3, 1e-3, u0, v0, phi, data[1])
    assert (prob.x.size, prob.n_steps) == (101, 4) and calls == [101]
    solve_pde(prob)
    assert calls == [101, 101]                  # the march's initial row only
    with pytest.raises(FrozenInstanceError):
        prob.hx = 3e-3
    with pytest.raises(ValueError, match="writeable|read-only"):
        prob.x[0] = 0.0
    with pytest.raises(ValueError, match="hx must divide"):
        replace(prob, hx=3e-3)


def _spoiled(k, node, value):
    """paper_initial_data at the scan's first seed with ``value`` at ``node``
    of the k-th array of phi, phi', phi'' and psi."""
    phi, psi = paper_initial_data(*find_noncharacteristic_seed(C_THIRD))

    def spoil(arrays, k):
        arrays = [a.copy() for a in arrays]
        if 0 <= k < len(arrays):
            arrays[k][node] = value
        return tuple(arrays)

    return lambda x: spoil(phi(x), k), lambda x: spoil(psi(x), k - 3)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("node", [0, 37, 100])
@pytest.mark.parametrize("k, name", [(0, "phi"), (1, "phi'"), (2, "phi''"), (3, "psi")])
def test_problem_refuses_non_finite_cauchy_data(k, name, node, value):
    u0, v0 = find_noncharacteristic_seed(C_THIRD)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} is not finite"):
        PDEProblem(C_THIRD, (-0.05, 0.05), 0.006, 1e-3, 1e-3, u0, v0, *_spoiled(k, node, value))


def test_default_problem_refuses_a_nan_curvature_before_the_march():
    with pytest.raises(ValueError, match="phi is not finite"):
        default_problem(C_THIRD, curvature=math.nan)


@pytest.mark.parametrize("curvature, message", [
    (math.inf, "phi is not finite"), (-math.inf, "phi is not finite"),
    (0.0, "phi'' vanishes"), (-0.0, "phi'' vanishes"), (4e-10, "phi'' vanishes"),
    (-4e-10, "phi'' vanishes")])
def test_default_problem_refuses_a_curvature_no_seed_can_take(monkeypatch, curvature, message):
    # phi'' = 2 curvature on every seed: refused before the seed scan, with
    # PDEProblem's message and no numpy warning (the test run makes warnings
    # errors)
    def no_scan(*args):
        raise AssertionError("the seed scan ran")

    monkeypatch.setattr(hc, "_seed_scan", no_scan)
    with pytest.raises(ValueError, match=f"^{re.escape(message)} on the initial segment$"):
        default_problem(C_THIRD, curvature=curvature)
    hc.check_curvature(5e-10)                # phi'' = 1e-9 meets the bound


@pytest.mark.parametrize("branch", [0, 2, -2, True, False, 1.5])
def test_library_refuses_a_branch_other_than_plus_or_minus_one(branch):
    u0, v0 = find_noncharacteristic_seed(C_THIRD)
    for build in (lambda: find_noncharacteristic_seed(C_THIRD, branch),
                  lambda: default_problem(C_THIRD, branch=branch),
                  lambda: default_problem(C_THIRD, seed=(u0, v0), branch=branch),
                  lambda: PDEProblem(C_THIRD, (-0.05, 0.05), 0.006, 1e-3, 1e-3, u0, v0,
                                     *paper_initial_data(u0, v0), branch=branch)):
        with pytest.raises(ValueError, match="branch must be 1 or -1"):
            build()


@pytest.mark.parametrize("c", [2.5, C_THIRD, 5.0, 12.0])
@pytest.mark.parametrize("branch", [1, -1])
def test_the_first_seed_walked_is_the_noncharacteristic_seed(monkeypatch, c, branch):
    # every seed the walk tries is refused, so it tries all it walks, in order
    tried = []

    def refuse(u0, v0, curvature):
        tried.append((u0, v0))
        raise ValueError("refused")

    monkeypatch.setattr(hc, "paper_initial_data", refuse)
    with pytest.raises(ValueError, match="no scanned seed admits"):
        default_problem(c, branch=branch)
    assert tried[0] == find_noncharacteristic_seed(c, branch)
    assert all(type(s) is float for seed in tried for s in seed)
    # band margin descending, every one positive
    u, v = np.array(tried).T
    score = band_margins(u, v, c, branch)
    assert len(tried) == 600 and np.all(score[1:] <= score[:-1]) and score[-1] > 0


# ---------------------------------------------------------------------------
# the marching solver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved():
    prob = default_problem(C_THIRD, x_range=(-0.05, 0.05), y_max=0.008,
                           hx=2e-3, hy=2e-3)
    return prob, recover_g(solve_pde(prob))


def test_initial_row_reproduces_data(solved):
    prob, sol = solved
    x = prob.x
    j0 = sol.row0()
    assert np.array_equal(sol.f[j0], prob.phi(x)[0])
    assert np.array_equal(sol.fy[j0], prob.psi(x)[0])


def test_row0_fxx_is_two(solved):
    prob, sol = solved
    j0 = sol.row0()
    fxx = np.diff(sol.f[j0], 2) / prob.hx ** 2
    assert np.allclose(fxx, 2.0, atol=1e-9)


def test_solution_stays_in_annulus(solved):
    prob, sol = solved
    dmin, dmax = annulus_bounds(sol.c1)
    fx = oracle_fx(sol)
    delta = fx * fx + sol.fy * sol.fy
    d = delta[sol.valid]
    assert np.all(d > dmin) and np.all(d < dmax)


def test_lambda_identity_on_recovered_solution(solved):
    # lambda recovered from the integrated g satisfies
    # lambda^2 + 1 + Delta^2 - c1 Delta = 0 to FD order
    prob, sol = solved
    G = solution_graph(sol)
    fx, fy, gx, gy = (a[1:-1, 1:-1] for a in node_gradients(G))
    lam = fx * gx + fy * gy
    delta = fx * fx + fy * fy
    assert np.max(np.abs(lam * lam + 1 + delta * delta - sol.c1 * delta)) < 5e-3


def test_loop_defect_and_residuals_shrink_under_refinement():
    seed = find_noncharacteristic_seed(C_THIRD)
    P = HelixParams(math.pi / 6, math.pi / 3)
    maxres = {}
    loops = {}
    for h in (4e-3, 2e-3):
        prob = default_problem(C_THIRD, x_range=(-0.05, 0.05), y_max=0.008,
                               hx=h, hy=h, seed=seed)
        sol = recover_g(solve_pde(prob))
        loops[h] = float(np.nanmax(np.abs(sol.loop_defect)))
        G = solution_graph(sol)
        inner = (-0.03 <= G.xs) & (G.xs <= 0.03)
        inner[[0, -1]] = False
        maxres[h] = max(residual_maxima(("helix_trace", "helix_det"),
                                        [a[inner][:, 1:-1] for a in node_gradients(G)], P))
    assert maxres[4e-3] / maxres[2e-3] >= 3.0
    assert loops[4e-3] / loops[2e-3] >= 3.0


def test_pde_angle_std_refines_at_first_order():
    seed = find_noncharacteristic_seed(C_THIRD)
    stds = {}
    deps = {}
    for h in (4e-3, 2e-3):
        prob = default_problem(C_THIRD, x_range=(-0.05, 0.05), y_max=0.008,
                               hx=h, hy=h, seed=seed)
        G = solution_graph(recover_g(solve_pde(prob)))
        rep = verify_helix(G.patch(), PI, (G.xs.size, G.ys.size))
        stds[h] = rep.angle_std()
        deps[h] = max(rep.residuals[k].rms
                      for k in ("dependencia1", "dependencia2", "dependencia3"))
    assert stds[4e-3] / stds[2e-3] >= 2.0
    assert deps[4e-3] / deps[2e-3] >= 2.0


def test_structure_fields_match_frame_rotation_constants(solved):
    # dt = A dlambda1 + B dlambda2 evaluated on the frame, i.e. dt(T1) = B m2
    # and dt(T2) = A m1, is dependencia1 divided by
    # D = cos(t1)/cos(t2) - cos(t2)/cos(t1); read on the 3x3 stencil at the centre
    _, sol = solved
    G = solution_graph(sol)
    xs, ys = G.xs, G.ys
    u, v, h = xs[xs.size // 2], ys[ys.size // 2], sol.hx
    patch = replace(G.patch(), u_range=(u - h, u + h), v_range=(v - h, v + h))
    rep = verify_helix(patch, PI, (3, 3))
    dt = np.abs([rep.dt_T1[1, 1], rep.dt_T2[1, 1]])
    assert dt.min() > 0.05                                 # not geodesic
    c1, c2 = np.cos(rep.theta1[1, 1]), np.cos(rep.theta2[1, 1])
    D = abs(c1 / c2 - c2 / c1)
    assert rep.residuals["dependencia1"].max <= 2e-2 * D * dt.min()


def grid_patches():
    """The same quadratic graph as a position grid and as a graph grid."""
    xs = np.linspace(-1.0, 1.0, 9)
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    points = np.stack([X, Y, X * X, X * Y], axis=-1)
    graph = GraphSurface(xs, ys, X * X, X * Y)
    return xs, ys, points, graph


def test_grid_samples_are_views_of_the_stored_arrays():
    xs, ys, points, graph = grid_patches()
    assert np.shares_memory(patch_from_grid(xs, ys, points).sample(xs, ys).p, points)
    J = graph.patch().sample(xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            node = graph.patch().jet(x, y)
            assert all(np.array_equal(getattr(node, k), getattr(J, k)[i, j])
                       for k in ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv"))


@pytest.mark.parametrize("kind", ["position", "graph"])
@pytest.mark.parametrize("du, dv", [(0.45, 0.0), (0.0, -0.45), (30.0, 0.0),
                                    (0.0, -30.0)])
def test_grid_sample_rejects_like_jet(kind, du, dv):
    # offsets in grid spacings from a node: 0.45 does not snap, 30 is outside
    xs, ys, points, graph = grid_patches()
    patch = patch_from_grid(xs, ys, points) if kind == "position" else graph.patch()
    u = xs[4] + du * (xs[1] - xs[0])
    v = ys[2] + dv * (ys[1] - ys[0])
    with pytest.raises(ValueError) as point:
        patch.jet(u, v)
    with pytest.raises(ValueError) as one:
        patch.sample([u], [v])
    assert str(one.value) == str(point.value)
    with pytest.raises(ValueError) as batch:
        patch.sample([*xs[:3], u], [*ys[:2], v])
    assert str(batch.value).endswith(str(point.value).split(") ", 1)[1])


def test_partial_grid_on_window_exhaustion():
    # marching much farther than the window supports halts with a reason and
    # returns the surviving rows instead of raising
    prob = default_problem(C_THIRD, x_range=(-0.03, 0.03), y_max=0.03,
                           hx=2e-3, hy=2e-3)
    sol = solve_pde(prob)
    assert sol.termination_up == "window-exhausted"
    assert sol.termination_down == "window-exhausted"
    rows = int(np.sum(np.any(sol.valid, axis=1)))
    assert 1 <= rows < sol.y.size


def test_rect_leaves_out_rows_narrower_than_8_columns():
    # the march stores a 7-node last row downwards; the 19 rows with at
    # least 9 columns hold a 9-column rectangle
    prob = default_problem(C_THIRD, x_range=(-0.05, 0.05), y_max=0.02, hx=2e-3,
                           hy=2e-3, seed=(-0.7523473882453191, -0.052609254334021624))
    sol = solve_pde(prob)
    counts = np.count_nonzero(sol.valid, axis=1)
    assert counts.min() == 0 and 0 < counts[-1] < 8
    rs, cs = sol.rect()
    assert (rs.start, rs.stop) == (1, 20)
    assert cs.stop - cs.start == 9
    assert sol.valid[rs, cs].all()


def test_rect_needs_8_columns_that_its_rows_share(solved):
    # three rows of 8 valid nodes each, shifted by 2 columns a row: they
    # share only columns 4 to 7
    _, sol = solved
    valid = np.zeros_like(sol.valid)
    for j in range(3):
        valid[j, 2 * j:2 * j + 8] = True
    with pytest.raises(ValueError, match="valid rectangle narrower than 8 columns"):
        replace(sol, valid=valid).rect()


def test_solution_graph_needs_the_recovered_g(solved):
    _, sol = solved
    with pytest.raises(ValueError, match="recover_g must run before building the graph"):
        solution_graph(replace(sol, g=None))


def test_general_angles_via_feasible_seed():
    # narrow annulus (c close to 2): the margin-maximizing seed sits too
    # close to the boundary for the default window, the feasible variant
    # walks down the score order until the data fits
    t1, t2 = 0.7, 0.9
    m, c = deform_inverse((t1, t2))
    prob = default_problem(c, (-0.05, 0.05), 0.004, 2e-3, 2e-3)
    # the problem of the chosen seed, with the paper's quadratic data
    ref = default_problem(c, x_range=(-0.05, 0.05), y_max=0.004,
                          hx=2e-3, hy=2e-3, seed=(prob.u0, prob.v0))
    assert replace(prob, phi=ref.phi, psi=ref.psi) == ref
    for data in ("phi", "psi"):
        assert np.array_equal(getattr(prob, data)(prob.x), getattr(ref, data)(ref.x))
    # a window no seed can fit fails once, before the candidate loop
    with pytest.raises(ValueError, match="hx must be finite"):
        default_problem(c, (-0.05, 0.05), 0.004, 0.0, 2e-3)
    G = solution_graph(recover_g(solve_pde(prob)), m=m)
    rep = verify_helix(G.patch(), PI, (G.xs.size, G.ys.size))
    assert rep.angle_stats["theta1"][0] == pytest.approx(t1, abs=1e-4)
    assert rep.angle_stats["theta2"][0] == pytest.approx(t2, abs=1e-4)


def test_mirror_branch_also_solves_the_system():
    P = HelixParams(math.pi / 6, math.pi / 3)
    prob = default_problem(C_THIRD, x_range=(-0.05, 0.05), y_max=0.006,
                           hx=2e-3, hy=2e-3, branch=-1, seed=(-1.1556, 0.5145))
    sol = recover_g(solve_pde(prob))
    assert sol.branch == -1
    dev = symplecto_check(solution_graph(sol), P)
    assert max(dev) < 1e-3


def test_recover_g_lambda_zero_limit():
    # near c = 2 with a unit-gradient linear f, lambda ~ 0 and g is the
    # potential of the -90 degree rotation of grad f; the loop defect vanishes
    c = 2.0 + 1e-9
    a = b = math.sqrt(0.5)
    xs = np.linspace(-0.5, 0.5, 11)
    ys = np.linspace(-0.3, 0.3, 7)
    X, Y = np.meshgrid(xs, ys)
    f = a * X + b * Y
    fy = np.full_like(f, b)
    sol = SolutionGrid(x=xs, y=ys, f=f, fy=fy,
                       valid=np.ones_like(f, dtype=bool), c1=c,
                       hx=xs[1] - xs[0], hy=ys[1] - ys[0], seed=(a, b),
                       termination_up="completed", termination_down="completed")
    sol = recover_g(sol)
    assert np.nanmax(np.abs(sol.loop_defect)) < 1e-12
    node = solution_graph(sol).patch().jet(0.0, 0.0)
    gx, gy = node.p_u[3], node.p_v[3]
    assert gx == pytest.approx(-b, abs=1e-4)
    assert gy == pytest.approx(a, abs=1e-4)


# ---------------------------------------------------------------------------
# first normal space and compositions
# ---------------------------------------------------------------------------

def test_first_normal_rank_cases():
    def quad(x, y):
        return (x * x, 2 * x, 0.0, 2.0, 0.0, 0.0)

    J1 = analytic_jets(quad, quad)
    assert np.all(n1_rank(J1) == 1)
    assert hess_det_f(J1) == pytest.approx(0.0)

    assert np.all(n1_rank(linear_jets(0.3, 0.4)) == 0)

    def f_jet(x, y):
        return (x * x + y * y, 2 * x, 2 * y, 2.0, 0.0, 2.0)

    def g_jet(x, y):
        return (x * y, y, x, 0.0, 1.0, 0.0)

    J2 = analytic_jets(f_jet, g_jet)
    assert np.all(n1_rank(J2) == 2)
    assert hess_det_f(J2) == pytest.approx(4.0)


def test_composition_test_on_pde_surface(solved):
    _, sol = solved
    G = solution_graph(sol)
    verdict = composition_test(G.patch(), PI, (G.xs.size, G.ys.size), geo_tol=1e-3)
    assert verdict.applicable
    assert verdict.composition is False
    assert not verdict.rank1_n1
    assert not verdict.t1_geodesic and not verdict.t2_geodesic
    assert verdict.consistent
    assert verdict.rank2_fraction > 0.9


@pytest.mark.parametrize("name, verdict", [
    ("solution-graph", CompositionVerdict(
        True, False, False, False, False, True, "", 1.0,
        1.4884734903025385, 0.2940172028211625)),
    ("orbit_helix", CompositionVerdict(
        False, None, False, False, False, True,
        "criterion inapplicable for these angles", 1.0,
        4.4119935705319724e-16, 0.4150276499782253)),
    ("helix_cylinder", CompositionVerdict(
        False, True, True, True, True, True,
        "theta1 = 0: composition regardless of N1 rank", 0.0,
        1.7105694144590052e-49, 3.0814879110195774e-33)),
])
def test_composition_test_samples_the_patch_once(solved, monkeypatch, name, verdict):
    if name == "solution-graph":
        G = solution_graph(solved[1])
        patch, Pi, grid, geo_tol = G.patch(), PI, (G.xs.size, G.ys.size), 1e-3
    else:
        cs = named_example(name)
        patch, Pi, grid, geo_tol = cs.patch, cs.plane, (15, 18), 1e-6
    calls, forms = [], []

    def sampler(us, vs):
        calls.append((us.size, vs.size))
        return patch.sampler(us, vs)

    def counted_forms(jets, _forms=surface_analysis.fundamental_forms):
        forms.append(jets.p.shape[:2])
        return _forms(jets)

    # the report and the N1 ranks share one sample and its fundamental forms
    monkeypatch.setattr(surface_analysis, "fundamental_forms", counted_forms)
    got = composition_test(replace(patch, sampler=sampler), Pi, grid, geo_tol)
    assert calls == [grid] and forms == [grid]
    assert got == verdict


def test_hessdet_stays_large_near_initial_row(solved):
    # rank-two neighborhood of the Cauchy row: det Hess f keeps at least half
    # of its row-0 magnitude
    _, sol = solved
    G = solution_graph(sol)
    j0 = np.argmin(np.abs(G.ys))
    hd = np.abs(hess_det_f(G.patch().sample(G.xs, G.ys)))[1:-1]
    floor = 0.5 * hd[:, j0].min()
    assert hd[:, 1:-1].min() >= floor


# ---------------------------------------------------------------------------
# deformation family
# ---------------------------------------------------------------------------

def test_deform_closed_form_values():
    pa = deform(1.0, C_THIRD)
    assert pa.theta1 == pytest.approx(math.pi / 6, abs=1e-12)
    assert pa.theta2 == pytest.approx(math.pi / 3, abs=1e-12)
    m, c = deform_inverse((math.pi / 6, math.pi / 3))
    assert m == pytest.approx(1.0, abs=1e-12)
    assert c == pytest.approx(C_THIRD, abs=1e-12)


def test_deform_round_trip_triangle():
    eps = 1e-3
    t1s = np.linspace(eps, math.pi / 2 - 2 * eps, 20)
    worst = 0.0
    for t1 in t1s:
        for t2 in np.linspace(t1 + eps, math.pi / 2 - eps, 20):
            m, c = deform_inverse((t1, t2))
            pa = deform(m, c)
            worst = max(worst, abs(pa.theta1 - t1), abs(pa.theta2 - t2))
    assert worst < 1e-12


def test_deform_small_m_limit():
    pa = deform(1e-8, C_THIRD)
    assert pa.theta1 < 1e-7 and pa.theta2 < 1e-7


@pytest.mark.parametrize("angles, named", [
    ((1e-170, 1e-160), "m\\^2 = 0$"), ((1e-200, 2e-200), "m\\^2 = 0$"),
    ((1e-300, 1.5707963267948963), "leaves float64"),
    ((5e-324, 0.5), "leaves float64"),
])
def test_deform_inverse_refuses_angles_whose_m_or_c_leaves_float64(angles, named):
    with pytest.raises(ValueError, match=named):
        deform_inverse(angles)


@pytest.mark.parametrize("c", [math.nan, math.inf, 1e200])
def test_annulus_bounds_need_a_finite_c_above_two_with_finite_bounds(c):
    with pytest.raises(ValueError, match="normalized constant"):
        annulus_bounds(c)


def test_deform_domain_errors():
    with pytest.raises(ValueError):
        deform(0.0, 3.0)
    with pytest.raises(ValueError):
        deform(1.0, 2.0)
    with pytest.raises(ValueError):
        deform_inverse((0.5, 0.5))
    with pytest.raises(ValueError):
        deform_inverse((0.0, 0.5))
