"""Fundamental forms, adapted frames, and residual verification tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helix4 import cli
from helix4 import surface_analysis as sa
from helix4.catalog import (EXAMPLE_NAMES, PI_12, generate, named_example,
                            round_sphere_patch)
from helix4.surface_analysis import (AdaptedFrame, FundamentalForms, GraphSurface,
                                     ImmersionError, SurfaceJet, SurfacePatch,
                                     _tangent_frame, adapted_frame, adapted_frames,
                                     brioschi_curvature, composition_test,
                                     fundamental_forms, verify_helix)


def patch_from_position(pos, u_range, v_range):
    """Patch with jets estimated by central differences of a position map.

    ``pos(u, v)`` takes arrays of parameters and returns the points as an
    array of shape u.shape + (4,); a grid costs nine calls.  The step is
    (domain span) * max(1e-4, cbrt(machine eps)) per direction.
    """
    scale = max(1e-4, float(np.finfo(float).eps) ** (1.0 / 3.0))
    hu = (u_range[1] - u_range[0]) * scale
    hv = (v_range[1] - v_range[0]) * scale

    def sample(us, vs):
        U, V = np.meshgrid(us, vs, indexing="ij")

        def at(du, dv):
            return np.asarray(pos(U + du, V + dv), dtype=float)

        c = at(0.0, 0.0)
        pu_p, pu_m, pv_p, pv_m = at(hu, 0.0), at(-hu, 0.0), at(0.0, hv), at(0.0, -hv)
        return SurfaceJet(
            p=c,
            p_u=(pu_p - pu_m) / (2 * hu),
            p_v=(pv_p - pv_m) / (2 * hv),
            p_uu=(pu_p - 2 * c + pu_m) / (hu * hu),
            p_uv=(at(hu, hv) - at(hu, -hv) - at(-hu, hv) + at(-hu, -hv)) / (4 * hu * hv),
            p_vv=(pv_p - 2 * c + pv_m) / (hv * hv),
        )

    return SurfacePatch(u_range, v_range, sample, jet_source="fd-position")


def flat_jet():
    return SurfaceJet(p=np.zeros(4), p_u=np.eye(4)[0], p_v=np.eye(4)[1],
                      p_uu=np.zeros(4), p_uv=np.zeros(4), p_vv=np.zeros(4))


# ---------------------------------------------------------------------------
# fundamental forms
# ---------------------------------------------------------------------------

def test_flat_graph_forms():
    ff = fundamental_forms(flat_jet())
    assert (ff.E, ff.F, ff.G) == (1.0, 0.0, 1.0)
    assert np.allclose(ff.alpha_11, 0) and np.allclose(ff.alpha_22, 0)


def test_clifford_torus_forms_at_origin():
    jet = named_example("clifford_torus").patch.jet(0.0, 0.0)
    ff = fundamental_forms(jet)
    assert (ff.E, ff.F, ff.G) == pytest.approx((1.0, 0.0, 1.0))
    assert np.allclose(ff.alpha_11, [-1, 0, 0, 0], atol=1e-15)
    assert np.allclose(ff.alpha_22, [0, 0, -1, 0], atol=1e-15)
    assert np.allclose(ff.alpha_12, 0, atol=1e-15)


def test_xy_graph_metric_at_origin():
    patch = generate("graph_poly", f_coeffs=[[0, 0], [0, 1.0]],
                     g_coeffs=[[0.0]]).patch
    ff = fundamental_forms(patch.jet(0.0, 0.0))
    assert ff.E == pytest.approx(1.0)


def test_degenerate_metric_rejected():
    jet = SurfaceJet(p=np.zeros(4), p_u=np.eye(4)[0], p_v=np.eye(4)[0],
                     p_uu=np.zeros(4), p_uv=np.zeros(4), p_vv=np.zeros(4))
    with pytest.raises(ImmersionError):
        fundamental_forms(jet)


def test_alpha_is_normal():
    cs = named_example("orbit_helix")
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.uniform(*cs.patch.u_range)
        v = rng.uniform(*cs.patch.v_range)
        jet = cs.patch.jet(u, v)
        ff = fundamental_forms(jet)
        for a in (ff.alpha_11, ff.alpha_12, ff.alpha_22):
            assert abs(a @ jet.p_u) < 1e-10 * max(1, np.linalg.norm(a))
            assert abs(a @ jet.p_v) < 1e-10 * max(1, np.linalg.norm(a))


# ---------------------------------------------------------------------------
# adapted frames
# ---------------------------------------------------------------------------

def frame_orthonormality_defect(fr: AdaptedFrame) -> float:
    basis = np.stack([fr.T1, fr.T2, fr.xi1, fr.xi2])
    return float(np.max(np.abs(basis @ basis.T - np.eye(4))))


def e_identity_defect(fr: AdaptedFrame) -> float:
    d1 = fr.e1 - (math.cos(fr.theta1) * fr.T1 + math.sin(fr.theta1) * fr.xi1)
    d2 = fr.e2 - (math.cos(fr.theta2) * fr.T2 + math.sin(fr.theta2) * fr.xi2)
    return float(max(np.linalg.norm(d1), np.linalg.norm(d2)))


def test_clifford_frame_directions():
    patch = named_example("clifford_torus").patch
    for phi in (0.3, 1.1, 2.5):
        fr = adapted_frame(patch.jet(phi, 0.7), PI_12)
        assert fr.theta1 == pytest.approx(0.0, abs=1e-12)
        assert fr.theta2 == pytest.approx(math.pi / 2, abs=1e-12)
        t1 = np.array([-math.sin(phi), math.cos(phi), 0, 0])
        assert min(np.linalg.norm(fr.T1 - t1), np.linalg.norm(fr.T1 + t1)) < 1e-12
        assert frame_orthonormality_defect(fr) < 1e-12
        assert e_identity_defect(fr) < 1e-12


def test_degenerate_plane_flagged():
    fr = adapted_frame(flat_jet(), PI_12)
    assert fr.degenerate
    assert frame_orthonormality_defect(fr) < 1e-12


def test_frame_identities_on_generic_graphs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        fc = rng.normal(scale=0.4, size=(3, 3))
        gc = rng.normal(scale=0.4, size=(3, 3))
        patch = generate("graph_poly", f_coeffs=fc, g_coeffs=gc).patch
        u, v = rng.uniform(-0.5, 0.5, size=2)
        fr = adapted_frame(patch.jet(u, v), PI_12)
        assert frame_orthonormality_defect(fr) < 1e-9
        assert e_identity_defect(fr) < 1e-9
        # e1, e2 orthonormal frame of the reference plane
        assert abs(fr.e1 @ fr.e2) < 1e-10
        assert np.linalg.norm(PI_12.project(fr.e1) - fr.e1) < 1e-10


def test_frame_continuity_alignment():
    patch = named_example("clifford_torus").patch
    frames = adapted_frames(_tangent_frame(patch.sample([0.5, 0.55], [0.7])), PI_12)
    prev, fr = frames[0, 0], frames[1, 0]
    assert fr.T1 @ prev.T1 > 0.99
    assert fr.xi1 @ prev.xi1 > 0.99
    assert fr.align_quality > 0.99


# ---------------------------------------------------------------------------
# structure fields
# ---------------------------------------------------------------------------

def stencil(patch, at, h):
    """The patch restricted to the 3x3 stencil of spacing h centred at ``at``."""
    u, v = at
    return replace(patch, u_range=(u - h, u + h), v_range=(v - h, v + h))


def test_product_torus_structure_fields():
    cs = generate("product_circles", r1=1.0, r2=0.5)
    rep = verify_helix(cs.patch, cs.plane, (15, 15))
    assert np.abs(rep.m1) == pytest.approx(2.0, abs=1e-6)   # 1/r2
    assert np.abs(rep.m2) == pytest.approx(1.0, abs=1e-6)   # 1/r1
    for form in (rep.dt_T1, rep.dt_T2, rep.dn_T1, rep.dn_T2):
        assert np.max(np.abs(form[1:-1, 1:-1])) < 1e-7


def test_totally_geodesic_structure_fields():
    cs = named_example("plane")
    rep = verify_helix(cs.patch, cs.plane, (8, 8))
    assert np.all(rep.m1 == 0.0) and np.all(rep.m2 == 0.0)


def test_structure_fields_frame_discontinuity_detected():
    # the sphere's adapted frame genuinely jumps across theta2 = pi/2 at the
    # equator: e2 = proj(T2)/cos(theta2) reverses while its norm vanishes
    patch = round_sphere_patch(1.0)
    assert verify_helix(stencil(patch, (0.7, 0.0), 0.2), PI_12, (3, 3)).min_align_dot < 0.9
    # away from the degenerate circle the stencil aligns
    rep = verify_helix(stencil(patch, (0.7, 0.3), 1e-3), PI_12, (3, 3))
    assert rep.min_align_dot >= 0.9
    assert rep.theta1[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_codazzi_residuals_decay_on_curved_helix():
    cone = named_example("orbit_cone")
    r1 = verify_helix(cone.patch, cone.plane, (15, 15))
    r2 = verify_helix(cone.patch, cone.plane, (29, 29))
    for k in ("codazzi_c1", "codazzi_c3"):
        a, b = r1.residuals[k].max, r2.residuals[k].max
        assert b < 1e-12 or a / b > 3.0


def test_structure_fields_dt_relation_on_cylinder():
    # theta1 = 0 specialization: dt = cot(theta2) dlambda2, i.e. dt(T1) = B m2 = 0
    cs = named_example("helix_cylinder")
    rep = verify_helix(cs.patch, cs.plane, (15, 15))
    assert np.max(np.abs(rep.m2)) < 1e-8            # R-factor direction is flat
    assert np.max(np.abs(rep.dt_T1[1:-1, 1:-1])) < 1e-8
    assert np.max(np.abs(rep.dt_T2[1:-1, 1:-1])) < 1e-8


# ---------------------------------------------------------------------------
# verify_helix
# ---------------------------------------------------------------------------

def test_small_grid_rejected():
    cs = named_example("clifford_torus")
    with pytest.raises(ValueError):
        verify_helix(cs.patch, cs.plane, (2, 5))


def test_clifford_torus_report():
    cs = named_example("clifford_torus")
    rep = verify_helix(cs.patch, cs.plane, (20, 20))
    assert rep.angle_stats["theta1"][1] < 1e-9
    assert rep.angle_stats["theta2"][1] < 1e-9
    assert rep.angle_stats["theta1"][0] == pytest.approx(0.0, abs=1e-12)
    assert rep.angle_stats["theta2"][0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep.residuals["gauss_curvature"].max < 1e-8
    assert rep.residuals["normal_curvature"].max < 1e-8
    for k in ("codazzi_c1", "codazzi_c2", "codazzi_c3", "codazzi_c4"):
        assert rep.residuals[k].max < 1e-10
    assert rep.residuals["alpha_t1t2"].max < 1e-12
    assert max(rep.parallel_h) < 1e-6
    assert max(rep.gauss_circle_std) < 1e-9
    assert rep.alpha_theta_max < 1e-10
    assert rep.sphere.ok and rep.sphere.defect < 1e-10
    assert rep.sphere.radius == pytest.approx(math.sqrt(2.0))
    assert np.allclose(rep.sphere.center, 0, atol=1e-10)
    assert rep.sphere_dichotomy is True


def test_cylinder_report():
    cs = named_example("helix_cylinder")
    rep = verify_helix(cs.patch, cs.plane, (25, 25))
    assert rep.angle_stats["theta1"][0] == pytest.approx(0.0, abs=1e-9)
    assert rep.angle_stats["theta2"][0] == pytest.approx(math.pi / 5, abs=1e-9)
    assert rep.angle_stats["theta1"][1] < 1e-9
    assert rep.angle_stats["theta2"][1] < 1e-9
    for k in ("codazzi_c1", "codazzi_c2", "codazzi_c3", "codazzi_c4"):
        assert rep.residuals[k].max < 1e-6
    # products of R with a torsion-carrying helix do not have parallel H:
    # the structure equations force dn(T2) = cot(theta2) m1 != 0
    r1, r2 = rep.parallel_h
    assert r1 > 1e-2
    assert r2 < 1e-10


def test_round_sphere_is_not_a_helix():
    rep = verify_helix(round_sphere_patch(1.0), PI_12, (12, 12))
    assert rep.angle_std() > 1e-2
    assert abs(rep.K[5, 5]) == pytest.approx(1.0, rel=1e-6)


def test_structure_residuals_decay_quadratically():
    cs = named_example("clifford_torus")
    r1 = verify_helix(cs.patch, cs.plane, (15, 15))
    r2 = verify_helix(cs.patch, cs.plane, (29, 29))
    a = r1.residuals["structure_tangent"].max
    b = r2.residuals["structure_tangent"].max
    assert a / b > 3.0


def test_zero_angle_specialization_decay():
    cs = named_example("helix_cylinder")
    r1 = verify_helix(cs.patch, cs.plane, (15, 15))
    r2 = verify_helix(cs.patch, cs.plane, (29, 29))
    for key in ("zero_angle_df", "zero_angle_dn", "zero_angle_geodesic"):
        assert key in r1.residuals
        a, b = r1.residuals[key].max, r2.residuals[key].max
        assert b < 1e-10 or a / b > 3.0


def test_brioschi_matches_gauss_equation_exactly_for_quadratics():
    # quadratic f, g make E, F, G quadratic, so the metric differences in the
    # Brioschi formula are exact and the two K computations agree to roundoff
    cs = generate("graph_poly",
                  f_coeffs=[[0, 0, 0.2], [0.1, 0.3, 0], [0.15, 0, 0]],
                  g_coeffs=[[0, 0.1, 0], [0, 0.2, 0], [0.05, 0, 0]])
    rep = verify_helix(cs.patch, cs.plane, (13, 13))
    assert rep.residuals["gauss_brioschi_agreement"].max < 1e-11


def test_brioschi_matches_gauss_equation_at_fd_order():
    # trigonometric metric: the agreement defect is pure FD truncation and
    # must decay at second order under grid refinement
    patch = round_sphere_patch(1.0)
    r1 = verify_helix(patch, PI_12, (11, 11))
    r2 = verify_helix(patch, PI_12, (21, 21))
    a = r1.residuals["gauss_brioschi_agreement"].max
    b = r2.residuals["gauss_brioschi_agreement"].max
    assert a / b > 3.0
    assert b < 1e-2


def test_brioschi_flat_metric():
    E = np.ones((8, 8))
    F = np.zeros((8, 8))
    G = np.ones((8, 8))
    K = brioschi_curvature(FundamentalForms(E, F, G, E * G - F * F, None, None, None),
                           0.1, 0.1)
    assert np.nanmax(np.abs(K)) < 1e-12


def test_fd_position_patch_matches_analytic():
    def pos(u, v):
        return np.stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)], axis=-1)

    patch = patch_from_position(pos, (0.0, 2 * math.pi), (0.0, 2 * math.pi))
    assert patch.jet_source == "fd-position"
    rep = verify_helix(patch, PI_12, (10, 10))
    assert rep.angle_std() < 1e-6
    assert rep.angle_stats["theta2"][0] == pytest.approx(math.pi / 2, abs=1e-6)


def test_graph_surface_takes_its_derivatives_from_the_value_grids(monkeypatch):
    # gradients() is fd_d1 of the value grids, and patch() the graph jet of
    # their 2-jets, taken once per patch() call, bit for bit
    rng = np.random.default_rng(11)
    xs, ys = np.linspace(-0.3, 0.9, 8), np.linspace(0.1, 0.6, 5)
    f, g = rng.normal(size=(2, xs.size, ys.size))
    G = GraphSurface(xs, ys, f, g)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    expected = (sa.fd_d1(f, hx, 0), sa.fd_d1(f, hy, 1), sa.fd_d1(g, hx, 0), sa.fd_d1(g, hy, 1))
    for got, want in zip(G.gradients(), expected, strict=True):
        assert got.tobytes() == want.tobytes()

    calls = []
    fd_jet = sa._fd_jet
    monkeypatch.setattr(sa, "_fd_jet", lambda *a: calls.append(a[0]) or fd_jet(*a))
    patch = G.patch()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    J, again = patch.sample(xs, ys), patch.sample(xs[2:5], ys[1:])
    assert len(calls) == 2 and calls[0] is G.f and calls[1] is G.g
    oracle = sa.graph_jet(X, Y, fd_jet(f, hx, hy), fd_jet(g, hx, hy))
    for k in sa.JET_FIELDS:
        assert getattr(J, k).tobytes() == getattr(oracle, k).tobytes(), k
        assert getattr(again, k).tobytes() == getattr(J, k)[2:5, 1:].tobytes(), k
    for i, j in ((0, 0), (3, 2), (7, 4)):
        node = patch.jet(xs[i], ys[j])
        for k in sa.JET_FIELDS:
            assert getattr(node, k).tobytes() == getattr(J, k)[i, j].tobytes(), k


@pytest.mark.parametrize("nx, ny, shape_f, shape_g", [
    (4, 3, (3, 4), (3, 4)),     # indexed [y, x]
    (4, 3, (4, 3), (4, 4)),     # g not shaped like f
    (4, 2, (4, 2), (4, 2)),     # fewer than 3 nodes along y
])
def test_graph_surface_checks_its_value_grids(nx, ny, shape_f, shape_g):
    with pytest.raises(ValueError):
        GraphSurface(np.linspace(0, 1, nx), np.linspace(0, 1, ny),
                     np.zeros(shape_f), np.zeros(shape_g))


@pytest.mark.parametrize("axis, nodes", [
    ("xs", [0, 0.1, 0.3, 0.35, 0.6]),       # uneven
    ("ys", [1, 0.75, 0.5, 0.25, 0]),        # decreasing
    ("xs", [0, 0, 0, 0, 0]),                # repeated
    ("ys", [0, 0.25, np.nan, 0.75, 1]),
    ("xs", [0, 0.25, 0.5, 0.75, np.inf]),
])
def test_graph_surface_needs_evenly_spaced_increasing_nodes(axis, nodes):
    # gradients(), patch() and snap_to_nodes all take one step per axis, so
    # uneven nodes would give wrong derivatives (f_x = 3.4 for f = x^2 at
    # x = 0.6) instead of an error
    xs = nodes if axis == "xs" else np.linspace(0, 1, 5)
    ys = nodes if axis == "ys" else np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match=f"^{axis} must be strictly increasing and evenly"):
        GraphSurface(xs, ys, np.zeros((5, 5)), np.zeros((5, 5)))


def test_graph_surface_accepts_linspace_nodes_far_from_zero():
    # linspace rounding at |x| = 1e9 is about 1e-5 of a 1e-2 step
    xs = np.linspace(1e9, 1e9 + 0.08, 9)
    assert np.ptp(np.diff(xs)) > 1e-9 * (xs[1] - xs[0])
    G = GraphSurface(xs, np.linspace(-1, 1, 5), np.zeros((9, 5)), np.zeros((9, 5)))
    assert G.gradients()[0].shape == (9, 5)


def test_grid_patch_snapping():
    us = np.linspace(0, 2, 9)
    vs = np.linspace(0, 1, 5)
    U, V = np.meshgrid(us, vs, indexing="ij")
    patch = GraphSurface(us, vs, 0.3 * U * U, 0.1 * U * V).patch()
    jet = patch.jet(us[4], vs[2])
    assert jet.p_u[2] == pytest.approx(0.6 * us[4], abs=1e-10)
    # within 0.4 du of a node the query snaps; beyond that it is rejected
    jet2 = patch.jet(us[4] + 0.3 * (us[1] - us[0]), vs[2])
    # a graph patch keeps the queried (x, y) and snaps f, g and every derivative
    assert np.array_equal(jet2.p[2:], jet.p[2:])
    assert all(np.array_equal(getattr(jet2, k), getattr(jet, k))
               for k in ("p_u", "p_v", "p_uu", "p_uv", "p_vv"))
    with pytest.raises(ValueError):
        patch.jet(us[4] + 0.45 * (us[1] - us[0]), vs[2])
    with pytest.raises(ValueError):
        patch.jet(5.0, 0.0)


# ---------------------------------------------------------------------------
# the stages of verify_helix
# ---------------------------------------------------------------------------

def test_verify_helix_forms_the_metric_and_tangent_frames_once(monkeypatch):
    calls = []
    for name in ("fundamental_forms", "_tangent_frame"):
        f = getattr(sa, name)
        monkeypatch.setattr(sa, name, lambda *a, _f=f, _name=name: calls.append(_name) or _f(*a))
    cs = named_example("orbit_cone")
    assert verify_helix(cs.patch, cs.plane, (9, 11)).helix_pass(1e-8)
    assert sorted(calls) == ["_tangent_frame", "fundamental_forms"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [verify_helix, composition_test])
def test_an_overflowing_surface_raises_in_every_verify_pass(run):
    # the composition criterion runs the same guarded stages as verify_helix,
    # so it raises instead of warning and returning a verdict
    patch = generate("product_circles", r1=1e78).patch
    with pytest.raises(FloatingPointError):
        run(patch, PI_12, (20, 20))


def construction_case(tmp_path):
    """The patch, plane and grid that ``construct --verify`` verifies."""
    got = []
    real = cli.verify_helix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "verify_helix", lambda *a: got.append(a) or real(*a))
        cli.main(["construct", "--theta1", repr(math.pi / 6), "--theta2", repr(math.pi / 3),
                  "--verify", "--out", str(tmp_path / "c.json")])
    return got[0]


@pytest.mark.parametrize("case", ["spherical_helix_revolution", "construction"])
def test_fields_of_row_blocks_match_the_whole_grid_bit_for_bit(case, tmp_path):
    if case == "construction":
        patch, Pi, grid = construction_case(tmp_path)
        assert grid == (77, 13)
    else:
        cs = named_example(case)
        patch, Pi, grid = cs.patch, cs.plane, (23, 17)
    us, vs, J, ff, U = sa._sample(patch, grid)
    fr = adapted_frames(U, Pi)
    du, dv = us[1] - us[0], vs[1] - vs[0]
    whole = sa._fields(J, ff, U, fr, Pi, du, dv)
    N = grid[0]
    for n in (1, 2, 7):
        # blocks of n interior rows, each with a one-row halo above and below
        rows = [slice(lo - 1, min(lo + n, N - 1) + 1) for lo in range(1, N - 1, n)]
        forms = [FundamentalForms(*(a[r] for a in vars(ff).values())) for r in rows]
        blocks = [sa._fields(J[r], f, U[r], fr[r], Pi, du, dv) for r, f in zip(rows, forms)]
        for name, want in whole.items():
            parts = [b[name] for b in blocks]
            if want.shape[-2] == N:
                # node fields: each block's own rows, and the grid's edge rows
                parts = ([parts[0][..., :1, :]] + [p[..., 1:-1, :] for p in parts]
                         + [parts[-1][..., -1:, :]])
            # the dependencia values are listed row-major over their nodes
            got = np.concatenate(parts, axis=-1 if name == "dependencia" else -2)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, name)


# ---------------------------------------------------------------------------
# sphere fits and parallel H
# ---------------------------------------------------------------------------

def test_sphere_test_torus():
    cs = named_example("clifford_torus")
    fit = verify_helix(cs.patch, cs.plane, (12, 12)).sphere
    assert fit.ok
    assert fit.radius == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert fit.defect < 1e-10


def test_sphere_test_plane_has_no_finite_sphere():
    cs = named_example("plane")
    fit = verify_helix(cs.patch, cs.plane, (8, 8)).sphere
    assert not fit.ok
    assert "no finite sphere" in fit.reason


def test_parallel_h_from_report():
    cs = generate("product_circles", r1=1.0, r2=0.7)
    rep = verify_helix(cs.patch, cs.plane, (15, 15))
    assert max(rep.parallel_h) < 1e-6
    cone = named_example("orbit_cone")
    rep2 = verify_helix(cone.patch, cone.plane, (15, 15))
    assert max(rep2.parallel_h) > 1e-2


def test_totally_geodesic_parallel_h():
    cs = named_example("plane")
    rep = verify_helix(cs.patch, cs.plane, (8, 8))
    assert max(rep.parallel_h) < 1e-12


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_parallel_h_field_is_the_residual_max(name):
    # one computation feeds both views, so they agree bit for bit
    cs = named_example(name)
    rep = verify_helix(cs.patch, cs.plane, (15, 18))
    assert max(rep.parallel_h) == rep.residuals["parallel_h"].max


# ---------------------------------------------------------------------------
# report serialization (the CSV and OBJ files are tested with the CLI)
# ---------------------------------------------------------------------------

def test_report_json():
    cs = named_example("clifford_torus")
    rep = verify_helix(cs.patch, cs.plane, (6, 6))
    d = rep.to_json_dict()
    for key in ("angle_stats", "residuals", "gauss_circle_std", "sphere",
                "parallel_h", "grid"):
        assert key in d
