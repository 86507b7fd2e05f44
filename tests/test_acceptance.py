"""Acceptance criteria; each test prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they execute.
"""

import math
import time

import numpy as np
import pytest

from helix4.catalog import (PI_12, generate, named_example, round_sphere_patch)
from helix4.grassmann import (orthogonal_complement, plane_angles_via_bivectors,
                              planes_with_angles, principal_angles, random_plane)
from helix4.helix_construct import (HelixParams, default_problem, deform,
                                    deform_inverse, find_noncharacteristic_seed,
                                    recover_g, residual_maxima, solution_graph,
                                    solve_pde)
from helix4.surface_analysis import (composition_test, first_normal_rank,
                                     fundamental_forms, verify_helix)

C_NORM = 10.0 / 3.0


def gate(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {detail} -- {'PASS' if passed else 'FAIL'}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared constructions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pde_family():
    """The (pi/6, pi/3) construction at three refinement levels."""
    seed = find_noncharacteristic_seed(C_NORM)
    t0 = time.perf_counter()
    sols = {}
    for h in (4e-3, 2e-3, 1e-3):
        prob = default_problem(C_NORM, x_range=(-0.05, 0.05), y_max=0.008,
                               hx=h, hy=h, seed=seed)
        sols[h] = recover_g(solve_pde(prob))
    elapsed = time.perf_counter() - t0
    return sols, elapsed


def _max_residuals(sol, params):
    """(helix, symplecto) max deviations over the common interior region."""
    G = solution_graph(sol)
    xs = G.xs[1:-1]
    window = (-0.03 <= xs) & (xs <= 0.03)
    grads = [a[1:-1, 1:-1][window] for a in G.gradients()]
    helix = max(residual_maxima(("helix_trace", "helix_det"), grads, params))
    sympl = max(residual_maxima(("symplecto_det", "symplecto_norm"), grads, params))
    return helix, sympl


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_angle_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        t1, t2 = np.sort(rng.uniform(0.0, math.pi / 2, size=2))
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        q *= np.sign(np.diag(r))
        V, W = planes_with_angles(t1, t2, basis=q)
        pa = principal_angles(V, W)
        worst = max(worst, abs(pa.theta1 - t1), abs(pa.theta2 - t2))
    elapsed = time.perf_counter() - t0
    gate("criterion 1",
         worst < 1e-10 and elapsed < 1.0,
         f"angle oracle: 1000 round trips, max error {worst:.2e} (< 1e-10), "
         f"runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_complement_and_product_laws():
    rng = np.random.default_rng(77)
    worst_c = worst_p = 0.0
    for _ in range(1000):
        V, W = random_plane(rng), random_plane(rng)
        pa = principal_angles(V, W)
        pp = principal_angles(V, orthogonal_complement(W))
        worst_c = max(worst_c,
                      abs(pp.theta1 - (math.pi / 2 - pa.theta2)),
                      abs(pp.theta2 - (math.pi / 2 - pa.theta1)))
        theta, theta_perp = plane_angles_via_bivectors(V, W)
        worst_p = max(worst_p,
                      abs(abs(math.cos(theta))
                          - math.cos(pa.theta1) * math.cos(pa.theta2)),
                      abs(abs(math.cos(theta_perp))
                          - math.sin(pa.theta1) * math.sin(pa.theta2)))
    gate("criterion 2",
         worst_c < 1e-10 and worst_p < 1e-10,
         f"complement law max {worst_c:.2e}, product law max {worst_p:.2e} "
         "(both < 1e-10 over 1000 pairs)")


def test_criterion_3_clifford_torus():
    cs = named_example("clifford_torus")
    rep = verify_helix(cs.patch, cs.plane, (50, 50))
    std = rep.angle_std()
    k = rep.residuals["gauss_curvature"].max
    kp = rep.residuals["normal_curvature"].max
    ph = max(rep.parallel_h)
    means_ok = (abs(rep.angle_stats["theta1"][0]) < 1e-12
                and abs(rep.angle_stats["theta2"][0] - math.pi / 2) < 1e-12)
    gate("criterion 3",
         std < 1e-9 and k < 1e-8 and kp < 1e-8 and ph < 1e-6 and means_ok,
         f"Clifford torus 50x50: angle std {std:.2e} (< 1e-9), K {k:.2e}, "
         f"K_perp {kp:.2e} (< 1e-8), parallel-H {ph:.2e} (< 1e-6)")


def test_criterion_4_helix_cylinder():
    cs = named_example("helix_cylinder")
    rep = verify_helix(cs.patch, cs.plane, (50, 50))
    a1 = abs(rep.angle_stats["theta1"][0] - 0.0)
    a2 = abs(rep.angle_stats["theta2"][0] - math.pi / 5)
    std = rep.angle_std()
    cod = max(rep.residuals[k].max
              for k in ("codazzi_c1", "codazzi_c2", "codazzi_c3", "codazzi_c4"))
    gate("criterion 4",
         a1 < 1e-9 and a2 < 1e-9 and std < 1e-9 and cod < 1e-6,
         f"cylinder slope pi/5: angle errors ({a1:.2e}, {a2:.2e}) (< 1e-9), "
         f"Codazzi C1-C4 max {cod:.2e} (< 1e-6)")


def test_criterion_5_pde_construction(pde_family):
    sols, elapsed = pde_family
    params = HelixParams(math.pi / 6, math.pi / 3)
    c_ok = (abs(params.c1 - C_NORM) < 1e-12
            and abs(params.c2 - 1.0) < 1e-12)
    res = {}
    for h, sol in sols.items():
        res[h] = _max_residuals(sol, params)
    helix_f = res[1e-3][0]
    orders_h = [math.log2(res[4e-3][0] / res[2e-3][0]),
                math.log2(res[2e-3][0] / res[1e-3][0])]
    orders_s = [math.log2(res[4e-3][1] / res[2e-3][1]),
                math.log2(res[2e-3][1] / res[1e-3][1])]
    gate("criterion 5",
         c_ok and helix_f < 1e-3 and min(orders_h) >= 1.5
         and min(orders_s) >= 1.5 and elapsed < 60.0,
         f"PDE (pi/6, pi/3): c1=10/3, c2=1; finest helix residual "
         f"{helix_f:.2e} (< 1e-3), orders helix {orders_h[0]:.2f}/"
         f"{orders_h[1]:.2f}, symplecto {orders_s[0]:.2f}/{orders_s[1]:.2f} "
         f"(>= 1.5), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_6_rank_two_not_a_composition(pde_family):
    sols, _ = pde_family
    G = solution_graph(sols[1e-3])
    xs, ys = G.xs, G.ys
    ranks = first_normal_rank(fundamental_forms(G.patch().sample(xs, ys)))[1:-1, 1:-1]
    frac2 = float(np.mean(ranks == 2))
    verdict = composition_test(G.patch(), PI_12, (xs.size, ys.size),
                               geo_tol=1e-3)
    all_false = not (verdict.rank1_n1 or verdict.t1_geodesic
                     or verdict.t2_geodesic)
    gate("criterion 6",
         frac2 >= 0.9 and verdict.applicable and all_false
         and verdict.consistent and verdict.composition is False,
         f"rank-2 construction: N1 rank 2 on {100 * frac2:.1f}% of interior "
         f"(>= 90%), composition criteria all false and consistent "
         f"(dt maxes {verdict.max_dt_t1:.2f}, {verdict.max_dt_t2:.2f})")


def test_criterion_7_deformation_family():
    eps = 1e-3
    worst = 0.0
    for t1 in np.linspace(eps, math.pi / 2 - 2 * eps, 20):
        for t2 in np.linspace(t1 + eps, math.pi / 2 - eps, 20):
            m, c = deform_inverse((t1, t2))
            pa = deform(m, c)
            worst = max(worst, abs(pa.theta1 - t1), abs(pa.theta2 - t2))
    pa = deform(1.0, C_NORM)
    pin = max(abs(pa.theta1 - math.pi / 6), abs(pa.theta2 - math.pi / 3))
    gate("criterion 7",
         worst < 1e-12 and pin < 1e-12,
         f"deformation: 20x20 round-trip max {worst:.2e} (< 1e-12), "
         f"(1, 10/3) -> (pi/6, pi/3) error {pin:.2e} (< 1e-12)")


def test_criterion_8_gauss_map_circles(pde_family):
    sols, _ = pde_family
    surfaces = []
    for name in ("clifford_torus", "product_circles", "helix_cylinder",
                 "orbit_cone", "spherical_helix_revolution"):
        cs = named_example(name)
        surfaces.append((name, cs.patch, cs.plane, (30, 30), 1e-9))
    G = solution_graph(sols[1e-3])
    xs, ys = G.xs, G.ys
    # the marching error bounds the PDE surface's angle deviation by the
    # criterion-5 residual level, which sets its gate
    surfaces.append(("pde", G.patch(), PI_12, (xs.size, ys.size), 1e-3))

    worst_ratio = 0.0
    worst_cross = 0.0
    for name, patch, plane, grid, angle_gate in surfaces:
        rep = verify_helix(patch, plane, grid)
        assert rep.helix_pass(angle_gate), f"{name} fails its angle gate"
        worst_ratio = max(worst_ratio,
                          max(rep.gauss_circle_std) / (10 * angle_gate))
        worst_cross = max(worst_cross, rep.alpha_theta_max)
    gate("criterion 8",
         worst_ratio < 1.0 and worst_cross < 1e-9,
         f"Gauss-map circles: worst circle-std / (10 x gate) = "
         f"{worst_ratio:.3f} (< 1), alpha-theta cross-check max "
         f"{worst_cross:.2e} (< 1e-9 pointwise) over 6 helix surfaces")


def test_criterion_9_sphere_dichotomy():
    cs = named_example("spherical_helix_revolution")
    fit = verify_helix(cs.patch, cs.plane, (30, 30)).sphere
    rep = verify_helix(cs.patch, cs.plane, (15, 15))
    theta1 = rep.angle_stats["theta1"][0]

    # a generic construction over a window wide enough that the sphere fit
    # genuinely fails (small patches osculate spheres to high relative order)
    seed = (-1.1555635129241884, -0.514463767041285)
    prob = default_problem(C_NORM, x_range=(-0.3, 0.3), y_max=0.04,
                           hx=2e-3, hy=2e-3, seed=seed, curvature=0.5)
    sol = recover_g(solve_pde(prob))
    G = solution_graph(sol)
    xs, ys = G.xs, G.ys
    rep_pde = verify_helix(G.patch(), PI_12, (xs.size, ys.size))
    assert rep_pde.helix_pass(1e-3)
    fit_pde = rep_pde.sphere
    gate("criterion 9",
         fit.ok and fit.defect < 1e-8 and abs(theta1) < 1e-9
         and fit_pde.ok and fit_pde.defect > 1e-3,
         f"sphere dichotomy: spherical revolution defect {fit.defect:.2e} "
         f"(< 1e-8) with theta1 = {theta1:.2e}; generic PDE surface defect "
         f"{fit_pde.defect:.2e} (> 1e-3)")


def test_criterion_10_negative_controls():
    rep_s = verify_helix(round_sphere_patch(1.0), PI_12, (15, 15))
    rng = np.random.default_rng(42)
    cs = generate("graph_poly",
                  f_coeffs=rng.normal(scale=0.5, size=(3, 3)),
                  g_coeffs=rng.normal(scale=0.5, size=(3, 3)))
    rep_p = verify_helix(cs.patch, cs.plane, (15, 15))
    gate("criterion 10",
         rep_s.angle_std() > 1e-2 and rep_p.angle_std() > 1e-2,
         f"negative controls: round sphere angle std {rep_s.angle_std():.2e}, "
         f"random polynomial graph {rep_p.angle_std():.2e} (both > 1e-2)")
