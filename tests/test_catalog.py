"""Catalog generators as ground truth for the analysis machinery."""

import math

import numpy as np
import pytest

from helix4.catalog import (EXAMPLE_NAMES, PI_12, PI_34, CurveJet, generate,
                            helix_curve, line_curve, named_example,
                            orbit_surface, spherical_helix_curve)
from helix4.grassmann import Plane, principal_angles
from helix4.surface_analysis import verify_helix

E4 = np.eye(4)


def tangent_plane(jet) -> Plane:
    t1 = jet.p_u / np.linalg.norm(jet.p_u)
    w = jet.p_v - (jet.p_v @ t1) * t1
    return Plane(t1, w / np.linalg.norm(w))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_expected_angles_match_pointwise(name):
    cs = named_example(name)
    us = np.linspace(*cs.patch.u_range, 7)
    vs = np.linspace(*cs.patch.v_range, 7)
    for u in us:
        for v in vs:
            pa = principal_angles(tangent_plane(cs.patch.jet(u, v)), cs.plane)
            assert abs(pa.theta1 - cs.expected.theta1) < 1e-10
            assert abs(pa.theta2 - cs.expected.theta2) < 1e-10


@pytest.mark.parametrize("name", ["clifford_torus", "product_circles",
                                  "helix_cylinder", "orbit_cone",
                                  "orbit_helix", "spherical_helix_revolution"])
def test_catalog_surfaces_verify_as_helices(name):
    cs = named_example(name)
    rep = verify_helix(cs.patch, cs.plane, (15, 15))
    assert rep.angle_std() < 1e-9
    assert rep.residuals["alpha_t1t2"].max < 1e-8 * max(
        np.nanmax(np.abs(rep.m1)), np.nanmax(np.abs(rep.m2)), 1.0)
    assert rep.residuals["gauss_curvature"].max < 1e-8
    assert rep.residuals["normal_curvature"].max < 1e-8


def test_clifford_expected_angles():
    cs = generate("clifford_torus", r1=1.0, r2=1.0)
    assert cs.expected.theta1 == 0.0
    assert cs.expected.theta2 == math.pi / 2
    assert np.allclose(cs.plane.frame(), PI_12.frame())


def test_cylinder_slope_angle():
    cs = generate("product_helix_cylinder", theta=math.pi / 5)
    assert cs.expected.theta1 == 0.0
    assert cs.expected.theta2 == pytest.approx(math.pi / 5)
    assert np.allclose(cs.plane.frame(), PI_34.frame())
    # pitch/radius consistency is enforced
    with pytest.raises(ValueError):
        generate("product_helix_cylinder", theta=math.pi / 5, radius=1.0,
                 pitch=1.0)
    cs2 = generate("product_helix_cylinder", theta=math.pi / 4, radius=0.7)
    assert cs2.expected.theta2 == pytest.approx(math.pi / 4)


def test_plane_parallel_to_reference():
    cs = named_example("plane")
    assert cs.expected.theta1 == pytest.approx(0.0, abs=1e-12)
    assert cs.expected.theta2 == pytest.approx(0.0, abs=1e-12)


def test_degenerate_radii_rejected():
    with pytest.raises(ValueError):
        generate("product_circles", r1=0.0, r2=1.0)
    with pytest.raises(ValueError):
        generate("product_helix_cylinder", theta=0.0)


def test_unknown_kind_and_example():
    with pytest.raises(ValueError):
        generate("moebius")
    with pytest.raises(ValueError):
        named_example("nope")


@pytest.mark.parametrize("kind, params", [
    ("plane", {"foo": 1}),
    ("clifford_torus", {"r1": 1.0, "radius": 2.0}),
    ("product_helix_cylinder", {"theta": 0.6, "r1": 1.0}),
    ("graph_poly", {"f_coeffs": [[0.0]], "g_coeffs": [[0.0]], "domain": [0, 1]}),
])
def test_unknown_parameters_are_rejected(kind, params):
    key = list(params)[-1]
    with pytest.raises(ValueError, match=f"{kind} has no parameter '{key}'"):
        generate(kind, **params)


# ---------------------------------------------------------------------------
# orbit construction
# ---------------------------------------------------------------------------

def test_orbit_rejects_curve_in_fixed_plane():
    gamma = line_curve(E4[0], E4[1])  # lives inside the fixed plane
    with pytest.raises(ValueError, match="orbit degenerates|does not make"):
        orbit_surface(gamma, PI_12, (0.1, 1.0))


def test_orbit_rejects_varying_angle():
    def parabola(s: np.ndarray) -> CurveJet:
        one, zero = np.ones_like(s), np.zeros_like(s)
        return CurveJet(np.stack([s, zero, 1.0 + s * s, zero], axis=-1),
                        np.stack([one, zero, 2 * s, zero], axis=-1),
                        np.stack([zero, zero, 2.0 * one, zero], axis=-1))

    with pytest.raises(ValueError, match="constant angle"):
        orbit_surface(parabola, PI_12, (0.1, 1.0))


def test_orbit_cone_is_a_helix_with_right_angles():
    theta = math.pi / 6
    cs = generate("revolution_orbit", profile="line", theta=theta)
    assert cs.expected.theta1 == pytest.approx(theta, abs=1e-12)
    assert cs.expected.theta2 == pytest.approx(math.pi / 2, abs=1e-12)
    rep = verify_helix(cs.patch, cs.plane, (12, 12))
    assert rep.angle_std() < 1e-9


def test_orbit_flow_lines_are_geodesics():
    # the generator itself checks this; re-verify directly on a sample
    cs = named_example("orbit_helix")
    jet = cs.patch.jet(1.0, 0.8)
    t = jet.p_u / np.linalg.norm(jet.p_u)
    w = jet.p_v - (jet.p_v @ t) * t
    w /= np.linalg.norm(w)
    assert abs(jet.p_uu @ w) < 1e-9 * max(1.0, np.linalg.norm(jet.p_uu))


def test_spherical_helix_profile():
    R, beta = 1.0, 1.0
    gamma = spherical_helix_curve(R, beta)
    for u in np.linspace(0.2, 0.6, 7):
        cj = gamma(u)
        assert np.linalg.norm(cj.c) == pytest.approx(R, abs=1e-12)
        t = cj.d1 / np.linalg.norm(cj.d1)
        assert t[2] == pytest.approx(math.cos(beta), abs=1e-12)
        # finite-difference check of the stored second derivative
        h = 1e-6
        fd = (gamma(u + h).d1 - gamma(u - h).d1) / (2 * h)
        assert np.allclose(fd, cj.d2, atol=1e-6)
    with pytest.raises(ValueError):
        gamma(0.95 * R)  # outside the slope band
    with pytest.raises(ValueError):
        spherical_helix_curve(R, 0.0)


def test_spherical_helix_revolution_is_spherical_with_zero_angle():
    cs = named_example("spherical_helix_revolution")
    assert cs.expected.theta1 == pytest.approx(0.0, abs=1e-12)
    assert cs.expected.theta2 == pytest.approx(1.0, abs=1e-12)
    fit = verify_helix(cs.patch, cs.plane, (12, 12)).sphere
    assert fit.ok and fit.defect < 1e-8
    assert fit.radius == pytest.approx(1.0, abs=1e-10)


def test_parallel_h_dichotomy():
    # the circles product has parallel mean curvature; the cone and the
    # spherical revolution do not (they are not extrinsic products)
    torus = named_example("product_circles")
    rep = verify_helix(torus.patch, torus.plane, (15, 15))
    assert max(rep.parallel_h) < 1e-6

    cone = named_example("orbit_cone")
    rep2 = verify_helix(cone.patch, cone.plane, (15, 15))
    assert max(rep2.parallel_h) > 1e-2

    sph = named_example("spherical_helix_revolution")
    rep3 = verify_helix(sph.patch, sph.plane, (15, 15))
    assert max(rep3.parallel_h) > 1e-2


def test_graph_poly_jets_are_exact():
    cs = generate("graph_poly", f_coeffs=[[0, 0, 1.0]], g_coeffs=[[0, 0], [0, 2.0]])
    jet = cs.patch.jet(0.5, 0.25)                      # f = y^2, g = 2xy
    assert jet.p[2] == pytest.approx(0.0625)
    assert jet.p_v[2] == pytest.approx(0.5)            # f_y = 2y
    assert jet.p_vv[2] == pytest.approx(2.0)
    assert jet.p_uv[3] == pytest.approx(2.0)           # g_xy
