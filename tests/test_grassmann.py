"""Plane / principal-angle / bivector unit tests."""

import math

import numpy as np
import pytest

from helix4.grassmann import (
    DEGENERATE_TOL,
    Plane,
    bivector_inner,
    canonical_sign,
    complement_frames,
    hodge,
    orthogonal_complement,
    plane_angles_via_bivectors,
    plane_bivector,
    plane_from_json,
    plane_to_json,
    planes_with_angles,
    principal_angles,
    random_plane,
    stacked_angles,
    wedge,
)
from helix4 import grassmann
from helix4.grassmann import _gauss_coords
from helix4.surface_analysis import SurfaceJet, adapted_frames

E = np.eye(4)
PI12 = Plane(E[0], E[1])
PI34 = Plane(E[2], E[3])


def test_identical_planes_have_zero_angles():
    pa = principal_angles(PI12, PI12)
    assert pa.theta1 == pytest.approx(0.0, abs=1e-14)
    assert pa.theta2 == pytest.approx(0.0, abs=1e-14)
    assert pa.degenerate


def test_orthogonal_planes_have_right_angles():
    pa = principal_angles(PI12, PI34)
    assert pa.theta1 == pytest.approx(math.pi / 2, abs=1e-14)
    assert pa.theta2 == pytest.approx(math.pi / 2, abs=1e-14)


def test_constructed_pair_reproduces_pi6_pi3():
    V, W = planes_with_angles(math.pi / 6, math.pi / 3)
    pa = principal_angles(V, W)
    assert pa.theta1 == pytest.approx(math.pi / 6, abs=1e-12)
    assert pa.theta2 == pytest.approx(math.pi / 3, abs=1e-12)
    assert not pa.degenerate
    # the principal direction for theta1 is v1 up to sign
    v1 = math.cos(math.pi / 6) * E[1] + math.sin(math.pi / 6) * E[3]
    assert min(np.linalg.norm(pa.v1 - v1), np.linalg.norm(pa.v1 + v1)) < 1e-10


def test_rejects_non_orthonormal_frame():
    with pytest.raises(ValueError):
        Plane(np.array([1.0, 1e-6, 0, 0]), E[1])
    with pytest.raises(ValueError):
        Plane(E[0], np.array([1e-6, 1.0, 0, 0]))


def test_round_trip_random_angles():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        t1, t2 = np.sort(rng.uniform(0.0, math.pi / 2, size=2))
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        q *= np.sign(np.diag(r))
        V, W = planes_with_angles(t1, t2, basis=q)
        pa = principal_angles(V, W)
        assert abs(pa.theta1 - t1) < 1e-10
        assert abs(pa.theta2 - t2) < 1e-10


def test_complement_law():
    rng = np.random.default_rng(11)
    for _ in range(300):
        V, W = random_plane(rng), random_plane(rng)
        pa = principal_angles(V, W)
        pp = principal_angles(V, orthogonal_complement(W))
        assert abs(pp.theta1 - (math.pi / 2 - pa.theta2)) < 1e-10
        assert abs(pp.theta2 - (math.pi / 2 - pa.theta1)) < 1e-10


def test_complement_is_involutive_and_oriented():
    rng = np.random.default_rng(3)
    for _ in range(50):
        W = random_plane(rng)
        Wp = orthogonal_complement(W)
        frame = np.stack([W.b1, W.b2, Wp.b1, Wp.b2], axis=1)
        assert np.linalg.det(frame) > 0
        Wpp = orthogonal_complement(Wp)
        # same subspace: projections agree
        for v in np.eye(4):
            assert np.allclose(Wpp.project(v), W.project(v), atol=1e-12)
    assert np.allclose(orthogonal_complement(PI12).frame(), PI34.frame(), atol=1e-15)


def stratified_pairs(rng, n):
    """n plane pairs (V, W) in each of three angle strata: uniform angles,
    angles near the ends of [0, pi/2], near-coincident angles."""
    half_pi = math.pi / 2
    t1 = rng.uniform(0.0, half_pi - 1e-10, n)
    angles = np.concatenate([
        np.sort(rng.uniform(0.0, half_pi, (n, 2)), axis=1),
        np.column_stack([rng.uniform(0.0, 1e-7, n), half_pi - rng.uniform(0.0, 1e-7, n)]),
        np.column_stack([t1, t1 + rng.uniform(0.0, 1e-10, n)])])
    bases = []
    for _ in range(3 * n):
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        bases.append(q * np.sign(np.diag(r)))
    return [planes_with_angles(a, b, basis=q) for (a, b), q in zip(angles, bases)], angles


def complement_sine_angles(A, B):
    """Oracle: the angles with their sines taken from the cross-Gram of the
    oriented complement A-perp with B instead of the residual B - A A^T B."""
    c = np.linalg.svd(np.swapaxes(A, -1, -2) @ B, compute_uv=False)
    s = np.linalg.svd(np.swapaxes(complement_frames(A), -1, -2) @ B, compute_uv=False)
    return np.arctan2(np.minimum(s[..., ::-1], 1.0), np.minimum(c, 1.0))


def test_residual_sines_match_planted_angles_and_the_complement_oracle():
    pairs, planted = stratified_pairs(np.random.default_rng(29), 200)
    A = np.stack([W.frame() for _, W in pairs])
    B = np.stack([V.frame() for V, _ in pairs])
    k = stacked_angles(A, B)
    # uniform, near the ends of [0, pi/2], near-coincident
    for err in np.split(np.abs(k.theta - planted), 3):
        assert err.max() <= 1e-15
    assert np.abs(k.theta - complement_sine_angles(A, B)).max() <= 1e-15
    assert k.degenerate.tolist() == [False] * 400 + [True] * 200
    P, _, Qt = np.linalg.svd(np.swapaxes(A, -1, -2) @ B)
    assert np.array_equal(k.dirs_a, np.swapaxes(P, -1, -2) @ np.swapaxes(A, -1, -2))
    assert np.array_equal(k.dirs_b, Qt @ np.swapaxes(B, -1, -2))


def test_stacked_angles_takes_two_svds_and_no_complement(monkeypatch):
    svd, calls = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("stacked_angles must not need the complement")

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(grassmann, "complement_frames", forbidden)
    V, W = planes_with_angles(0.3, 0.9)
    stacked_angles(W.frame(), V.frame())
    stacked_angles(np.stack([W.frame()] * 3), V.frame())
    assert calls == [True, False, True, False]


def take_along_axis_sign(V):
    """Oracle: the sign of each vector's largest-magnitude entry, the first
    one among equal magnitudes."""
    top = np.take_along_axis(V, np.abs(V).argmax(-1, keepdims=True), -1)[..., 0]
    return np.where(top < 0, -1.0, 1.0)


def test_canonical_sign_takes_the_first_of_equal_magnitudes():
    s = 0.6
    assert canonical_sign(np.array([-s, s, 0.0, 0.0])) == -1.0
    assert canonical_sign(np.array([s, -s, 0.0, 0.0])) == 1.0
    assert canonical_sign(np.array([0.0, 0.0, -s, s])) == -1.0
    # entries from {-s, 0, s}: nearly every vector has tied magnitudes
    V = np.random.default_rng(31).choice([-s, 0.0, s], size=(6, 5, 2, 4))
    for X in (V[0, 0, 0], V[0, 0], V, V.swapaxes(0, 1)):
        sign = canonical_sign(X)
        assert sign.shape == X.shape[:-1]
        assert np.array_equal(sign, take_along_axis_sign(X))


def test_frame_is_a_fresh_array():
    P = Plane(E[0], E[1])
    F = P.frame()
    F[:] = 7.0
    assert np.array_equal(P.frame(), E[:, :2])
    assert np.array_equal(P.b1, E[0]) and np.array_equal(P.b2, E[1])
    assert not np.shares_memory(P.frame(), P.frame())


def test_stacked_kernel_matches_the_one_pair_views_bit_for_bit():
    pairs, _ = stratified_pairs(np.random.default_rng(7), 100)
    A = np.stack([W.frame() for _, W in pairs])
    B = np.stack([V.frame() for V, _ in pairs])
    k = stacked_angles(A, B)
    comp = complement_frames(A)
    assert np.all(np.linalg.det(np.concatenate([A, comp], axis=-1)) > 0)
    assert k.degenerate.tolist() == [False] * 200 + [True] * 100
    for i, (V, W) in enumerate(pairs):
        pa = principal_angles(V, W)
        assert [pa.theta1, pa.theta2] == k.theta[i].tolist()
        assert pa.degenerate == k.degenerate[i]
        if not pa.degenerate:
            d = np.stack([pa.v1, pa.v2])
            assert np.array_equal(d, k.dirs_b[i] * canonical_sign(k.dirs_b[i])[:, None])
            assert np.all(d[[0, 1], np.abs(d).argmax(-1)] > 0)
        assert np.array_equal(orthogonal_complement(W).frame(), comp[i])


@pytest.mark.parametrize("theta1, theta2, degenerate", [
    (1e-5, 2e-5, False),            # distinct angles with nearly equal cosines
    (0.5, 0.5 + 5e-10, True),
    (0.5, 0.5 + 2e-9, False),
])
def test_one_degenerate_rule_on_the_angle_gap(theta1, theta2, degenerate):
    V, W = planes_with_angles(theta1, theta2)
    pa = principal_angles(V, W)
    assert pa.degenerate is degenerate
    assert (abs(pa.theta2 - pa.theta1) < DEGENERATE_TOL) is degenerate
    # the frame pass on the flat patch tangent to V, against W
    zero = np.zeros((1, 1, 4))
    jet = SurfaceJet(zero, V.b1[None, None], V.b2[None, None], zero, zero, zero)
    fr = adapted_frames(jet, W)
    assert fr.degenerate[0, 0] == degenerate
    assert [fr.theta1[0, 0], fr.theta2[0, 0]] == pytest.approx([theta1, theta2], abs=1e-15)


def plucker_defect(b):
    """c12 c34 - c13 c24 + c14 c23: zero exactly on decomposable bivectors."""
    c12, c13, c14, c23, c24, c34 = b
    return c12 * c34 - c13 * c24 + c14 * c23


def gauss_point(P):
    """Oracle: E+ / E- coordinates of the plane's unit bivector eta, written
    out as <eta, E+_k> and <eta, E-_k>; the basis bivectors are self-dual /
    anti-self-dual, so these are the coordinates of (eta +- *eta)/2."""
    c12, c13, c14, c23, c24, c34 = plane_bivector(P)
    return (np.array([c12 + c34, c13 - c24, c14 + c23]) / math.sqrt(2.0),
            np.array([c12 - c34, c13 + c24, c14 - c23]) / math.sqrt(2.0))


def test_wedge_basics():
    assert np.allclose(wedge(E[0], E[1]), [1, 0, 0, 0, 0, 0])
    u = np.array([1.0, 2.0, -0.5, 3.0])
    assert np.allclose(wedge(u, u), 0.0)
    assert bivector_inner(wedge(E[0], E[1]), wedge(E[1], E[0])) == pytest.approx(-1.0)


def test_hodge_star():
    assert np.allclose(hodge(wedge(E[0], E[1])), wedge(E[2], E[3]))
    rng = np.random.default_rng(5)
    for _ in range(20):
        b = rng.standard_normal(6)
        assert np.allclose(hodge(hodge(b)), b)
        # <a, *b> equals the wedge pairing a ^ b
        a = rng.standard_normal(6)
        pairing = (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
                   + a[3] * b[2] - a[4] * b[1] + a[5] * b[0])
        assert bivector_inner(a, hodge(b)) == pytest.approx(pairing, abs=1e-12)


def test_wedge_hodge_and_gauss_coordinates_on_arrays_match_rows():
    rng = np.random.default_rng(13)
    u, v = rng.standard_normal((2, 5, 3, 4))
    b = wedge(u, v)
    assert b.shape == (5, 3, 6)
    rows = np.array([wedge(x, y) for x, y in zip(u.reshape(-1, 4), v.reshape(-1, 4))])
    assert np.array_equal(b.reshape(-1, 6), rows)
    assert np.array_equal(hodge(b).reshape(-1, 6), np.array([hodge(r) for r in rows]))
    planes = [random_plane(rng) for _ in range(15)]
    plus, minus = _gauss_coords(wedge([P.b1 for P in planes], [P.b2 for P in planes]))
    for P, p, m in zip(planes, plus, minus):
        gp_plus, gp_minus = gauss_point(P)
        assert np.allclose(p, gp_plus, rtol=0, atol=1e-15)
        assert np.allclose(m, gp_minus, rtol=0, atol=1e-15)
    u[1, 2, 0] = np.nan
    for bad in ((u, v), (u[..., :3], v[..., :3])):
        with pytest.raises(ValueError):
            wedge(*bad)
    with pytest.raises(ValueError):
        hodge(np.zeros((3, 4)))


def test_decomposable_bivectors_are_hodge_isotropic():
    rng = np.random.default_rng(9)
    for _ in range(100):
        b = wedge(rng.standard_normal(4), rng.standard_normal(4))
        assert abs(plucker_defect(b)) <= 1e-10 * max(1.0, bivector_inner(b, b))
        assert abs(bivector_inner(b, hodge(b))) < 1e-10 * max(1.0, bivector_inner(b, b))


def test_gauss_point_e2_e4():
    plus, minus = _gauss_coords(plane_bivector(Plane(E[1], E[3])))
    s = math.sqrt(2.0) / 2.0
    # only the middle E+/E- coordinate is populated for e2 ^ e4
    assert abs(abs(plus[1]) - s) < 1e-14
    assert np.allclose(plus[[0, 2]], 0.0, atol=1e-15)
    assert abs(abs(minus[1]) - s) < 1e-14
    assert np.allclose(minus[[0, 2]], 0.0, atol=1e-15)


def test_gauss_point_norms_and_orientation():
    rng = np.random.default_rng(13)
    for _ in range(200):
        P = random_plane(rng)
        plus, minus = _gauss_coords(plane_bivector(P))
        assert abs(np.linalg.norm(plus) - math.sqrt(0.5)) < 1e-10
        assert abs(np.linalg.norm(minus) - math.sqrt(0.5)) < 1e-10
        assert np.linalg.norm(plus) ** 2 + np.linalg.norm(minus) ** 2 == pytest.approx(1.0)
        rev_plus, rev_minus = _gauss_coords(plane_bivector(P.reversed()))
        assert np.allclose(rev_plus, -plus, atol=1e-14)
        assert np.allclose(rev_minus, -minus, atol=1e-14)
        assert abs(plucker_defect(plane_bivector(P))) < 1e-12


def test_bivector_angles_match_principal_angles():
    V, W = planes_with_angles(math.pi / 6, math.pi / 3)
    theta, theta_perp = plane_angles_via_bivectors(V, W)
    assert abs(abs(math.cos(theta)) - math.sqrt(3.0) / 4.0) < 1e-12
    assert plane_angles_via_bivectors(V, V)[0] == pytest.approx(0.0, abs=1e-7)
    t, tp = plane_angles_via_bivectors(PI12, PI34)
    assert abs(abs(math.cos(tp)) - 1.0) < 1e-12


def test_product_law_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(300):
        V, W = random_plane(rng), random_plane(rng)
        pa = principal_angles(V, W)
        theta, theta_perp = plane_angles_via_bivectors(V, W)
        assert abs(abs(math.cos(theta)) - math.cos(pa.theta1) * math.cos(pa.theta2)) < 1e-10
        assert abs(abs(math.cos(theta_perp)) - math.sin(pa.theta1) * math.sin(pa.theta2)) < 1e-10


def test_plane_json_round_trip():
    rng = np.random.default_rng(23)
    P = random_plane(rng)
    obj = plane_to_json(P)
    assert set(obj) == {"b1", "b2", "oriented"}
    Q = plane_from_json(obj)
    assert np.allclose(Q.frame(), P.frame())
    assert not plane_from_json({**obj, "oriented": False}).oriented
    with pytest.raises(TypeError, match="missing field 'b2'"):
        plane_from_json({"b1": [1, 0, 0, 0]})


@pytest.mark.parametrize("field, obj", [
    ("b1", {"b1": [True, 0, 0, 0], "b2": [0, 1, 0, 0]}),
    ("b2", {"b1": [1, 0, 0, 0], "b2": [0, 0, "1", 0]}),
    ("b2", {"b1": [1, 0, 0, 0], "b2": [0, 0, "x", 0]}),
    ("b2", {"b1": [1, 0, 0, 0], "b2": [0, None, 0, 0]}),
    ("b1", {"b1": [[1, 0], [0, 0]], "b2": [0, 1, 0, 0]}),
    ("b1", {"b1": "abcd", "b2": [0, 1, 0, 0]}),
    ("b1", {"b1": 1, "b2": [0, 1, 0, 0]}),
    ("oriented", {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0], "oriented": "false"}),
    ("oriented", {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0], "oriented": 0}),
    ("oriented", {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0], "oriented": None}),
])
def test_plane_json_of_the_wrong_type_is_a_type_error(field, obj):
    with pytest.raises(TypeError, match=f"field {field} "):
        plane_from_json(obj)


@pytest.mark.parametrize("obj", [
    {"b1": [1, 0, 0], "b2": [0, 1, 0, 0]},
    {"b1": [1e400, 0, 0, 0], "b2": [0, 1, 0, 0]},
    {"b1": [10 ** 400, 0, 0, 0], "b2": [0, 1, 0, 0]},
    {"b1": [1, 1, 0, 0], "b2": [0, 1, 0, 0]},
])
def test_plane_json_of_a_bad_frame_is_a_value_error(obj):
    with pytest.raises(ValueError):
        plane_from_json(obj)
