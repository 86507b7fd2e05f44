"""Plane / principal-angle / bivector unit tests."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from helix4.grassmann import (
    DEGENERATE_TOL,
    Plane,
    PrincipalAngles,
    canonical_sign,
    complement_frames,
    hodge,
    orthogonal_complement,
    plane_angles_via_bivectors,
    plane_bivector,
    planes_with_angles,
    principal_angles,
    random_plane,
    stacked_angles,
    wedge,
)
from helix4.grassmann import _gauss_coords
from helix4.surface_analysis import SurfaceJet, _tangent_frame, adapted_frames

E = np.eye(4)
PI12 = Plane(E[0], E[1])
PI34 = Plane(E[2], E[3])


def bivector_inner(a, b) -> float:
    """Scalar product on Lambda^2 R^4 (the wedge basis is orthonormal)."""
    return float(np.asarray(a, dtype=float) @ np.asarray(b, dtype=float))


def reversed_plane(P):
    """The same plane with the opposite orientation (frame vectors swapped)."""
    return Plane(P.b2, P.b1, P.oriented)


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


def array_planes_with_angles(theta1, theta2, basis):
    """Oracle: ``planes_with_angles`` as numpy array arithmetic on the columns."""
    w1, w2, w3, w4 = basis.T
    return ((math.cos(theta1) * w2 + math.sin(theta1) * w4,
             math.cos(theta2) * w1 + math.sin(theta2) * w3), (w1, w2))


def test_planes_with_angles_match_the_array_formula_bit_for_bit():
    rng = np.random.default_rng(37)
    cases = [(0.3, 0.9, E), (0.0, math.pi / 2, E)]
    for _ in range(1000):
        t1, t2 = np.sort(rng.uniform(0.0, math.pi / 2, size=2))
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        cases.append((t1, t2, q * np.sign(np.diag(r))))
    for t1, t2, basis in cases:
        V, W = planes_with_angles(t1, t2, basis=basis)
        expected = np.array(array_planes_with_angles(t1, t2, basis))
        assert np.array_equal(np.array([[V.b1, V.b2], [W.b1, W.b2]]), expected)
    V, W = planes_with_angles(0.3, 0.9)
    assert np.array_equal(np.array([[V.b1, V.b2], [W.b1, W.b2]]),
                          np.array(array_planes_with_angles(0.3, 0.9, E)))


def is_float_4_tuple(v) -> bool:
    return type(v) is tuple and len(v) == 4 and all(type(x) is float for x in v)


def test_plane_owns_a_read_only_copy_of_its_frame():
    b1, b2 = E[0].copy(), [0.0, 1.0, 0.0, 0.0]
    P = Plane(b1, b2)
    b1[0], b2[1] = np.nan, 7.0
    assert P.b1 == (1.0, 0.0, 0.0, 0.0) and P.b2 == (0.0, 1.0, 0.0, 0.0)
    for v in (P.b1, P.b2):
        assert is_float_4_tuple(v)
        with pytest.raises(TypeError, match="does not support item assignment"):
            v[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.b1 = (0.0, 0.0, 1.0, 0.0)
    assert not hasattr(P, "__dict__")


def test_planes_share_no_memory_with_their_inputs_or_each_other():
    rng = np.random.default_rng(41)
    P = random_plane(rng)
    Q = Plane(P.b1, P.b2)
    N = orthogonal_complement(P)
    # a frame is a tuple of Python floats, so no array buffer is shared
    assert all(map(is_float_4_tuple, (P.b1, P.b2, Q.b1, Q.b2, N.b1, N.b2)))
    assert Q == P and hash(Q) == hash(P)
    # writing the columns a plane was built from, or its frame() array, leaves it as it was
    F = E.copy()
    R = Plane(F[:, 0], F[:, 1])
    F[:] = np.nan
    P.frame()[:] = np.nan
    assert R == PI12 and Q == P


@pytest.mark.parametrize("make", [random_plane,
                                  lambda rng: orthogonal_complement(random_plane(rng))],
                         ids=["checked", "complement"])
def test_copied_and_unpickled_planes_stay_sealed(make):
    P = make(np.random.default_rng(43))
    for Q in (copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
        assert type(Q) is Plane and Q.oriented is P.oriented
        assert Q == P and hash(Q) == hash(P)
        for a, b in ((Q.b1, P.b1), (Q.b2, P.b2)):
            assert is_float_4_tuple(a) and a == b
        with pytest.raises(TypeError, match="does not support item assignment"):
            Q.b1[0] = np.nan


def test_planes_compare_and_hash_by_frame_and_orientation():
    P = Plane(E[0], E[1])
    assert P == Plane([1, 0, 0, 0], E[1]) and hash(P) == hash(Plane([1, 0, 0, 0], E[1]))
    assert P == Plane(-0.0 * E[0] + E[0], E[1])
    assert P != Plane(E[0], E[1], oriented=False)
    assert P != reversed_plane(P) and P != PI34 and P != "plane"
    assert len({P, Plane(E[0], E[1]), PI34}) == 2


@pytest.mark.parametrize("b1, b2, message", [
    (np.ones(3), E[1], r"expected a 4-vector, got shape \(3,\)"),
    (E[0], np.eye(2), r"expected a 4-vector, got shape \(2, 2\)"),
    ([np.nan, 0, 0, 0], E[1], "vector has non-finite entries"),
    (E[0], [0, np.inf, 0, 0], "vector has non-finite entries"),
    (E[0], [0, 1, -np.inf, 0], "vector has non-finite entries"),
    ([math.sqrt(1 + 2e-12), 0, 0, 0], E[1], r"unit length \(within 1e-12\)"),
    (E[0], [0, math.sqrt(1 - 2e-12), 0, 0], r"unit length \(within 1e-12\)"),
    ([1, 0, 0, 0], [2e-12, 1, 0, 0], r"orthogonal \(within 1e-12\)"),
    ([math.sqrt(1 + 5e-13), 0, 0, 0], E[1], None),
    (E[0], [0, math.sqrt(1 - 5e-13), 0, 0], None),
    ([1, 0, 0, 0], [5e-13, 1, 0, 0], None),
])
def test_plane_checks_its_frame(b1, b2, message):
    if message is None:
        P = Plane(b1, b2)
        assert P.b1 == tuple(float(x) for x in b1) and P.b2 == tuple(float(x) for x in b2)
        assert is_float_4_tuple(P.b1) and is_float_4_tuple(P.b2)
    else:
        with pytest.raises(ValueError, match=message):
            Plane(b1, b2)


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


def up_to_sign(X, Y):
    """Largest entry difference of the rows of X and Y, each row compared
    with the nearer of +-Y."""
    return np.minimum(np.abs(X - Y).max(-1), np.abs(X + Y).max(-1))


def projector(N):
    return N @ np.swapaxes(N, -1, -2)


def assert_matches_the_one_pair_route(pairs, planted):
    """The array route on the stack of pairs (V, W), as (A, B) = (W, V),
    against planted angles, the complement-sine oracle and the float route of
    the one-pair views: angles to 1e-15, the same degenerate flags,
    directions to 1e-12 up to sign where the pair is not degenerate (with
    canonical signs in the views), complements with projectors to 1e-14 and
    det[A, A-perp] > 0, and bivector cosines to 1e-15 of ``wedge``/``hodge``
    on the stack."""
    A = np.stack([W.frame() for _, W in pairs])
    B = np.stack([V.frame() for V, _ in pairs])
    k = stacked_angles(A, B)
    # uniform, near the ends of [0, pi/2], near-coincident
    for err in np.split(np.abs(k.theta - planted), 3):
        assert err.max() <= 1e-15
    assert np.abs(k.theta - complement_sine_angles(A, B)).max() <= 1e-15
    in_v = [principal_angles(V, W) for V, W in pairs]
    in_w = [principal_angles(W, V) for V, W in pairs]
    for views in (in_v, in_w):
        assert np.abs(k.theta - [[p.theta1, p.theta2] for p in views]).max() <= 1e-15
        assert np.array_equal(k.degenerate, [p.degenerate for p in views])
    loose = ~k.degenerate
    for rows, views in (("dirs_a", in_w), ("dirs_b", in_v)):
        assert all(is_float_4_tuple(p.v1) and is_float_4_tuple(p.v2) for p in views)
        d = np.array([[p.v1, p.v2] for p in views])
        assert up_to_sign(getattr(k, rows), d)[loose].max() <= 1e-12
        assert np.array_equal(canonical_sign(d[loose]), np.ones((loose.sum(), 2)))
    comp = complement_frames(A)
    one = np.array([orthogonal_complement(W).frame() for _, W in pairs])
    assert np.abs(projector(comp) - projector(one)).max() <= 1e-14
    for N in (comp, one):
        assert np.all(np.linalg.det(np.concatenate([A, N], axis=-1)) > 0)
    ev, ew = wedge(B[..., 0], B[..., 1]), wedge(A[..., 0], A[..., 1])
    cosines = np.clip([np.einsum("...k,...k->...", ev, w) for w in (ew, hodge(ew))], -1.0, 1.0)
    angles = np.array([plane_angles_via_bivectors(V, W) for V, W in pairs])
    assert np.abs(np.cos(angles) - cosines.T).max() <= 1e-15
    return k


def test_residual_sines_match_planted_angles_and_the_complement_oracle():
    pairs, planted = stratified_pairs(np.random.default_rng(29), 200)
    k = assert_matches_the_one_pair_route(pairs, planted)
    assert k.degenerate.tolist() == [False] * 400 + [True] * 200


def test_the_plane_kernels_take_no_lapack_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the plane kernels must not call LAPACK")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    V, W = planes_with_angles(0.3, 0.9)
    principal_angles(V, W)
    orthogonal_complement(W)
    plane_angles_via_bivectors(V, W)
    for A in (W.frame(), np.stack([W.frame()] * 3)):
        stacked_angles(A, V.frame())
        stacked_angles(V.frame(), A)
        complement_frames(A)


def test_stacks_of_non_finite_frames_fail_like_lapack():
    V, W = planes_with_angles(0.3, 0.9)
    for bad in (np.nan, np.inf, -np.inf):
        A = np.stack([W.frame()] * 3)
        A[1, 2, 0] = bad
        for call in (lambda: stacked_angles(A, V.frame()),
                     lambda: stacked_angles(V.frame(), A), lambda: complement_frames(A),
                     lambda: stacked_angles(A[1], V.frame()), lambda: complement_frames(A[1])):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                call()


def test_stacked_angles_refuse_frames_past_the_clamp_tolerance():
    V, W = planes_with_angles(0.3, 0.9)
    stack = np.stack([W.frame()] * 3)
    stack[1] *= 2.0
    for A, B in ((2.0 * W.frame(), V.frame()), (V.frame(), 2.0 * W.frame()),
                 (stack, V.frame()), (V.frame(), stack)):
        with pytest.raises(ValueError, match="exceeds 1 beyond tolerance"):
            stacked_angles(A, B)
    # a frame scaled within CLAMP_TOL is clamped, not refused
    k = stacked_angles((1.0 + 1e-9) * W.frame(), W.frame())
    assert k.cos.tolist() == [1.0, 1.0] and np.abs(k.theta).max() < 1e-8


def test_stacked_complement_pivots_on_the_largest_projector_diagonal():
    # the diagonal of I - A A^T is 1/2 throughout, so the pivot takes its
    # first column, and its first two columns are parallel: the cross
    # product, not a second column, completes the frame
    s = math.sqrt(0.5)
    A = np.array([[s, 0.0], [s, 0.0], [0.0, s], [0.0, s]])
    n = complement_frames(A[None])[0]
    assert np.abs(n.T @ n - np.eye(2)).max() <= 1e-15
    assert np.abs(A.T @ n).max() <= 1e-15
    assert np.linalg.det(np.concatenate([A, n], axis=-1)) > 0
    assert np.abs(projector(n) - projector(complement_frames(A))).max() <= 1e-15
    k = stacked_angles(A[None], n[None])
    assert k.theta[0].tolist() == [math.pi / 2, math.pi / 2] and k.degenerate[0]


def axis_frames():
    """Every frame of two signed coordinate axes: the pivot's ties."""
    return [np.stack([a * E[i], b * E[j]], axis=-1) for i in range(4) for j in range(4)
            if i != j for a in (1.0, -1.0) for b in (1.0, -1.0)]


@pytest.mark.parametrize("frames", ["strata", "slack-2e-13", "axes"])
def test_both_complement_routes_are_orthonormal_oriented_and_agree(frames):
    # N^T N = I and A^T N = 0 to 1e-15, det[A, N] > 0, and the float route
    # within 1e-15 of the array route entry by entry, also on frames that
    # are orthonormal only to about 2e-13
    rng = np.random.default_rng(47)
    if frames == "strata":
        pairs, _ = stratified_pairs(rng, 100)
        A = np.stack([P.frame() for pair in pairs for P in pair])
    elif frames == "slack-2e-13":
        A = np.stack([random_plane(rng).frame() for _ in range(2000)])
        A += rng.uniform(-2e-13, 2e-13, A.shape)
    else:
        A = np.stack(axis_frames())
    N = complement_frames(A)
    one = np.array([orthogonal_complement(Plane(a[:, 0], a[:, 1])).frame() for a in A])
    for M in (N, one):
        assert np.abs(np.swapaxes(M, -1, -2) @ M - np.eye(2)).max() <= 1e-15
        assert np.abs(np.swapaxes(A, -1, -2) @ M).max() <= 1e-15
        assert np.all(np.linalg.det(np.concatenate([A, M], axis=-1)) > 0)
    assert np.abs(N - one).max() <= 1e-15


def test_empty_stacks():
    empty = np.zeros((0, 4, 2))
    k = stacked_angles(empty, empty)
    assert [a.shape for a in k] == [(0, 2), (0, 2), (0, 2, 4), (0, 2, 4), (0,)]
    assert complement_frames(empty).shape == (0, 4, 2)


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


def test_stacked_kernel_matches_the_one_pair_views():
    pairs, planted = stratified_pairs(np.random.default_rng(7), 100)
    k = assert_matches_the_one_pair_route(pairs, planted)
    assert k.degenerate.tolist() == [False] * 200 + [True] * 100
    # a degenerate view returns the frame tuples of its first plane
    for (V, W), degenerate in zip(pairs, k.degenerate):
        pa = principal_angles(V, W)
        if degenerate:
            assert pa.v1 is V.b1 and pa.v2 is V.b2


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
    jet = SurfaceJet(zero, np.array([[V.b1]]), np.array([[V.b2]]), zero, zero, zero)
    fr = adapted_frames(_tangent_frame(jet), W)
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
        rev_plus, rev_minus = _gauss_coords(plane_bivector(reversed_plane(P)))
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


def test_angles_out_of_order_are_refused():
    with pytest.raises(ValueError, match="angles out of range: 1.0, 0.5"):
        PrincipalAngles(1.0, 0.5)
    with pytest.raises(ValueError, match="need 0 <= theta1 <= theta2 <= pi/2"):
        planes_with_angles(0.5, 0.2)


def test_product_law_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(300):
        V, W = random_plane(rng), random_plane(rng)
        pa = principal_angles(V, W)
        theta, theta_perp = plane_angles_via_bivectors(V, W)
        assert abs(abs(math.cos(theta)) - math.cos(pa.theta1) * math.cos(pa.theta2)) < 1e-10
        assert abs(abs(math.cos(theta_perp)) - math.sin(pa.theta1) * math.sin(pa.theta2)) < 1e-10

