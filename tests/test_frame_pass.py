"""The batched frame pass of verify_helix against a pointwise oracle.

``adapted_frames`` must give the frames that chaining ``oracle_frame`` along
the alignment tree gives: each node aligned with its left neighbour, column 0
with the node above.  The oracle takes each node's angles, principal
directions and (where both xi are loose) normal frame from the plane kernel
on a one-node stack, the per-node arithmetic of the pass, completes a lone
loose xi1 on its own by the same orientation rule, and aligns the frame with
its parent by explicit sign flips and T1/T2 label swaps; so it checks the
chaining, and exact ties (label swaps where crossed == straight, zero parent
dots) resolve the same way in both.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from helix4 import helix_construct as hc
from helix4 import surface_analysis as sa
from helix4.catalog import (EXAMPLE_NAMES, PI_12, generate, named_example,
                            round_sphere_patch)
from helix4.grassmann import _dot, complement_frames, stacked_angles
from helix4.surface_analysis import (DEG_COS, DEG_SIN, SWAP_TOL, AdaptedFrame,
                                     _tangent_frame, adapted_frame,
                                     adapted_frames, verify_helix)

# rounding of the unit vectors and angles; xi = (e - cos(theta) T)/sin(theta)
# scales it by 1/sin(theta) where xi is tied to e
TOL = 1e-14
DIAGONAL = dict(f_coeffs=[[0, 0, 0], [0, 0, 0], [0.5, 0, 0]],
                g_coeffs=[[0, 0, 0.5]])


# ---------------------------------------------------------------------------
# the pointwise oracle
# ---------------------------------------------------------------------------

def _canonical_sign(v):
    k = int(np.argmax(np.abs(v)))
    return 1.0 if v[k] >= 0 else -1.0


def _normal_frame(u1, u2):
    n = complement_frames(np.stack([u1, u2], axis=-1)[None])[0]
    return n[:, 0], n[:, 1]


def oracle_frame(jet, Pi, prev=None):
    """Adapted frame at one node; with ``prev``, signs (and the T1/T2 labels,
    for near-coincident angles) are chosen to maximize continuity."""
    U = _tangent_frame(jet)
    u1, u2 = U.T
    k = stacked_angles(Pi.frame(), U[None])
    (theta1, theta2), (c1, c2) = k.theta[0].tolist(), k.cos[0]
    (e1, e2), (T1, T2) = k.dirs_a[0], k.dirs_b[0]

    frame = AdaptedFrame(T1, T2, None, None, e1, e2, theta1, theta2, bool(k.degenerate[0]))
    frame.e1_tied = c1 > DEG_COS
    frame.e2_tied = c2 > DEG_COS
    _complete_normals(frame, u1, u2)
    _align_frame(frame, prev)
    return frame


def _complete_normals(fr, u1, u2):
    """Fill xi1, xi2 from e_i where determined, from the normal space otherwise."""
    sin1, sin2 = math.sin(fr.theta1), math.sin(fr.theta2)
    fr.xi1_tied = sin1 > DEG_SIN
    fr.xi2_tied = sin2 > DEG_SIN
    if fr.xi1_tied:
        w = fr.e1 - (fr.e1 @ fr.T1) * fr.T1
        fr.xi1 = w / np.linalg.norm(w)
    if fr.xi2_tied:
        w = fr.e2 - (fr.e2 @ fr.T2) * fr.T2
        fr.xi2 = w / np.linalg.norm(w)
    if fr.xi1_tied and fr.xi2_tied:
        return
    if not fr.xi1_tied and not fr.xi2_tied:
        fr.xi1, fr.xi2 = _normal_frame(u1, u2)
        return
    # exactly xi1 missing (theta1 ~ 0 forces theta2 >= theta1 determined):
    # the unit vector orthogonal to u1, u2 and xi2 with det[u1, u2, xi2, xi1]
    # > 0, from the cofactors det[u1, u2, xi2, e_l]
    z = np.array([np.linalg.det(np.stack([u1, u2, fr.xi2, e], axis=-1)) for e in np.eye(4)])
    fr.xi1 = z / np.linalg.norm(z)


def _flip_group1(fr):
    fr.T1 = -fr.T1
    if fr.e1_tied:
        fr.e1 = -fr.e1
        if fr.xi1_tied:
            fr.xi1 = -fr.xi1


def _flip_group2(fr):
    fr.T2 = -fr.T2
    if fr.e2_tied:
        fr.e2 = -fr.e2
        if fr.xi2_tied:
            fr.xi2 = -fr.xi2


def _swap_labels(fr):
    fr.T1, fr.T2 = fr.T2, fr.T1
    fr.e1, fr.e2 = fr.e2, fr.e1
    fr.xi1, fr.xi2 = fr.xi2, fr.xi1
    fr.theta1, fr.theta2 = fr.theta2, fr.theta1
    fr.e1_tied, fr.e2_tied = fr.e2_tied, fr.e1_tied
    fr.xi1_tied, fr.xi2_tied = fr.xi2_tied, fr.xi1_tied


def _align_frame(fr, prev):
    if prev is None:
        # deterministic canonical signs
        if _canonical_sign(fr.T1) < 0:
            _flip_group1(fr)
        if _canonical_sign(fr.T2) < 0:
            _flip_group2(fr)
        if not fr.e1_tied and _canonical_sign(fr.e1) < 0:
            fr.e1 = -fr.e1
            if fr.xi1_tied:
                fr.xi1 = -fr.xi1
        if not fr.e2_tied and _canonical_sign(fr.e2) < 0:
            fr.e2 = -fr.e2
            if fr.xi2_tied:
                fr.xi2 = -fr.xi2
        if not fr.xi1_tied and _canonical_sign(fr.xi1) < 0:
            fr.xi1 = -fr.xi1
        if not fr.xi2_tied and _canonical_sign(fr.xi2) < 0:
            fr.xi2 = -fr.xi2
        return

    if abs(fr.theta1 - fr.theta2) < SWAP_TOL:
        straight = abs(fr.T1 @ prev.T1) + abs(fr.T2 @ prev.T2)
        crossed = abs(fr.T1 @ prev.T2) + abs(fr.T2 @ prev.T1)
        if crossed > straight:
            _swap_labels(fr)

    if fr.T1 @ prev.T1 < 0:
        _flip_group1(fr)
    if fr.T2 @ prev.T2 < 0:
        _flip_group2(fr)
    # independent sign groups
    if not fr.e1_tied:
        if fr.e1 @ prev.e1 < 0:
            fr.e1 = -fr.e1
            if fr.xi1_tied:
                fr.xi1 = -fr.xi1
    if not fr.e2_tied:
        if fr.e2 @ prev.e2 < 0:
            fr.e2 = -fr.e2
            if fr.xi2_tied:
                fr.xi2 = -fr.xi2
    if not fr.xi1_tied and fr.xi1 @ prev.xi1 < 0:
        fr.xi1 = -fr.xi1
    if not fr.xi2_tied and fr.xi2 @ prev.xi2 < 0:
        fr.xi2 = -fr.xi2

    fr.align_quality = float(min(fr.T1 @ prev.T1, fr.T2 @ prev.T2,
                                 fr.xi1 @ prev.xi1, fr.xi2 @ prev.xi2))


def chained_frames(J, Pi):
    """oracle_frame node by node along the alignment tree, row-major."""
    N, M = J.p.shape[:2]
    frames = [[None] * M for _ in range(N)]
    for i in range(N):
        for j in range(M):
            prev = frames[i][j - 1] if j else (frames[i - 1][0] if i else None)
            frames[i][j] = oracle_frame(J[i, j], Pi, prev)
    return frames


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def random_poly(seed):
    rng = np.random.default_rng(seed)
    return generate("graph_poly", f_coeffs=rng.normal(scale=0.5, size=(3, 3)),
                    g_coeffs=rng.normal(scale=0.5, size=(3, 3))).patch


def example(name, grid):
    cs = named_example(name)
    return cs.patch, cs.plane, grid


def solution_graph():
    prob = hc.default_problem(10.0 / 3.0, x_range=(-0.05, 0.05), y_max=0.008,
                              hx=4e-3, hy=4e-3)
    graph = hc.solution_graph(hc.recover_g(hc.solve_pde(prob)))
    return graph.patch(), PI_12, (graph.xs.size, graph.ys.size)


def swap_candidates(fr):
    return np.abs(fr.theta1 - fr.theta2) < SWAP_TOL


# (id, case, what the case must exercise)
CASES = (
    [(f"{name}-15x18", lambda n=name: example(n, (15, 18)), None)
     for name in EXAMPLE_NAMES if name != "plane"]
    # the plane: every node is a label-swap candidate
    + [("plane-15x18", lambda: example("plane", (15, 18)),
        lambda fr: swap_candidates(fr).all())]
    + [("round-sphere", lambda: (round_sphere_patch(), PI_12, (15, 18)), None)]
    # sign flips where theta1 crosses 0 restart the sign products
    + [(f"graph-poly-{s}", lambda s=s: (random_poly(s), PI_12, (40, 40)),
        lambda fr: fr.align_quality.min() < 0) for s in range(6)]
    # theta1 = theta2 on the diagonals: 41 swap candidates at 21 x 21
    + [("diagonal-21", lambda: (generate("graph_poly", **DIAGONAL).patch, PI_12, (21, 21)),
        lambda fr: np.count_nonzero(swap_candidates(fr)) == 41)]
    + [("diagonal-20", lambda: (generate("graph_poly", **DIAGONAL).patch, PI_12, (20, 20)),
        None)]
    + [("solution-graph", solution_graph, None)]
)


def grid_jets(patch, grid):
    return patch.sample(np.linspace(*patch.u_range, grid[0]),
                        np.linspace(*patch.v_range, grid[1]))


@pytest.mark.parametrize("make, exercises", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_batched_frames_match_chained_oracle(make, exercises):
    patch, Pi, grid = make()
    J = grid_jets(patch, grid)
    fr = adapted_frames(_tangent_frame(J), Pi)
    assert exercises is None or exercises(fr)
    oracle = chained_frames(J, Pi)

    def field(name):
        return np.array([[getattr(f, name) for f in row] for row in oracle])

    for k in ("theta1", "theta2", "T1", "T2", "e1", "e2"):
        np.testing.assert_allclose(getattr(fr, k), field(k), rtol=0, atol=TOL)
    for k, th, tied in (("xi1", "theta1", "xi1_tied"), ("xi2", "theta2", "xi2_tied")):
        tol = TOL / np.where(field(tied), np.sin(field(th)), 1.0)
        assert np.all(np.abs(getattr(fr, k) - field(k)) <= tol[..., None])
    for k in ("degenerate", "e1_tied", "e2_tied", "xi1_tied", "xi2_tied"):
        assert np.array_equal(getattr(fr, k), field(k))
    q = field("align_quality")
    q[0, 0] = 1.0
    assert fr.align_quality.min() == pytest.approx(q.min(), abs=TOL)
    assert np.sign(fr.align_quality.min()) == np.sign(q.min())

    # these are the frames the report is built from
    rep = verify_helix(replace(patch, sampler=lambda us, vs: J), Pi, grid)
    assert np.array_equal(rep.theta1, fr.theta1)
    assert np.array_equal(rep.theta2, fr.theta2)
    assert rep.min_align_dot == fr.align_quality.min()
    assert rep.degenerate_fraction == np.mean(fr.degenerate)


def test_nan_node_fails_like_the_pointwise_pass():
    patch, Pi, grid = example("orbit_cone", (6, 7))
    J = grid_jets(patch, grid)
    J.p_u[2, 3] = np.nan
    nan_patch = replace(patch, sampler=lambda us, vs: J)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        verify_helix(nan_patch, Pi, grid)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        adapted_frame(J[2, 3], Pi)


def test_the_frame_pass_takes_no_lapack_svd(monkeypatch):
    # on the Clifford torus theta1 = 0, so every node also completes its
    # loose xi1 as the cross product of its tangent frame and xi2
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    for name in ("svd", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    patch, Pi, grid = example("clifford_torus", (15, 18))
    rep = verify_helix(patch, Pi, grid)
    assert rep.helix_pass(1e-8)
    assert calls == []


# ---------------------------------------------------------------------------
# the frame rules, pinned directly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: example("clifford_torus", (15, 18)),
    lambda: example("helix_cylinder", (15, 18)),
    lambda: (generate("graph_poly", **DIAGONAL).patch, PI_12, (21, 21))],
    ids=["clifford_torus", "helix_cylinder", "diagonal-21"])
def test_a_lone_loose_xi1_is_the_oriented_cross_product(monkeypatch, make):
    # with every alignment sign +1 the pass returns xi1 as completed
    patch, Pi, grid = make()
    U = _tangent_frame(grid_jets(patch, grid))
    monkeypatch.setattr(sa, "_aligned_signs",
                        lambda V, tied, sign: (np.ones(V.shape[:-1]),) * 2)
    fr = adapted_frames(U, Pi)
    lone = ~fr.xi1_tied & fr.xi2_tied
    assert lone[fr.theta1 == 0].any()
    u1, u2, xi2, xi1 = U[lone][..., 0], U[lone][..., 1], fr.xi2[lone], fr.xi1[lone]
    assert np.abs(np.linalg.norm(xi1, axis=-1) - 1.0).max() <= 1e-15
    for v in (u1, u2, xi2):
        assert np.abs(np.einsum("nk,nk->n", xi1, v)).max() <= 1e-15
    assert (np.linalg.det(np.stack([u1, u2, xi2, xi1], axis=-1)) > 0).all()


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_the_swap_scan_changes_nothing_where_it_is_skipped(monkeypatch, name):
    # SWAP_TOL = pi makes every node a swap candidate, so the scan runs
    patch, Pi, grid = example(name, (15, 18))
    U = _tangent_frame(grid_jets(patch, grid))
    default = adapted_frames(U, Pi)
    monkeypatch.setattr(sa, "SWAP_TOL", math.pi)
    scanned = adapted_frames(U, Pi)
    for f in fields(AdaptedFrame):
        assert np.array_equal(getattr(scanned, f.name), getattr(default, f.name)), f.name


@pytest.mark.parametrize("make", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_align_quality_is_the_least_aligned_dot(make):
    patch, Pi, grid = make()
    fr = adapted_frames(_tangent_frame(grid_jets(patch, grid)), Pi)
    T, X = np.stack([fr.T1, fr.T2], axis=-2), np.stack([fr.xi1, fr.xi2], axis=-2)
    q = np.minimum(_dot(T, sa._parent(T)), _dot(X, sa._parent(X))).min(-1)
    q[0, 0] = 1.0
    assert np.array_equal(fr.align_quality, q)
