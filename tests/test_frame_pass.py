"""The batched frame pass of verify_helix against the pointwise oracle.

``adapted_frames`` must give the frames that chaining ``adapted_frame`` along
the alignment tree gives: each node aligned with its left neighbour, column 0
with the node above.
"""

from dataclasses import replace

import numpy as np
import pytest

from helix4 import helix_construct as hc
from helix4.catalog import (EXAMPLE_NAMES, PI_12, generate, named_example,
                            round_sphere_patch)
from helix4.surface_analysis import (SWAP_TOL, adapted_frame, adapted_frames,
                                     verify_helix)

# rounding of the unit vectors and angles; xi = (e - cos(theta) T)/sin(theta)
# scales it by 1/sin(theta) where xi is tied to e
TOL = 1e-14
DIAGONAL = dict(f_coeffs=[[0, 0, 0], [0, 0, 0], [0.5, 0, 0]],
                g_coeffs=[[0, 0, 0.5]])


def chained_frames(J, Pi):
    """adapted_frame node by node along the alignment tree, row-major."""
    N, M = J.p.shape[:2]
    frames = [[None] * M for _ in range(N)]
    for i in range(N):
        for j in range(M):
            prev = frames[i][j - 1] if j else (frames[i - 1][0] if i else None)
            frames[i][j] = adapted_frame(J[i, j], Pi, prev)
    return frames


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
    xs, ys = graph.sample_grid()
    return graph.patch(), PI_12, (xs.size, ys.size)


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
    fr = adapted_frames(J, Pi)
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
    rep = verify_helix(replace(patch, jet=None, sampler=lambda us, vs: J), Pi, grid)
    assert np.array_equal(rep.theta1, fr.theta1)
    assert np.array_equal(rep.theta2, fr.theta2)
    assert rep.min_align_dot == fr.align_quality.min()
    assert rep.degenerate_fraction == np.mean(fr.degenerate)


def test_nan_node_fails_like_the_pointwise_pass():
    patch, Pi, grid = example("orbit_cone", (6, 7))
    J = grid_jets(patch, grid)
    J.p_u[2, 3] = np.nan
    nan_patch = replace(patch, jet=None, sampler=lambda us, vs: J)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        verify_helix(nan_patch, Pi, grid)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        adapted_frame(J[2, 3], Pi)
