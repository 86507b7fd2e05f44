"""Surface patches in R^4 and verification of the constant-angle structure.

A patch is a map from a parameter rectangle into R^4 together with its 2-jet
(position, first and second partials).  Given a reference plane Pi, every
point carries an adapted frame (T1, T2, xi1, xi2): T1 and T2 are unit tangent
eigen-directions of the projection-to-Pi quadratic form, xi1 and xi2 the
matching unit normals, and

    e1 = cos(theta1) T1 + sin(theta1) xi1,
    e2 = cos(theta2) T2 + sin(theta2) xi2

is an orthonormal frame of Pi.  ``verify_helix`` samples the frame over a
grid, estimates the connection one-forms by finite differences, and reports
residuals of the structure equations, the four Codazzi identities, the Gauss
and normal curvatures, the Gauss-map circle condition, a least-squares sphere
fit, and the parallel-mean-curvature defect.

Patches are sampled once per grid (``SurfacePatch.sample``); frames
(``adapted_frames``), every residual and the composition criterion
(``composition_test``) are computed on the sampled arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .grassmann import (Plane, _cross3, _dot, _gauss_coords, _norm, canonical_sign,
                        complement_frames, hodge, plane_bivector, stacked_angles, wedge)

__all__ = [
    "SurfaceJet",
    "SurfacePatch",
    "FundamentalForms",
    "AdaptedFrame",
    "StructureReport",
    "SphereFit",
    "ImmersionError",
    "GraphSurface",
    "graph_patch",
    "graph_jet",
    "stack4",
    "snap_to_nodes",
    "fd_d1",
    "fd_d2",
    "fundamental_forms",
    "adapted_frame",
    "adapted_frames",
    "verify_helix",
    "brioschi_curvature",
    "default_gate",
    "first_normal_rank",
    "CompositionVerdict",
    "composition_test",
]

# below this sine, xi_i is not determined by e_i and is completed from the
# normal space instead
DEG_SIN = 1e-6
# below this cosine, e_i is not determined by T_i (theta_i ~ pi/2)
DEG_COS = 1e-7
# angle coincidence threshold for the swap heuristic during propagation
SWAP_TOL = 1e-6
# the dependencia identities divide by sin and cos of both angles and, solved
# for dt, by cos t1/cos t2 - cos t2/cos t1; nodes where one of these is not
# above this bound are left out of their statistics (and counted)
DEPENDENCIA_MIN = 1e-6


class ImmersionError(ValueError):
    """The parametrization fails to be an immersion at the queried point."""


JET_FIELDS = ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv")


@dataclass
class SurfaceJet:
    """2-jet of a parametrized surface: each field is one 4-vector, or an
    (N, M, 4) array of them over a grid of parameter points."""

    p: np.ndarray
    p_u: np.ndarray
    p_v: np.ndarray
    p_uu: np.ndarray
    p_uv: np.ndarray
    p_vv: np.ndarray

    def __getitem__(self, index) -> "SurfaceJet":
        """The jet at grid ``index`` (views for basic indexing)."""
        return SurfaceJet(*(getattr(self, k)[index] for k in JET_FIELDS))


@dataclass
class SurfacePatch:
    """Parameter rectangle plus a jet sampler.

    ``sampler(us, vs)`` gives the jet on the grid us x vs (1-D arrays) as
    (N, M, 4) arrays, evaluated as arrays (constants broadcast, see
    ``stack4``); ``sample`` calls it, and ``jet(u, v)`` is its one-node view.

    ``jet_source`` records where derivatives come from: "analytic" (closed
    form) or "grid" (finite differences of sampled values; evaluation snaps
    to nodes).
    """

    u_range: tuple[float, float]
    v_range: tuple[float, float]
    sampler: Callable[[np.ndarray, np.ndarray], SurfaceJet]
    jet_source: str = "analytic"
    name: str = ""

    def sample(self, us, vs) -> SurfaceJet:
        return self.sampler(np.asarray(us, dtype=float), np.asarray(vs, dtype=float))

    def jet(self, u: float, v: float) -> SurfaceJet:
        return self.sample([u], [v])[0, 0]


@dataclass
class FundamentalForms:
    """First fundamental form and vector-valued second fundamental form in
    the coordinate basis (p_u, p_v), at one point or over a grid."""

    E: float | np.ndarray
    F: float | np.ndarray
    G: float | np.ndarray
    W: float | np.ndarray          # EG - F^2
    alpha_11: np.ndarray
    alpha_12: np.ndarray
    alpha_22: np.ndarray


@dataclass
class AdaptedFrame:
    """Adapted frame over a grid (``adapted_frames``), each field an (N, M,
    ...) array, or at one node (``adapted_frame``)."""

    T1: np.ndarray
    T2: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    theta1: float
    theta2: float
    degenerate: bool = False           # |theta2 - theta1| < DEGENERATE_TOL
    align_quality: float = 1.0         # min alignment dot against the parent
    # sign coupling: e_k is tied to T_k where cos(theta_k) > DEG_COS, xi_k to
    # e_k where sin(theta_k) > DEG_SIN; loose vectors take their own signs
    e1_tied: bool = True
    e2_tied: bool = True
    xi1_tied: bool = True
    xi2_tied: bool = True

    def __getitem__(self, index) -> "AdaptedFrame":
        """The frame at grid ``index``."""
        return AdaptedFrame(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass
class SphereFit:
    center: np.ndarray | None
    radius: float
    defect: float
    ok: bool
    reason: str = ""


@dataclass
class ResidualStat:
    max: float
    rms: float

    @classmethod
    def of(cls, values: np.ndarray) -> "ResidualStat":
        v = np.abs(np.asarray(values, dtype=float)).ravel()
        v = v[np.isfinite(v)]
        if v.size == 0:
            return cls(math.nan, math.nan)
        return cls(float(v.max()), float(np.sqrt(np.mean(v * v))))


# ---------------------------------------------------------------------------
# jet providers
# ---------------------------------------------------------------------------

def fd_d1(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """First derivative along an axis: centered interior, 2nd-order one-sided ends."""
    v = np.asarray(values)
    i = (slice(None),) * (axis % v.ndim)      # all of every axis before ``axis``
    out = np.empty_like(v)
    out[i + (slice(1, -1),)] = (v[i + (slice(2, None),)] - v[i + (slice(None, -2),)]) / (2 * h)
    out[i + (0,)] = (-3 * v[i + (0,)] + 4 * v[i + (1,)] - v[i + (2,)]) / (2 * h)
    out[i + (-1,)] = (3 * v[i + (-1,)] - 4 * v[i + (-2,)] + v[i + (-3,)]) / (2 * h)
    return out


def fd_d2(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second derivative along an axis: centered interior, one-sided ends."""
    v = np.asarray(values)
    i = (slice(None),) * (axis % v.ndim)
    out = np.empty_like(v)
    out[i + (slice(1, -1),)] = (v[i + (slice(2, None),)] - 2 * v[i + (slice(1, -1),)]
                                + v[i + (slice(None, -2),)]) / (h * h)
    if v.shape[axis] >= 4:
        out[i + (0,)] = (2 * v[i + (0,)] - 5 * v[i + (1,)] + 4 * v[i + (2,)]
                         - v[i + (3,)]) / (h * h)
        out[i + (-1,)] = (2 * v[i + (-1,)] - 5 * v[i + (-2,)] + 4 * v[i + (-3,)]
                          - v[i + (-4,)]) / (h * h)
    else:
        out[i + (0,)] = out[i + (1,)]
        out[i + (-1,)] = out[i + (-2,)]
    return out


def _fd_jet(values: np.ndarray, hu: float, hv: float) -> tuple:
    """Value, d/du, d/dv, d2/du2, d2/dudv, d2/dv2 of samples indexed [u, v, ...]
    by finite differences (``fd_d1``, ``fd_d2``)."""
    d_u = fd_d1(values, hu, axis=0)
    return (values, d_u, fd_d1(values, hv, axis=1), fd_d2(values, hu, axis=0),
            fd_d1(d_u, hv, axis=1), fd_d2(values, hv, axis=1))


def snap_to_nodes(nodes_u: np.ndarray, nodes_v: np.ndarray,
                  us: np.ndarray, vs: np.ndarray):
    """Per-axis selectors of the grid nodes that the queries us x vs snap
    to (a slice for consecutive nodes, so indexing gives views).  A query
    more than 0.4 spacings from every node raises ValueError naming it."""
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    picked, outside, off_node = [], [], []
    for nodes, q in ((nodes_u, us), (nodes_v, vs)):
        h = nodes[1] - nodes[0]
        k = np.rint((q - nodes[0]) / h)
        outside.append(~((k >= 0) & (k < nodes.size)))
        k = np.where(outside[-1], 0, k).astype(int)
        off_node.append(np.abs(nodes[k] - q) > 0.4 * abs(h))
        run = k.size and np.array_equal(k, np.arange(k[0], k[0] + k.size))
        picked.append(slice(k[0], k[0] + k.size) if run else k)
    for (bad_u, bad_v), what in ((outside, "outside the sampled grid"),
                                 (off_node, "does not snap to a grid node")):
        if bad_u.any() or bad_v.any():
            u, v = us[np.argmax(bad_u)], vs[np.argmax(bad_v)]
            raise ValueError(f"({u}, {v}) {what}")
    return tuple(picked)


def stack4(like, *parts) -> np.ndarray:
    """Array of 4-vectors (last axis) from four components, each broadcast
    to the shape of ``like``; a constant such as 0.0 stands for a component
    that does not vary."""
    return np.stack(np.broadcast_arrays(like, *parts)[1:], axis=-1, dtype=float)


def graph_jet(x, y, f, g) -> SurfaceJet:
    """Jet of the graph (x, y) -> (x, y, f, g) from the scalar 2-jets f, g
    (value, d/dx, d/dy, d2/dx2, d2/dxdy, d2/dy2); each entry is broadcast to
    the shape of x, so constant entries may be plain numbers."""
    return SurfaceJet(stack4(x, x, y, f[0], g[0]), stack4(x, 1.0, 0.0, f[1], g[1]),
                      stack4(x, 0.0, 1.0, f[2], g[2]), stack4(x, 0.0, 0.0, f[3], g[3]),
                      stack4(x, 0.0, 0.0, f[4], g[4]), stack4(x, 0.0, 0.0, f[5], g[5]))


# a scalar 2-jet provider: x, y (arrays) -> value, d/dx, d/dy, d2/dx2,
# d2/dxdy, d2/dy2, each shaped like x or a constant
ScalarJet = Callable[[np.ndarray, np.ndarray], tuple]


def graph_patch(f_jet: ScalarJet, g_jet: ScalarJet, x_range, y_range,
                name: str = "graph") -> SurfacePatch:
    """The graph (x, y) -> (x, y, f, g) of two scalar 2-jet providers as a
    ``SurfacePatch``; each provider is called once per sampled grid, on its
    ``indexing="ij"`` meshgrid."""

    def sample(xs: np.ndarray, ys: np.ndarray) -> SurfaceJet:
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return graph_jet(X, Y, f_jet(X, Y), g_jet(X, Y))

    return SurfacePatch(tuple(x_range), tuple(y_range), sample, name=name)


@dataclass
class GraphSurface:
    """The graph (x, y) -> (x, y, f, g) of the value grids ``f`` and ``g``
    on the evenly spaced, increasing nodes ``xs`` x ``ys``, indexed [x, y].

    Every derivative is a finite difference of the value grids (centered
    interior, one-sided closure at the edges), taken where it is read:
    ``gradients()`` gives the first derivatives, and ``patch()`` is the graph
    as a ``SurfacePatch`` holding the 2-jets of f and g, whose queries snap
    to the nodes.

    f and g stay scalar, not read off a ``SurfacePatch``: ``symplecto_check``
    needs only their gradients, and building the 4-vector jet of every node
    for it raised the construct-ladder peak RSS from about 80 to 123 MB.
    """

    xs: np.ndarray
    ys: np.ndarray
    f: np.ndarray
    g: np.ndarray
    name: str = "graph"

    def __post_init__(self):
        self.xs, self.ys, self.f, self.g = (np.asarray(a, dtype=float)
                                            for a in (self.xs, self.ys, self.f, self.g))
        if self.f.shape != (self.xs.size, self.ys.size) or self.g.shape != self.f.shape:
            raise ValueError("value grids must have shape (len(xs), len(ys))")
        if self.xs.size < 3 or self.ys.size < 3:
            raise ValueError("grid-backed fields need at least 3 nodes per direction")
        # derivatives and node lookups take one step per axis; the tolerance
        # admits the rounding of linspace nodes far from 0
        for axis, nodes in (("xs", self.xs), ("ys", self.ys)):
            h = (nodes[-1] - nodes[0]) / (nodes.size - 1)
            tol = 1e-9 * h + 4 * np.spacing(np.abs(nodes).max())
            if not (0 < h < math.inf and np.all(np.abs(np.diff(nodes) - h) <= tol)):
                raise ValueError(f"{axis} must be strictly increasing and evenly spaced")

    def gradients(self) -> tuple[np.ndarray, ...]:
        """(f_x, f_y, g_x, g_y) at the nodes, by ``fd_d1`` of the value grids."""
        hx, hy = self.xs[1] - self.xs[0], self.ys[1] - self.ys[0]
        return (fd_d1(self.f, hx, axis=0), fd_d1(self.f, hy, axis=1),
                fd_d1(self.g, hx, axis=0), fd_d1(self.g, hy, axis=1))

    def patch(self) -> SurfacePatch:
        """The graph as a ``SurfacePatch``; the 2-jets of f and g are taken
        once, here, and each sample reads the nodes its queries snap to."""
        hx, hy = self.xs[1] - self.xs[0], self.ys[1] - self.ys[0]
        jets = [_fd_jet(v, hx, hy) for v in (self.f, self.g)]

        def sample(qx: np.ndarray, qy: np.ndarray) -> SurfaceJet:
            i, j = snap_to_nodes(self.xs, self.ys, qx, qy)
            X, Y = np.meshgrid(qx, qy, indexing="ij")
            return graph_jet(X, Y, *([a[i][:, j] for a in jet] for jet in jets))

        return SurfacePatch((self.xs[0], self.xs[-1]), (self.ys[0], self.ys[-1]), sample,
                            jet_source="grid", name=self.name)


# ---------------------------------------------------------------------------
# fundamental forms
# ---------------------------------------------------------------------------

def _coords(w, pu, pv, E, F, G, W):
    """Coefficients (a, b) of the tangential part a p_u + b p_v of w, from
    the Gram system of the metric (E, F, G) with W = EG - F^2."""
    wu, wv = _dot(w, pu), _dot(w, pv)
    return (G * wu - F * wv) / W, (-F * wu + E * wv) / W


def fundamental_forms(jet: SurfaceJet) -> FundamentalForms:
    """First fundamental form and normal parts of the second derivatives,
    for a jet at one point or over a grid."""
    pu, pv = jet.p_u, jet.p_v
    E, F, G = _dot(pu, pu), _dot(pu, pv), _dot(pv, pv)
    W = np.asarray(E * G - F * F)
    # degenerate or overflowed (inf, NaN); a NaN sample fails later, as pointwise
    bad = ~((W > 1e-14) & (W < math.inf)) & ~np.isnan(E + G)
    if bad.any():
        raise ImmersionError(f"degenerate or non-finite metric: EG - F^2 = {W[bad][0]}")

    def normal_part(w: np.ndarray) -> np.ndarray:
        a, b = _coords(w, pu, pv, E, F, G, W)
        return w - a[..., None] * pu - b[..., None] * pv

    return FundamentalForms(E, F, G, W,
                            normal_part(jet.p_uu),
                            normal_part(jet.p_uv),
                            normal_part(jet.p_vv))


# ---------------------------------------------------------------------------
# adapted frames
# ---------------------------------------------------------------------------

def _tangent_frame(jet: SurfaceJet) -> np.ndarray:
    """Orthonormal tangent frame (..., 4, 2), columns u1 and u2, orientation
    matching (p_u, p_v), at one point or over a grid."""
    u1 = jet.p_u / np.linalg.norm(jet.p_u, axis=-1, keepdims=True)
    w = jet.p_v - _dot(jet.p_v, u1)[..., None] * u1
    n = np.linalg.norm(w, axis=-1, keepdims=True)
    if (n < 1e-12 * np.maximum(1.0, np.linalg.norm(jet.p_v, axis=-1, keepdims=True))).any():
        raise ImmersionError("tangent vectors are parallel")
    return np.stack([u1, w / n], axis=-1)


def adapted_frame(jet: SurfaceJet, Pi: Plane) -> AdaptedFrame:
    """Adapted frame at one point with canonical signs: the one-node view of
    ``adapted_frames``."""
    return adapted_frames(_tangent_frame(jet[None, None]), Pi)[0, 0]


def adapted_frames(U: np.ndarray, Pi: Plane) -> AdaptedFrame:
    """Adapted frames over an (N, M) grid of orthonormal tangent frames U
    (N, M, 4, 2), as ``_tangent_frame`` gives them, in one array pass.

    T1, T2 are the principal directions in the tangent plane against Pi
    (``stacked_angles`` on (Pi, tangent frame)), e1, e2 the matching ones in
    Pi, and xi_k = (e_k - cos(theta_k) T_k) / sin(theta_k) where that is
    determined.  A loose xi1 beside a tied xi2 is the unit cross product
    *(u1 ^ u2 ^ xi2), so det[u1, u2, xi2, xi1] > 0; two loose xi are the
    tangent plane's ``complement_frames``.  Signs follow the alignment tree:
    the root (0, 0) takes canonical signs, every other node aligns with its
    left neighbour, and column 0 with the node above.  Sign flips and, if
    any node's angles are within SWAP_TOL, T1/T2 label swaps become running
    products of neighbour-dot signs along that tree.  ``align_quality`` is
    the least aligned T or xi dot with the parent, 1 at the root.
    """
    # the groups (T_k, e_k, xi_k) on axis -2; theta1 <= theta2 before label
    # swaps, so xi2 is loose only where xi1 is
    pa = stacked_angles(Pi.frame(), U)
    theta, T, E = pa.theta, pa.dirs_b, pa.dirs_a
    e_tied = pa.cos > DEG_COS
    xi_tied = np.sin(theta) > DEG_SIN
    w = E - _dot(E, T)[..., None] * T
    X = w / np.where(xi_tied[..., None], np.linalg.norm(w, axis=-1, keepdims=True), 1.0)
    lone, both = ~xi_tied[..., 0] & xi_tied[..., 1], ~xi_tied.any(-1)
    if lone.any():
        z = _cross3(U[..., 0], U[..., 1], X[..., 1, :])[lone]
        X[lone, 0] = z / _norm(z, keepdims=True)
    if both.any():
        X[both] = np.swapaxes(complement_frames(U[both]), -1, -2)

    # label swaps: a parity that flips where crossed beats straight
    near = np.abs(theta[..., 0] - theta[..., 1]) < SWAP_TOL
    if near.any():
        G = np.abs(T @ np.swapaxes(_parent(T), -1, -2))
        straight = G[..., 0, 0] + G[..., 1, 1]
        crossed = G[..., 0, 1] + G[..., 1, 0]
        swap = _tree_products(np.where(near & (crossed > straight), -1.0, 1.0),
                              ~near | (crossed == straight))[..., None] < 0
        theta, e_tied, xi_tied = (np.where(swap, A[..., ::-1], A)
                                  for A in (theta, e_tied, xi_tied))
        T, E, X = (np.where(swap[..., None], A[..., ::-1, :], A) for A in (T, E, X))

    sign_T, dot_T = _aligned_signs(T, False, 1.0)
    sign_e = _aligned_signs(E, e_tied, sign_T)[0]
    sign_X, dot_X = _aligned_signs(X, xi_tied, sign_e)
    # the aligned dots with the parents: the raw ones times both signs, exactly
    quality = np.minimum((dot_T * sign_T * _parent(sign_T)).min(-1),
                         (dot_X * sign_X * _parent(sign_X)).min(-1))
    quality[0, 0] = 1.0
    T, E, X = (A * s[..., None] for A, s in ((T, sign_T), (E, sign_e), (X, sign_X)))
    return AdaptedFrame(T[..., 0, :], T[..., 1, :], X[..., 0, :], X[..., 1, :],
                        E[..., 0, :], E[..., 1, :], theta[..., 0], theta[..., 1],
                        pa.degenerate, quality,
                        e_tied[..., 0], e_tied[..., 1], xi_tied[..., 0], xi_tied[..., 1])


def _parent(X: np.ndarray) -> np.ndarray:
    """X at each grid node's alignment parent: the left neighbour, the node
    above in column 0; the root is its own parent."""
    P = X.copy()
    P[:, 1:] = X[:, :-1]
    P[1:, 0] = X[:-1, 0]
    return P


def _aligned_signs(V: np.ndarray, tied, tied_sign) -> tuple[np.ndarray, np.ndarray]:
    """Signs (N, M, 2) that align the groups V (N, M, 2, 4) with their tree
    parents, and their dots with the parents, the root's set to its canonical
    sign.  A tied group takes ``tied_sign``, a zero dot restarts at +1."""
    d = _dot(V, _parent(V))
    d[0, 0] = canonical_sign(V[0, 0])
    return _tree_products(np.where(tied, tied_sign, np.where(d < 0, -1.0, 1.0)),
                          tied | (d == 0)), d


def _tree_products(a: np.ndarray, restart: np.ndarray) -> np.ndarray:
    """Products of the +-1 entries of a along the alignment tree, restarted
    (at the entry itself) where ``restart``: down column 0, then along rows."""
    a = a.copy()
    a[:, 0] = _path_products(a[:, 0], restart[:, 0])
    return _path_products(a.swapaxes(0, 1), restart.swapaxes(0, 1)).swapaxes(0, 1)


def _path_products(a: np.ndarray, restart: np.ndarray) -> np.ndarray:
    """Running products of the +-1 entries of a along axis 0, restarted (at
    the entry itself) where ``restart`` and at index 0."""
    idx = np.arange(len(a)).reshape((-1,) + (1,) * (a.ndim - 1))
    start = np.maximum.accumulate(np.where(restart | (idx == 0), idx, 0), axis=0)
    neg = np.cumsum(a < 0, axis=0)
    before = np.take_along_axis(neg - (a < 0), start, axis=0)
    return np.where((neg - before) % 2 == 1, -1.0, 1.0)


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------

@dataclass
class StructureReport:
    """Grid samples and residual statistics for one patch and plane."""

    name: str
    jet_source: str
    grid_shape: tuple[int, int]
    u: np.ndarray
    v: np.ndarray
    points: np.ndarray          # (N, M, 4)
    theta1: np.ndarray          # (N, M)
    theta2: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    K: np.ndarray
    K_perp: np.ndarray
    # one-forms on the interior, NaN-padded to (N, M)
    dt_T1: np.ndarray
    dt_T2: np.ndarray
    dn_T1: np.ndarray
    dn_T2: np.ndarray
    # max |parallel-H defect| of the xi1 and xi2 components (interior)
    parallel_h: tuple[float, float]
    residuals: dict[str, ResidualStat]
    angle_stats: dict[str, tuple[float, float]]   # name -> (mean, std)
    gauss_circle_std: tuple[float, float]
    alpha_theta_max: float
    sphere: SphereFit
    sphere_dichotomy: bool | None
    degenerate_fraction: float
    min_align_dot: float
    structure_residual: np.ndarray   # per-point max |structure eq| (interior)
    codazzi_residual: np.ndarray     # per-point max |C1..C4| (interior)
    # interior nodes left out of dependencia1-3 (DEPENDENCIA_MIN); None when
    # those identities are not reported
    dependencia_skipped: int | None

    def angle_std(self) -> float:
        return max(self.angle_stats["theta1"][1], self.angle_stats["theta2"][1])

    def helix_pass(self, gate: float) -> bool:
        return self.angle_std() < gate

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "jet_source": self.jet_source,
            "grid": list(self.grid_shape),
            "angle_stats": {k: {"mean": m, "std": s}
                            for k, (m, s) in self.angle_stats.items()},
            "residuals": {k: {"max": r.max, "rms": r.rms}
                          for k, r in sorted(self.residuals.items())},
            "gauss_circle_std": {"plus": self.gauss_circle_std[0],
                                 "minus": self.gauss_circle_std[1]},
            "alpha_theta_cross_max": self.alpha_theta_max,
            "parallel_h": list(self.parallel_h),
            "sphere": {
                "ok": self.sphere.ok,
                "reason": self.sphere.reason,
                "radius": self.sphere.radius,
                "defect": self.sphere.defect,
                "center": list(self.sphere.center) if self.sphere.center is not None else None,
            },
            "sphere_dichotomy": self.sphere_dichotomy,
            "degenerate_fraction": self.degenerate_fraction,
            "min_align_dot": self.min_align_dot,
        }
        return d


def default_gate(patch: SurfacePatch, grid_h: float) -> float:
    """Residual gate per jet source: 1e-8 analytic, 5 h^2 for FD-based jets."""
    if patch.jet_source == "analytic":
        return 1e-8
    return 5.0 * grid_h * grid_h


def brioschi_curvature(ff: FundamentalForms, du: float, dv: float) -> np.ndarray:
    """Gauss curvature from the metric alone (Brioschi formula: E, F, G and
    W = EG - F^2 of grid forms), on the interior nodes (N - 2, M - 2).

    Metric derivatives are centered differences.
    """
    E, F, G = ff.E, ff.F, ff.G
    Eu, Ev = fd_d1(E, du, 0), fd_d1(E, dv, 1)
    Gu, Gv = fd_d1(G, du, 0), fd_d1(G, dv, 1)
    Fu, Fv = fd_d1(F, du, 0), fd_d1(F, dv, 1)
    Evv = fd_d2(E, dv, 1)
    Guu = fd_d2(G, du, 0)
    Fuv = fd_d1(Fu, dv, 1)

    a00 = -0.5 * Evv + Fuv - 0.5 * Guu
    m1 = _det3(a00, 0.5 * Eu, Fu - 0.5 * Ev,
               Fv - 0.5 * Gu, E, F,
               0.5 * Gv, F, G)
    m2 = _det3(np.zeros_like(E), 0.5 * Ev, 0.5 * Gu,
               0.5 * Ev, E, F,
               0.5 * Gu, F, G)
    return ((m1 - m2) / (ff.W * ff.W))[1:-1, 1:-1]


def _det3(a, b, c, d, e, f, g, h, i):
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _fit_sphere(points: np.ndarray) -> SphereFit:
    pts = points.reshape(-1, 4)
    A = np.concatenate([2.0 * pts, np.ones((pts.shape[0], 1))], axis=1)
    b = np.sum(pts * pts, axis=1)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < 5:
        return SphereFit(None, math.inf, math.nan, False,
                         "no finite sphere (singular normal equations)")
    center, s = sol[:4], sol[4]
    r2 = s + center @ center
    if r2 <= 0:
        return SphereFit(None, math.nan, math.nan, False, "no finite sphere")
    radius = math.sqrt(r2)
    dist = np.linalg.norm(pts - center, axis=1)
    defect = float(np.max(np.abs(dist - radius)) / radius)
    return SphereFit(center, radius, defect, True)


# ---------------------------------------------------------------------------
# verify_helix in four stages: _sample -> adapted_frames -> _fields -> _reduce
# ---------------------------------------------------------------------------

_INNER = (slice(1, -1), slice(1, -1))     # interior nodes of a block


def _sample(patch: SurfacePatch, grid: tuple[int, int]):
    """Stage (a): the grid axes us, vs, the jets sampled on them, their
    fundamental forms and the orthonormal tangent frames (N, M, 4, 2)."""
    N, M = grid
    if N < 3 or M < 3:
        raise ValueError("grid must be at least 3x3 for the FD stencil")
    us = np.linspace(*patch.u_range, N)
    vs = np.linspace(*patch.v_range, M)
    J = patch.sample(us, vs)
    return us, vs, J, fundamental_forms(J), _tangent_frame(J)


def _fields(jet: SurfaceJet, ff: FundamentalForms, U: np.ndarray, fr: AdaptedFrame,
            Pi: Plane, du: float, dv: float) -> dict[str, np.ndarray]:
    """Stage (c): every field of ``verify_helix`` on a block of whole grid
    rows, by name; du, dv are the grid steps.

    Node fields (rows, M) cover every row of the block.  Interior fields
    (..., rows - 2, M - 2) leave out its first and last row (a one-row
    halo) and the edge columns; ``dependencia`` (3, 2, n) lists the n true
    nodes of ``dependencia_ok`` row-major.  None depends on how the grid's
    rows are split into blocks.
    """
    E, F, G, W = ff.E, ff.F, ff.G, ff.W
    a11, a12, a22 = ff.alpha_11, ff.alpha_12, ff.alpha_22
    T1, T2, X1, X2, E1, E2 = fr.T1, fr.T2, fr.xi1, fr.xi2, fr.e1, fr.e2

    # coefficients of T1, T2 in (p_u, p_v); alpha on (T1, T1), (T1, T2), (T2, T2)
    cT1, cT2 = (_coords(T, jet.p_u, jet.p_v, E, F, G, W) for T in (T1, T2))
    aT1T1, aT1T2, aT2T2 = (a11 * (xu * yu)[..., None] + a12 * (xu * yv + xv * yu)[..., None]
                           + a22 * (xv * yv)[..., None]
                           for (xu, xv), (yu, yv) in ((cT1, cT1), (cT1, cT2), (cT2, cT2)))
    m1, m2 = _dot(aT2T2, X1), _dot(aT1T1, X2)

    # curvatures from the Gauss / Ricci equations; K_perp is read off the
    # commutator, since writing out its entry changes last bits (BLAS forms
    # the 2x2 products with fused multiply-adds)
    K = (_dot(a11, a22) - _dot(a12, a12)) / W
    h1 = np.empty(m1.shape + (2, 2))
    h2 = np.empty(m1.shape + (2, 2))
    h1[..., 0, 0], h1[..., 1, 1] = _dot(aT1T1, X1), m1
    h2[..., 0, 0], h2[..., 1, 1] = m2, _dot(aT2T2, X2)
    h1[..., 0, 1] = h1[..., 1, 0] = _dot(aT1T2, X1)
    h2[..., 0, 1] = h2[..., 1, 0] = _dot(aT1T2, X2)
    K_perp = (h1 @ h2 - h2 @ h1)[..., 1, 0]

    # Gauss map of the tangent planes against the reference plane
    eta, eta_pi = wedge(U[..., 0], U[..., 1]), plane_bivector(Pi)
    (plus, minus), (plus_pi, minus_pi) = _gauss_coords(eta), _gauss_coords(eta_pi)
    circ_plus, circ_minus = plus @ plus_pi, minus @ minus_pi
    cos_theta, cos_theta_perp = eta @ eta_pi, eta @ hodge(eta_pi)
    cos_ap, cos_am = 2.0 * circ_plus, 2.0 * circ_minus

    def along(A):
        """Centred derivatives of the field A (a scalar or a vector per node)
        along T1 and along T2, on the interior nodes."""
        ddu = (A[2:, 1:-1] - A[:-2, 1:-1]) / (2 * du)
        ddv = (A[1:-1, 2:] - A[1:-1, :-2]) / (2 * dv)
        x = (...,) + (None,) * (A.ndim - 2)
        return tuple(cu[_INNER][x] * ddu + cv[_INNER][x] * ddv for cu, cv in (cT1, cT2))

    # connection one-forms <D_X T1, T2>, <D_X xi1, xi2>, <D_X e1, e2> and
    # the derivatives of m1, m2, each on X = T1 and X = T2
    dt_T1, dt_T2 = (_dot(d, T2[_INNER]) for d in along(T1))
    dn_T1, dn_T2 = (_dot(d, X2[_INNER]) for d in along(X1))
    df_T1, df_T2 = (_dot(d, E2[_INNER]) for d in along(E1))
    dm1_T1, dm1_T2 = along(m1)
    dm2_T1, dm2_T2 = along(m2)

    th1, th2 = fr.theta1[_INNER], fr.theta2[_INNER]
    ct1, ct2, st1, st2 = np.cos(th1), np.cos(th2), np.sin(th1), np.sin(th2)
    im1, im2, iT1, iT2 = m1[_INNER], m2[_INNER], T1[_INNER], T2[_INNER]
    # dlambda1, dlambda2 on X = T1 and X = T2
    dl1 = (im1 * _dot(iT1, iT2), im1 * _dot(iT2, iT2))
    dl2 = (im2 * _dot(iT1, iT1), im2 * _dot(iT2, iT1))

    # redundant one-form identities of the generic case (consequences of the
    # structure system), (3, 2, n) on X = T1, T2 at the n interior nodes
    # (row-major) where all their divisors exceed DEPENDENCIA_MIN
    ok = np.minimum.reduce([st1, st2, ct1, ct2]) > DEPENDENCIA_MIN
    ok[ok] = np.abs(ct1[ok] / ct2[ok] - ct2[ok] / ct1[ok]) > DEPENDENCIA_MIN
    l1, l2, dt, dn = ([a[ok] for a in pair]
                      for pair in (dl1, dl2, (dt_T1, dt_T2), (dn_T1, dn_T2)))
    c1, c2, s1, s2 = ct1[ok], ct2[ok], st1[ok], st2[ok]
    dep = np.array([[(c1 / c2 - c2 / c1) * dt[k] - (s1 / c2) * l1[k] - (s2 / c1) * l2[k],
                     -(s1 / s2) * dn[k] + (c1 / c2) * dt[k]
                     - (s1 / c2) * l1[k] - (c1 / s2) * l2[k],
                     -(s2 / s1) * dn[k] + (c1 / c2) * dt[k] - (s1 / c2 - c2 / s1) * l1[k]]
                    for k in (0, 1)]).swapaxes(0, 1)
    tt2 = np.tan(th2)

    return dict(
        # node fields
        m1=m1, m2=m2, K=K, K_perp=K_perp,
        alpha_t1t2=np.linalg.norm(aT1T2, axis=-1),
        alpha_theta_cross=np.maximum(np.abs(cos_ap - (cos_theta + cos_theta_perp)),
                                     np.abs(cos_am - (cos_theta - cos_theta_perp))),
        circ_plus=circ_plus, circ_minus=circ_minus,
        alpha_plus=np.arccos(np.clip(cos_ap, -1.0, 1.0)),
        alpha_minus=np.arccos(np.clip(cos_am, -1.0, 1.0)),
        # interior fields
        dt_T1=dt_T1, dt_T2=dt_T2, dn_T1=dn_T1, dn_T2=dn_T2, df_T1=df_T1, df_T2=df_T2,
        dm1_T1=dm1_T1, dm1_T2=dm1_T2, dm2_T1=dm2_T1, dm2_T2=dm2_T2,
        # the structure equations on X = T1 and X = T2: 4 tangent, 4 normal
        structure=np.stack([
            ct2 * df_T1 - ct1 * dt_T1,
            ct2 * df_T2 - ct1 * dt_T2 + st1 * im1,
            -ct1 * df_T1 + ct2 * dt_T1 + st2 * im2,
            -ct1 * df_T2 + ct2 * dt_T2,
            st2 * df_T1 - ct1 * im2 - st1 * dn_T1,
            st2 * df_T2 - st1 * dn_T2,
            -st1 * df_T1 + st2 * dn_T1,
            -st1 * df_T2 - ct2 * im1 + st2 * dn_T2]),
        codazzi=np.stack([im1 * dt_T2 + dm1_T1, im1 * dt_T1 - im2 * dn_T2,
                          im2 * dt_T1 - dm2_T2, im2 * dt_T2 - im1 * dn_T1]),
        # the xi1 components on T1, T2, then the xi2 components
        parallel_h=np.stack([dm2_T1 + im1 * dn_T1, dm2_T2 + im1 * dn_T2,
                             dm1_T1 - im2 * dn_T1, dm1_T2 - im2 * dn_T2]),
        brioschi_gap=K[_INNER] - brioschi_curvature(ff, du, dv),
        dependencia=dep, dependencia_ok=ok,
        zero_angle_df=np.stack([ct2 * df_T1 - dt_T1, ct2 * df_T2 - dt_T2]),
        zero_angle_dn=np.stack([tt2 * dn_T1 - dl1[0], tt2 * dn_T2 - dl1[1]]),
    )


def _padded(A: np.ndarray) -> np.ndarray:
    """An interior array NaN-padded to the grid (np.pad costs 7x more)."""
    out = np.full((A.shape[0] + 2, A.shape[1] + 2), np.nan)
    out[_INNER] = A
    return out


def _reduce(patch: SurfacePatch, us: np.ndarray, vs: np.ndarray, points: np.ndarray,
            fr: AdaptedFrame, f: dict[str, np.ndarray]) -> StructureReport:
    """Stage (d): statistics of the fields, the sphere fit of the points,
    and the arrays the report keeps (interior ones NaN-padded)."""
    angle_stats = {k: (float(np.mean(a)), float(np.std(a))) for k, a in (
        ("theta1", fr.theta1), ("theta2", fr.theta2),
        ("alpha_plus", f["alpha_plus"]), ("alpha_minus", f["alpha_minus"]))}
    (mean_t1, std_t1), (mean_t2, std_t2) = angle_stats["theta1"], angle_stats["theta2"]
    sphere = _fit_sphere(points)
    structure, codazzi, par_h = f["structure"], f["codazzi"], f["parallel_h"]

    residuals = {
        "structure_tangent": ResidualStat.of(structure[:4]),
        "structure_normal": ResidualStat.of(structure[4:]),
        **{f"codazzi_c{k}": ResidualStat.of(c) for k, c in enumerate(codazzi, 1)},
        "gauss_curvature": ResidualStat.of(f["K"]),
        "normal_curvature": ResidualStat.of(f["K_perp"]),
        "gauss_brioschi_agreement": ResidualStat.of(f["brioschi_gap"]),
        "alpha_t1t2": ResidualStat.of(f["alpha_t1t2"]),
        "parallel_h": ResidualStat.of(par_h),
        "alpha_theta_cross": ResidualStat.of(f["alpha_theta_cross"]),
    }
    if sphere.ok:
        residuals["sphere_defect"] = ResidualStat(sphere.defect, sphere.defect)
    dependencia_skipped = None
    if 1e-6 < mean_t1 and mean_t2 < math.pi / 2 - 1e-6:
        ok = f["dependencia_ok"]
        dependencia_skipped = int(ok.size - np.count_nonzero(ok))
        for k, dep in enumerate(f["dependencia"], 1):
            residuals[f"dependencia{k}"] = ResidualStat.of(dep)
    if mean_t1 < 1e-6 and mean_t2 < math.pi / 2 - 1e-6:
        residuals["zero_angle_df"] = ResidualStat.of(f["zero_angle_df"])
        residuals["zero_angle_dn"] = ResidualStat.of(f["zero_angle_dn"])
    if mean_t1 < 1e-6:
        residuals["zero_angle_geodesic"] = ResidualStat.of(f["dt_T2"])

    # angle dichotomy for spherical helix patches: only asserted when the
    # sphere fit succeeds and the surface actually is a (numerical) helix
    sphere_dichotomy = None
    if sphere.ok and sphere.defect < 1e-6 and max(std_t1, std_t2) < 1e-6:
        sphere_dichotomy = bool(mean_t1 < 1e-6 or abs(mean_t2 - math.pi / 2) < 1e-6)

    padded = {k: _padded(f[k]) for k in ("dt_T1", "dt_T2", "dn_T1", "dn_T2")}
    return StructureReport(
        name=patch.name, jet_source=patch.jet_source, grid_shape=(us.size, vs.size),
        u=us, v=vs, points=points, theta1=fr.theta1, theta2=fr.theta2,
        m1=f["m1"], m2=f["m2"], K=f["K"], K_perp=f["K_perp"], **padded,
        parallel_h=tuple(float(np.nanmax(np.abs(r))) for r in (par_h[:2], par_h[2:])),
        residuals=residuals,
        angle_stats=angle_stats,
        gauss_circle_std=(float(np.std(f["circ_plus"])), float(np.std(f["circ_minus"]))),
        alpha_theta_max=float(np.max(f["alpha_theta_cross"])),
        sphere=sphere,
        sphere_dichotomy=sphere_dichotomy,
        degenerate_fraction=float(np.mean(fr.degenerate)),
        min_align_dot=float(fr.align_quality.min()),
        structure_residual=_padded(np.max(np.abs(structure), axis=0)),
        codazzi_residual=_padded(np.max(np.abs(codazzi), axis=0)),
        dependencia_skipped=dependencia_skipped,
    )


def _verified(patch: SurfacePatch, Pi: Plane,
              grid: tuple[int, int]) -> tuple[StructureReport, FundamentalForms]:
    """``verify_helix``'s report, and the fundamental forms of the one
    sample it is computed on."""
    with np.errstate(over="raise", invalid="raise"):
        us, vs, J, ff, U = _sample(patch, grid)
        if not Pi.oriented:
            raise ValueError("the Gauss map needs an oriented reference plane")
        fr = adapted_frames(U, Pi)
        return _reduce(patch, us, vs, J.p, fr,
                       _fields(J, ff, U, fr, Pi, us[1] - us[0], vs[1] - vs[0])), ff


def verify_helix(patch: SurfacePatch, Pi: Plane,
                 grid: tuple[int, int]) -> StructureReport:
    """Sample the adapted-frame structure over a grid and report residuals.

    Four stages: sampling (jets, fundamental forms, tangent frames), the
    frames (``adapted_frames``), the residual fields, whose connection
    one-forms and m-derivatives are centered differences on the interior
    nodes, and their reduction to the report; overflow or invalid arithmetic
    raises FloatingPointError instead of reporting inf or NaN.
    """
    return _verified(patch, Pi, grid)[0]


# ---------------------------------------------------------------------------
# the composition criterion
# ---------------------------------------------------------------------------

def first_normal_rank(ff: FundamentalForms) -> np.ndarray:
    """Numerical rank of the first normal space N1 at every node of a grid,
    from the fundamental forms of its jets, as an (N, M) integer array.

    N1 is spanned by alpha_11, alpha_12, alpha_22, whose singular values are
    those of their components in a normal frame: rank 0 where the largest is
    below 1e-9, rank 1 where the second is below 1e-6 times the largest.
    """
    s = np.linalg.svd(np.stack([ff.alpha_11, ff.alpha_12, ff.alpha_22], axis=-1),
                      compute_uv=False)
    return np.where(s[..., 0] < 1e-9, 0, np.where(s[..., 1] < 1e-6 * s[..., 0], 1, 2))


@dataclass
class CompositionVerdict:
    applicable: bool
    composition: bool | None
    rank1_n1: bool
    t1_geodesic: bool
    t2_geodesic: bool
    consistent: bool
    reason: str
    rank2_fraction: float
    max_dt_t1: float
    max_dt_t2: float


def composition_test(patch: SurfacePatch, Pi: Plane, grid: tuple[int, int],
                     geo_tol: float = 1e-6) -> CompositionVerdict:
    """Three-way composition criterion on a grid.

    In the generic-angle case the surface is a composition iff the first
    normal space has rank one iff T1 or T2 is a totally geodesic field; the
    three booleans are evaluated independently and must agree (disagreement
    is reported as an inconsistency flag).  Non-generic angles route to the
    inapplicable branch: theta1 = 0 surfaces are compositions outright.
    """
    # one sample and its fundamental forms serve the report and the N1 ranks
    report, ff = _verified(patch, Pi, grid)
    t1_mean, t2_mean = (report.angle_stats[k][0] for k in ("theta1", "theta2"))
    ranks = first_normal_rank(ff)
    max_dt1, max_dt2 = (float(np.nanmax(np.abs(dt))) for dt in (report.dt_T1, report.dt_T2))
    t1_geo, t2_geo = max_dt1 < geo_tol, max_dt2 < geo_tol
    stats = (float(np.mean(ranks == 2)), max_dt1, max_dt2)

    angle_tol = 1e-3
    if (t1_mean > angle_tol and t2_mean < math.pi / 2 - angle_tol
            and t2_mean - t1_mean > angle_tol):
        rank1 = bool(np.mean(ranks <= 1) >= 0.99)
        consistent = rank1 == (t1_geo or t2_geo)
        return CompositionVerdict(True, rank1, rank1, t1_geo, t2_geo, consistent,
                                  "" if consistent else "criteria disagree: numerical red flag",
                                  *stats)
    if np.all(ranks == 0):
        return CompositionVerdict(False, True, True, True, True, True, "totally geodesic", *stats)
    if t1_mean <= angle_tol:
        return CompositionVerdict(False, True, bool(np.all(ranks <= 1)), t1_geo, t2_geo, True,
                                  "theta1 = 0: composition regardless of N1 rank", *stats)
    return CompositionVerdict(False, None, False, False, False, True,
                              "criterion inapplicable for these angles", *stats)
