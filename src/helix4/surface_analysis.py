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
(``adapted_frames``) and every residual are computed on the sampled arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .grassmann import (Plane, _gauss_coords, canonical_sign, complement_frames,
                        hodge, plane_bivector, stacked_angles, wedge)

__all__ = [
    "SurfaceJet",
    "SurfacePatch",
    "FundamentalForms",
    "AdaptedFrame",
    "StructureReport",
    "SphereFit",
    "ImmersionError",
    "patch_from_position",
    "patch_from_grid",
    "GraphSurface",
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
    form), "fd-position" (finite differences of a position-only map) or
    "grid" (finite differences of sampled values; evaluation snaps to nodes).
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

def patch_from_position(pos: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        u_range: tuple[float, float],
                        v_range: tuple[float, float],
                        h: float | None = None,
                        name: str = "") -> SurfacePatch:
    """Patch with jets estimated by central differences of a position map.

    ``pos(u, v)`` takes arrays of parameters and returns the points as an
    array of shape u.shape + (4,); a grid costs nine calls.  Step defaults
    to (domain span) * max(1e-4, cbrt(machine eps)) per direction.
    """
    scale = max(1e-4, float(np.finfo(float).eps) ** (1.0 / 3.0))
    hu = h if h is not None else (u_range[1] - u_range[0]) * scale
    hv = h if h is not None else (v_range[1] - v_range[0]) * scale

    def sample(us: np.ndarray, vs: np.ndarray) -> SurfaceJet:
        U, V = np.meshgrid(us, vs, indexing="ij")

        def at(du: float, dv: float) -> np.ndarray:
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

    return SurfacePatch(u_range, v_range, sample, jet_source="fd-position", name=name)


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


def patch_from_grid(us: np.ndarray, vs: np.ndarray, points: np.ndarray,
                    name: str = "") -> SurfacePatch:
    """Patch backed by position samples on a rectangular grid.

    ``points`` has shape (len(us), len(vs), 4).  Jets come from finite
    differences of the samples; queries snap to the nearest node.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.shape != (us.size, vs.size, 4):
        raise ValueError("points must have shape (len(us), len(vs), 4)")
    if us.size < 3 or vs.size < 3:
        raise ValueError("grid patches need at least 3 nodes per direction")
    arrays = SurfaceJet(*_fd_jet(points, us[1] - us[0], vs[1] - vs[0]))

    def sample(qu: np.ndarray, qv: np.ndarray) -> SurfaceJet:
        i, j = snap_to_nodes(us, vs, qu, qv)
        return arrays[i][:, j]

    return SurfacePatch((us[0], us[-1]), (vs[0], vs[-1]), sample, jet_source="grid",
                        name=name)


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

JET_PARTS = ("", "x", "y", "xx", "xy", "yy")
GRAPH_FIELDS = tuple(k + s for k in "fg" for s in JET_PARTS)


@dataclass
class GraphSurface:
    """The graph (x, y) -> (x, y, f, g) of two scalar fields on a rectangle.

    ``sampler(xs, ys)`` gives the 2-jets of f and g on the grid xs x ys as
    12 arrays indexed [x, y], keyed ``GRAPH_FIELDS``; ``patch()`` is the
    graph as a ``SurfacePatch``.  Grid-backed fields keep their nodes in
    ``xs``/``ys`` and sample views of the stored arrays.

    f and g stay scalar, not read off a ``SurfacePatch``: ``symplecto_check``
    needs only their gradients, and building the 4-vector jet of every node
    for it raised the construct-ladder peak RSS from about 80 to 123 MB.
    """

    sampler: Callable[[np.ndarray, np.ndarray], dict[str, np.ndarray]]
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    source: str = "analytic"         # analytic | grid
    xs: np.ndarray | None = None     # node coordinates for grid-backed fields
    ys: np.ndarray | None = None
    name: str = "graph"

    @classmethod
    def from_callables(cls, f_jet: ScalarJet, g_jet: ScalarJet,
                       x_range, y_range, name: str = "graph") -> "GraphSurface":
        """Fields from two providers, each called once per sampled grid."""

        def sample(xs: np.ndarray, ys: np.ndarray) -> dict[str, np.ndarray]:
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            return {k: np.broadcast_to(np.asarray(v, dtype=float), X.shape)
                    for k, v in zip(GRAPH_FIELDS, (*f_jet(X, Y), *g_jet(X, Y)))}

        return cls(sample, tuple(x_range), tuple(y_range), name=name)

    @classmethod
    def from_grids(cls, xs: np.ndarray, ys: np.ndarray,
                   F: np.ndarray, G: np.ndarray,
                   name: str = "graph") -> "GraphSurface":
        """Grid-sampled fields, indexed [x, y]; all derivatives by finite
        differences of the value grids (centered interior, one-sided closure
        at the edges)."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        F = np.asarray(F, dtype=float)
        G = np.asarray(G, dtype=float)
        if F.shape != (xs.size, ys.size) or G.shape != F.shape:
            raise ValueError("value grids must have shape (len(xs), len(ys))")
        if xs.size < 3 or ys.size < 3:
            raise ValueError("grid-backed fields need at least 3 nodes per direction")
        arrays = {}
        for key, V in (("f", F), ("g", G)):
            arrays.update(zip((key + s for s in JET_PARTS),
                              _fd_jet(V, xs[1] - xs[0], ys[1] - ys[0])))

        def sample(qx: np.ndarray, qy: np.ndarray) -> dict[str, np.ndarray]:
            i, j = snap_to_nodes(xs, ys, qx, qy)
            return {k: v[i][:, j] for k, v in arrays.items()}

        return cls(sample, (xs[0], xs[-1]), (ys[0], ys[-1]),
                   source="grid", xs=xs, ys=ys, name=name)

    def sample_grid(self, n: int | None = None,
                    m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Evaluation coordinates: the stored nodes for grid-backed fields,
        a linspace otherwise."""
        if self.source == "grid":
            return self.xs, self.ys
        return (np.linspace(*self.x_range, n or 21),
                np.linspace(*self.y_range, m or 21))

    def sample(self, xs, ys) -> dict[str, np.ndarray]:
        """Both 2-jets on the grid xs x ys, keyed ``GRAPH_FIELDS``."""
        return self.sampler(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))

    def patch(self) -> SurfacePatch:
        def sample(xs: np.ndarray, ys: np.ndarray) -> SurfaceJet:
            d = self.sample(xs, ys)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            return graph_jet(X, Y, *([d[k + s] for s in JET_PARTS] for k in "fg"))

        return SurfacePatch(self.x_range, self.y_range, sample, jet_source=self.source,
                            name=self.name)


# ---------------------------------------------------------------------------
# fundamental forms
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray):
    """Inner products of 4-vectors along the last axis."""
    return np.einsum("...k,...k->...", a, b)


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
    bad = W <= 1e-14
    if bad.any():
        raise ImmersionError(f"degenerate metric: EG - F^2 = {W[bad][0]}")

    def normal_part(w: np.ndarray) -> np.ndarray:
        a, b = _coords(w, pu, pv, E, F, G, W)
        return w - a[..., None] * pu - b[..., None] * pv

    return FundamentalForms(E, F, G,
                            normal_part(jet.p_uu),
                            normal_part(jet.p_uv),
                            normal_part(jet.p_vv))


# ---------------------------------------------------------------------------
# adapted frames
# ---------------------------------------------------------------------------

def _tangent_frame(jet: SurfaceJet) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent frame, orientation matching (p_u, p_v), at one
    point or over a grid."""
    u1 = jet.p_u / np.linalg.norm(jet.p_u, axis=-1, keepdims=True)
    w = jet.p_v - _dot(jet.p_v, u1)[..., None] * u1
    n = np.linalg.norm(w, axis=-1, keepdims=True)
    if (n < 1e-12 * np.maximum(1.0, np.linalg.norm(jet.p_v, axis=-1, keepdims=True))).any():
        raise ImmersionError("tangent vectors are parallel")
    return u1, w / n


def adapted_frame(jet: SurfaceJet, Pi: Plane) -> AdaptedFrame:
    """Adapted frame at one point with canonical signs: the one-node view of
    ``adapted_frames``."""
    return adapted_frames(jet[None, None], Pi)[0, 0]


def adapted_frames(jets: SurfaceJet, Pi: Plane) -> AdaptedFrame:
    """Adapted frames over an (N, M) grid of jets, in one array pass.

    T1, T2 are the principal directions in the tangent plane against Pi
    (``stacked_angles`` on (Pi, tangent frame)), e1, e2 the matching ones in
    Pi, and xi_k = (e_k - cos(theta_k) T_k) / sin(theta_k) where that is
    determined.  Signs follow the alignment tree: the root (0, 0) takes
    canonical signs, every other node aligns with its left neighbour, and
    column 0 with the node above.  Sign flips and T1/T2 label swaps become
    running products of neighbour-dot signs along that tree.
    ``align_quality`` is 1 at the root.
    """
    u1, u2 = _tangent_frame(jets)
    U = np.stack([u1, u2], axis=-1)                       # (N, M, 4, 2)
    # the two groups (T_k, e_k, xi_k) stacked on axis -2
    pa = stacked_angles(Pi.frame(), U)
    theta, T, E = pa.theta, pa.dirs_b, pa.dirs_a
    e_tied = pa.cos > DEG_COS
    xi_tied = np.sin(theta) > DEG_SIN
    w = E - _dot(E, T)[..., None] * T
    X = w / np.where(xi_tied[..., None], np.linalg.norm(w, axis=-1, keepdims=True), 1.0)
    # complete the loose xi from the normal space (theta1 <= theta2 before
    # label swaps: xi2 is loose only where xi1 is); the sign of each loose xi
    # is set by the alignment below.  The rows n are copied to contiguous
    # memory: einsum sums strided rows in another order.
    loose = ~xi_tied
    k = loose[..., 0]
    lk, Xk = loose[k][..., None], X[k]
    n = np.swapaxes(complement_frames(U[k]), -1, -2).copy()
    z = n - _dot(n, Xk[:, 1:])[..., None] * Xk[:, 1:]
    z = np.where(np.linalg.norm(z[:, :1], axis=-1, keepdims=True) < 0.5,
                 z[:, 1:], z[:, :1])
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    X[k] = np.where(lk.all(axis=1, keepdims=True), n, np.where(lk, z, Xk))

    # label swaps: a parity that flips where crossed beats straight
    G = np.abs(T @ np.swapaxes(_parent(T), -1, -2))
    straight = G[..., 0, 0] + G[..., 1, 1]
    crossed = G[..., 0, 1] + G[..., 1, 0]
    near = np.abs(theta[..., 0] - theta[..., 1]) < SWAP_TOL
    swap = _tree_products(np.where(near & (crossed > straight), -1.0, 1.0),
                          ~near | (crossed == straight))[..., None] < 0
    theta, e_tied, xi_tied = (np.where(swap, A[..., ::-1], A)
                              for A in (theta, e_tied, xi_tied))
    T, E, X = (np.where(swap[..., None], A[..., ::-1, :], A) for A in (T, E, X))

    sign_T = _aligned_signs(T, False, 1.0)
    sign_e = _aligned_signs(E, e_tied, sign_T)
    T, E, X = (A * sgn[..., None] for A, sgn in (
        (T, sign_T), (E, sign_e), (X, _aligned_signs(X, xi_tied, sign_e))))
    quality = np.minimum(_dot(T, _parent(T)).min(-1), _dot(X, _parent(X)).min(-1))
    quality[0, 0] = 1.0
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


def _aligned_signs(V: np.ndarray, tied, tied_sign) -> np.ndarray:
    """Signs (N, M, 2) that align the groups V (N, M, 2, 4) with their tree
    parents: a tied group takes ``tied_sign``, a zero dot restarts at +1,
    the root is canonical."""
    d = _dot(V, _parent(V))
    d[0, 0] = canonical_sign(V[0, 0])
    return _tree_products(np.where(tied, tied_sign, np.where(d < 0, -1.0, 1.0)),
                          tied | (d == 0))


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


def brioschi_curvature(E: np.ndarray, F: np.ndarray, G: np.ndarray,
                       du: float, dv: float) -> np.ndarray:
    """Gauss curvature from the metric alone (Brioschi formula), interior nodes.

    Metric derivatives are centered differences; the returned array is
    NaN-padded to the input shape.
    """
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
    W = E * G - F * F
    K = (m1 - m2) / (W * W)
    out = np.full_like(K, np.nan)
    out[1:-1, 1:-1] = K[1:-1, 1:-1]
    return out


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


def verify_helix(patch: SurfacePatch, Pi: Plane,
                 grid: tuple[int, int]) -> StructureReport:
    """Sample the adapted-frame structure over a grid and report residuals.

    Frames come from ``adapted_frames`` (one array pass), then connection
    one-forms and m-derivatives are estimated by centered differences on the
    interior nodes.
    """
    N, M = grid
    if N < 3 or M < 3:
        raise ValueError("grid must be at least 3x3 for the FD stencil")
    us = np.linspace(*patch.u_range, N)
    vs = np.linspace(*patch.v_range, M)
    du = us[1] - us[0]
    dv = vs[1] - vs[0]

    J = patch.sample(us, vs)
    ff = fundamental_forms(J)
    P, PU, PV = J.p, J.p_u, J.p_v
    E, F, G = ff.E, ff.F, ff.G
    a11, a12, a22 = ff.alpha_11, ff.alpha_12, ff.alpha_22

    if not Pi.oriented:
        raise ValueError("the Gauss map needs an oriented reference plane")
    fr = adapted_frames(J, Pi)
    T1, T2, X1, X2, E1, E2 = fr.T1, fr.T2, fr.xi1, fr.xi2, fr.e1, fr.e2
    th1, th2 = fr.theta1, fr.theta2
    # Gauss map of the tangent planes against the reference plane
    eta, eta_pi = wedge(*_tangent_frame(J)), plane_bivector(Pi)
    (plus, minus), (plus_pi, minus_pi) = _gauss_coords(eta), _gauss_coords(eta_pi)
    circ_plus, circ_minus = plus @ plus_pi, minus @ minus_pi
    cos_theta, cos_theta_perp = eta @ eta_pi, eta @ hodge(eta_pi)

    # coefficients of T1, T2 in (p_u, p_v)
    W = E * G - F * F
    (c1u, c1v), (c2u, c2v) = (_coords(T, PU, PV, E, F, G, W) for T in (T1, T2))

    def alpha_on_grid(au, av, bu, bv):
        coef = lambda arr, w: arr * w[..., None]  # noqa: E731
        return (coef(a11, au * bu) + coef(a12, au * bv + av * bu)
                + coef(a22, av * bv))

    aT1T1 = alpha_on_grid(c1u, c1v, c1u, c1v)
    aT1T2 = alpha_on_grid(c1u, c1v, c2u, c2v)
    aT2T2 = alpha_on_grid(c2u, c2v, c2u, c2v)
    m1 = _dot(aT2T2, X1)
    m2 = _dot(aT1T1, X2)
    alpha_cross = np.linalg.norm(aT1T2, axis=-1)

    # curvatures from the Gauss / Ricci equations
    K = (_dot(a11, a22) - _dot(a12, a12)) / W
    h1 = np.empty((N, M, 2, 2))
    h2 = np.empty((N, M, 2, 2))
    h1[..., 0, 0], h1[..., 1, 1] = _dot(aT1T1, X1), m1
    h2[..., 0, 0], h2[..., 1, 1] = m2, _dot(aT2T2, X2)
    h1[..., 0, 1] = h1[..., 1, 0] = _dot(aT1T2, X1)
    h2[..., 0, 1] = h2[..., 1, 0] = _dot(aT1T2, X2)
    comm = h1 @ h2 - h2 @ h1
    K_perp = comm[..., 1, 0]

    K_brioschi = brioschi_curvature(E, F, G, du, dv)

    cos_ap = 2.0 * circ_plus
    cos_am = 2.0 * circ_minus
    alpha_theta_cross = np.maximum(np.abs(cos_ap - (cos_theta + cos_theta_perp)),
                                   np.abs(cos_am - (cos_theta - cos_theta_perp)))
    alpha_plus = np.arccos(np.clip(cos_ap, -1.0, 1.0))
    alpha_minus = np.arccos(np.clip(cos_am, -1.0, 1.0))

    it = lambda A: A[1:-1, 1:-1]  # noqa: E731  interior view

    def along(A):
        """Centred derivatives of the field A (a scalar or a vector per node)
        along T1 and along T2, on the interior nodes."""
        ddu = (A[2:, 1:-1] - A[:-2, 1:-1]) / (2 * du)
        ddv = (A[1:-1, 2:] - A[1:-1, :-2]) / (2 * dv)
        x = (...,) + (None,) * (A.ndim - 2)
        return tuple(it(cu)[x] * ddu + it(cv)[x] * ddv
                     for cu, cv in ((c1u, c1v), (c2u, c2v)))

    # connection one-forms <D_X T1, T2>, <D_X xi1, xi2>, <D_X e1, e2> and
    # the derivatives of m1, m2, each on X = T1 and X = T2
    dt_T1, dt_T2 = (_dot(d, it(T2)) for d in along(T1))
    dn_T1, dn_T2 = (_dot(d, it(X2)) for d in along(X1))
    df_T1, df_T2 = (_dot(d, it(E2)) for d in along(E1))
    dm1_T1, dm1_T2 = along(m1)
    dm2_T1, dm2_T2 = along(m2)

    ct1, ct2 = np.cos(it(th1)), np.cos(it(th2))
    st1, st2 = np.sin(it(th1)), np.sin(it(th2))
    im1, im2 = it(m1), it(m2)

    # structure equations evaluated on X = T1 and X = T2
    tangent_res = np.stack([
        ct2 * df_T1 - ct1 * dt_T1,
        ct2 * df_T2 - ct1 * dt_T2 + st1 * im1,
        -ct1 * df_T1 + ct2 * dt_T1 + st2 * im2,
        -ct1 * df_T2 + ct2 * dt_T2,
    ])
    normal_res = np.stack([
        st2 * df_T1 - ct1 * im2 - st1 * dn_T1,
        st2 * df_T2 - st1 * dn_T2,
        -st1 * df_T1 + st2 * dn_T1,
        -st1 * df_T2 - ct2 * im1 + st2 * dn_T2,
    ])
    c1_res = im1 * dt_T2 + dm1_T1
    c2_res = im1 * dt_T1 - im2 * dn_T2
    c3_res = im2 * dt_T1 - dm2_T2
    c4_res = im2 * dt_T2 - im1 * dn_T1
    par_h1 = np.stack([dm2_T1 + im1 * dn_T1, dm2_T2 + im1 * dn_T2])
    par_h2 = np.stack([dm1_T1 - im2 * dn_T1, dm1_T2 - im2 * dn_T2])

    sphere = _fit_sphere(P)

    def pad(arr):
        out = np.full((N, M), np.nan)
        out[1:-1, 1:-1] = arr
        return out

    theta1_stats = (float(np.mean(th1)), float(np.std(th1)))
    theta2_stats = (float(np.mean(th2)), float(np.std(th2)))
    angle_stats = {
        "theta1": theta1_stats,
        "theta2": theta2_stats,
        "alpha_plus": (float(np.mean(alpha_plus)), float(np.std(alpha_plus))),
        "alpha_minus": (float(np.mean(alpha_minus)), float(np.std(alpha_minus))),
    }

    residuals = {
        "structure_tangent": ResidualStat.of(tangent_res),
        "structure_normal": ResidualStat.of(normal_res),
        "codazzi_c1": ResidualStat.of(c1_res),
        "codazzi_c2": ResidualStat.of(c2_res),
        "codazzi_c3": ResidualStat.of(c3_res),
        "codazzi_c4": ResidualStat.of(c4_res),
        "gauss_curvature": ResidualStat.of(K),
        "normal_curvature": ResidualStat.of(K_perp),
        "gauss_brioschi_agreement": ResidualStat.of(it(K) - it(K_brioschi)),
        "alpha_t1t2": ResidualStat.of(alpha_cross),
        "parallel_h": ResidualStat.of(np.concatenate([par_h1, par_h2])),
        "alpha_theta_cross": ResidualStat.of(alpha_theta_cross),
    }
    if sphere.ok:
        residuals["sphere_defect"] = ResidualStat(sphere.defect, sphere.defect)

    # dlambda1, dlambda2 on X = T1 and X = T2
    dl1 = (im1 * _dot(it(T1), it(T2)), im1 * _dot(it(T2), it(T2)))
    dl2 = (im2 * _dot(it(T1), it(T1)), im2 * _dot(it(T2), it(T1)))
    # redundant one-form identities of the generic case (consequences of the
    # structure system; reported as residuals, not enforced independently)
    mean_t1 = theta1_stats[0]
    mean_t2 = theta2_stats[0]
    dependencia_skipped = None
    if 1e-6 < mean_t1 and mean_t2 < math.pi / 2 - 1e-6:
        ok = np.minimum.reduce([st1, st2, ct1, ct2]) > DEPENDENCIA_MIN
        ok[ok] = np.abs(ct1[ok] / ct2[ok] - ct2[ok] / ct1[ok]) > DEPENDENCIA_MIN
        dependencia_skipped = int(ok.size - np.count_nonzero(ok))
        l1, l2, dt, dn = ([a[ok] for a in pair]
                          for pair in (dl1, dl2, (dt_T1, dt_T2), (dn_T1, dn_T2)))
        c1, c2, s1, s2 = ct1[ok], ct2[ok], st1[ok], st2[ok]
        dep1, dep2, dep3 = [], [], []
        for k in (0, 1):
            dep1.append((c1 / c2 - c2 / c1) * dt[k]
                        - (s1 / c2) * l1[k] - (s2 / c1) * l2[k])
            dep2.append(-(s1 / s2) * dn[k] + (c1 / c2) * dt[k]
                        - (s1 / c2) * l1[k] - (c1 / s2) * l2[k])
            dep3.append(-(s2 / s1) * dn[k] + (c1 / c2) * dt[k]
                        - (s1 / c2 - c2 / s1) * l1[k])
        residuals["dependencia1"] = ResidualStat.of(np.stack(dep1))
        residuals["dependencia2"] = ResidualStat.of(np.stack(dep2))
        residuals["dependencia3"] = ResidualStat.of(np.stack(dep3))
    if mean_t1 < 1e-6 and mean_t2 < math.pi / 2 - 1e-6:
        tt2 = np.tan(it(th2))
        residuals["zero_angle_df"] = ResidualStat.of(np.stack([
            ct2 * df_T1 - dt_T1, ct2 * df_T2 - dt_T2]))
        residuals["zero_angle_dn"] = ResidualStat.of(np.stack([
            tt2 * dn_T1 - dl1[0], tt2 * dn_T2 - dl1[1]]))
    if mean_t1 < 1e-6:
        residuals["zero_angle_geodesic"] = ResidualStat.of(dt_T2)

    # angle dichotomy for spherical helix patches: only asserted when the
    # sphere fit succeeds and the surface actually is a (numerical) helix
    sphere_dichotomy = None
    helix_like = max(theta1_stats[1], theta2_stats[1]) < 1e-6
    if sphere.ok and sphere.defect < 1e-6 and helix_like:
        sphere_dichotomy = bool(mean_t1 < 1e-6
                                or abs(mean_t2 - math.pi / 2) < 1e-6)

    return StructureReport(
        name=patch.name,
        jet_source=patch.jet_source,
        grid_shape=(N, M),
        u=us, v=vs, points=P,
        theta1=th1, theta2=th2, m1=m1, m2=m2,
        K=K, K_perp=K_perp,
        dt_T1=pad(dt_T1), dt_T2=pad(dt_T2),
        dn_T1=pad(dn_T1), dn_T2=pad(dn_T2),
        parallel_h=tuple(float(np.nanmax(np.abs(r))) for r in (par_h1, par_h2)),
        residuals=residuals,
        angle_stats=angle_stats,
        gauss_circle_std=(float(np.std(circ_plus)), float(np.std(circ_minus))),
        alpha_theta_max=float(np.max(alpha_theta_cross)),
        sphere=sphere,
        sphere_dichotomy=sphere_dichotomy,
        degenerate_fraction=float(np.mean(fr.degenerate)),
        min_align_dot=float(fr.align_quality.min()),
        structure_residual=pad(np.max(np.abs(np.concatenate(
            [tangent_res, normal_res])), axis=0)),
        codazzi_residual=pad(np.max(np.abs(np.stack(
            [c1_res, c2_res, c3_res, c4_res])), axis=0)),
        dependencia_skipped=dependencia_skipped,
    )
