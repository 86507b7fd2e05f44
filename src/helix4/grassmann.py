"""Oriented 2-planes in R^4, principal angles, and the bivector Gauss map.

A plane is stored as an orthonormal 2-frame.  Bivectors live in Lambda^2 R^4
with components in the lexicographic wedge basis

    (e12, e13, e14, e23, e24, e34).

The Hodge star splits Lambda^2 R^4 into self-dual and anti-self-dual parts
E+ / E-; unit decomposable bivectors land on the product of two spheres of
radius sqrt(2)/2, which is where the Gauss map of a surface takes values.

Fixed coordinate conventions (see README, "Conventions"):

    E+ basis:  (e12+e34)/sqrt2,  (e13-e24)/sqrt2,  (e14+e23)/sqrt2
    E- basis:  (e12-e34)/sqrt2,  (e13+e24)/sqrt2,  (e14-e23)/sqrt2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FRAME_TOL",
    "Plane",
    "PrincipalAngles",
    "GaussPoint",
    "principal_angles",
    "orthogonal_complement",
    "wedge",
    "hodge",
    "bivector_inner",
    "plucker_defect",
    "is_decomposable",
    "plane_bivector",
    "gauss_point",
    "plane_angles_via_bivectors",
    "planes_with_angles",
    "random_plane",
    "plane_to_json",
    "plane_from_json",
]

# Orthonormality tolerance for plane frames.
FRAME_TOL = 1e-12

# Silent clamp window for singular values slightly above 1 (FP noise);
# anything worse is treated as invalid input.
CLAMP_TOL = 1e-8


def _as_vec4(v, stacked: bool = False) -> np.ndarray:
    """A finite 4-vector, or with ``stacked`` an array of them (last axis)."""
    a = np.asarray(v, dtype=float)
    if (a.shape[-1:] if stacked else a.shape) != (4,):
        raise ValueError(f"expected a 4-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector has non-finite entries")
    return a


@dataclass(frozen=True)
class Plane:
    """Oriented 2-plane in R^4 given by an orthonormal frame (b1, b2)."""

    b1: np.ndarray
    b2: np.ndarray
    oriented: bool = True

    def __post_init__(self):
        object.__setattr__(self, "b1", _as_vec4(self.b1))
        object.__setattr__(self, "b2", _as_vec4(self.b2))
        if abs(self.b1 @ self.b1 - 1.0) > FRAME_TOL or abs(self.b2 @ self.b2 - 1.0) > FRAME_TOL:
            raise ValueError("plane frame vectors must be unit length (within 1e-12)")
        if abs(self.b1 @ self.b2) > FRAME_TOL:
            raise ValueError("plane frame vectors must be orthogonal (within 1e-12)")

    @classmethod
    def spanning(cls, u, v, oriented: bool = True) -> "Plane":
        """Plane through two independent vectors, Gram-Schmidt orthonormalized."""
        u = _as_vec4(u)
        v = _as_vec4(v)
        nu = np.linalg.norm(u)
        if nu < 1e-14:
            raise ValueError("degenerate span: first vector is zero")
        b1 = u / nu
        w = v - (v @ b1) * b1
        nw = np.linalg.norm(w)
        if nw < 1e-12 * max(1.0, np.linalg.norm(v)):
            raise ValueError("degenerate span: vectors are parallel")
        return cls(b1, w / nw, oriented)

    def frame(self) -> np.ndarray:
        """4x2 matrix with the frame vectors as columns."""
        return np.stack([self.b1, self.b2], axis=1)

    def reversed(self) -> "Plane":
        """Same plane with the opposite orientation (frame vectors swapped)."""
        return Plane(self.b2, self.b1, self.oriented)

    def project(self, v) -> np.ndarray:
        """Orthogonal projection onto the plane of a 4-vector or of an array
        of them (last axis)."""
        v = _as_vec4(v, stacked=True)
        return (v @ self.b1)[..., None] * self.b1 + (v @ self.b2)[..., None] * self.b2


@dataclass(frozen=True)
class PrincipalAngles:
    """Principal angles 0 <= theta1 <= theta2 <= pi/2 between two 2-planes.

    ``v1``/``v2`` are the unit principal directions in the first plane; when
    the two angles coincide within 1e-9 every direction is principal and the
    input frame is returned as a deterministic canonical choice, with
    ``degenerate`` set.
    """

    theta1: float
    theta2: float
    v1: np.ndarray | None = field(default=None, compare=False)
    v2: np.ndarray | None = field(default=None, compare=False)
    degenerate: bool = False

    def __post_init__(self):
        if not (-1e-12 <= self.theta1 <= self.theta2 + 1e-12 <= math.pi / 2 + 1e-9):
            raise ValueError(f"angles out of range: {self.theta1}, {self.theta2}")


@dataclass(frozen=True)
class GaussPoint:
    """Coordinates of the self-dual / anti-self-dual parts of a unit plane bivector.

    Both coordinate vectors (in the fixed orthonormal E+/E- bases) have norm
    sqrt(2)/2.
    """

    plus: np.ndarray
    minus: np.ndarray


# ---------------------------------------------------------------------------
# principal angles
# ---------------------------------------------------------------------------

def _clamped_svals(m: np.ndarray) -> np.ndarray:
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] > 1.0 + CLAMP_TOL:
        raise ValueError(f"cross-Gram singular value {s[0]} exceeds 1 beyond tolerance")
    return np.clip(s, 0.0, 1.0)


def principal_angles(V: Plane, W: Plane) -> PrincipalAngles:
    """Principal angles between the planes V and W.

    The cosines are the singular values of the 2x2 cross-Gram matrix
    M_ij = <V.b_i, W.b_j>.  The sines are taken from the cross-Gram against
    the orthogonal complement of W, and each angle is assembled with atan2;
    this keeps full accuracy at both ends of [0, pi/2].
    """
    m = V.frame().T @ W.frame()
    u, s, _ = np.linalg.svd(m)
    if s[0] > 1.0 + CLAMP_TOL:
        raise ValueError(f"cross-Gram singular value {s[0]} exceeds 1 beyond tolerance")
    s = np.clip(s, 0.0, 1.0)

    wp = orthogonal_complement(W)
    s_perp = _clamped_svals(V.frame().T @ wp.frame())
    # cosines descending <-> sines ascending
    theta1 = math.atan2(s_perp[1], s[0])
    theta2 = math.atan2(s_perp[0], s[1])
    if theta1 > theta2:
        theta1, theta2 = theta2, theta1

    if s[0] - s[1] > 1e-9:
        d1 = u[0, 0] * V.b1 + u[1, 0] * V.b2
        d2 = u[0, 1] * V.b1 + u[1, 1] * V.b2
        # deterministic sign: largest-magnitude component positive
        for d in (d1, d2):
            k = int(np.argmax(np.abs(d)))
            if d[k] < 0:
                d *= -1.0
        return PrincipalAngles(theta1, theta2, d1, d2)
    return PrincipalAngles(theta1, theta2, V.b1.copy(), V.b2.copy(), degenerate=True)


def orthogonal_complement(W: Plane) -> Plane:
    """Orthonormal frame of W-perp, oriented so (W.b1, W.b2, out.b1, out.b2)
    is a positively oriented basis of R^4."""
    u, _, _ = np.linalg.svd(W.frame(), full_matrices=True)
    n1, n2 = u[:, 2].copy(), u[:, 3].copy()
    if np.linalg.det(np.stack([W.b1, W.b2, n1, n2], axis=1)) < 0:
        n2 = -n2
    return Plane(n1, n2, W.oriented)


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------

# index pairs (i, j) of the lexicographic wedge basis
_WEDGE_I, _WEDGE_J = np.array(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))).T
_HODGE_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def wedge(u, v) -> np.ndarray:
    """Components of u ^ v in the basis (e12, e13, e14, e23, e24, e34), for
    4-vectors or arrays of them along the last axis."""
    u = _as_vec4(u, stacked=True)
    v = _as_vec4(v, stacked=True)
    return u[..., _WEDGE_I] * v[..., _WEDGE_J] - u[..., _WEDGE_J] * v[..., _WEDGE_I]


def hodge(b) -> np.ndarray:
    """Hodge star on Lambda^2 R^4 (last axis): c12<->c34, c13<->-c24, c14<->c23."""
    b = np.asarray(b, dtype=float)
    if b.shape[-1:] != (6,):
        raise ValueError(f"expected bivectors with 6 components, got shape {b.shape}")
    return b[..., ::-1] * _HODGE_SIGN


def bivector_inner(a, b) -> float:
    """Scalar product on Lambda^2 R^4 (the wedge basis is orthonormal)."""
    return float(np.asarray(a, dtype=float) @ np.asarray(b, dtype=float))


def plucker_defect(b) -> float:
    """c12*c34 - c13*c24 + c14*c23; zero exactly on decomposable bivectors."""
    c12, c13, c14, c23, c24, c34 = np.asarray(b, dtype=float)
    return float(c12 * c34 - c13 * c24 + c14 * c23)


def is_decomposable(b, tol: float = 1e-12) -> bool:
    return abs(plucker_defect(b)) <= tol


def plane_bivector(P: Plane) -> np.ndarray:
    """Unit decomposable bivector b1 ^ b2 representing the oriented plane."""
    return wedge(P.b1, P.b2)


# rows: coordinates of the orthonormal E+/E- basis bivectors in the wedge basis
_SQ2 = math.sqrt(2.0)
_EPLUS_BASIS = np.array([
    [1, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, -1, 0],
    [0, 0, 1, 1, 0, 0],
]) / _SQ2
_EMINUS_BASIS = np.array([
    [1, 0, 0, 0, 0, -1],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, -1, 0, 0],
]) / _SQ2


def gauss_point(P: Plane) -> GaussPoint:
    """Self-dual / anti-self-dual coordinates of the plane's unit bivector.

    plus  = coordinates of (eta + *eta)/2 in the fixed orthonormal E+ basis,
    minus = coordinates of (eta - *eta)/2 in the fixed orthonormal E- basis.
    """
    if not P.oriented:
        raise ValueError("gauss_point requires an oriented plane")
    return GaussPoint(*_gauss_coords(plane_bivector(P)))


def _gauss_coords(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E+ / E- coordinates of bivectors eta (last axis), as in ``gauss_point``."""
    star = hodge(eta)
    return ((eta + star) / 2.0) @ _EPLUS_BASIS.T, ((eta - star) / 2.0) @ _EMINUS_BASIS.T


def plane_angles_via_bivectors(V: Plane, W: Plane) -> tuple[float, float]:
    """Angles (theta, theta_perp) in [0, pi] between oriented planes.

    cos(theta) = <eta_V, eta_W> and cos(theta_perp) = <eta_V, *eta_W>; the raw
    signs depend on the two orientations, so cross checks against the
    principal angles use |cos theta| = cos(theta1)cos(theta2) and
    |cos theta_perp| = sin(theta1)sin(theta2).
    """
    ev = plane_bivector(V)
    ew = plane_bivector(W)
    c = np.clip(bivector_inner(ev, ew), -1.0, 1.0)
    cp = np.clip(bivector_inner(ev, hodge(ew)), -1.0, 1.0)
    return math.acos(c), math.acos(cp)


# ---------------------------------------------------------------------------
# constructions used throughout the tests
# ---------------------------------------------------------------------------

def planes_with_angles(theta1: float, theta2: float,
                       basis: np.ndarray | None = None) -> tuple[Plane, Plane]:
    """Build a pair (V, W) with prescribed principal angles.

    W = span(w1, w2) and V = span(cos(t1) w2 + sin(t1) w4,
    cos(t2) w1 + sin(t2) w3) for an orthonormal basis (w1..w4) of R^4
    (the identity basis unless one is supplied as columns).
    """
    if not (0.0 <= theta1 <= theta2 <= math.pi / 2 + 1e-15):
        raise ValueError("need 0 <= theta1 <= theta2 <= pi/2")
    if basis is None:
        basis = np.eye(4)
    w1, w2, w3, w4 = basis.T
    v1 = math.cos(theta1) * w2 + math.sin(theta1) * w4
    v2 = math.cos(theta2) * w1 + math.sin(theta2) * w3
    return Plane(v1, v2), Plane(w1, w2)


def random_plane(rng: np.random.Generator) -> Plane:
    """Uniformly random oriented plane (first two columns of a random rotation)."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q *= np.sign(np.diag(r))
    return Plane(q[:, 0], q[:, 1])


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def plane_to_json(P: Plane) -> dict:
    return {"b1": list(P.b1), "b2": list(P.b2), "oriented": P.oriented}


def plane_from_json(obj: dict) -> Plane:
    if not isinstance(obj, dict):
        raise TypeError("plane JSON must be an object with fields b1 and b2, "
                        f"not {type(obj).__name__}")
    try:
        return Plane(np.array(obj["b1"], dtype=float),
                     np.array(obj["b2"], dtype=float),
                     bool(obj.get("oriented", True)))
    except KeyError as exc:
        raise ValueError(f"plane JSON is missing field {exc}") from exc
