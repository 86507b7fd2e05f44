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
from typing import NamedTuple

import numpy as np

__all__ = [
    "FRAME_TOL",
    "DEGENERATE_TOL",
    "Plane",
    "PrincipalAngles",
    "StackedAngles",
    "stacked_angles",
    "complement_frames",
    "canonical_sign",
    "principal_angles",
    "orthogonal_complement",
    "wedge",
    "hodge",
    "bivector_inner",
    "plane_bivector",
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

# Two principal angles closer than this count as coincident (degenerate).
DEGENERATE_TOL = 1e-9


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

    def frame(self) -> np.ndarray:
        """4x2 matrix with the frame vectors as columns."""
        return np.array((self.b1, self.b2)).T

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

    ``v1``/``v2`` are the unit principal directions in the first plane, each
    signed so its largest-magnitude component is positive; when the two
    angles coincide within DEGENERATE_TOL (|theta2 - theta1| < 1e-9) every
    direction is principal and the input frame is returned as a
    deterministic canonical choice, with ``degenerate`` set.
    """

    theta1: float
    theta2: float
    v1: np.ndarray | None = field(default=None, compare=False)
    v2: np.ndarray | None = field(default=None, compare=False)
    degenerate: bool = False

    def __post_init__(self):
        if not (-1e-12 <= self.theta1 <= self.theta2 + 1e-12 <= math.pi / 2 + 1e-9):
            raise ValueError(f"angles out of range: {self.theta1}, {self.theta2}")


# ---------------------------------------------------------------------------
# principal angles
# ---------------------------------------------------------------------------

class StackedAngles(NamedTuple):
    """Principal angles of stacked plane pairs (A, B), see ``stacked_angles``.

    ``theta`` (..., 2) holds theta1 <= theta2 and ``cos`` their cosines, the
    cross-Gram singular values; row k of ``dirs_a`` / ``dirs_b`` (..., 2, 4)
    is the principal direction of theta_k in A / B.  ``degenerate`` marks
    pairs whose angles coincide within DEGENERATE_TOL, where every direction
    is principal.
    """

    theta: np.ndarray
    cos: np.ndarray
    dirs_a: np.ndarray
    dirs_b: np.ndarray
    degenerate: np.ndarray


def complement_frames(A: np.ndarray) -> np.ndarray:
    """Orthonormal frames (..., 4, 2) of the orthogonal complements of the
    planes framed by A (..., 4, 2), oriented so det[A, A-perp] > 0."""
    n = np.linalg.svd(A, full_matrices=True)[0][..., 2:]
    flip = np.linalg.det(np.concatenate([A, n], axis=-1)) < 0
    n[..., 1] *= np.where(flip, -1.0, 1.0)[..., None]
    return n


def stacked_angles(A: np.ndarray, B: np.ndarray) -> StackedAngles:
    """Principal angles between the planes framed by A and B, orthonormal
    (..., 4, 2) frames broadcast against each other.

    The cosines are the singular values of the cross-Gram M = A^T B = P C Q^T,
    the sines those of the residual B - A M, and each angle is assembled with
    atan2 (Bjorck & Golub, Math. Comp. 27, 1973); this keeps full accuracy at
    both ends of [0, pi/2].  The directions are the rows of P^T A^T and
    Q^T B^T.
    """
    M = np.swapaxes(A, -1, -2) @ B
    P, c, Qt = np.linalg.svd(M)
    s = np.linalg.svd(B - A @ M, compute_uv=False)
    top = max(c.max(), s.max())
    if top > 1.0 + CLAMP_TOL:
        raise ValueError(f"cross-Gram singular value {top} exceeds 1 beyond tolerance")
    # svals are >= 0, so only noise above 1 is clamped; cos descending <-> sin ascending
    c = np.minimum(c, 1.0)
    theta = np.arctan2(np.minimum(s[..., ::-1], 1.0), c)
    return StackedAngles(theta, c, np.swapaxes(P, -1, -2) @ np.swapaxes(A, -1, -2),
                         Qt @ np.swapaxes(B, -1, -2),
                         np.abs(theta[..., 1] - theta[..., 0]) < DEGENERATE_TOL)


def canonical_sign(V: np.ndarray) -> np.ndarray:
    """Per vector (last axis) the sign, +1 or -1, that makes its
    largest-magnitude component non-negative."""
    i = np.abs(V).argmax(-1)
    top = V.reshape(-1, V.shape[-1])[np.arange(i.size), i.ravel()].reshape(i.shape)
    return np.where(top < 0, -1.0, 1.0)


def principal_angles(V: Plane, W: Plane) -> PrincipalAngles:
    """Principal angles between the planes V and W: the one-pair view of
    ``stacked_angles`` on (W, V), with principal directions in V."""
    k = stacked_angles(W.frame(), V.frame())
    theta1, theta2 = k.theta.tolist()
    if k.degenerate:
        return PrincipalAngles(theta1, theta2, V.b1.copy(), V.b2.copy(), degenerate=True)
    d1, d2 = k.dirs_b * canonical_sign(k.dirs_b)[:, None]
    return PrincipalAngles(theta1, theta2, d1, d2)


def orthogonal_complement(W: Plane) -> Plane:
    """Orthonormal frame of W-perp, oriented so (W.b1, W.b2, out.b1, out.b2)
    is a positively oriented basis of R^4."""
    return Plane(*complement_frames(W.frame()).T, W.oriented)


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


def _gauss_coords(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E+ / E- coordinates of bivectors eta (last axis): those of the
    self-dual part (eta + *eta)/2 in the E+ basis and of the anti-self-dual
    part (eta - *eta)/2 in the E- basis."""
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
    c = min(max(bivector_inner(ev, ew), -1.0), 1.0)
    cp = min(max(bivector_inner(ev, hodge(ew)), -1.0), 1.0)
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
    """Plane from a decoded JSON object.  A missing field or a value of the
    wrong JSON type (a coordinate that is not a number, booleans included, or
    an ``oriented`` that is not a boolean) is a TypeError naming the field; a
    wrong length, a non-finite or a non-orthonormal frame a ValueError."""
    if not isinstance(obj, dict):
        raise TypeError("plane JSON must be an object with fields b1 and b2, "
                        f"not {type(obj).__name__}")
    try:
        b1, b2 = (_json_coords(obj[key], key) for key in ("b1", "b2"))
    except KeyError as exc:
        raise TypeError(f"plane JSON is missing field {exc}") from exc
    oriented = obj.get("oriented", True)
    if not isinstance(oriented, bool):
        raise TypeError(f"plane field oriented must be true or false, got {oriented!r}")
    return Plane(b1, b2, oriented)


def _json_coords(v, key: str) -> np.ndarray:
    if not isinstance(v, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise TypeError(f"plane field {key} must be a list of numbers, got {v!r}")
    try:
        return np.array(v, dtype=float)
    except OverflowError:
        raise ValueError(f"plane field {key} has non-finite entries") from None
