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
import operator
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
    "plane_bivector",
    "plane_angles_via_bivectors",
    "planes_with_angles",
    "random_plane",
]

# Orthonormality tolerance for plane frames.
FRAME_TOL = 1e-12

# Silent clamp window for singular values slightly above 1 (FP noise);
# anything worse is treated as invalid input.
CLAMP_TOL = 1e-8

# Two principal angles closer than this count as coincident (degenerate).
DEGENERATE_TOL = 1e-9


def _as_vec4(v) -> np.ndarray:
    """A finite array of 4-vectors (last axis)."""
    a = np.asarray(v, dtype=float)
    if a.shape[-1:] != (4,):
        raise ValueError(f"expected a 4-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector has non-finite entries")
    return a


@dataclass(frozen=True, slots=True)
class Plane:
    """Oriented 2-plane in R^4 given by an orthonormal frame (b1, b2), kept as
    checked tuples of four Python floats: a value that compares, hashes,
    copies and pickles by its frame and orientation."""

    b1: tuple[float, float, float, float]
    b2: tuple[float, float, float, float]
    oriented: bool = True

    def __post_init__(self):
        for name in ("b1", "b2"):
            a = np.array(getattr(self, name), dtype=float)
            if a.shape != (4,):
                raise ValueError(f"expected a 4-vector, got shape {a.shape}")
            v = tuple(a.tolist())
            if not all(map(math.isfinite, v)):
                raise ValueError("vector has non-finite entries")
            object.__setattr__(self, name, v)
        x, y = self.b1, self.b2
        if abs(_fdot(x, x) - 1.0) > FRAME_TOL or abs(_fdot(y, y) - 1.0) > FRAME_TOL:
            raise ValueError("plane frame vectors must be unit length (within 1e-12)")
        if abs(_fdot(x, y)) > FRAME_TOL:
            raise ValueError("plane frame vectors must be orthogonal (within 1e-12)")

    @classmethod
    def _orthonormal(cls, b1: tuple, b2: tuple, oriented: bool) -> "Plane":
        """A plane from a float frame that is orthonormal by construction,
        without the checks of ``__init__``: ``orthogonal_complement`` only."""
        P = object.__new__(cls)
        for name, value in (("b1", b1), ("b2", b2), ("oriented", oriented)):
            object.__setattr__(P, name, value)
        return P

    def frame(self) -> np.ndarray:
        """4x2 matrix with the frame vectors as columns."""
        return np.array((self.b1, self.b2)).T

    def project(self, v) -> np.ndarray:
        """Orthogonal projection onto the plane of a 4-vector or of an array
        of them (last axis)."""
        v = _as_vec4(v)
        return (v @ self.b1)[..., None] * self.b1 + (v @ self.b2)[..., None] * self.b2


@dataclass(frozen=True)
class PrincipalAngles:
    """Principal angles 0 <= theta1 <= theta2 <= pi/2 between two 2-planes.

    ``v1``/``v2`` are the unit principal directions in the first plane, as
    tuples of four floats, each signed so its largest-magnitude component is
    positive; when the two angles coincide within DEGENERATE_TOL
    (|theta2 - theta1| < 1e-9) every direction is principal and the first
    plane's frame tuples (b1, b2) are returned as a deterministic canonical
    choice, with ``degenerate`` set.
    """

    theta1: float
    theta2: float
    v1: tuple[float, ...] | None = field(default=None, compare=False)
    v2: tuple[float, ...] | None = field(default=None, compare=False)
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


def _require_finite(*arrays) -> None:
    """The closed-form routes fail on non-finite frames as LAPACK does."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise np.linalg.LinAlgError("SVD did not converge")


def _rotations(angle: np.ndarray) -> np.ndarray:
    """Stacked 2x2 rotation matrices [[cos, -sin], [sin, cos]]."""
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c, -s, s, c], axis=-1).reshape(angle.shape + (2, 2))


def _svd2(M: np.ndarray):
    """Closed-form SVD M = P diag(sv) Q^T of stacked 2x2 matrices (Blinn,
    "Consider the lowly 2x2 matrix", IEEE CG&A 1996): M is the rotation by
    (a2 + a1)/2, the diagonal (Q + R, Q - R), then the rotation by
    (a2 - a1)/2; where Q - R < 0 the second column of P is negated."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    E, F, G, H = (a + d) / 2, (a - d) / 2, (c + b) / 2, (c - b) / 2
    Q, R = np.hypot(E, H), np.hypot(F, G)
    a1, a2 = np.arctan2(G, F), np.arctan2(H, E)
    P = _rotations((a2 + a1) / 2)
    P[..., 1] *= np.where(Q < R, -1.0, 1.0)[..., None]
    return P, np.stack([Q + R, np.abs(Q - R)], axis=-1), _rotations((a2 - a1) / 2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of 4-vectors along the last axis."""
    return np.einsum("...k,...k->...", a, b)


def _norm(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norms along the last axis, as ``np.linalg.norm`` sums them."""
    return np.sqrt((x * x).sum(-1, keepdims=keepdims))


def _residual_svals(X: np.ndarray) -> np.ndarray:
    """Singular values (..., 2), descending, of stacked 4x2 matrices X: from
    the column-pivoted Gram-Schmidt factor [[r11, r12], [0, r22]], s_max by
    the hypot form of its 2x2 SVD and s_min = r11 r22 / s_max."""
    x, y = X[..., 0], X[..., 1]
    xx, yy = _dot(x, x), _dot(y, y)
    pivot = (yy > xx)[..., None]
    x, y = np.where(pivot, y, x), np.where(pivot, x, y)
    xx = np.maximum(xx, yy)
    r11 = np.sqrt(xx)
    xy = _dot(x, y)
    nonzero = xx > 0
    r22 = _norm(y - (xy / np.where(nonzero, xx, 1.0))[..., None] * x)
    r12 = xy / np.where(nonzero, r11, 1.0)
    s_max = (np.hypot(r11 + r22, r12) + np.hypot(r11 - r22, r12)) / 2
    return np.stack([s_max, r11 * r22 / np.where(nonzero, s_max, 1.0)], axis=-1)


def complement_frames(A: np.ndarray) -> np.ndarray:
    """Orthonormal frames (..., 4, 2) of the orthogonal complements of the
    planes framed by A (..., 4, 2), oriented so det[A, A-perp] > 0.

    Any leading shape, a single (4, 2) frame included.  n1 is the column
    e_k - A A_k of the projector I - A A^T with the largest diagonal entry
    d_k = 1 - (a1_k^2 + a2_k^2), the first of equal ones; the four entries
    sum to 2, so |n1|^2 >= 1/2.  It is projected against A once more, which
    holds it to the complement to rounding, and normalized.  n2 is the unit
    cross product *(a1 ^ a2 ^ n1) (``_cross3``): det[A, n1, n2] =
    |a1 ^ a2 ^ n1|^2 > 0 orients by construction, and the final
    normalization keeps the frame's own slack out of |n2|.
    ``orthogonal_complement`` runs the same formulas on Python floats.
    """
    _require_finite(A)
    a1, a2 = A[..., 0], A[..., 1]
    k = (1.0 - (a1 * a1 + a2 * a2)).argmax(-1)[..., None]
    x = np.eye(4)[k[..., 0]] - (a1 * np.take_along_axis(a1, k, -1)
                                + a2 * np.take_along_axis(a2, k, -1))
    x -= a1 * _dot(a1, x)[..., None] + a2 * _dot(a2, x)[..., None]
    n1 = x / _norm(x, keepdims=True)
    n2 = _cross3(a1, a2, n1)
    return np.stack([n1, n2 / _norm(n2, keepdims=True)], axis=-1)


def stacked_angles(A: np.ndarray, B: np.ndarray) -> StackedAngles:
    """Principal angles between the planes framed by A and B, orthonormal
    (..., 4, 2) frames broadcast against each other.

    The cosines are the singular values of the cross-Gram M = A^T B = P C Q^T,
    the sines those of the residual B - A M, and each angle is assembled with
    atan2 (Bjorck & Golub, Math. Comp. 27, 1973); this keeps full accuracy at
    both ends of [0, pi/2].  The directions are the rows of P^T A^T and
    Q^T B^T.  Both SVDs are taken in closed form (``_svd2``,
    ``_residual_svals``) for any leading shape, a single pair included; the
    one-pair views run the same formulas on Python floats (``_pair_angles``).
    """
    _require_finite(A, B)
    M = np.swapaxes(A, -1, -2) @ B
    P, c, Qt = _svd2(M)
    s = _residual_svals(B - A @ M)
    top = max(c.max(initial=0.0), s.max(initial=0.0))
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


# ---------------------------------------------------------------------------
# one pair on Python floats
# ---------------------------------------------------------------------------
# The one-pair views run the formulas of the array kernels term by term on
# Python floats: on 4x2 frames numpy's per-call overhead costs far more than
# the few dozen flops.  Vectors are tuples or lists of floats, written by index.

def _fdot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def _fsub(v, a1, s, a2, t) -> list[float]:
    """v - (a1 s + a2 t): the update v - A (s, t) of the array kernels."""
    return [v[0] - (a1[0] * s + a2[0] * t), v[1] - (a1[1] * s + a2[1] * t),
            v[2] - (a1[2] * s + a2[2] * t), v[3] - (a1[3] * s + a2[3] * t)]


def _faxpy(y, t, x) -> list[float]:
    """y - t x."""
    return [y[0] - t * x[0], y[1] - t * x[1], y[2] - t * x[2], y[3] - t * x[3]]


def _fdiv(x, d) -> tuple[float, ...]:
    return x[0] / d, x[1] / d, x[2] / d, x[3] / d


def _pair_residual_svals(x, y) -> tuple[float, float]:
    """``_residual_svals`` of the 4x2 matrix with columns x, y."""
    xx, yy = _fdot(x, x), _fdot(y, y)
    if yy > xx:
        x, y, xx = y, x, yy
    if not xx > 0:
        return 0.0, 0.0
    r11, xy = math.sqrt(xx), _fdot(x, y)
    z = _faxpy(y, xy / xx, x)
    r22, r12 = math.sqrt(_fdot(z, z)), xy / r11
    s_max = (math.hypot(r11 + r22, r12) + math.hypot(r11 - r22, r12)) / 2
    return s_max, r11 * r22 / s_max


def _pair_angles(a1, a2, b1, b2):
    """``stacked_angles`` of orthonormal frames A = (a1, a2), B = (b1, b2),
    whose singular values pass 1 by rounding only: (theta1, theta2, d1, d2)
    with d_k the principal direction of theta_k in B, before ``canonical_sign``."""
    m11, m12, m21, m22 = _fdot(a1, b1), _fdot(a1, b2), _fdot(a2, b1), _fdot(a2, b2)
    # _svd2 of M = A^T B; of its rotations only Q^T, by (a2 - a1) / 2, is needed
    E, F, G, H = (m11 + m22) / 2, (m11 - m22) / 2, (m21 + m12) / 2, (m21 - m12) / 2
    Q, R = math.hypot(E, H), math.hypot(F, G)
    half = (math.atan2(H, E) - math.atan2(G, F)) / 2
    cq, sq = math.cos(half), math.sin(half)
    s_max, s_min = _pair_residual_svals(_fsub(b1, a1, m11, a2, m21),
                                        _fsub(b2, a1, m12, a2, m22))
    c1, c2 = Q + R, abs(Q - R)
    return (math.atan2(min(s_min, 1.0), min(c1, 1.0)),
            math.atan2(min(s_max, 1.0), min(c2, 1.0)),
            (cq * b1[0] - sq * b2[0], cq * b1[1] - sq * b2[1],
             cq * b1[2] - sq * b2[2], cq * b1[3] - sq * b2[3]),
            (sq * b1[0] + cq * b2[0], sq * b1[1] + cq * b2[1],
             sq * b1[2] + cq * b2[2], sq * b1[3] + cq * b2[3]))


def _pair_wedge(u, v) -> list[float]:
    return [u[0] * v[1] - u[1] * v[0], u[0] * v[2] - u[2] * v[0], u[0] * v[3] - u[3] * v[0],
            u[1] * v[2] - u[2] * v[1], u[1] * v[3] - u[3] * v[1], u[2] * v[3] - u[3] * v[2]]


def _pair_hodge(b) -> list[float]:
    return [b[5], -b[4], b[3], b[2], -b[1], b[0]]


_UNIT = np.eye(4).tolist()


def _pair_complement(a1, a2) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``complement_frames`` of the frame (a1, a2)."""
    d = [1.0 - (a1[i] * a1[i] + a2[i] * a2[i]) for i in range(4)]
    k = d.index(max(d))                # the first of equal entries, as argmax
    x = _fsub(_UNIT[k], a1, a1[k], a2, a2[k])
    x = _fsub(x, a1, _fdot(a1, x), a2, _fdot(a2, x))
    n1 = _fdiv(x, math.sqrt(_fdot(x, x)))
    # _cross3(a1, a2, n1)
    p12, p13, p14, p23, p24, p34 = _pair_wedge(a1, a2)
    c1, c2, c3, c4 = n1
    n2 = [-(p23 * c4 - p24 * c3 + p34 * c2), p13 * c4 - p14 * c3 + p34 * c1,
          -(p12 * c4 - p14 * c2 + p24 * c1), p12 * c3 - p13 * c2 + p23 * c1]
    return n1, _fdiv(n2, math.sqrt(_fdot(n2, n2)))


def principal_angles(V: Plane, W: Plane) -> PrincipalAngles:
    """Principal angles between the planes V and W: the one-pair view of
    ``stacked_angles`` on (W, V), with principal directions in V."""
    theta1, theta2, d1, d2 = _pair_angles(W.b1, W.b2, V.b1, V.b2)
    if abs(theta2 - theta1) < DEGENERATE_TOL:
        return PrincipalAngles(theta1, theta2, V.b1, V.b2, degenerate=True)
    # canonical_sign: max takes the first of equal magnitudes, as argmax does
    d1, d2 = (d if max(d, key=abs) >= 0 else tuple(-v for v in d) for d in (d1, d2))
    return PrincipalAngles(theta1, theta2, d1, d2)


def orthogonal_complement(W: Plane) -> Plane:
    """Orthonormal frame of W-perp, oriented so (W.b1, W.b2, out.b1, out.b2)
    is a positively oriented basis of R^4: the one-plane view of
    ``complement_frames``."""
    n1, n2 = _pair_complement(W.b1, W.b2)
    return Plane._orthonormal(n1, n2, W.oriented)


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------

_HODGE_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def wedge(u, v) -> np.ndarray:
    """Components of u ^ v in the basis (e12, e13, e14, e23, e24, e34), for
    4-vectors or arrays of them along the last axis."""
    (u1, u2, u3, u4), (v1, v2, v3, v4) = (np.moveaxis(_as_vec4(x), -1, 0) for x in (u, v))
    return np.stack([u1 * v2 - u2 * v1, u1 * v3 - u3 * v1, u1 * v4 - u4 * v1,
                     u2 * v3 - u3 * v2, u2 * v4 - u4 * v2, u3 * v4 - u4 * v3], axis=-1)


def hodge(b) -> np.ndarray:
    """Hodge star on Lambda^2 R^4 (last axis): c12<->c34, c13<->-c24, c14<->c23."""
    b = np.asarray(b, dtype=float)
    if b.shape[-1:] != (6,):
        raise ValueError(f"expected bivectors with 6 components, got shape {b.shape}")
    return b[..., ::-1] * _HODGE_SIGN


def _cross3(a, b, c) -> np.ndarray:
    """The 4-D cross product *(a ^ b ^ c) of 4-vectors (last axis): orthogonal
    to a, b and c, of length |a ^ b ^ c|, with det[a, b, c, *(a ^ b ^ c)] =
    |a ^ b ^ c|^2.  Its entries (-t234, t134, -t124, t123) are the signed 3x3
    minors of [a, b, c]: the trivector components t_ijk = p_ij c_k - p_ik c_j
    + p_jk c_i of (a ^ b) ^ c, with p = wedge(a, b)."""
    p12, p13, p14, p23, p24, p34 = np.moveaxis(wedge(a, b), -1, 0)
    c1, c2, c3, c4 = np.moveaxis(np.asarray(c, dtype=float), -1, 0)
    return np.stack([-(p23 * c4 - p24 * c3 + p34 * c2), p13 * c4 - p14 * c3 + p34 * c1,
                     -(p12 * c4 - p14 * c2 + p24 * c1), p12 * c3 - p13 * c2 + p23 * c1],
                    axis=-1)


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
    |cos theta_perp| = sin(theta1)sin(theta2).  ``wedge`` and ``hodge`` run
    here on Python floats.
    """
    ev, ew = _pair_wedge(V.b1, V.b2), _pair_wedge(W.b1, W.b2)
    c, cp = (sum(map(operator.mul, ev, w)) for w in (ew, _pair_hodge(ew)))
    return math.acos(min(max(c, -1.0), 1.0)), math.acos(min(max(cp, -1.0), 1.0))


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
    w1, w2, w3, w4 = _UNIT if basis is None else basis.T.tolist()
    c1, s1, c2, s2 = math.cos(theta1), math.sin(theta1), math.cos(theta2), math.sin(theta2)
    return (Plane([c1 * p + s1 * q for p, q in zip(w2, w4)],
                  [c2 * p + s2 * q for p, q in zip(w1, w3)]), Plane(w1, w2))


def random_plane(rng: np.random.Generator) -> Plane:
    """Uniformly random oriented plane (first two columns of a random rotation)."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q *= np.sign(np.diag(r))
    return Plane(q[:, 0], q[:, 1])

