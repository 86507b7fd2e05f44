"""Closed-form example surfaces with exact jets.

Every generator returns the patch together with the reference plane it is a
(candidate) helix for and the expected principal angles, so the surfaces
double as ground truth for the residual machinery in
:mod:`helix4.surface_analysis`.  Jets are numpy formulas evaluated once over
the sampled grid; profile curves take arrays of their parameter.

Conventions (see README): the rotation group used by the orbit construction
fixes ``span(e1, e2)`` pointwise and rotates the ``(e3, e4)``-plane.  The
spherical-helix profile with sphere radius R and slope angle beta (angle
between the unit tangent and the e3 axis) is parametrized over the height u:

    tau(u)   = arcsin(u / (R sin beta))
    Theta(u) = tau / cos(beta) - arctan(cos(beta) tan(tau))
    gamma(u) = (r cos Theta, r sin Theta, u, 0),   r = sqrt(R^2 - u^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as poly

from .grassmann import Plane, PrincipalAngles, orthogonal_complement, principal_angles
from .surface_analysis import (SurfaceJet, SurfacePatch, _tangent_frame,
                               graph_patch_from_jets, stack4)

__all__ = [
    "CatalogSurface",
    "CurveJet",
    "generate",
    "orbit_surface",
    "line_curve",
    "helix_curve",
    "spherical_helix_curve",
    "round_sphere_patch",
    "named_example",
    "EXAMPLE_NAMES",
]

E4 = np.eye(4)
ZERO4 = np.zeros(4)
PI_12 = Plane(E4[0], E4[1])
PI_34 = Plane(E4[2], E4[3])


@dataclass
class CatalogSurface:
    patch: SurfacePatch
    plane: Plane
    expected: PrincipalAngles
    spec: dict = field(default_factory=dict)


@dataclass
class CurveJet:
    """Position and first two derivatives of a curve, each of shape (..., 4)."""

    c: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


# a curve takes an array of parameters s and returns its jet at every entry
Curve = Callable[[np.ndarray], CurveJet]


def _patch(u_range, v_range, name: str, fields) -> SurfacePatch:
    """Patch whose sampler calls ``fields(U, V)`` once on the meshgrid; it
    returns p, p_u, p_v, p_uu, p_uv, p_vv, each as four components that
    broadcast to the grid (see ``stack4``)."""

    def sample(us: np.ndarray, vs: np.ndarray) -> SurfaceJet:
        U, V = np.meshgrid(us, vs, indexing="ij")
        return SurfaceJet(*(stack4(U, *parts) for parts in fields(U, V)))

    return SurfacePatch(u_range, v_range, sample, name=name)


# ---------------------------------------------------------------------------
# product examples
# ---------------------------------------------------------------------------

def _product_circles_patch(r1: float, r2: float) -> SurfacePatch:
    if r1 <= 0 or r2 <= 0:
        raise ValueError("circle radii must be positive")

    def fields(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        return ((r1 * cu, r1 * su, r2 * cv, r2 * sv),
                (-r1 * su, r1 * cu, 0.0, 0.0),
                (0.0, 0.0, -r2 * sv, r2 * cv),
                (-r1 * cu, -r1 * su, 0.0, 0.0),
                ZERO4,
                (0.0, 0.0, -r2 * cv, -r2 * sv))

    return _patch((0.0, 2 * math.pi), (0.0, 2 * math.pi),
                  f"product_circles({r1},{r2})", fields)


def _helix_cylinder_patch(theta: float, radius: float, pitch: float) -> SurfacePatch:
    def fields(s, t):
        cs, ss = np.cos(s), np.sin(s)
        return ((radius * cs, radius * ss, pitch * s, t),
                (-radius * ss, radius * cs, pitch, 0.0),
                E4[3],
                (-radius * cs, -radius * ss, 0.0, 0.0),
                ZERO4,
                ZERO4)

    return _patch((0.0, 4 * math.pi), (-1.0, 1.0),
                  f"helix_cylinder(theta={theta:.6g})", fields)


def _plane_patch(p0, a, b) -> SurfacePatch:
    p0 = np.asarray(p0, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def fields(u, v):
        return ([p0[k] + u * a[k] + v * b[k] for k in range(4)], a, b,
                ZERO4, ZERO4, ZERO4)

    return _patch((-1.0, 1.0), (-1.0, 1.0), "plane", fields)


# ---------------------------------------------------------------------------
# profile curves for the orbit construction
# ---------------------------------------------------------------------------

def line_curve(p0, d) -> Curve:
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(d, dtype=float)

    def gamma(s) -> CurveJet:
        s = np.asarray(s, dtype=float)
        return CurveJet(p0 + s[..., None] * d, stack4(s, *d), stack4(s, *ZERO4))

    return gamma


def helix_curve(a: float, b: float, z0: float = 0.0) -> Curve:
    """Classical helix (a cos s, a sin s, b s + z0, 0)."""

    def gamma(s) -> CurveJet:
        s = np.asarray(s, dtype=float)
        cs, ss = np.cos(s), np.sin(s)
        return CurveJet(stack4(s, a * cs, a * ss, b * s + z0, 0.0),
                        stack4(s, -a * ss, a * cs, b, 0.0),
                        stack4(s, -a * cs, -a * ss, 0.0, 0.0))

    return gamma


def spherical_helix_curve(R: float, beta: float) -> Curve:
    """Constant-slope curve on the sphere of radius R (slope angle beta
    against the e3 axis), parametrized by height u in (-R sin beta, R sin beta).

    The unit tangent satisfies <t, e3> = cos(beta) identically and the curve
    lies on the sphere exactly, so revolving it yields the spherical witness
    of the angle dichotomy.
    """
    if not (0.0 < beta < math.pi / 2):
        raise ValueError("slope angle must be in (0, pi/2)")
    sb, cb = math.sin(beta), math.cos(beta)
    umax = R * sb

    def gamma(u) -> CurveJet:
        u = np.asarray(u, dtype=float)
        outside = ~((-umax < u) & (u < umax))
        if outside.any():
            raise ValueError(f"height {u[outside][0]} outside (-{umax}, {umax})")
        r2 = R * R - u * u
        r = np.sqrt(r2)
        w2 = R * R * sb * sb - u * u
        w = np.sqrt(w2)
        tau = np.arcsin(u / (R * sb))
        Theta = tau / cb - np.arctan(cb * np.tan(tau))
        dr = -u / r
        d2r = -R * R / (r2 * r)
        dT = w / (r2 * cb)
        d2T = u * (2 * w2 - r2) / (w * r2 * r2 * cb)
        cT, sT = np.cos(Theta), np.sin(Theta)
        return CurveJet(
            stack4(u, r * cT, r * sT, u, 0.0),
            stack4(u, dr * cT - r * dT * sT, dr * sT + r * dT * cT, 1.0, 0.0),
            stack4(u, d2r * cT - 2 * dr * dT * sT - r * d2T * sT - r * dT * dT * cT,
                   d2r * sT + 2 * dr * dT * cT + r * d2T * cT - r * dT * dT * sT,
                   0.0, 0.0))

    return gamma


# ---------------------------------------------------------------------------
# orbit construction
# ---------------------------------------------------------------------------

def orbit_surface(gamma: Curve, Pi: Plane,
                  s_range: tuple[float, float],
                  phi_range: tuple[float, float] = (0.0, math.pi),
                  name: str = "orbit") -> SurfacePatch:
    """Orbit of a curve under the rotations fixing Pi pointwise.

    ``gamma`` takes an array of s (see ``Curve``).  The curve must make a
    constant angle with Pi (checked at 10 samples, tol 1e-9) and must not
    touch Pi on the domain (the orbit circle through a point of Pi is
    degenerate).  The s-coordinate lines are geodesics of the patch; this is
    checked on samples as well.
    """
    comp = orthogonal_complement(Pi)
    n1, n2 = comp.b1, comp.b2

    samples = np.linspace(s_range[0], s_range[1], 10)
    cj = gamma(samples)
    t = cj.d1 / np.linalg.norm(cj.d1, axis=-1, keepdims=True)
    angles = np.arcsin(np.minimum(1.0, np.hypot(t @ n1, t @ n2)))
    touches = np.hypot(cj.c @ n1, cj.c @ n2) < 1e-9
    if touches.any():
        raise ValueError(f"curve touches the fixed plane at s = {samples[touches][0]}; "
                         "the orbit degenerates there")
    if angles.max() - angles.min() > 1e-9:
        k = int(np.argmax(np.abs(angles - angles[0])))
        raise ValueError(
            f"curve does not make a constant angle with the plane: angle at "
            f"s = {samples[k]} is {angles[k]}, at s = {samples[0]} is {angles[0]}")

    def sample(us: np.ndarray, phis: np.ndarray) -> SurfaceJet:
        cj = gamma(us)
        cphi, sphi = np.cos(phis)[:, None], np.sin(phis)[:, None]

        def turned(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The Pi-perp part of q rotated by phi, and its phi-derivative."""
            x, y = (q @ n1)[:, None, None], (q @ n2)[:, None, None]
            a, b = x * cphi - y * sphi, x * sphi + y * cphi
            return a * n1 + b * n2, a * n2 - b * n1

        c, c_phi = turned(cj.c)
        d1, d1_phi = turned(cj.d1)
        d2, _ = turned(cj.d2)
        P_c, P_d1, P_d2 = (Pi.project(q)[:, None] for q in (cj.c, cj.d1, cj.d2))
        return SurfaceJet(p=P_c + c, p_u=P_d1 + d1, p_v=c_phi, p_uu=P_d2 + d2,
                          p_uv=d1_phi, p_vv=-c)

    patch = SurfacePatch(s_range, phi_range, sample, name=name)

    # the rotated copies of gamma must be geodesics of the patch
    j = patch.sample(samples, [0.3 * (phi_range[1] - phi_range[0]) + phi_range[0]])[:, 0]
    _, w = _tangent_frame(j)
    scale = np.maximum(1.0, np.linalg.norm(j.p_uu, axis=-1))
    curved = np.abs(np.einsum("ik,ik->i", j.p_uu, w)) > 1e-9 * scale
    if curved.any():
        raise ValueError(f"s-line fails the geodesic check at s = {samples[curved][0]}")
    return patch


# ---------------------------------------------------------------------------
# polynomial graphs
# ---------------------------------------------------------------------------

def _poly2d(coeffs: np.ndarray):
    """2-jet provider for sum c[i,j] x^i y^j (x, y arrays of one shape)."""
    cx, cy = poly.polyder(coeffs, axis=0), poly.polyder(coeffs, axis=1)
    parts = (coeffs, cx, cy, poly.polyder(cx, axis=0), poly.polyder(cx, axis=1),
             poly.polyder(cy, axis=1))
    return lambda x, y: tuple(poly.polyval2d(x, y, c) for c in parts)


def round_sphere_patch(R: float = 1.0) -> SurfacePatch:
    """Patch of the round sphere S^2(R) in the hyperplane x4 = 0.

    Not a helix surface for any plane; used as a negative control.
    """

    def fields(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        return ((R * cu * cv, R * su * cv, R * sv, 0.0),
                (-R * su * cv, R * cu * cv, 0.0, 0.0),
                (-R * cu * sv, -R * su * sv, R * cv, 0.0),
                (-R * cu * cv, -R * su * cv, 0.0, 0.0),
                (R * su * sv, -R * cu * sv, 0.0, 0.0),
                (-R * cu * cv, -R * su * cv, -R * sv, 0.0))

    return _patch((0.2, 1.2), (-0.5, 0.5), f"round_sphere({R})", fields)


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

def _derived_expected(patch: SurfacePatch, Pi: Plane) -> PrincipalAngles:
    u = 0.5 * (patch.u_range[0] + patch.u_range[1])
    v = 0.5 * (patch.v_range[0] + patch.v_range[1])
    return principal_angles(Plane(*_tangent_frame(patch.jet(u, v))), Pi)


def generate(kind: str, **params) -> CatalogSurface:
    """Generate a catalog surface by kind.

    Kinds: ``clifford_torus(r1, r2)``, ``product_circles(r1, r2)``,
    ``product_helix_cylinder(theta[, radius, pitch])``,
    ``revolution_orbit(profile, ...)``, ``plane(...)``,
    ``graph_poly(f_coeffs, g_coeffs, ...)``.
    """
    spec = {"kind": kind, **params}
    if kind in ("clifford_torus", "product_circles"):
        r1 = float(params.get("r1", 1.0))
        r2 = float(params.get("r2", 1.0))
        patch = _product_circles_patch(r1, r2)
        if kind == "clifford_torus":
            patch.name = f"clifford_torus({r1},{r2})"
        return CatalogSurface(patch, PI_12,
                              PrincipalAngles(0.0, math.pi / 2), spec)

    if kind == "product_helix_cylinder":
        theta = float(params["theta"])
        if not (0.0 < theta < math.pi / 2):
            raise ValueError("slope angle must be in (0, pi/2)")
        radius = params.get("radius")
        pitch = params.get("pitch")
        if radius is None and pitch is None:
            radius = math.sin(theta)
            pitch = math.cos(theta)
        elif pitch is None:
            pitch = float(radius) / math.tan(theta)
        elif radius is None:
            radius = float(pitch) * math.tan(theta)
        else:
            implied = math.atan2(float(radius), float(pitch))
            if abs(implied - theta) > 1e-12:
                raise ValueError(
                    f"radius/pitch imply slope {implied}, not {theta}")
        if float(radius) <= 0:
            raise ValueError("cylinder radius must be positive")
        patch = _helix_cylinder_patch(theta, float(radius), float(pitch))
        return CatalogSurface(patch, PI_34, PrincipalAngles(0.0, theta), spec)

    if kind == "revolution_orbit":
        profile = params.get("profile", "line")
        if profile == "line":
            theta = float(params.get("theta", math.pi / 6))
            offset = float(params.get("offset", 1.0))
            d = math.cos(theta) * E4[0] + math.sin(theta) * E4[2]
            gamma = line_curve(offset * E4[2], d)
            s_range = params.get("s_range", (0.2, 1.2))
            attach = PI_12
        elif profile == "helix":
            a = float(params.get("a", 1.0))
            b = float(params.get("b", 0.5))
            z0 = float(params.get("z0", 1.0))
            gamma = helix_curve(a, b, z0)
            s_range = params.get("s_range", (0.0, 2.0))
            attach = PI_12
        elif profile == "spherical_helix":
            R = float(params.get("R", 1.0))
            beta = float(params.get("beta", 1.0))
            gamma = spherical_helix_curve(R, beta)
            umax = R * math.sin(beta)
            s_range = params.get("s_range", (0.25 * umax, 0.75 * umax))
            attach = PI_34
        else:
            raise ValueError(f"unknown orbit profile {profile!r}")
        phi_range = params.get("phi_range", (0.0, math.pi))
        patch = orbit_surface(gamma, PI_12, tuple(s_range), tuple(phi_range),
                              name=f"revolution_orbit({profile})")
        return CatalogSurface(patch, attach, _derived_expected(patch, attach), spec)

    if kind == "plane":
        p0 = params.get("p0", np.zeros(4))
        a = params.get("a", E4[0])
        b = params.get("b", E4[1])
        patch = _plane_patch(p0, a, b)
        return CatalogSurface(patch, PI_12, _derived_expected(patch, PI_12), spec)

    if kind == "graph_poly":
        f_coeffs = np.atleast_2d(np.asarray(params["f_coeffs"], dtype=float))
        g_coeffs = np.atleast_2d(np.asarray(params["g_coeffs"], dtype=float))
        x_range = tuple(params.get("x_range", (-1.0, 1.0)))
        y_range = tuple(params.get("y_range", (-1.0, 1.0)))
        patch = graph_patch_from_jets(_poly2d(f_coeffs), _poly2d(g_coeffs),
                                      x_range, y_range, name="graph_poly")
        return CatalogSurface(patch, PI_12, _derived_expected(patch, PI_12), spec)

    raise ValueError(f"unknown catalog kind {kind!r}")


# named examples for the command line
_EXAMPLES = {
    "clifford_torus": lambda: generate("clifford_torus", r1=1.0, r2=1.0),
    "product_circles": lambda: generate("product_circles", r1=1.0, r2=0.5),
    "helix_cylinder": lambda: generate("product_helix_cylinder", theta=math.pi / 5),
    "orbit_cone": lambda: generate("revolution_orbit", profile="line",
                                   theta=math.pi / 6),
    "orbit_helix": lambda: generate("revolution_orbit", profile="helix"),
    "spherical_helix_revolution": lambda: generate(
        "revolution_orbit", profile="spherical_helix", R=1.0, beta=1.0),
    "plane": lambda: generate("plane"),
}

EXAMPLE_NAMES = tuple(sorted(_EXAMPLES))


def named_example(name: str) -> CatalogSurface:
    try:
        return _EXAMPLES[name]()
    except KeyError:
        raise ValueError(f"unknown example {name!r}; "
                         f"choose from {', '.join(EXAMPLE_NAMES)}") from None
