"""Construction of graph surfaces with prescribed constant principal angles.

A graph (x, y) -> (x, y, f, g) has constant principal angles (theta1, theta2)
exactly when

    E + G      = sec^2(theta1) + sec^2(theta2)
    EG - F^2   = sec^2(theta1) sec^2(theta2)

equivalently when (f, g)/sqrt(c2) is a local symplectomorphism whose Jacobian
matrix has constant length, with

    c1 = sec^2(theta1) + sec^2(theta2) - 2 = tan^2(theta1) + tan^2(theta2)
    c2 = tan(theta1) tan(theta2).

The solver works on the determinant-normalized system (det J = 1) whose
constant is c = c1/c2 >= 2; a solution is rescaled by m = sqrt(c2) afterwards
(the deformation family).  Given f, the partner g has gradient

    g_x = (-f_y + lam f_x)/Delta,   g_y = (f_x + lam f_y)/Delta,
    Delta = f_x^2 + f_y^2,          lam = +sqrt(c Delta - 1 - Delta^2),

and the compatibility (g_x)_y = (g_y)_x is a second-order quasilinear PDE for
f.  With E(u, v) = (u + lam v)/Delta it reads

    E_u(f_x, f_y) f_xx + (E_v(f_x, f_y) - E_v(-f_y, f_x)) f_xy
        + E_u(-f_y, f_x) f_yy = 0,

which is marched in y from Cauchy data f(x,0), f_y(x,0).  Since
E_u(-v, u) = -E_u(u, v), the two characteristic slopes multiply to -1, so the
faster family always exceeds |dx/dy| = 1; each output step is therefore taken
as several internal midpoint sub-steps chosen to respect the CFL bound, and
the x-window shrinks by one stencil per internal step (discrete domain of
dependence; no artificial boundary data is ever invented).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .grassmann import PrincipalAngles
from .surface_analysis import GraphSurface, fd_d1, fd_d2

__all__ = [
    "HelixParams",
    "PDEProblem",
    "SolutionGrid",
    "SolverHalt",
    "annulus_bounds",
    "find_noncharacteristic_seed",
    "choose_feasible_seed",
    "check_window",
    "paper_initial_data",
    "default_problem",
    "solve_pde",
    "recover_g",
    "solution_graph",
    "GRAPH_RESIDUALS",
    "residual_maxima",
    "symplecto_check",
    "deform",
    "deform_inverse",
]

SQRT_CLAMP = 1e-12          # values of c*Delta - 1 - Delta^2 in [-clamp, 0) -> 0
ANNULUS_MARGIN = 1e-3       # fraction of annulus width kept clear of the boundary
CFL_TARGET = 0.8


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HelixParams:
    """Angle pair with the graph-condition constants.

    c1 >= 2 c2 always, with equality iff theta1 = theta2; the determinant-
    normalized constant used by the PDE is c = c1/c2 (> 2 for distinct
    angles).
    """

    theta1: float
    theta2: float
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.theta1 <= self.theta2 < math.pi / 2):
            raise ValueError("need 0 <= theta1 <= theta2 < pi/2")
        t1, t2 = math.tan(self.theta1), math.tan(self.theta2)
        object.__setattr__(self, "c1", t1 * t1 + t2 * t2)
        object.__setattr__(self, "c2", t1 * t2)

    @property
    def sec2_sum(self) -> float:
        return self.c1 + 2.0

    @property
    def sec2_prod(self) -> float:
        return (1.0 + math.tan(self.theta1) ** 2) * (1.0 + math.tan(self.theta2) ** 2)


# ---------------------------------------------------------------------------
# the E function and its partials
# ---------------------------------------------------------------------------

def annulus_bounds(c: float) -> tuple[float, float]:
    """Admissible band for Delta = |grad f|^2: (c -+ sqrt(c^2-4))/2."""
    if c <= 2.0:
        raise ValueError(f"normalized constant must exceed 2, got {c}")
    s = math.sqrt(c * c - 4.0)
    return (c - s) / 2.0, (c + s) / 2.0


def _lam(delta, c, branch: int = 1):
    arg = c * delta - 1.0 - delta * delta
    if not arg.min() >= 0:                       # a negative or NaN argument
        arg = np.where((arg < 0) & (arg >= -SQRT_CLAMP), 0.0, arg)
        if np.any(arg < 0):
            raise SolverHalt("sqrt-argument-negative")
    return branch * np.sqrt(arg)


def _E_pair(u, v, c, branch: int = 1, delta=None):
    """(E_u, E_v) of E = (u + lam(Delta) v)/Delta at (u, v) (index 0 of each)
    and at the rotated point (-v, u) (index 1).  Both share Delta (given, or
    u^2 + v^2), lam, lam' and Delta^2, taken once; the rotated terms differ
    only by exact negations and doublings, so each partial has the bits of a
    lone evaluation at its point.  ``branch`` = -1 gives the mirror surface."""
    if delta is None:
        delta = u * u + v * v
    lam = _lam(delta, c, branch)
    dlam = (c - 2.0 * delta) / (2.0 * (lam if lam.all() else np.where(lam != 0, lam, np.inf)))
    dd = delta * delta
    u2, v2 = 2.0 * u, 2.0 * v
    uv = u2 * v * dlam                           # 2uv lam'; -uv at (-v, u)
    num, num_r = u + lam * v, lam * u - v
    return (((1.0 + uv) / delta - u2 * num / dd, (1.0 - uv) / delta + v2 * num_r / dd),
            ((lam + v2 * v * dlam) / delta - v2 * num / dd,
             (lam + u2 * u * dlam) / delta - u2 * num_r / dd))


class SolverHalt(RuntimeError):
    """Internal signal: the march must stop (reason in args[0])."""


def _seed_scan(c1: float, branch: int = 1):
    """Polar-grid scores min(|E_u(u,v)|, |E_v(-v,u)|) over the annulus
    interior (5% boundary margin)."""
    dmin, dmax = annulus_bounds(c1)
    width = dmax - dmin
    if 0.05 * width <= 1e-3:
        raise ValueError(
            f"annulus too thin for a seed with usable boundary margin: "
            f"width {width:.3e} (c1 = {c1} is too close to 2)")
    deltas = np.linspace(dmin + 0.05 * width, dmax - 0.05 * width, 48)
    phis = np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False)
    r = np.sqrt(deltas)[:, None]
    u = r * np.cos(phis)[None, :]
    v = r * np.sin(phis)[None, :]
    with np.errstate(all="ignore"):
        Eu, Ev = _E_pair(u, v, c1, branch)
    score = np.minimum(np.abs(Eu[0]), np.abs(Ev[1]))
    score = np.where(np.isfinite(score), score, 0.0)
    return u.ravel(), v.ravel(), score.ravel()


def find_noncharacteristic_seed(c1: float, branch: int = 1) -> tuple[float, float]:
    """Scan the admissible annulus for a gradient seed (u0, v0).

    A polar grid over the annulus (keeping a 5% margin to the boundary) is
    scored by min(|E_u(u,v)|, |E_v(-v,u)|); the maximizer is returned.
    Deterministic for fixed c1; fails with a diagnostic when no grid point
    scores above 1e-3 (c1 too close to 2).
    """
    u, v, score = _seed_scan(c1, branch)
    k = int(np.argmax(score))
    best = float(score[k])
    if best <= 1e-3:
        raise ValueError(
            f"no non-characteristic seed found for c1 = {c1}: best margin "
            f"{best:.2e} (annulus too thin; c1 too close to 2)")
    return float(u[k]), float(v[k])


def choose_feasible_seed(c1: float, x_range, y_max: float, hx: float,
                         hy: float, curvature: float = 1.0,
                         branch: int = 1) -> PDEProblem:
    """Problem of the best-scoring seed whose paper-style data stays admissible.

    The margin-maximizing scan point can sit close to the annulus boundary,
    where quadratic data drifts out over a wide x-interval; this variant
    walks the candidates in score order and returns the problem of the first
    one that validates for the requested window.  Deterministic.
    """
    check_window(x_range, y_max, hx, hy)
    u, v, score = _seed_scan(c1, branch)
    order = np.argsort(-score, kind="stable")
    last_err = None
    for k in order[: 600]:
        if score[k] <= 1e-3:
            break
        seed = (float(u[k]), float(v[k]))
        phi, psi = paper_initial_data(*seed, curvature)
        try:
            return PDEProblem(c1, tuple(x_range), y_max, hx, hy,
                              seed[0], seed[1], phi, psi, branch=branch)
        except ValueError as exc:
            last_err = exc
    raise ValueError(
        f"no scanned seed admits the requested window for c1 = {c1}: "
        f"last failure: {last_err}")


def check_window(x_range, y_max: float, hx: float,
                 hy: float) -> tuple[int, int]:
    """Seed-independent checks of a march window: finite steps and y_max > 0,
    x0 < x1, hy dividing y_max, hx the x-interval into >= 8 steps, float64
    nodes numpy can index.  Returns the x-steps and the y-steps each way."""
    for name, value in (("hx", hx), ("hy", hy), ("y_max", y_max)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    x0, x1 = x_range
    if not (math.isfinite(x1 - x0) and x0 < x1):
        raise ValueError(f"the x-interval needs finite x0 < x1, got {x0}, {x1}")
    ny = np.rint(y_max / hy)
    if ny < 1 or abs(y_max - ny * hy) > 1e-9 * max(1.0, y_max):
        raise ValueError("hy must divide y_max")
    span = x1 - x0
    nx = np.rint(span / hx)
    if nx < 8 or abs(span - nx * hx) > 1e-9 * max(1.0, span):
        raise ValueError("hx must divide the x-interval into >= 8 steps")
    nx, ny = int(nx), int(ny)
    if (2 * ny + 1) * (nx + 1) > sys.maxsize // 8:
        raise ValueError(f"a {2 * ny + 1}x{nx + 1} window has more nodes than numpy can count")
    return nx, ny


# ---------------------------------------------------------------------------
# the Cauchy problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PDEProblem:
    """Cauchy data for the construction PDE (determinant-normalized system).

    ``phi`` maps x-nodes to (values, first, second derivatives); ``psi`` to
    (values, first derivatives).  (u0, v0) is the gradient base point.  The
    seed, the window (``check_window``) and the non-characteristic
    conditions along the whole initial segment are checked when the problem
    is built, which sets the x-nodes ``x`` (read-only) and the number of
    y-steps each way ``n_steps``.
    """

    c1: float
    x_range: tuple[float, float]
    y_max: float
    hx: float
    hy: float
    u0: float
    v0: float
    phi: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    psi: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    branch: int = 1
    x: np.ndarray = field(init=False, repr=False, compare=False)
    n_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dmin, dmax = annulus_bounds(self.c1)
        d0 = self.u0 * self.u0 + self.v0 * self.v0   # inf, not OverflowError, past float range
        if not (dmin < d0 < dmax):
            raise ValueError(
                f"seed gradient norm {d0:.6g} outside the open annulus "
                f"({dmin:.6g}, {dmax:.6g})")
        nx, n_steps = check_window(self.x_range, self.y_max, self.hx, self.hy)
        x = np.linspace(self.x_range[0], self.x_range[1], nx + 1)
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n_steps", n_steps)
        _, dphi, d2phi = self.phi(x)
        psi, _ = self.psi(x)
        delta = dphi * dphi + psi * psi
        margin = ANNULUS_MARGIN * (dmax - dmin)
        if np.any(delta <= dmin + margin) or np.any(delta >= dmax - margin):
            raise ValueError("initial gradient leaves the admissible annulus "
                             "on the x-interval")
        Eu, Ev = _E_pair(dphi, psi, self.c1, self.branch, delta)
        if np.min(np.abs(Eu[0])) < 1e-9:
            raise ValueError("E_u(phi', psi) vanishes on the initial segment")
        if np.min(np.abs(Ev[1])) < 1e-9:
            raise ValueError("E_v(-psi, phi') vanishes on the initial segment")
        if np.min(np.abs(d2phi)) < 1e-9:
            raise ValueError("phi'' vanishes on the initial segment")


def paper_initial_data(u0: float, v0: float, curvature: float = 1.0):
    """phi(x) = curvature x^2 + x u0 and psi(x) = x + v0.

    curvature = 1 reproduces the quadratic data used for the rank-two
    existence construction; smaller values keep the gradient closer to the
    seed over wide x-intervals.
    """

    def phi(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        return (curvature * x * x + u0 * x,
                2.0 * curvature * x + u0,
                np.full_like(x, 2.0 * curvature))

    def psi(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        return x + v0, np.ones_like(x)

    return phi, psi


def default_problem(c1: float, x_range=(-0.05, 0.05), y_max=0.006,
                    hx=1e-3, hy=1e-3, seed: tuple[float, float] | None = None,
                    curvature: float = 1.0, branch: int = 1) -> PDEProblem:
    """Paper-style Cauchy data with an automatically scanned seed."""
    if seed is None:
        seed = find_noncharacteristic_seed(c1, branch)
    u0, v0 = seed
    phi, psi = paper_initial_data(u0, v0, curvature)
    return PDEProblem(c1, tuple(x_range), y_max, hx, hy, u0, v0, phi, psi,
                      branch=branch)


# ---------------------------------------------------------------------------
# marching solver
# ---------------------------------------------------------------------------

@dataclass
class SolutionGrid:
    """Marching output: f and f_y on a trapezoidal valid region.

    Arrays are indexed [row, column] with row j at y = y[j]; invalid entries
    are NaN and ``valid`` marks the retained trapezoid.  ``g`` and the
    per-cell path-independence defect appear after :func:`recover_g`.
    """

    x: np.ndarray
    y: np.ndarray
    f: np.ndarray
    fy: np.ndarray
    valid: np.ndarray
    c1: float
    hx: float
    hy: float
    seed: tuple[float, float]
    termination_up: str
    termination_down: str
    branch: int = 1
    g: np.ndarray | None = None
    loop_defect: np.ndarray | None = None

    def row0(self) -> int:
        return int(np.argmin(np.abs(self.y)))

    def rect(self) -> tuple[slice, slice]:
        """Maximal rectangle of valid nodes spanning all rows that kept at
        least 8 columns."""
        rows = [j for j in range(self.y.size)
                if np.count_nonzero(self.valid[j]) >= 8]
        if len(rows) < 3:
            raise ValueError(
                f"solution kept only {len(rows)} row(s) "
                f"(termination: {self.termination_up}/{self.termination_down})")
        lo = max(int(np.argmax(self.valid[j])) for j in rows)
        hi = min(int(self.x.size - np.argmax(self.valid[j][::-1]) - 1)
                 for j in rows)
        if hi - lo < 7:
            raise ValueError("valid rectangle narrower than 8 columns")
        return slice(rows[0], rows[-1] + 1), slice(lo, hi + 1)


def _sigma_max(a, b, cc) -> np.ndarray:
    """Fastest characteristic slope |dx/dy| of each row."""
    disc = np.sqrt(np.maximum(b * b - 4.0 * a * cc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = np.abs((b + disc) / (2.0 * cc))
        s2 = np.abs((b - disc) / (2.0 * cc))
    return np.nanmax(np.maximum(s1, s2), axis=-1)


def _march(f: np.ndarray, w: np.ndarray, hy: np.ndarray, n_steps: int,
           c: float, hx: float, tol_char: float, branch: int = 1,
           iL: int = 0) -> list[tuple[list, str]]:
    """March R rows of Cauchy data that share one x-window.

    ``f`` and ``w`` are (R, n) states on the nodes iL .. iL + n - 1; row r
    steps by hy[r].  The rows advance as one array while they take the same
    number of sub-steps and the same edge trims and none of them halts.  At
    the first output step where that fails, the march goes back to the start
    of the step and each row continues alone (R = 1) through this function,
    so every row gets exactly the arithmetic of a march of its own.

    Returns, per row, (steps, reason): the (f, w, iL, iR) state after each
    completed output step and the termination reason.
    """
    dmin, dmax = annulus_bounds(c)
    margin = ANNULUS_MARGIN * (dmax - dmin)

    def coefficients(p, w, delta=None):
        """Quasilinear coefficients (a, b, cc) at the gradient (p, w)."""
        Eu, Ev = _E_pair(p, w, c, branch, delta)
        return Eu[0], Ev[0] - Ev[1], Eu[1]

    def rhs(f, w, a, b, cc):
        if np.min(np.abs(cc)) < tol_char:
            raise SolverHalt("characteristic-degeneracy")
        return -(a * fd_d2(f, hx, axis=-1) + b * fd_d1(w, hx, axis=-1)) / cc

    R = f.shape[0]
    steps: list[list] = [[] for _ in range(R)]
    iR = iL + f.shape[1] - 1
    p = fd_d1(f, hx, axis=-1)        # f_x and |grad f|^2, kept from each trim check
    delta = p * p + w * w
    for done in range(n_steps):
        start = f, w, iL
        try:
            coef = coefficients(p, w, delta)
            k = {max(1, int(math.ceil(abs(h) * s / (CFL_TARGET * hx))))
                 for h, s in zip(hy, _sigma_max(*coef))}
            if len(k) > 1:
                raise SolverHalt("rows-differ")      # only possible for R > 1
            k = k.pop()
            sub = (hy / k)[:, None]
            for s in range(k):
                if iR - iL < 8:
                    raise SolverHalt("window-exhausted")
                if s:
                    coef = coefficients(p, w, delta)
                k1f, k1w = w, rhs(f, w, *coef)
                fh = f + 0.5 * sub * k1f
                wh = w + 0.5 * sub * k1w
                k2f, k2w = wh, rhs(fh, wh, *coefficients(fd_d1(fh, hx, axis=-1), wh))
                f = f + sub * k2f
                w = w + sub * k2w
                iL += 1
                iR -= 1
                f, w = f[:, 1:-1], w[:, 1:-1]
                # adaptive edge trim while the gradient drifts toward the
                # annulus boundary
                p = fd_d1(f, hx, axis=-1)
                delta = p * p + w * w
                bad = (delta <= dmin + margin) | (delta >= dmax - margin)
                ends = bad[:, [0, -1]]
                while ends.any():
                    if np.any(ends != ends[0]):
                        raise SolverHalt("rows-differ")
                    if ends[0, 0]:
                        iL += 1
                        f, w, bad = f[:, 1:], w[:, 1:], bad[:, 1:]
                    if ends[0, 1]:
                        iR -= 1
                        f, w, bad = f[:, :-1], w[:, :-1], bad[:, :-1]
                    if iR - iL < 8:
                        raise SolverHalt("window-exhausted")
                    ends = bad[:, [0, -1]]
                    p = fd_d1(f, hx, axis=-1)    # the end stencil moved with the edge
                    delta = p * p + w * w
                if np.any(bad):
                    raise SolverHalt("annulus-margin")
        except SolverHalt as halt:
            if R == 1:
                return [(steps[0], halt.args[0])]
            f, w, iL = start
            alone = (_march(f[r:r + 1], w[r:r + 1], hy[r:r + 1], n_steps - done,
                            c, hx, tol_char, branch, iL)[0] for r in range(R))
            return [(kept + more, reason) for kept, (more, reason) in zip(steps, alone)]
        for r in range(R):
            steps[r].append((f[r], w[r], iL, iR))
    return [(rows, "completed") for rows in steps]


def solve_pde(prob: PDEProblem) -> SolutionGrid:
    """Solve the construction PDE by explicit midpoint marching in +-y.

    Both directions march as one (2, n) state (see :func:`_march`).  The
    initial row reproduces the Cauchy data exactly.  Each column is kept
    only while the gradient stays inside the annulus by margin and the f_yy
    coefficient stays away from zero; a partial grid with the termination
    reason is returned otherwise.
    """
    x, n_steps = prob.x, prob.n_steps
    f0, dphi, _ = prob.phi(x)
    psi0, _ = prob.psi(x)

    Eu_r0 = _E_pair(dphi, psi0, prob.c1, prob.branch)[0][1]
    tol_char = 1e-6 * float(np.min(np.abs(Eu_r0)))

    ny = 2 * n_steps + 1
    y = np.linspace(-prob.y_max, prob.y_max, ny)
    f = np.full((ny, x.size), np.nan)
    fy = np.full((ny, x.size), np.nan)
    valid = np.zeros((ny, x.size), dtype=bool)
    j0 = n_steps
    f[j0], fy[j0] = f0, psi0
    valid[j0] = True

    marches = _march(np.stack([f0, f0]), np.stack([psi0, psi0]),
                     np.array([prob.hy, -prob.hy]), n_steps, prob.c1, prob.hx,
                     tol_char, prob.branch)
    for sign, (steps, _) in zip((1, -1), marches):
        for k, (fr, wr, iL, iR) in enumerate(steps, start=1):
            j = j0 + sign * k
            f[j, iL:iR + 1], fy[j, iL:iR + 1], valid[j, iL:iR + 1] = fr, wr, True

    return SolutionGrid(x=x, y=y, f=f, fy=fy, valid=valid, c1=prob.c1,
                        hx=prob.hx, hy=prob.hy, seed=(prob.u0, prob.v0),
                        termination_up=marches[0][1], termination_down=marches[1][1],
                        branch=prob.branch)


# ---------------------------------------------------------------------------
# g recovery
# ---------------------------------------------------------------------------

def recover_g(sol: SolutionGrid) -> SolutionGrid:
    """Integrate g from g_x = A, g_y = B by trapezoid along row 0 then up and
    down the columns, on the maximal valid rectangle.

    The per-cell loop integral (path-independence defect) is recorded; it is
    the discrete PDE residual, a closure defect per cell and not a bound on
    the error of f or g: on the (pi/6, pi/3) ladder at h = 1e-3 it is 5.1e-10
    while g differs by 2.3e-7 from the h = 5e-4 solution on the shared nodes.
    Cells whose gradient comes within margin of the annulus boundary are
    masked (the lambda-derivative blows up there).
    """
    rs, cs = sol.rect()
    xw = sol.x[cs]
    fw = sol.f[rs, cs]
    ww = sol.fy[rs, cs]
    p = fd_d1(fw, sol.hx, axis=1)
    delta = p * p + ww * ww
    lam = _lam(delta, sol.c1, sol.branch)
    A = (-ww + lam * p) / delta
    B = (p + lam * ww) / delta

    dmin, dmax = annulus_bounds(sol.c1)
    margin = ANNULUS_MARGIN * (dmax - dmin)
    blowup = (delta <= dmin + margin) | (delta >= dmax - margin)
    A = np.where(blowup, np.nan, A)
    B = np.where(blowup, np.nan, B)

    j0 = sol.row0() - rs.start
    g = np.full(fw.shape, np.nan)
    g[j0, 0] = 0.0
    g[j0, 1:] = np.nancumsum(0.5 * sol.hx * (A[j0, 1:] + A[j0, :-1]))
    hy = sol.y[1] - sol.y[0]
    # trapezoid steps in y, accumulated outward from row j0 in order
    step = 0.5 * hy * (B[1:] + B[:-1])
    g[j0:] = np.cumsum(np.concatenate([g[j0:j0 + 1], step[j0:]]), axis=0)
    g[j0::-1] = np.cumsum(np.concatenate([g[j0:j0 + 1], -step[:j0][::-1]]), axis=0)

    # loop integral around each cell: bottom + right - top - left
    loop = (0.5 * sol.hx * (A[:-1, 1:] + A[:-1, :-1])
            + 0.5 * hy * (B[1:, 1:] + B[:-1, 1:])
            - 0.5 * sol.hx * (A[1:, 1:] + A[1:, :-1])
            - 0.5 * hy * (B[1:, :-1] + B[:-1, :-1]))

    g_full = np.full_like(sol.f, np.nan)
    g_full[rs, cs] = g
    loop_full = np.full((sol.y.size - 1, sol.x.size - 1), np.nan)
    loop_full[rs.start:rs.stop - 1, cs.start:cs.stop - 1] = loop
    return replace(sol, g=g_full, loop_defect=loop_full)


def solution_graph(sol: SolutionGrid, m: float = 1.0,
                   name: str = "pde-graph") -> GraphSurface:
    """Grid-backed graph surface (m f, m g) on the valid rectangle.

    Its derivatives are finite differences of the value grids, so helix and
    symplectomorphism residuals genuinely measure the solution quality.
    """
    if sol.g is None:
        raise ValueError("recover_g must run before building the graph")
    rs, cs = sol.rect()
    return GraphSurface(sol.x[cs], sol.y[rs], m * sol.f[rs, cs].T, m * sol.g[rs, cs].T,
                        name=name)


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

# the graph conditions as residuals in the gradients of (f, g); each is zero
# on a helix surface with parameters P
GRAPH_RESIDUALS = {
    "helix_trace": lambda fx, fy, gx, gy, P:
        (1.0 + fx * fx + gx * gx) + (1.0 + fy * fy + gy * gy) - P.sec2_sum,
    "helix_det": lambda fx, fy, gx, gy, P:
        (1.0 + fx * fx + gx * gx) * (1.0 + fy * fy + gy * gy)
        - np.square(fx * fy + gx * gy) - P.sec2_prod,
    "symplecto_det": lambda fx, fy, gx, gy, P: fx * gy - fy * gx - P.c2,
    "symplecto_norm": lambda fx, fy, gx, gy, P:
        fx * fx + fy * fy + gx * gx + gy * gy - P.c1,
}


def residual_maxima(names, grads, P: HelixParams) -> list[float]:
    """max |residual| over the (fx, fy, gx, gy) arrays ``grads`` per named
    entry, NaN nodes skipped; one residual array is alive at a time."""
    return [float(np.fmax.reduce(np.abs(GRAPH_RESIDUALS[k](*grads, P)),
                                 axis=None, initial=0.0)) for k in names]


def symplecto_check(G: GraphSurface, P: HelixParams) -> tuple[float, float]:
    """(max |J - c2|, max | ||J||^2 - c1 |) over the nodes of G."""
    if P.c2 <= 0:
        raise ValueError("symplectomorphism check needs c2 > 0")
    return tuple(residual_maxima(("symplecto_det", "symplecto_norm"), G.gradients(), P))


# ---------------------------------------------------------------------------
# the deformation family
# ---------------------------------------------------------------------------

def deform(m: float, c: float) -> PrincipalAngles:
    """Angles of the scaled graph (m f, m g) built from a det-normalized
    solution with constant c.

    sec^2(theta_i) = 1 + m^2 (c -+ sqrt(c^2-4))/2, evaluated through
    tan(theta_i) with c - sqrt(c^2-4) = 4/(c + sqrt(c^2-4)) to avoid the
    cancellation for large c.
    """
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"deformation parameter m must be finite and > 0, got {m}")
    if not (math.isfinite(c) and c > 2):
        raise ValueError(f"normalized constant c must be finite and > 2, got {c}")
    s = math.sqrt(c * c - 4.0)
    tan2_1 = 2.0 * m * m / (c + s)           # m^2 (c - s)/2, stably
    tan2_2 = 0.5 * m * m * (c + s)
    return PrincipalAngles(math.atan(math.sqrt(tan2_1)),
                           math.atan(math.sqrt(tan2_2)))


def deform_inverse(angles: tuple[float, float]) -> tuple[float, float]:
    """Closed-form inverse: m = sqrt(tan t1 tan t2), c = c1/m^2."""
    t1, t2 = angles
    if not (0.0 < t1 < t2 < math.pi / 2):
        raise ValueError("need 0 < theta1 < theta2 < pi/2 "
                         "(equal angles collapse the family)")
    m = math.sqrt(math.tan(t1) * math.tan(t2))
    c1 = math.tan(t1) ** 2 + math.tan(t2) ** 2
    return m, c1 / (m * m)
