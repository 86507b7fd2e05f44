"""The stacked +-y march of solve_pde against a one-direction oracle.

``solve_pde`` marches up and down as one stacked (f; w) state and splits
into two single-row marches at the first output step where the rows disagree
on the sub-step count or the edge trims, or one of them halts.  The oracle
below marches each direction on its own, with f and w as separate arrays,
and integrates g with explicit row loops.  It keeps its own copy of the
lambda and E-partials formulas, of the closed-form coefficient beta, of the
sub-step rule, of the Kreiss-Oliger filter and of the finite-difference
stencils (sliced along one axis), so a change to the kernel's arithmetic
cannot move the oracle with it.  The arithmetic is the same, so
everything must agree bit for bit.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from helix4 import helix_construct as hc
from helix4.helix_construct import (ANNULUS_MARGIN, CFL_TARGET, KO_EPSILON, SQRT_CLAMP,
                                    SolutionGrid, SolverHalt, annulus_bounds)
from helix4.surface_analysis import fd_d1, fd_d2

C_THIRD = 10.0 / 3.0
WINDOW = dict(x_range=(-0.05, 0.05), y_max=0.006)
LADDER = (1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5)


# ---------------------------------------------------------------------------
# the one-direction oracle
# ---------------------------------------------------------------------------

def oracle_fd_d1(values, h, axis=0):
    """First derivative along an axis: centered interior, 2nd-order one-sided ends."""
    v = np.asarray(values)
    i = (slice(None),) * (axis % v.ndim)      # all of every axis before ``axis``
    out = np.empty_like(v)
    out[i + (slice(1, -1),)] = (v[i + (slice(2, None),)] - v[i + (slice(None, -2),)]) / (2 * h)
    out[i + (0,)] = (-3 * v[i + (0,)] + 4 * v[i + (1,)] - v[i + (2,)]) / (2 * h)
    out[i + (-1,)] = (3 * v[i + (-1,)] - 4 * v[i + (-2,)] + v[i + (-3,)]) / (2 * h)
    return out


def oracle_fd_d2(values, h, axis=0):
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


def oracle_lam(delta, c, branch=1):
    """lambda = branch sqrt(c Delta - 1 - Delta^2), arguments in
    [-SQRT_CLAMP, 0) clamped to 0."""
    arg = c * delta - 1.0 - delta * delta
    arg = np.where((arg < 0) & (arg >= -SQRT_CLAMP), 0.0, arg)
    if np.any(arg < 0):
        raise SolverHalt("sqrt-argument-negative")
    return branch * np.sqrt(arg)


def oracle_E_partials(u, v, c, branch=1):
    """(E_u, E_v) at (u, v) for E = (u + lambda(Delta) v)/Delta, one point
    per array entry."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    delta = u * u + v * v
    lam = oracle_lam(delta, c, branch)
    lam_safe = np.where(lam != 0, lam, np.inf)
    dlam = (c - 2.0 * delta) / (2.0 * lam_safe)
    num = u + lam * v
    E_u = (1.0 + 2.0 * u * v * dlam) / delta - 2.0 * u * num / (delta * delta)
    E_v = (lam + 2.0 * v * v * dlam) / delta - 2.0 * v * num / (delta * delta)
    return E_u, E_v


def oracle_a_beta(p, w, c, branch=1):
    """(a Delta^2, beta) at the gradient (p, w) by the closed form: the march
    equation w_y = f_xx + beta w_x has a = E_u(p, w) = -E_u(-w, p) =
    (r + q mu)/Delta^2 and beta = b/a = 2 (r mu - q)/(r + q mu), with
    r = w^2 - p^2, q = 2pw and mu = (2 - c Delta)/(2 lambda)."""
    delta = p * p + w * w
    lam = oracle_lam(delta, c, branch)
    lam_safe = np.where(lam != 0, lam, np.inf)
    mu = (2.0 - c * delta) / (2.0 * lam_safe)
    r = w * w - p * p
    q = 2.0 * p * w
    a_delta2 = r + q * mu
    return a_delta2, 2.0 * (r * mu - q) / a_delta2


def oracle_beta(p, w, c, tol_char, branch=1):
    """beta at (p, w); halts where |a| < tol_char."""
    a_delta2, beta = oracle_a_beta(p, w, c, branch)
    delta = p * p + w * w
    if np.any(np.abs(a_delta2) < tol_char * (delta * delta)):
        raise SolverHalt("characteristic-degeneracy")
    return beta


def oracle_filter(v):
    """Kreiss-Oliger dissipation of strength KO_EPSILON on the interior."""
    out = v.copy()
    out[2:-2] = v[2:-2] - KO_EPSILON / 16.0 * (v[:-4] - 4.0 * v[1:-3] + 6.0 * v[2:-2]
                                              - 4.0 * v[3:-1] + v[4:])
    return out


def oracle_march(x, f0, w0, hy, n_steps, c, hx, tol_char, branch=1):
    """March the Cauchy data in one y-direction: (rows, bounds, reason)."""
    dmin, dmax = annulus_bounds(c)
    margin = ANNULUS_MARGIN * (dmax - dmin)

    def rhs(f, w):
        beta = oracle_beta(oracle_fd_d1(f, hx), w, c, tol_char, branch)
        return oracle_fd_d2(f, hx) + beta * oracle_fd_d1(w, hx)

    rows, bounds = [], []
    iL, iR = 0, x.size - 1
    f, w = f0.copy(), w0.copy()
    reason = "completed"
    for _ in range(n_steps):
        try:
            beta = oracle_beta(oracle_fd_d1(f, hx), w, c, tol_char, branch)
            sigma = np.nanmax(0.5 * (np.abs(beta) + np.sqrt(beta * beta + 4.0)))
            # the CFL rule, capped so that the odd-even mode has |z| <= 1
            k = max(math.ceil(abs(hy) * sigma / (CFL_TARGET * hx)),
                    math.ceil(2.0 * abs(hy) / hx))
            sub = hy / k
            for _s in range(k):
                if iR - iL < 8:
                    raise SolverHalt("window-exhausted")
                k1f, k1w = w, rhs(f, w)
                fh = f + 0.5 * sub * k1f
                wh = w + 0.5 * sub * k1w
                k2f, k2w = wh, rhs(fh, wh)
                f = oracle_filter(f + sub * k2f)
                w = oracle_filter(w + sub * k2w)
                iL += 1
                iR -= 1
                f, w = f[1:-1], w[1:-1]
                p = oracle_fd_d1(f, hx)
                delta = p * p + w * w
                bad = (delta <= dmin + margin) | (delta >= dmax - margin)
                while bad.size and (bad[0] or bad[-1]):
                    if bad[0]:
                        iL += 1
                        f, w, bad = f[1:], w[1:], bad[1:]
                    if bad.size and bad[-1]:
                        iR -= 1
                        f, w, bad = f[:-1], w[:-1], bad[:-1]
                    if iR - iL < 8:
                        raise SolverHalt("window-exhausted")
                if np.any(bad):
                    raise SolverHalt("annulus-margin")
        except SolverHalt as halt:
            reason = halt.args[0]
            break
        rows.append((f.copy(), w.copy()))
        bounds.append((iL, iR))
    return rows, bounds, reason


def oracle_tol_char(prob):
    """10^-6 of the smallest |E_u(-psi, phi')| on the initial row."""
    _, dphi, _ = prob.phi(prob.x)
    psi0 = prob.psi(prob.x)[0]
    return 1e-6 * float(np.min(np.abs(oracle_E_partials(-psi0, dphi, prob.c1,
                                                        prob.branch)[0])))


def oracle_solve(prob):
    x, n_steps = prob.x, prob.n_steps
    f0, _, _ = prob.phi(x)
    psi0 = prob.psi(x)[0]
    tol_char = oracle_tol_char(prob)
    ny = 2 * n_steps + 1
    f = np.full((ny, x.size), np.nan)
    fy = np.full((ny, x.size), np.nan)
    valid = np.zeros((ny, x.size), dtype=bool)
    j0 = n_steps
    f[j0], fy[j0] = f0, psi0
    valid[j0] = True
    reasons = []
    for sign in (1, -1):
        rows, bounds, reason = oracle_march(x, f0, psi0, sign * prob.hy, n_steps,
                                            prob.c1, prob.hx, tol_char, prob.branch)
        for k, ((fr, wr), (iL, iR)) in enumerate(zip(rows, bounds), start=1):
            j = j0 + sign * k
            f[j, iL:iR + 1], fy[j, iL:iR + 1], valid[j, iL:iR + 1] = fr, wr, True
        reasons.append(reason)
    return SolutionGrid(x=x, y=np.linspace(-prob.y_max, prob.y_max, ny), f=f, fy=fy,
                        valid=valid, c1=prob.c1, hx=prob.hx, hy=prob.hy,
                        seed=(prob.u0, prob.v0), termination_up=reasons[0],
                        termination_down=reasons[1], branch=prob.branch)


def oracle_recover_g(sol):
    """g by the trapezoid rule along row 0, then row by row up and down."""
    rs, cs = sol.rect()
    fw, ww = sol.f[rs, cs], sol.fy[rs, cs]
    p = oracle_fd_d1(fw, sol.hx, axis=1)
    delta = p * p + ww * ww
    lam = oracle_lam(delta, sol.c1, sol.branch)
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
    for j in range(j0 + 1, fw.shape[0]):
        g[j] = g[j - 1] + 0.5 * hy * (B[j] + B[j - 1])
    for j in range(j0 - 1, -1, -1):
        g[j] = g[j + 1] - 0.5 * hy * (B[j] + B[j + 1])
    g_full = np.full_like(sol.f, np.nan)
    g_full[rs, cs] = g
    return g_full


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def _ladder(h):
    return hc.default_problem(C_THIRD, hx=h, hy=h, seed=hc.find_noncharacteristic_seed(C_THIRD),
                              **WINDOW)


def _mirror():
    return hc.default_problem(C_THIRD, WINDOW["x_range"], WINDOW["y_max"],
                              1e-3, 1e-3, branch=-1)


def _windows_differ():
    return hc.default_problem(C_THIRD, hx=1e-3, hy=1e-3, curvature=1.0,
                              seed=(0.7195349167718692, 0.0), **WINDOW)


def _reasons_differ():
    return hc.default_problem(C_THIRD, x_range=WINDOW["x_range"], y_max=0.02,
                              hx=2e-3, hy=2e-3,
                              seed=(-0.7523473882453191, -0.052609254334021624))


def _trims_differ():
    # |grad f|^2 has its minimum 1.5 nodes inside the left end of the window,
    # 1e-6 above the lower annulus margin: in the first output step both rows
    # take the same sub-steps, but only the downward one trims its left edge
    phi, psi = hc.paper_initial_data(1.29615, 0.0, 1.0)
    return hc.PDEProblem(C_THIRD, (-0.52, -0.44), 0.006, 1e-3, 1e-3, 1.29615, 0.0, phi, psi)


def _trims_differ_right():
    # the mirror image of _trims_differ: the minimum of |grad f|^2 lies 1.5
    # nodes inside the right end, and only the upward row trims its right edge
    phi, psi = hc.paper_initial_data(-1.29615, 0.0, 1.0)
    return hc.PDEProblem(C_THIRD, (0.44, 0.52), 0.006, 1e-3, 1e-3, -1.29615, 0.0, phi, psi)


def _right_trims_exhaust():
    # the same data on the 21 nodes next to that minimum: the upward row's
    # first output step passes the window check, and its right trims then
    # leave fewer than 9 nodes
    phi, psi = hc.paper_initial_data(-1.29615, 0.0, 1.0)
    return hc.PDEProblem(C_THIRD, (0.5, 0.52), 0.006, 1e-3, 1e-3, -1.29615, 0.0, phi, psi)


def _right_trim():
    # the gradient drifts out fast at the right end: the first output step
    # would take more sub-steps than the 81-node window can lose, so the
    # window check refuses it and both directions keep only the initial row
    return hc.default_problem(C_THIRD, x_range=(0.613, 0.693), y_max=0.006, hx=1e-3, hy=1e-3,
                              seed=(-0.7873677979686537, -0.2257740829625846))


def _annulus_margin():
    # |grad f|^2 has its minimum at x = 0, 0.3% above the band's lower edge,
    # and falls there at about 0.37 per unit y upward: near y = 0.0029 (at
    # h = 1e-3 to 1.25e-4 alike) a node inside the window leaves the band
    # while both ends stay in
    return hc.default_problem(C_THIRD, x_range=(-0.04, 0.04), y_max=0.006, hx=1e-3, hy=1e-3,
                              seed=(-0.410492387261932, 0.410492387261932), curvature=0.5)


CASES = ([(f"ladder-L{k}", lambda h=h: _ladder(h)) for k, h in enumerate(LADDER, start=1)]
         + [("branch-minus-1", _mirror), ("windows-differ", _windows_differ),
            ("reasons-differ", _reasons_differ), ("trims-differ", _trims_differ),
            ("trims-differ-right", _trims_differ_right),
            ("right-trims-exhaust", _right_trims_exhaust), ("right-trim", _right_trim),
            ("annulus-margin", _annulus_margin)])


def _up_down_windows(sol):
    j0 = sol.row0()
    return sol.valid[j0 + 1:], sol.valid[:j0][::-1]


@pytest.mark.parametrize("make", [m for _, m in CASES], ids=[n for n, _ in CASES])
def test_stacked_march_matches_one_direction_oracle(make):
    prob = make()
    sol, ref = hc.solve_pde(prob), oracle_solve(prob)
    assert (sol.termination_up, sol.termination_down) == (ref.termination_up,
                                                          ref.termination_down)
    for name in ("x", "y", "f", "fy", "valid"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name), equal_nan=True), name
    try:
        ref_g = oracle_recover_g(ref)
    except ValueError as exc:                    # no valid rectangle to integrate on
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            hc.recover_g(sol)
    else:
        assert np.array_equal(hc.recover_g(sol).g, ref_g, equal_nan=True)


@pytest.mark.parametrize("make", [m for _, m in CASES], ids=[n for n, _ in CASES])
def test_the_problem_holds_the_oracles_tol_char(make):
    prob = make()
    assert np.float64(prob.tol_char).view(np.int64) == np.float64(oracle_tol_char(prob)).view(np.int64)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SolverHalt as halt:
        return halt.args[0]


DMIN, DMAX = annulus_bounds(C_THIRD)


@pytest.mark.parametrize("delta", [[0.5, 1.0, 2.0], [0.5, np.nan], [np.nan, np.nan],
                                   [1.0, DMAX + 1e-13], [np.nan, DMAX + 1e-13],
                                   [1.0, 3.1], [np.nan, 3.1]],
                         ids=["inside", "nan", "all-nan", "clamped", "nan-clamped",
                              "outside", "nan-outside"])
@pytest.mark.parametrize("branch", [1, -1])
def test_lam_matches_the_oracle(delta, branch):
    got, want = (_outcome(fn, np.array(delta), C_THIRD, branch)
                 for fn in (hc._lam, oracle_lam))
    if isinstance(want, str):                    # both halt, for the same reason
        assert got == want
    else:
        assert np.array_equal(got, want, equal_nan=True)


def _annulus_grid():
    """A polar grid over the admissible annulus, its boundary included."""
    r = np.sqrt(np.linspace(DMIN, DMAX, 41))[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, 97)[None, :]
    return r * np.cos(phi), r * np.sin(phi)


@pytest.mark.parametrize("branch", [1, -1])
def test_E_pair_matches_the_oracle_at_both_points(branch):
    u, v = _annulus_grid()
    with np.errstate(all="ignore"):
        Eu, Ev = hc._E_pair(u, v, C_THIRD, branch)
        for k, point in enumerate([(u, v), (-v, u)]):
            want = oracle_E_partials(*point, C_THIRD, branch)
            assert np.array_equal(Eu[k], want[0], equal_nan=True)
            assert np.array_equal(Ev[k], want[1], equal_nan=True)


@pytest.mark.parametrize("branch", [1, -1])
def test_closed_form_coefficients_match_E_pair(branch):
    # a = E_u(u, v) = -E_u(-v, u) and beta = (E_v(u, v) - E_v(-v, u))/a,
    # except at the few characteristic points, where a is rounding noise
    u, v = _annulus_grid()
    with np.errstate(all="ignore"):
        Eu, Ev = hc._E_pair(u, v, C_THIRD, branch)
        a_delta2, beta = oracle_a_beta(u, v, C_THIRD, branch)
        delta = u * u + v * v
        a = a_delta2 / (delta * delta)
        want = (Ev[0] - Ev[1]) / Eu[0]
    keep = np.abs(Eu[0]) > 1e-9
    assert np.count_nonzero(keep) > 0.99 * keep.size
    for ref in (Eu[0], -Eu[1]):
        assert np.all(np.abs(a - ref)[keep] <= 1e-11 * np.abs(ref[keep]))
    assert np.all(np.abs(beta - want)[keep] <= 1e-11 * np.maximum(1.0, np.abs(want[keep])))


@pytest.mark.parametrize("branch", [1, -1])
def test_a_beta_matches_the_oracle(branch):
    # over the whole grid, where nothing halts, and then node by node at a
    # tolerance that halts a few percent of the annulus's nodes, and on the
    # grid widened by 2%, whose outer nodes leave the annulus
    u, v = _annulus_grid()
    with np.errstate(all="ignore"):
        got, want = hc._a_beta(u, v, C_THIRD, 0.0, branch), oracle_a_beta(u, v, C_THIRD, branch)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    halts = set()
    for p, w in zip(np.concatenate((u, 1.02 * u)).ravel(), np.concatenate((v, 1.02 * v)).ravel()):
        p, w = np.array([p]), np.array([w])
        with np.errstate(all="ignore"):
            got = _outcome(hc._a_beta, p, w, C_THIRD, 0.1, branch)
            want = _outcome(oracle_beta, p, w, C_THIRD, 0.1, branch)
        if isinstance(want, str):
            assert got == want
            halts.add(got)
        else:
            assert np.array_equal(got[1].view(np.int64), want.view(np.int64))
    assert halts == {"characteristic-degeneracy", "sqrt-argument-negative"}


def _mixed_block(rng, rows, width):
    """Mixed signs, magnitudes from 1e-5 to 1e5 and a few -0.0 and 0.0."""
    S = rng.choice([-1.0, 1.0], (rows, width)) * 10.0 ** rng.uniform(-5, 5, (rows, width))
    S[rng.random((rows, width)) < 0.1] = -0.0
    S[rng.random((rows, width)) < 0.05] = 0.0
    return S


@pytest.mark.parametrize("rows", [1, 2, 4])
@pytest.mark.parametrize("width", [4, 5, 9, 1601])
def test_row_stencils_match_fd_d1_and_fd_d2_bit_for_bit(rows, width):
    # the march's row stencils are fd_d1/fd_d2 along the rows of its
    # C-contiguous state; they give the oracle's sliced stencils bit for bit
    rng = np.random.default_rng(rows * 10_000 + width)
    h = 10.0 ** rng.uniform(-5, -2)
    for S in (_mixed_block(rng, rows, width), np.full((rows, width), -0.0)):
        for mine, ref in ((fd_d1, oracle_fd_d1), (fd_d2, oracle_fd_d2)):
            got, want = mine(S, h, -1), ref(S, h, axis=-1)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _layouts(rng, shape):
    """``_mixed_block`` values of ``shape`` in C and Fortran order, as the
    transpose of a C array, as a C array with its first two axes swapped,
    and as views of a larger C array taking every other node, a corner and a
    reversed corner."""
    def block(shape):
        return _mixed_block(rng, 1, math.prod(shape)).reshape(shape)

    yield block(shape)
    yield np.asfortranarray(block(shape))
    yield block(shape[::-1]).T
    if len(shape) > 1:
        yield block((shape[1], shape[0], *shape[2:])).swapaxes(0, 1)
    big = block(tuple(2 * n + 1 for n in shape))
    yield big[(slice(1, None, 2),) * len(shape)]
    yield big[tuple(slice(0, n) for n in shape)]
    yield big[(slice(None, None, -1),) * len(shape)][tuple(slice(0, n) for n in shape)]


@pytest.mark.parametrize("shape", [(3,), (4,), (9,), (3, 4), (4, 3), (5, 9), (3, 4, 5),
                                   (4, 3, 9), (9, 5, 4)])
def test_fd_d1_and_fd_d2_match_the_sliced_stencils_on_every_layout(shape):
    # every axis, negative ones too, of 1-D to 3-D blocks in every layout,
    # with 3 nodes (where fd_d2's ends copy the interior) and 4 or more; an
    # integer block is differenced as its float64 cast
    rng = np.random.default_rng(math.prod(shape) + len(shape))
    for v in _layouts(rng, shape):
        h = 10.0 ** rng.uniform(-5, -2)
        ints = np.rint(v).astype(np.int64)
        for axis in range(-v.ndim, v.ndim):
            for mine, ref in ((fd_d1, oracle_fd_d1), (fd_d2, oracle_fd_d2)):
                for block, cast in ((v, v), (ints, ints.astype(float))):
                    got, want = mine(block, h, axis), ref(cast, h, axis)
                    assert got.shape == v.shape
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), axis


def test_fd_d1_and_fd_d2_difference_integer_input_in_float64():
    # x^2 at h = 0.3 has fd_d1 = 20 x/3 and fd_d2 = 200/9, not their
    # integer truncations [0, 6, 13, 20, 26] and 22
    x = np.arange(5)
    assert np.allclose(fd_d1(x ** 2, 0.3), 20 * x / 3, rtol=1e-15, atol=0)
    assert np.allclose(fd_d2(x ** 2, 0.3), 200 / 9, rtol=1e-15, atol=0)


@pytest.mark.parametrize("fd", [fd_d1, fd_d2])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_fd_d1_and_fd_d2_refuse_an_axis_shorter_than_the_stencil(fd, n):
    # 1-D, and each axis of a 2-D block whose other axis is long enough
    cases = [(np.arange(n, dtype=float), 0), (np.arange(n, dtype=float), -1)]
    for axis in range(2):
        shape = [5, 5]
        shape[axis] = n
        block = np.arange(5.0 * n).reshape(shape)
        cases += [(block, axis), (block, axis - 2), (np.asfortranarray(block), axis)]
    for values, axis in cases:
        with pytest.raises(ValueError, match=rf"^axis {axis} has {n} nodes; "
                                             "a stencil needs at least 3$"):
            fd(values, 0.1, axis)
    # an axis out of range is still an IndexError
    with pytest.raises(IndexError):
        fd(np.zeros((n, 5)), 0.1, 2)


def test_asymmetric_cases_take_the_split():
    for make in (_windows_differ, _trims_differ, _trims_differ_right):
        sol = hc.solve_pde(make())
        assert (sol.termination_up, sol.termination_down) == ("completed", "completed")
        assert not np.array_equal(*_up_down_windows(sol))
    sol = hc.solve_pde(_reasons_differ())
    assert (sol.termination_up, sol.termination_down) == ("completed", "window-exhausted")


def _edge_losses(valid):
    """The nodes each row with a valid node has lost at its left and at its
    right end."""
    rows = valid[valid.any(axis=1)]
    return np.argmax(rows, axis=1), np.argmax(rows[:, ::-1], axis=1)


def test_a_row_trims_its_right_edge():
    # every sub-step costs one node at each end; the upward rows of the
    # mirrored trims case lose 8 more at their right end, in the trims of
    # their first output step, and the downward rows none
    sol = hc.solve_pde(_trims_differ_right())
    up, down = _up_down_windows(sol)
    assert np.count_nonzero(sol.valid.any(axis=1)) == 13
    left, right = _edge_losses(up)
    assert left.size == 6 and np.all(right - left == 8)
    left, right = _edge_losses(down)
    assert left.size == 6 and np.array_equal(left, right)


@pytest.mark.parametrize("make, reasons", [
    (_right_trim, ("window-exhausted", "window-exhausted")),   # refused by the window check
    (_right_trims_exhaust, ("window-exhausted", "window-exhausted")),
    (_annulus_margin, ("annulus-margin", "completed")),
], ids=["right-trim", "right-trims-exhaust", "annulus-margin"])
def test_edge_halts_end_for_their_reasons(make, reasons):
    sol = hc.solve_pde(make())
    assert (sol.termination_up, sol.termination_down) == reasons


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("node", [0, 1, 5, 50, 95, 100])
@pytest.mark.parametrize("which", ["f", "w"])
def test_a_march_never_keeps_a_nan_node(rows, node, which):
    # a NaN node on the initial row spreads through the stencils: near an end
    # the march trims it away, inside the window it halts, and no node it
    # writes as valid holds a NaN
    prob = _ladder(LADDER[0])
    f0, w0 = prob.phi(prob.x)[0], prob.psi(prob.x)[0]
    (f0 if which == "f" else w0)[node] = np.nan
    hy = np.array([prob.hy, -prob.hy][:rows])
    out = [[np.full((prob.n_steps + 1, prob.x.size), np.nan) for _ in range(2)]
           + [np.zeros((prob.n_steps + 1, prob.x.size), dtype=bool)] for _ in range(rows)]
    with np.errstate(invalid="ignore"):
        reasons = hc._march(np.stack([f0] * rows + [w0] * rows), hy, out, prob.c1, prob.hx,
                            prob.tol_char, prob.branch)
    assert reasons == ["completed" if node in (0, 1, 5, 95, 100) else "annulus-margin"] * rows
    for f, fy, valid in out:
        assert np.isfinite(f[valid]).all() and np.isfinite(fy[valid]).all()
        assert valid.any() == (reasons[0] == "completed")


def test_a_step_whose_sub_steps_outrun_the_window_halts_before_them(monkeypatch):
    # seeded near a characteristic point: the first output step's CFL rule
    # takes about 1,600 sub-steps on a 101-node window, which loses a node
    # at each end per sub-step
    prob = hc.default_problem(C_THIRD, x_range=(0.2, 0.3), y_max=0.006, hx=1e-3, hy=1e-3,
                              seed=(-0.18104267892575457, 1.2881855960876407))
    ref = oracle_solve(prob)
    calls, d1 = [], hc.fd_d1

    def counted_d1(*args, **kwargs):
        calls.append(args[0].shape)
        return d1(*args, **kwargs)

    monkeypatch.setattr(hc, "fd_d1", counted_d1)
    sol = hc.solve_pde(prob)
    assert (sol.termination_up, sol.termination_down) == ("window-exhausted",) * 2
    assert np.count_nonzero(sol.valid.any(axis=1)) == 1
    for name in ("f", "fy", "valid"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name), equal_nan=True), name
    assert 1 <= len(calls) <= 3


def test_the_march_keeps_no_copy_of_its_rows():
    # the finest ladder level: the march writes each row where solve_pde
    # returns it, so its working memory beyond f, fy and valid is a few
    # states of the window
    prob = _ladder(LADDER[-1])
    tracemalloc.start()
    try:
        sol = hc.solve_pde(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * (sol.f.nbytes + sol.fy.nbytes + sol.valid.nbytes)


@pytest.fixture(scope="module")
def ladder():
    return [hc.recover_g(hc.solve_pde(_ladder(h))) for h in LADDER]


def _orders(values):
    return np.log2(np.divide(values[:-1], values[1:]))


def test_ladder_levels_converge_at_second_order(ladder):
    # f and g at h against h/2 on the nodes both grids share and define
    for name in ("f", "g"):
        diffs = []
        for coarse, fine in zip(ladder, ladder[1:]):
            d = getattr(coarse, name) - getattr(fine, name)[::2, ::2]
            diffs.append(np.max(np.abs(d[np.isfinite(d)])))
        assert np.all(_orders(diffs) >= 1.9), (name, diffs, _orders(diffs))


def test_interior_loop_defect_falls_at_third_order(ladder):
    # the cells of the valid rectangle less those on its outer node ring,
    # whose one-sided closures set the full-grid maximum
    maxima = []
    for sol in ladder:
        rs, cs = sol.rect()
        cells = sol.loop_defect[rs.start + 1:rs.stop - 2, cs.start + 1:cs.stop - 2]
        maxima.append(np.max(np.abs(cells)))
    assert np.all(_orders(maxima) >= 3), (maxima, _orders(maxima))


def test_a_march_whose_cfl_rule_gives_one_sub_step_completes():
    # hy = 0.69 hx: the CFL rule alone takes k = 1 sub-step per output step,
    # where the odd-even mode would grow by 1.38 a sub-step unfiltered
    prob = hc.default_problem(C_THIRD, x_range=WINDOW["x_range"], y_max=192 * 8.625e-5,
                              hx=1.25e-4, hy=8.625e-5,
                              seed=hc.find_noncharacteristic_seed(C_THIRD))
    assert prob.n_steps == 192
    sol = hc.recover_g(hc.solve_pde(prob))
    assert (sol.termination_up, sol.termination_down) == ("completed", "completed")
    assert np.nanmax(np.abs(sol.loop_defect)) < 1e-11
