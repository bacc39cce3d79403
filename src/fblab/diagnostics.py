"""Monitor quantities for discrete two-phase fields: weighted energy and its
scale-normalized combination, flatness tables, two-plane fitting,
non-degeneracy ratios, trapping-offset decay, and the two-phase energy
product.

All routines are pure functions of their arguments.  The Weiss and ACF
monitors are arithmetic on the rows of :func:`ball_quadrature`, which alone
integrates (u, phi) over the balls and u^2 over their circles: cell-wise
with linear-cut area fractions, and cells crossed by the ball boundary are
subdivided with exact signed distances at subcell corners so that constancy
checks are not polluted by staircase noise.

The two-plane fit's offsets leave residuals at most sqrt(1 + beta**2)
2 c_max 2**-48 plus rounding above a 48-step bisection's.  Its grid search
skips only work that cannot change its result, so it is the exhaustive
search's to the bit: a grid candidate is solved only if a lower bound on
its residual, resting on deviations rising with the offset, does not
exceed the incumbent's.  Its polish solves small linear programs on a
working set of nodes, each by a dual simplex of its own rather than a
general LP solver, but evaluates every trial on every node, so the
residual it reports is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FblabError, GridError, UnderResolvedError
from .fields import (
    LevelSet,
    ScalarField,
    all_interface_points,
    interface_extract,
    one_sided_gradient,
    polyline_distance,
)

_BOUNDARY_SAMPLES = 512
_BALL_SUBDIV = 8
_BALL_CHUNK = 128  # ball-crossing cells subdivided at a time
_MONOTONE_SLACK = 1e-3
_FLAT_GAP = 1e-8  # least relative eigen-gap that names a slab direction
_FIT_NODES = 2048  # node budget of the two-plane grid search
_FIT_ROUNDS = ((64, 24), (16, 16))  # (angles, betas)
_FIT_BETA_MAX = 10.0
_OFFSET_RTOL = 2.0**-48  # final offset bracket, relative to 2 c_max
_BOUND_STRIDE = 64  # search nodes per node of the offset lower bound
_BOUND_OFFSETS = 32  # intervals of its coarse offset grid
_POLISH_ROWS = 16  # LP rows of each sign, and most cuts per step
_POLISH_TOL = 1e-12  # least promised share of the residual worth a step
_POLISH_STEPS = 200  # most LP steps per start
_POLISH_BETA0 = 1e-3  # second start of a polish ending at beta = 0
_LP_TOL = 1e-13  # most violation of an optimal LP vertex, in scaled units
_LP_PIVOT = 1e-12  # least ratio-test pivot of the dual simplex
_LP_PIVOTS = 100  # most dual simplex pivots per LP
# columns of a ball_quadrature row
(_GRAD_PLUS, _GRAD_MINUS, _AREA_PLUS, _AREA_MINUS, _ACF_PLUS, _ACF_MINUS,
 _SHELL) = range(7)


def _profile(s, alpha, beta):
    """Two-plane profile alpha*s+ + beta*s- at signed coordinate s."""
    return alpha * np.maximum(s, 0.0) + beta * np.minimum(s, 0.0)


@dataclass(frozen=True)
class TwoPlane:
    """Record of the piecewise-linear profile alpha*t+ - beta*t- in
    t = <x - center, nu> + c about the centre of the fitted ball; the
    positive slope is always derived from beta so alpha^2 - beta^2 = 1
    holds exactly."""

    beta: float
    nu: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        nu = np.asarray(self.nu, dtype=float)
        if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
            raise ValueError("nu must be a unit vector")
        object.__setattr__(self, "nu", nu)

    @property
    def alpha(self) -> float:
        return math.sqrt(1.0 + self.beta**2)


@dataclass(frozen=True)
class WeissSeries:
    """Scale-normalized energy values over an increasing list of radii,
    with the raw energy and shell terms kept for re-derivation."""

    radii: np.ndarray
    E_values: np.ndarray
    boundary_terms: np.ndarray
    phi_values: np.ndarray
    monotone: bool
    first_violation: Optional[tuple] = None

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if np.any(np.diff(r) <= 0):
            raise ValueError("radii must be strictly increasing")
        recomputed = self.E_values / r**2 - self.boundary_terms / r**3
        if np.max(np.abs(recomputed - self.phi_values)) > 1e-12:
            raise ValueError("phi values inconsistent with stored parts")


@dataclass(frozen=True)
class FlatnessTable:
    """Per-radius slab direction and minimal half-width."""

    radii: np.ndarray
    directions: np.ndarray  # (m, 2)
    deltas: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        r = np.asarray(self.radii, dtype=float)
        if np.any(d < 0) or np.any(d > r + 1e-12):
            raise ValueError("slab half-widths must lie in [0, r]")


@dataclass(frozen=True)
class ACFSeries:
    """Product-of-phases monitor values over increasing radii."""

    radii: np.ndarray
    values: np.ndarray
    monotone: bool
    first_violation: Optional[tuple] = None


def _check_ball(grid, center, r):
    cx, cy = float(center[0]), float(center[1])
    margin = min(cx - grid.x0, grid.x1 - cx, cy - grid.y0, grid.y1 - cy)
    if r > margin + 1e-12:
        raise GridError(f"ball of radius {r} at {center} exits the domain")


def _positive_fraction(v00, v10, v11, v01):
    """Area fraction of the unit square where the bilinear interpolant of
    the given corner values is positive, using linear edge cuts; elementwise
    over arrays of corner values."""
    vals = [np.asarray(v, dtype=float) for v in (v00, v10, v11, v01)]
    square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    # polygon in corner order: each corner with v >= 0, then the crossing on
    # its edge to the next corner, if any
    verts = []
    for k in range(4):
        (xa, ya), (xb, yb) = square[k], square[(k + 1) % 4]
        va, vb = vals[k], vals[(k + 1) % 4]
        cross = (va >= 0) != (vb >= 0)
        t = va / np.where(cross, va - vb, 1.0)
        verts.append((va >= 0, xa, ya))
        verts.append((cross, xa + t * (xb - xa), ya + t * (yb - ya)))
    # shoelace sum from the closing edge on; an absent vertex repeats the
    # previous one, which adds an exact zero
    px = py = 0.0
    for present, x, y in verts:
        px, py = np.where(present, x, px), np.where(present, y, py)
    area = 0.0
    for present, x, y in verts:
        x, y = np.where(present, x, px), np.where(present, y, py)
        area = area + (px * y - x * py)
        px, py = x, y
    return np.minimum(0.5 * np.abs(area), 1.0)


def _ball_fraction(grid, i, j, center, r):
    """Fractions of the cells (i, j), index arrays, covered by the ball:
    each cell is split into subcells cut linearly between exact signed
    distances at their corners.  Cells go in chunks to bound memory."""
    t = np.arange(_BALL_SUBDIV + 1) / _BALL_SUBDIV
    out = np.empty(len(i))
    for k in range(0, len(i), _BALL_CHUNK):
        xs = grid.x0 + (i[k:k + _BALL_CHUNK, None] + t) * grid.h
        ys = grid.y0 + (j[k:k + _BALL_CHUNK, None] + t) * grid.h
        s = r - np.hypot(xs[:, :, None] - center[0],
                         ys[:, None, :] - center[1])
        out[k:k + _BALL_CHUNK] = np.mean(_positive_fraction(
            s[:, :-1, :-1], s[:, 1:, :-1], s[:, 1:, 1:], s[:, :-1, 1:]),
            axis=(1, 2))
    return out


def _corners(a):
    """Views of a node block at the cell corners 00, 10, 11, 01."""
    return a[:-1, :-1], a[:-1, 1:], a[1:, 1:], a[1:, :-1]


def _cut_gradient_sq(gradient, jc, ic):
    """Squared one-sided gradient of the cells (ic, jc): the node gradients
    of the valid corners averaged, zero if no corner is valid.
    ``gradient`` is one side's (gx, gy, valid) from
    :func:`one_sided_gradient`."""
    gx, gy, valid = gradient
    sx = sy = count = 0
    for cj, ci in ((jc, ic), (jc, ic + 1), (jc + 1, ic + 1), (jc + 1, ic)):
        ok = valid[cj, ci]
        sx = sx + np.where(ok, gx[cj, ci], 0.0)
        sy = sy + np.where(ok, gy[cj, ci], 0.0)
        count = count + ok
    n = np.maximum(count, 1)
    mx, my = sx / n, sy / n
    return np.where(count > 0, mx * mx + my * my, 0.0)


def _cell_energy(u, phi, i0, j0, cell, gradient):
    """Phase Dirichlet energies and areas (grad_plus, grad_minus, area_plus,
    area_minus) summed over a block of cells whose first cell is (i0, j0),
    each weighted by its covered area, the 2-D array ``cell``.

    An uncut cell takes the cell-centered gradient.  A phase-cut cell splits
    by its linear-cut area fraction, and each phase takes the one-sided node
    gradient averaged over the valid corners on its side (zero if none),
    from ``gradient(side)``, called only if a cell is cut."""
    h = u.grid.h
    nodes = np.s_[j0:j0 + cell.shape[0] + 1, i0:i0 + cell.shape[1] + 1]
    pc = _corners(phi.phi[nodes])
    f_pos = np.all([c >= 0 for c in pc], axis=0).astype(float)
    mixed = np.any([c >= 0 for c in pc], axis=0) & (f_pos == 0.0)
    f_pos[mixed] = _positive_fraction(*(c[mixed] for c in pc))
    v00, v10, v11, v01 = _corners(u.values[nodes])
    ux = ((v10 + v11) - (v00 + v01)) / (2 * h)
    uy = ((v01 + v11) - (v00 + v10)) / (2 * h)
    g2 = cell * (ux * ux + uy * uy)
    del ux, uy
    grad_p = np.where(f_pos == 1.0, g2, 0.0)
    grad_m = np.where(f_pos == 0.0, g2, 0.0)
    del g2
    cut = np.nonzero((f_pos != 1.0) & (f_pos != 0.0))
    if len(cut[0]):
        jc, ic = cut[0] + j0, cut[1] + i0
        grad_p[cut] = cell[cut] * f_pos[cut] \
            * _cut_gradient_sq(gradient(+1), jc, ic)
        grad_m[cut] = cell[cut] * (1.0 - f_pos[cut]) \
            * _cut_gradient_sq(gradient(-1), jc, ic)
    return (float(np.sum(grad_p)), float(np.sum(grad_m)),
            float(np.sum(cell * f_pos)), float(np.sum(cell * (1.0 - f_pos))))


def boundary_square_integral(u: ScalarField, center, r: float) -> float:
    """Integral of u^2 over the circle of radius r by the midpoint angular
    rule with bilinear sampling."""
    _check_ball(u.grid, center, r)
    n = _BOUNDARY_SAMPLES
    theta = (np.arange(n) + 0.5) * (2 * np.pi / n)
    vals = u.sample(center[0] + r * np.cos(theta),
                    center[1] + r * np.sin(theta))
    return float(np.sum(vals**2) * r * (2 * np.pi / n))


def ball_quadrature(u: ScalarField, phi: LevelSet, center,
                    radii) -> np.ndarray:
    """Rows, one per radius, of the terms :func:`weiss_series` and
    :func:`acf_product` are arithmetic on, in the columns ``_GRAD_PLUS``
    to ``_SHELL``: sums over the cells inside B_r(center) of the
    phase-restricted Dirichlet energies and of the phase areas; the two
    energies without the cell that holds the centre, taken whole and
    floored at zero; and the integral of u^2 over the circle,
    :func:`boundary_square_integral`.  Only cells crossed by the circle are
    subdivided.  Each side's one-sided gradient is computed at most once,
    whatever the number of radii, and only if a cell is cut."""
    grid = u.grid
    h = grid.h
    gradient = functools.cache(lambda side: one_sided_gradient(u, phi, side))
    rows = []
    for r in radii:
        _check_ball(grid, center, r)
        i_lo = max(int((center[0] - r - grid.x0) / h) - 1, 0)
        i_hi = min(int((center[0] + r - grid.x0) / h) + 1, grid.nx - 2)
        j_lo = max(int((center[1] - r - grid.y0) / h) - 1, 0)
        j_hi = min(int((center[1] + r - grid.y0) / h) + 1, grid.ny - 2)

        # ball clipping via exact signed distances at the block's nodes
        xs = grid.x0 + np.arange(i_lo, i_hi + 2) * h
        ys = grid.y0 + np.arange(j_lo, j_hi + 2) * h
        s = _corners(r - np.hypot(xs[None, :] - center[0],
                                  ys[:, None] - center[1]))
        w_ball = np.all([c > 0 for c in s], axis=0).astype(float)
        jc, ic = np.nonzero(np.any([c > 0 for c in s], axis=0)
                            & (w_ball == 0.0))
        w_ball[jc, ic] = _ball_fraction(grid, ic + i_lo, jc + j_lo, center, r)
        del s
        rows.append((*_cell_energy(u, phi, i_lo, j_lo, w_ball * h * h,
                                   gradient),
                     boundary_square_integral(u, center, r)))
    ci, cj = grid.cell_of(center[0], center[1])
    sub_p, sub_m, _, _ = _cell_energy(u, phi, ci, cj,
                                      np.full((1, 1), h * h), gradient)
    return np.array([(gp, gm, ap, am, max(gp - sub_p, 0.0),
                      max(gm - sub_m, 0.0), shell)
                     for gp, gm, ap, am, shell in rows]).reshape(-1, 7)


def _monotone_verdict(radii, values):
    slack = _MONOTONE_SLACK * np.max(np.abs(values)) if len(values) else 0.0
    for k in range(len(values) - 1):
        if values[k + 1] < values[k] - slack:
            return False, (float(radii[k]), float(radii[k + 1]))
    return True, None


def weiss_series(radii, alpha: float, beta: float,
                 quadrature: np.ndarray) -> WeissSeries:
    """Scale-normalized energy r^-2 E - r^-3 * (shell integral of u^2) on an
    increasing list of radii, where the weighted energy E is the Dirichlet
    part plus alpha^2 times the positive-phase area plus beta^2 times the
    negative-phase area, from the :func:`ball_quadrature` rows
    ``quadrature`` of the same radii; reports whether the values are
    non-decreasing up to quadrature slack."""
    if abs(alpha**2 - beta**2 - 1.0) > 1e-10:
        raise ValueError("weights must satisfy alpha^2 - beta^2 = 1")
    radii = np.asarray(radii, dtype=float)
    q = np.asarray(quadrature)
    Es = q[:, _GRAD_PLUS] + q[:, _GRAD_MINUS] + alpha**2 * q[:, _AREA_PLUS] \
        + beta**2 * q[:, _AREA_MINUS]
    bts = q[:, _SHELL]
    # r**3 per scalar: an array power may round differently (numpy squares
    # exactly, so r**2 may stay an array power)
    phis = Es / radii**2 - bts / np.array([r**3 for r in radii])
    monotone, violation = _monotone_verdict(radii, phis)
    return WeissSeries(radii=radii, E_values=Es, boundary_terms=bts,
                       phi_values=phis, monotone=monotone,
                       first_violation=violation)


def rescale(u: ScalarField, lam: float, center) -> ScalarField:
    """Zoomed field X -> u(center + lam*(X - center)) / lam on the same
    grid, resampled bilinearly."""
    if not 0 < lam <= 1:
        raise ValueError("lambda must lie in (0, 1]")
    grid = u.grid
    if not grid.contains(center[0], center[1]):
        raise GridError("center outside domain")
    if lam == 1.0:
        return ScalarField(grid, u.values.copy())
    xx, yy = grid.meshgrid()
    vals = u.sample(center[0] + lam * (xx - center[0]),
                    center[1] + lam * (yy - center[1])) / lam
    return ScalarField(grid, vals)


def _best_offsets(t, uvals, betas, c_max):
    """Minimax offsets in [-c_max, c_max] for node coordinates ``t`` along
    one direction, one per beta; returns (residuals, offsets).

    Deviations profile(t + c) - u rise with c, so the worst one,
    max(top, -bottom), falls until F(c) = top + bottom turns positive and
    rises after.  Without a sign change of F on [-c_max, c_max] the offset
    is the end where the worst deviation is least.  Otherwise regula falsi
    narrows F(lo) < 0 < F(hi); it is exact once both ends lie on one linear
    piece of F, and a step takes the midpoint when the secant point leaves
    the bracket or the bracket has not halved over two steps, so the
    bracket halves at least every third step.  The offset is the exact zero
    of F a step lands on, or else the midpoint of the first bracket at most
    2 c_max 2**-48 wide: within half that width of the sign change, as a
    48-step bisection's is.  The worst deviation is sqrt(1 + beta**2)-
    Lipschitz in c, so the residual exceeds the bisection's by at most
    sqrt(1 + beta**2) 2 c_max 2**-48 plus rounding.
    A node with larger t and smaller u than another never sets the top, nor
    one with smaller t and larger u the bottom; only the rest are kept."""
    order = np.argsort(t, kind="stable")
    t, uvals = t[order], uvals[order]
    top = uvals < np.append(np.minimum.accumulate(uvals[::-1])[-2::-1], np.inf)
    bot = uvals > np.insert(np.maximum.accumulate(uvals)[:-1], 0, -np.inf)
    t_top, u_top = t[top][:, None], uvals[top][:, None]
    t_bot, u_bot = t[bot][:, None], uvals[bot][:, None]
    alphas = np.sqrt(1.0 + betas**2)

    def extremes(c, k=slice(None)):
        """(top, bottom) at offsets ``c`` for the betas ``k``."""
        return (np.max(_profile(t_top + c, alphas[k], betas[k]) - u_top,
                       axis=0),
                np.min(_profile(t_bot + c, alphas[k], betas[k]) - u_bot,
                       axis=0))

    # no less than two ulps of c_max, so a wider bracket holds its midpoint
    width = max(2 * c_max * _OFFSET_RTOL, 2 * np.spacing(c_max))
    lo, hi = np.full(betas.shape, -c_max), np.full(betas.shape, c_max)
    f_lo, f_hi = np.sum(extremes(lo), axis=0), np.sum(extremes(hi), axis=0)
    c = np.where(f_hi <= 0, hi, lo)
    k = np.nonzero((f_lo < 0) & (f_hi > 0))[0]
    lo, hi, f_lo, f_hi = lo[k], hi[k], f_lo[k], f_hi[k]
    w1 = w2 = np.full(len(k), np.inf)  # widths one and two steps back
    while len(k):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = np.where((lo < x) & (x < hi) & (hi - lo <= 0.5 * w2),
                     x, 0.5 * (lo + hi))
        w1, w2 = hi - lo, w1
        f_x = np.sum(extremes(x, k), axis=0)  # F(x)
        up = f_x > 0
        f_lo, f_hi = np.where(up, f_lo, f_x), np.where(up, f_x, f_hi)
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        c[k] = np.where(f_x == 0, x, 0.5 * (lo + hi))
        live = (f_x != 0) & (hi - lo > width)
        k, lo, hi, f_lo, f_hi, w1, w2 = (
            v[live] for v in (k, lo, hi, f_lo, f_hi, w1, w2))
    return np.max(np.abs(extremes(c)), axis=0), c


def _offset_lower_bound(t, uvals, betas, c_max):
    """Per beta, a lower bound on the residual :func:`_best_offsets` returns
    for any node set that holds these nodes, with the same floats ``t``.

    Deviations rise with the offset, in floating point too, since every
    rounding step is monotone.  So on [c_k, c_k+1] of a coarse offset grid
    over [-c_max, c_max] the worst deviation is at least max(top(c_k),
    -bottom(c_k+1)), and the least of these over k bounds the residual at
    any offset in [-c_max, c_max].  The deviations are the very operations
    :func:`_best_offsets` does, so the bound holds to the bit."""
    c = np.linspace(-c_max, c_max, _BOUND_OFFSETS + 1)[:, None, None]
    dev = _profile(t[:, None] + c, np.sqrt(1.0 + betas**2), betas) \
        - uvals[:, None]
    top, bottom = np.max(dev, axis=1), np.min(dev, axis=1)
    return np.min(np.maximum(top[:-1], -bottom[1:]), axis=0)


def _unit(theta):
    return np.array([-math.sin(theta), math.cos(theta)])


def _minimax_lp(a, d, lower, upper):
    """The x in the box [lower, upper] that minimizes max |d + a x|; None
    if the dual simplex finds no pivot or does not stop within 100 pivots.

    The LP in (x, E) minimizes E over rows g.(x, E) <= h: d + a x <= E and
    -(d + a x) <= E for each row of ``a``, the box, and E >= 0.  Its dual
    simplex for linear Chebyshev approximation (Barrodale & Phillips 1975)
    keeps len(x) + 1 rows tight at a vertex whose multipliers, the lam with
    g_B^T lam = -(0, ..., 0, 1), are non-negative, so the vertex's E never
    exceeds the optimum.  It starts from x = upper, E = 0.  Each pivot
    enters the most violated row and swaps out the basis row of least
    ratio lam / mu, where g_B^T mu is the entering row, so E does not fall.
    Pivots that leave E where it was could cycle: once a basis repeats,
    every later pivot takes the first violated row and the first tied
    basis row (Bland's rule), which cannot cycle.  The vertex is optimal
    once no row is violated by over 1e-13.
    """
    m, n = a.shape
    ones, eye, zero = np.ones((m, 1)), np.eye(n), np.zeros((n, 1))
    g = np.block([[a, -ones], [-a, -ones], [eye, zero], [-eye, zero],
                  [zero.T, -np.ones((1, 1))]])
    h = np.concatenate([-d, d, upper, -lower, [0.0]])
    basis = np.array([*range(2 * m, 2 * m + n), 2 * m + 2 * n])
    seen, bland = set(), False
    for _ in range(_LP_PIVOTS):
        key = tuple(sorted(basis))
        bland = bland or key in seen
        seen.add(key)
        inverse = np.linalg.inv(g[basis])
        w = inverse @ h[basis]
        violation = g @ w - h
        violation[basis] = 0.0  # tight by construction, up to rounding
        over = np.flatnonzero(violation > _LP_TOL)
        if not len(over):
            return w[:n]
        q = over[0] if bland else over[np.argmax(violation[over])]
        lam, mu = np.maximum(-inverse[n], 0.0), g[q] @ inverse
        ok = np.flatnonzero(mu > _LP_PIVOT)
        if not len(ok):
            return None
        ratio = lam[ok] / mu[ok]
        tied = ok[ratio == np.min(ratio)]
        basis[tied[np.argmin(basis[tied])] if bland else tied[0]] = q
    return None


def _polish(points, uvals, z, c_max):
    """Sequential-LP minimax steps (Osborne & Watson 1969) on z = (theta,
    beta, c) from ``z``; returns (z, max |deviation| over every node).

    Each LP (:func:`_minimax_lp`) minimizes E subject to |d + g.dz| <= E
    over the 16 most positive and the 16 most negative d and the cuts, g
    from each node's own piece, in a trust box of 4 res / (alpha r, r,
    alpha).  A minimax optimum equioscillates, so rows of both signs keep
    the LP from lowering one extreme while it lifts the other, a trial
    every node would reject.
    A trial is taken only if the max over every node falls, so the residual
    is exact.  Nodes it lifts past halfway from the LP's level back to the
    residual become cuts, 16 at most; a failed trial with no new cut
    quarters the box.  The steps stop when the LP promises under 1e-12 of
    the residual or a few ulps of u.  alpha is flat at beta = 0, so steps
    that end there are taken again from beta = 1e-3."""
    def deviations(z):
        return _profile(points @ _unit(z[0]) + z[2],
                        math.sqrt(1.0 + z[1]**2), z[1]) - uvals

    r = 2.0 * c_max
    floor = 4.0 * np.finfo(float).eps * float(np.max(np.abs(uvals)))
    lower = np.array([-np.inf, 0.0, -c_max])
    upper = np.array([np.inf, _FIT_BETA_MAX, c_max])

    def steps(z):
        dev = deviations(z)
        res, trust = float(np.max(np.abs(dev))), 1.0
        cuts = np.zeros(0, dtype=int)
        for _ in range(_POLISH_STEPS):
            if res <= floor or r == 0.0:  # r = 0: no step moves the centre
                break
            theta, beta, c = z
            alpha = math.sqrt(1.0 + beta**2)
            k = min(_POLISH_ROWS, len(dev))
            rows = np.unique(np.concatenate(
                [np.argpartition(-dev, k - 1)[:k],
                 np.argpartition(dev, k - 1)[:k], cuts]))
            s = points[rows] @ _unit(theta) + c
            # d/dtheta of the normal (-sin, cos) is (-cos, -sin)
            ds = points[rows] @ _unit(theta + np.pi / 2)
            m = np.where(s > 0, alpha, beta)
            grad = np.column_stack(
                [m * ds, np.where(s > 0, beta / alpha, 1.0) * s, m])
            # unknowns in units of the box, rows in units of the residual
            box = trust * 4.0 * res / np.array([alpha * r, r, alpha])
            a, d = grad * box / res, dev[rows] / res
            x = _minimax_lp(a, d, np.maximum((lower - z) / box, -1.0),
                            np.minimum((upper - z) / box, 1.0))
            if x is None:
                break
            # the model's own level: the vertex's E may undercut it by the
            # LP's stopping tolerance
            level = float(np.max(np.abs(d + a @ x)))
            if not (1.0 - level) * res > max(_POLISH_TOL * res, floor):
                break
            trial = np.clip(z + x * box, lower, upper)
            trial_dev = deviations(trial)
            size = np.abs(trial_dev)
            over = size > 0.5 * (1.0 + level) * res
            over[rows] = False
            lifted = np.flatnonzero(over)
            new = lifted[np.argsort(-size[lifted], kind="stable")][:k]
            cuts = np.union1d(cuts, new)
            if np.max(size) < res:
                z, dev, res = trial, trial_dev, float(np.max(size))
            elif not len(new):
                trust *= 0.25
        return z, res

    z, res = steps(np.asarray(z, dtype=float))
    if z[1] == 0.0 and res > floor:
        again, again_res = steps(np.array([z[0], _POLISH_BETA0, z[2]]))
        if again_res < res:
            z, res = again, again_res
    return z, res


def two_plane_fit(u: ScalarField, center, r: float):
    """Best L-infinity fit of a two-plane profile over nodes in B_r(center).

    The optimal offset in [-r/2, r/2] is solved for each (angle, beta) by a
    bracketed secant on the largest plus the smallest node deviation, which
    is monotone and piecewise linear in the offset, so the secant is exact
    once it brackets one linear piece (:func:`_best_offsets`); each
    residual is within sqrt(1 + beta**2) r 2**-48 plus rounding of a
    48-step bisection's.  A 64-angle x 24-beta grid over the circle and
    beta in [0, 10], then one 16 x 16 round zoomed to two grid steps either
    side of its best, search on at most 2048 nodes; ties prefer smaller
    beta, then smaller |c|, then direction closest to (0, 1).
    Sequential-LP minimax steps on every node (:func:`_polish`) follow,
    taken only where they lower the residual.
    Returns (TwoPlane, residual over every node in the ball); raises
    UnderResolvedError when the ball holds no node.

    The grid search skips only work that cannot change its result, so it
    is the unpruned search's to the bit.  At each angle, a beta goes to
    :func:`_best_offsets` only if :func:`_offset_lower_bound` over every
    64th search node does not exceed the incumbent residual, and an angle
    with no beta left is skipped.  A dropped beta's residual exceeds the
    incumbent's, so it could neither win nor tie, and each beta's offset is
    solved on its own, so the kept betas get the same offsets.
    """
    grid = u.grid
    _check_ball(grid, center, r)
    xx, yy = grid.meshgrid()
    mask = (xx - center[0])**2 + (yy - center[1])**2 <= r**2
    if not np.any(mask):
        raise UnderResolvedError(f"no grid node in the ball of radius {r} "
                                 f"at {center}")
    points = np.column_stack([xx[mask] - center[0], yy[mask] - center[1]])
    uvals = u.values[mask]
    c_max = r / 2

    # the grid search only needs enough nodes to land near the optimum;
    # the polish below uses the full node set
    stride = max(int(np.ceil(len(points) / _FIT_NODES)), 1)
    cpoints, cvals = points[::stride], uvals[::stride]
    theta0, theta_span = 0.0, np.pi  # full circle: nu and -nu are distinct
    beta0 = beta_span = _FIT_BETA_MAX / 2
    best = (np.inf, 0.0, 0.0, 0.0)  # (residual, theta, beta, c)
    for n_theta, n_beta in _FIT_ROUNDS:
        thetas = theta0 + np.linspace(-theta_span, theta_span, n_theta)
        # tie-break ordering: smallest angular distance from (0, 1) first
        thetas = thetas[np.argsort(np.abs(thetas), kind="stable")]
        betas = np.linspace(max(beta0 - beta_span, 0.0),
                            min(beta0 + beta_span, _FIT_BETA_MAX), n_beta)
        for theta in thetas:
            t = cpoints @ _unit(theta)
            kept = betas[_offset_lower_bound(
                t[::_BOUND_STRIDE], cvals[::_BOUND_STRIDE], betas,
                c_max) <= best[0]]
            if not len(kept):
                continue
            res, cs = _best_offsets(t, cvals, kept, c_max)
            k = int(np.argmin(res))  # first minimum: smallest beta
            if (res[k], kept[k], abs(cs[k])) < (best[0], best[2],
                                                abs(best[3])):
                best = (res[k], theta, kept[k], cs[k])
        # zoom to two grid steps either side of the incumbent
        theta0, beta0 = best[1], best[2]
        theta_span *= 4.0 / (n_theta - 1)
        beta_span *= 4.0 / (n_beta - 1)

    (theta, beta, c), res = _polish(points, uvals, best[1:], c_max)
    return TwoPlane(beta=float(beta), nu=_unit(theta), c=float(c)), res


def flatness_table(phi: LevelSet, center, radii) -> FlatnessTable:
    """Best-direction slab half-widths over a list of radii; the direction
    per radius comes from the principal normal of the contained interface
    points (smallest-variance axis).  Where the two variances agree to a
    relative gap below 1e-8, round-off would pick the axis: the direction
    is NaN and the half-width the largest distance of a point from the
    centre, a bound on the slab in every direction."""
    dirs, deltas, kept = [], [], []
    pts = all_interface_points(interface_extract(phi))
    for r in radii:
        _check_ball(phi.grid, center, r)
        rel = pts - np.asarray(center, dtype=float)
        inside = np.einsum("ij,ij->i", rel, rel) <= r**2
        if not np.any(inside):
            continue
        sel = rel[inside]
        cov = (sel - sel.mean(axis=0)).T @ (sel - sel.mean(axis=0))
        w, v = np.linalg.eigh(cov)
        nu = v[:, 0] if v[1, 0] >= 0 else -v[:, 0]  # smallest variance
        if w[1] - w[0] > _FLAT_GAP * w[1]:
            deltas.append(float(np.max(np.abs(sel @ nu))))
        else:
            nu = np.full(2, np.nan)
            deltas.append(float(np.max(np.hypot(sel[:, 0], sel[:, 1]))))
        dirs.append(nu)
        kept.append(r)
    return FlatnessTable(radii=np.asarray(kept),
                         directions=np.asarray(dirs),
                         deltas=np.asarray(deltas))


def flatness_ladder(phi: LevelSet, center, radii):
    """delta(r)/r over the radii :func:`flatness_table` keeps, and the
    geometric mean of successive ratios, 0.0 if a ratio is not positive;
    raises UnderResolvedError when it keeps fewer than two radii."""
    table = flatness_table(phi, center, radii)
    if len(table.radii) < 2:
        raise UnderResolvedError(f"two radii needed, kept {table.radii}")
    vals = np.asarray(table.deltas) / np.asarray(table.radii)
    ratios = vals[1:] / vals[:-1]
    fitted = float(np.exp(np.mean(np.log(ratios)))) if np.all(ratios > 0) \
        else 0.0
    return vals, fitted


def nondegeneracy(u: ScalarField, phi: LevelSet, delta_band: float) -> float:
    """Minimal ratio u / distance-to-interface over positive-phase nodes at
    distance at least 2 * delta_band from the interface."""
    polylines = interface_extract(phi)
    if not polylines:
        raise FblabError("no interface to measure against")
    grid = u.grid
    xx, yy = grid.meshgrid()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    dist = polyline_distance(pts, polylines).reshape(grid.shape)
    mask = (phi.phi > 0) & (dist >= 2 * delta_band)
    if not np.any(mask):
        raise FblabError("no qualifying nodes beyond the band")
    return float(np.min(u.values[mask] / dist[mask]))


def deepest_level(r0: float, h: float) -> int:
    """Deepest trapping level k that a grid of spacing h resolves: the scale
    r0 / 20^k spans at least four cells, r0 / 20^k >= 4h.  Returns -1 when
    r0 itself is under-resolved."""
    k = -1
    while r0 / 20**(k + 1) >= 4 * h:
        k += 1
    return k


def oscillation_decay(u: ScalarField, x0, r0: float, levels: int,
                      plane: TwoPlane):
    """Tightest two-plane trapping offsets (a_k, b_k) at the shrinking
    scales r_k = r0 / 20^k, k = 0..levels, in the frame and slopes of
    ``plane``, the profile :func:`two_plane_fit` fitted at r0."""
    grid = u.grid
    _check_ball(grid, x0, r0)
    if levels > deepest_level(r0, grid.h):
        raise UnderResolvedError(
            "deepest level is under-resolved: r0/20^levels < 4h")
    nu, alpha, beta = plane.nu, plane.alpha, plane.beta
    xx, yy = grid.meshgrid()
    relx = xx - x0[0]
    rely = yy - x0[1]
    dist = np.hypot(relx, rely)
    s = relx * nu[0] + rely * nu[1]

    out = []
    for k in range(levels + 1):
        rk = r0 / 20**k
        mask = dist <= rk
        uv = u.values[mask]
        sv = s[mask]
        t = np.full(uv.shape, np.nan)
        t[uv > 0] = uv[uv > 0] / alpha
        if beta > 0:
            # profile value is beta * t on t < 0, so u < 0 inverts to u/beta;
            # with beta = 0 the negative side carries no information
            t[uv < 0] = uv[uv < 0] / beta
            t[uv == 0] = 0.0
        offs = t - sv
        offs = offs[np.isfinite(offs)]
        if offs.size == 0:
            raise UnderResolvedError(f"no usable nodes at level {k}")
        out.append((float(np.min(offs)), float(np.max(offs))))
    return out


def acf_product(radii, quadrature: np.ndarray) -> ACFSeries:
    """Product monitor r^-4 * (positive-phase Dirichlet energy) *
    (negative-phase Dirichlet energy) over B_r(center), with the cell
    containing the center excluded, from the :func:`ball_quadrature` rows
    ``quadrature`` of the same radii."""
    radii = np.asarray(radii, dtype=float)
    # r**4 per scalar: an array power may round differently
    vals = np.asarray([p * m / r**4 for r, p, m in zip(
        radii, quadrature[:, _ACF_PLUS], quadrature[:, _ACF_MINUS])])
    monotone, violation = _monotone_verdict(radii, vals)
    return ACFSeries(radii=radii, values=vals, monotone=monotone,
                     first_violation=violation)
