"""Monitor quantities for discrete two-phase fields: weighted energy and its
scale-normalized combination, flatness tables, two-plane fitting,
non-degeneracy ratios, trapping-offset decay, and the two-phase energy
product.

All routines are pure functions of their arguments.  The Weiss and ACF
monitors read the rows of :func:`ball_quadrature`, which alone integrates
(u, phi) over the balls: cell-wise with linear-cut area fractions, and cells
crossed by the ball boundary are subdivided with exact signed distances at
subcell corners so that constancy checks are not polluted by staircase
noise.

The two-plane fit skips only work that cannot change its result, so it is
the exhaustive search's fit to the bit: a grid candidate is solved only if
a cheap lower bound on its residual does not exceed the incumbent's, and
the polish evaluates every node only where the few nodes near the max
deviation cannot be certified to hold it.  Both bounds rest on deviations
rising with the offset and being Lipschitz in the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

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
_FIT_NODES = 2048  # node budget of the two-plane grid search
_FIT_ROUNDS = ((64, 24), (16, 16), (16, 16), (16, 16))  # (angles, betas)
_FIT_BETA_MAX = 10.0
_OFFSET_BISECTIONS = 48
_BOUND_STRIDE = 64  # search nodes per node of the offset lower bound
_BOUND_OFFSETS = 32  # intervals of its coarse offset grid
_POLISH_ACTIVE_BAND = 0.02  # relative band below the max of active nodes


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

    center: np.ndarray
    radii: np.ndarray
    E_values: np.ndarray
    boundary_terms: np.ndarray
    phi_values: np.ndarray
    alpha: float
    beta: float
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

    center: np.ndarray
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


def _cut_gradient_sq(u, phi, side, jc, ic):
    """Squared one-sided gradient of the cells (ic, jc): the node gradients
    of the valid corners on ``side`` averaged, zero if no corner is valid."""
    gx, gy, valid = one_sided_gradient(u, phi, side)
    sx = sy = count = 0
    for cj, ci in ((jc, ic), (jc, ic + 1), (jc + 1, ic + 1), (jc + 1, ic)):
        ok = valid[cj, ci]
        sx = sx + np.where(ok, gx[cj, ci], 0.0)
        sy = sy + np.where(ok, gy[cj, ci], 0.0)
        count = count + ok
    n = np.maximum(count, 1)
    mx, my = sx / n, sy / n
    return np.where(count > 0, mx * mx + my * my, 0.0)


def _cell_energy(u, phi, i0, j0, cell):
    """Phase Dirichlet energies and areas (grad_plus, grad_minus, area_plus,
    area_minus) summed over a block of cells whose first cell is (i0, j0),
    each weighted by its covered area, the 2-D array ``cell``.

    An uncut cell takes the cell-centered gradient.  A phase-cut cell splits
    by its linear-cut area fraction, and each phase takes the one-sided node
    gradient averaged over the valid corners on its side (zero if none)."""
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
            * _cut_gradient_sq(u, phi, +1, jc, ic)
        grad_m[cut] = cell[cut] * (1.0 - f_pos[cut]) \
            * _cut_gradient_sq(u, phi, -1, jc, ic)
    return (float(np.sum(grad_p)), float(np.sum(grad_m)),
            float(np.sum(cell * f_pos)), float(np.sum(cell * (1.0 - f_pos))))


def ball_quadrature(u: ScalarField, phi: LevelSet, center,
                    radii) -> np.ndarray:
    """Rows (grad_plus, grad_minus, area_plus, area_minus), one per radius:
    sums over the cells inside B_r(center) of the phase-restricted Dirichlet
    energies and the phase areas, the terms :func:`weiss_series` and
    :func:`acf_product` are derived from.  Only cells crossed by the circle
    are subdivided."""
    grid = u.grid
    h = grid.h
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
        rows.append(_cell_energy(u, phi, i_lo, j_lo, w_ball * h * h))
    return np.array(rows).reshape(-1, 4)


def _weighted_energy(terms, alpha, beta):
    if abs(alpha**2 - beta**2 - 1.0) > 1e-10:
        raise ValueError("weights must satisfy alpha^2 - beta^2 = 1")
    grad_p, grad_m, area_p, area_m = terms
    return grad_p + grad_m + alpha**2 * area_p + beta**2 * area_m


def boundary_square_integral(u: ScalarField, center, r: float) -> float:
    """Integral of u^2 over the circle of radius r by the midpoint angular
    rule with bilinear sampling."""
    _check_ball(u.grid, center, r)
    n = _BOUNDARY_SAMPLES
    theta = (np.arange(n) + 0.5) * (2 * np.pi / n)
    vals = u.sample(center[0] + r * np.cos(theta),
                    center[1] + r * np.sin(theta))
    return float(np.sum(vals**2) * r * (2 * np.pi / n))


def _monotone_verdict(radii, values):
    slack = _MONOTONE_SLACK * np.max(np.abs(values)) if len(values) else 0.0
    for k in range(len(values) - 1):
        if values[k + 1] < values[k] - slack:
            return False, (float(radii[k]), float(radii[k + 1]))
    return True, None


def weiss_series(u: ScalarField, center, radii, alpha: float, beta: float,
                 quadrature: np.ndarray) -> WeissSeries:
    """Scale-normalized energy r^-2 E - r^-3 * (shell integral of u^2) on an
    increasing list of radii, where the weighted energy E is the Dirichlet
    part plus alpha^2 times the positive-phase area plus beta^2 times the
    negative-phase area, from the :func:`ball_quadrature` rows
    ``quadrature`` of the same ball; reports whether the values are
    non-decreasing up to quadrature slack."""
    radii = np.asarray(radii, dtype=float)
    Es = np.asarray([_weighted_energy(q, alpha, beta) for q in quadrature])
    bts = np.asarray([boundary_square_integral(u, center, r) for r in radii])
    phis = Es / radii**2 - bts / radii**3
    monotone, violation = _monotone_verdict(radii, phis)
    return WeissSeries(center=np.asarray(center, dtype=float), radii=radii,
                       E_values=Es, boundary_terms=bts, phi_values=phis,
                       alpha=alpha, beta=beta, monotone=monotone,
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
    rises after.  The offset is where a 48-step bisection on the sign of F
    over [-c_max, c_max] ends.  F is monotone and piecewise linear, so a
    bracketed secant (regula falsi with the Illinois halving, the midpoint
    when the secant point leaves the bracket) is exact once both ends lie
    on one linear piece: it narrows [a, b], F(a) <= 0 < F(b), to the
    bisection's final width or to an exact zero in a few evaluations.  The
    bisection steps are then replayed, evaluating F only at midpoints
    inside [a, b]; F in floating point is monotone too, so the offsets are
    the bisection's to the bit.
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

    def excess(c, k=slice(None)):
        """F(c) = top + bottom for the betas ``k``."""
        top_c, bottom_c = extremes(c, k)
        return top_c + bottom_c

    width = 2 * c_max * 2.0**-_OFFSET_BISECTIONS
    lo, hi = np.full(betas.shape, -c_max), np.full(betas.shape, c_max)
    f_lo, f_hi = excess(lo), excess(hi)
    # a bisection pinned at an end has a = b there
    a, b = np.where(f_hi <= 0, hi, lo), np.where(f_lo > 0, lo, hi)
    k = np.nonzero((f_lo < 0) & (f_hi > 0))[0]
    lo, hi, f_lo, f_hi = lo[k], hi[k], f_lo[k], f_hi[k]
    kept = np.zeros(len(k))  # +1: lo kept by the last step, -1: hi kept
    for _ in range(_OFFSET_BISECTIONS):
        if not len(k):
            break
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        f_x = excess(x, k)
        up = f_x > 0
        # Illinois: an end kept twice running has its value halved
        f_lo = np.where(up, np.where(kept > 0, 0.5 * f_lo, f_lo), f_x)
        f_hi = np.where(up, f_x, np.where(kept < 0, 0.5 * f_hi, f_hi))
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        kept = np.where(up, 1.0, -1.0)
        a[k], b[k] = lo, hi
        live = (f_x != 0) & (hi - lo > width)
        k, lo, hi, f_lo, f_hi, kept = (
            v[live] for v in (k, lo, hi, f_lo, f_hi, kept))
    # an exact zero leaves b far off: one step of the final width closes it
    k = np.nonzero(b - a > width)[0]
    if len(k):
        x = a[k] + width
        up = excess(x, k) > 0
        a[k], b[k] = np.where(up, a[k], x), np.where(up, x, b[k])

    lo, hi = np.full(betas.shape, -c_max), np.full(betas.shape, c_max)
    for _ in range(_OFFSET_BISECTIONS):
        mid = 0.5 * (lo + hi)
        k = np.nonzero((a < mid) & (mid < b))[0]
        if len(k):
            up = excess(mid[k], k) > 0
            a[k] = np.where(up, a[k], mid[k])
            b[k] = np.where(up, mid[k], b[k])
        up = mid >= b
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    c = 0.5 * (lo + hi)
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


class _PolishObjective:
    """The polish objective: max |profile(t + c) - u| over every node at the
    clamped z = (theta, beta, c), to the bit, certified from the active
    nodes where it can be.

    The centre is the best point evaluated on every node; its active nodes
    are those within 2% of the max there, and ``rest`` is the max over the
    others.  Moving to z changes a node's deviation by at most (alpha_c +
    |dbeta|)(r |dtheta| + |dc|) + |dbeta|(r + |c_c|): the profile is
    alpha-Lipschitz, a unit normal turned by dtheta moves a node at
    distance r by at most r |dtheta|, and |dalpha| <= |dbeta|.  When the
    max over the active nodes exceeds ``rest`` plus that, plus a rounding
    slack, it is the max over every node.  The active nodes take their t
    from the same ``points @ nu`` as every node (BLAS rounds a one-row
    product differently), so the value is the same float."""

    def __init__(self, points, uvals, r, c_max):
        self.points, self.uvals, self.r, self.c_max = points, uvals, r, c_max
        # rounding error of a deviation is a few ulps of its largest term
        self.slack = 1e-12 * (1.0 + np.max(np.abs(uvals)) + math.sqrt(
            1.0 + _FIT_BETA_MAX**2) * (r + c_max))
        self.centre = None

    def clamped(self, z):
        theta, beta, c = (float(v) for v in z)
        return (theta, min(max(beta, 0.0), _FIT_BETA_MAX),
                min(max(c, -self.c_max), self.c_max))

    def deviations(self, z, nodes=slice(None)):
        """Deviations at clamped z of the nodes indexed by ``nodes``."""
        theta, beta, c = z
        return _profile((self.points @ _unit(theta))[nodes] + c,
                        math.sqrt(1.0 + beta**2), beta) - self.uvals[nodes]

    def bound(self, z):
        """Upper bound on |deviation| at clamped z over the inactive nodes."""
        (theta, beta, c), (theta_c, beta_c, c_c) = z, self.centre
        d_beta = abs(beta - beta_c)
        return (self.rest + (math.sqrt(1.0 + beta_c**2) + d_beta)
                * (self.r * abs(theta - theta_c) + abs(c - c_c))
                + d_beta * (self.r + abs(c_c)) + self.slack)

    def recentre(self, z, dev):
        size = np.abs(dev)
        self.centre, self.value = z, float(np.max(size))
        near = size >= (1.0 - _POLISH_ACTIVE_BAND) * self.value
        self.active = np.flatnonzero(near)
        self.rest = float(np.max(size[~near], initial=-np.inf))

    def __call__(self, z):
        z = self.clamped(z)
        if self.centre is not None:
            value = float(np.max(np.abs(self.deviations(z, self.active))))
            if value > self.bound(z):
                return value
        dev = self.deviations(z)
        value = float(np.max(np.abs(dev)))
        if self.centre is None or value < self.value:
            self.recentre(z, dev)
        return value


def two_plane_fit(u: ScalarField, center, r: float):
    """Best L-infinity fit of a two-plane profile over nodes in B_r(center).

    The optimal offset in [-r/2, r/2] is solved for each (angle, beta) by a
    bracketed secant on the largest plus the smallest node deviation, which
    is monotone and piecewise linear in the offset, so the secant is exact
    once it brackets one linear piece (:func:`_best_offsets`); the offsets
    are a 48-step bisection's, to the bit.  A 64-angle x 24-beta grid over
    the circle and beta in [0, 10], then three zoomed 16 x 16 rounds, search
    on at most 2048 nodes; a simplex polish on every node follows.  Ties
    prefer smaller beta, then smaller |c|, then direction closest to (0, 1).
    Returns (TwoPlane, residual over every node in the ball); raises
    UnderResolvedError when the ball holds no node.

    Two prunings skip only work that cannot change the result, so the fit
    is the unpruned search's to the bit.  At each angle, a beta goes to
    :func:`_best_offsets` only if :func:`_offset_lower_bound` over every
    64th search node does not exceed the incumbent residual, and an angle
    with no beta left is skipped.  A dropped beta's residual exceeds the
    incumbent's, so it could neither win nor tie, and each beta's offset is
    solved on its own, so the kept betas get the same offsets.  The polish
    objective (:class:`_PolishObjective`) takes the max over the nodes near
    the max deviation at its centre when a Lipschitz bound shows that no
    other node can reach it, and over every node otherwise.
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
    # the simplex polish below uses the full node set
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

    # the simplex can stall on the non-smooth max objective, and it moves
    # the offset only approximately: restart it from the incumbent, with the
    # offset solved exactly, until it stops improving
    objective = _PolishObjective(points, uvals, r, c_max)
    opts = {"xatol": 1e-13, "fatol": 1e-16, "maxiter": 2000}
    z, best_res = best[1:], objective(best[1:])
    for _ in range(6):
        if best_res < 1e-15:
            break
        theta, beta, _ = minimize(objective, x0=z, method="Nelder-Mead",
                                  options=opts).x
        beta = min(max(float(beta), 0.0), _FIT_BETA_MAX)
        _, c = _best_offsets(points @ _unit(theta), uvals, np.array([beta]),
                             c_max)
        res, prev = objective((theta, beta, c[0])), best_res
        if res < best_res:
            z, best_res = (theta, beta, c[0]), res
        if not res < prev * (1 - 1e-3):
            break
    theta, beta, c = objective.clamped(z)
    return TwoPlane(beta=beta, nu=_unit(theta), c=c), best_res


def flatness_table(phi: LevelSet, center, radii) -> FlatnessTable:
    """Best-direction slab half-widths over a list of radii; the direction
    per radius comes from the principal normal of the contained interface
    points (smallest-variance axis)."""
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
        nu = v[:, 0]  # smallest-variance direction
        if nu[1] < 0:
            nu = -nu
        dirs.append(nu)
        deltas.append(float(np.max(np.abs(sel @ nu))))
        kept.append(r)
    return FlatnessTable(radii=np.asarray(kept),
                         directions=np.asarray(dirs),
                         deltas=np.asarray(deltas))


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


def acf_product(u: ScalarField, phi: LevelSet, center, radii,
                quadrature: np.ndarray) -> ACFSeries:
    """Product monitor r^-4 * (positive-phase Dirichlet energy) *
    (negative-phase Dirichlet energy) over B_r(center), with the cell
    containing the center excluded, from the :func:`ball_quadrature` rows
    ``quadrature`` of the same ball."""
    radii = np.asarray(radii, dtype=float)
    # remove the center cell's contribution from both factors
    ci, cj = u.grid.cell_of(center[0], center[1])
    sub_p, sub_m, _, _ = _cell_energy(u, phi, ci, cj,
                                      np.full((1, 1), u.grid.h * u.grid.h))
    vals = []
    for r, (grad_p, grad_m, _, _) in zip(radii, quadrature):
        grad_p = max(grad_p - sub_p, 0.0)
        grad_m = max(grad_m - sub_m, 0.0)
        vals.append(grad_p * grad_m / r**4)
    vals = np.asarray(vals)
    monotone, violation = _monotone_verdict(radii, vals)
    return ACFSeries(center=np.asarray(center, dtype=float), radii=radii,
                     values=vals, monotone=monotone,
                     first_violation=violation)

