"""Free-boundary fixed-point engine.

Alternately solves the two phase problems with zero interface data and moves
the level set by the squared-gradient jump defect until the interface
condition q_A(u+) - q_A(u-) = Q holds.  The defect J is smoothed along each
interface component by one H^1 solve, (I - l^2 d_ss) V = J, with l about
12.6 vertex spacings, so about as many cells on any grid.  The displacement
at an interface point is then the Newton-style _KAPPA * J / G with a global
slope estimate G, capped at half a cell per step.

That defect flow alone converges only linearly, so :func:`run` mixes the
level-set iterates by Anderson acceleration (type II; Anderson 1965, Walker
& Ni 2011): the next level set is the affine combination of the recent
post-move candidates whose residuals cancel best in least squares.  The
history restarts at every reinitialization, which bounds its depth by
_REINIT_EVERY.  The mix is taken as it is: the half-cell cap of each step's
displacement is the loop's only limit on a move.

The loop has no fault-injection switch: a negative control feeds it wrong
input data instead, such as a negated level set, which swaps the phases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.fft import dct, idct
from scipy.spatial import cKDTree

from .diagnostics import FlatnessTable, flatness_table
from .elliptic import (
    CoefficientField,
    PhaseRegion,
    interface_normal_gradient,
    solve_phase,
)
from .errors import (
    DegenerateInterfaceError,
    FblabError,
    FieldError,
    PhaseCollapseError,
    UnderResolvedError,
)
from .fields import (
    LevelSet,
    ScalarField,
    _centered_gradient_norm,
    all_interface_points,
    interface_extract,
    reinitialize,
)

log = logging.getLogger(__name__)

_VELOCITY_BAND = 5  # cells on each side of the interface carrying velocity
_SMOOTH_L2 = 160.0  # squared H^1 smoothing length, in vertex spacings^2
_KAPPA = 0.5  # fraction of the Newton-style displacement applied per step
_REINIT_EVERY = 5  # iterations between reinitializations of phi


@dataclass
class PhaseProblem:
    """Two-phase elliptic problem with a squared-gradient jump target Q on
    the free boundary.  ``mask_radius`` restricts the domain to a ball
    centered in the box, with ``outer_data`` imposed outside it."""

    A: CoefficientField
    f_plus: ScalarField
    f_minus: ScalarField
    Q: ScalarField
    outer_data: ScalarField
    mask_radius: Optional[float] = None

    def __post_init__(self):
        grid = self.A.grid
        for name in ("f_plus", "f_minus", "Q", "outer_data"):
            f = getattr(self, name)
            if not grid.same_layout(f.grid):
                raise FieldError(f"{name} grid does not match coefficients")
            if not np.all(np.isfinite(f.values)):
                raise FieldError(f"{name} contains non-finite values")
        if np.min(self.Q.values) <= 0:
            raise FieldError("jump target Q must be positive everywhere")

    def pinned_mask(self):
        """Boolean node mask held at outer_data (None without a ball)."""
        if self.mask_radius is None:
            return None
        grid = self.A.grid
        xx, yy = grid.meshgrid()
        cx = 0.5 * (grid.x0 + grid.x1)
        cy = 0.5 * (grid.y0 + grid.y1)
        return np.hypot(xx - cx, yy - cy) >= self.mask_radius

    def domain_radius(self):
        grid = self.A.grid
        if self.mask_radius is not None:
            return self.mask_radius
        return 0.5 * min(grid.x1 - grid.x0, grid.y1 - grid.y0)


@dataclass
class IterationOptions:
    """Stopping rule of the fixed-point loop; tol_jump defaults to 1e-3
    times the largest jump target when left unset."""

    tol_jump: Optional[float] = None
    tol_move: float = 1e-2
    max_iters: int = 100

    def __post_init__(self):
        if self.tol_jump is not None and self.tol_jump <= 0:
            raise ValueError("tol_jump must be positive")
        if self.tol_move <= 0 or self.max_iters <= 0:
            raise ValueError("tol_move and max_iters must be positive")

    def resolved_tol_jump(self, problem: PhaseProblem) -> float:
        if self.tol_jump is not None:
            return self.tol_jump
        return 1e-3 * float(np.max(problem.Q.values))


STOP_REASONS = ("tolerances_met", "budget_exhausted", "phase_collapse")


@dataclass
class IterationReport:
    """Per-iteration history of the fixed-point loop.  ``stop_reason`` is
    one of :data:`STOP_REASONS`; the loop converged iff the tolerances were
    met."""

    iterations: int
    jump_history: np.ndarray
    displacement_history: np.ndarray
    area_plus_history: np.ndarray
    stop_reason: str
    flatness: Optional[FlatnessTable] = None
    notes: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("jump_history", "displacement_history",
                     "area_plus_history"):
            if len(getattr(self, name)) != self.iterations:
                raise ValueError(f"{name} length must equal iterations")
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerances_met"

    def rows(self):
        """CSV-ready (iter, jump_linf, displacement, area_plus) tuples."""
        return [
            (k + 1, float(self.jump_history[k]),
             float(self.displacement_history[k]),
             float(self.area_plus_history[k]))
            for k in range(self.iterations)
        ]


def _jump_at_points(u_plus, u_minus, A, phi, Q, points):
    """Jump defect and one-sided energies at the given interface points."""
    _, qp = interface_normal_gradient(u_plus, A, phi, points, +1)
    _, qm = interface_normal_gradient(u_minus, A, phi, points, -1)
    target = Q.sample(points[:, 0], points[:, 1])
    return qp - qm - target, qp, qm


def extend_velocity(points: np.ndarray, J: np.ndarray,
                    phi: LevelSet) -> ScalarField:
    """Constant-normal extension: nodes within a 5h band of the interface
    carry the defect of their nearest polyline point; zero outside."""
    if len(points) == 0:
        raise DegenerateInterfaceError("empty interface")
    grid = phi.grid
    tree = cKDTree(points)
    xx, yy = grid.meshgrid()
    band = np.abs(phi.phi) <= _VELOCITY_BAND * grid.h
    vals = np.zeros(grid.shape)
    if np.any(band):
        _, idx = tree.query(np.column_stack([xx[band], yy[band]]))
        vals[band] = J[idx]
    return ScalarField(grid, vals)


def _phase_regions(problem: PhaseProblem, phi: LevelSet):
    pinned = problem.pinned_mask()
    plus = PhaseRegion(phi=phi, sign=+1, outer_data=problem.outer_data,
                       pinned=pinned)
    minus = PhaseRegion(phi=phi, sign=-1, outer_data=problem.outer_data,
                        pinned=pinned)
    return plus, minus


def _composite(u_plus, u_minus, phi):
    vals = np.where(phi.phi > 0, u_plus.values, u_minus.values)
    return ScalarField(u_plus.grid, vals)


def _gradient_norm(phi: LevelSet):
    # phi is kept near a signed distance by periodic reinitialization;
    # clamping the metric prevents band-edge kinks from amplifying the
    # motion and destabilizing the loop
    return np.clip(_centered_gradient_norm(phi.grid, phi.phi), 0.8, 1.25)


def _smooth_along(values: np.ndarray, closed: bool):
    """Sobolev (H^1) smoothing along a polyline: the exact solution V of
    (I - _SMOOTH_L2 D) V = J, D the second difference over the vertices,
    periodic on closed curves (rfft) and reflecting at the ends of open ones
    (orthonormal DCT-II).  Short waves of the defect drive an unstable
    feedback through the one-sided gradients; that noise is a length in h,
    and vertices are about a cell apart.  l^2 = 160 was measured on the
    perturbed-plane benchmark inputs: 40 to 140 and 180 to 200 raise the
    median gate ratio, 320 fails 4 of 60 gates.  160 converges the verify
    problems on 97^2 to 385^2, phase-shifted starts included."""
    J = np.asarray(values, dtype=float)
    m = len(J)
    waves = np.arange(m // 2 + 1) if closed else np.arange(m) / 2
    transfer = 1 + _SMOOTH_L2 * (2 - 2 * np.cos(2 * np.pi * waves / m))
    if closed:
        return np.fft.irfft(np.fft.rfft(J) / transfer, n=m)
    return idct(dct(J, norm="ortho") / transfer, norm="ortho")


def _damp_interface_wiggles(phi: LevelSet) -> LevelSet:
    """One half-weight four-neighbor averaging pass restricted to the
    velocity band.

    Grid-scale corrugations of the free boundary are violently unstable
    under the jump-defect flow (the one-sided gradients amplify them), so a
    touch of curvature damping per step is required for the loop to
    contract.  The induced radial bias is O(h^2 / R) per step, far below
    the interface tolerance.
    """
    grid = phi.grid
    v = phi.phi
    avg = np.copy(v)
    avg[1:-1, 1:-1] = 0.25 * (v[:-2, 1:-1] + v[2:, 1:-1]
                              + v[1:-1, :-2] + v[1:-1, 2:])
    band = np.abs(v) <= _VELOCITY_BAND * grid.h
    out = np.where(band, 0.5 * v + 0.5 * avg, v)
    return LevelSet(grid, out)


def step(problem: PhaseProblem, phi: LevelSet):
    """One fixed-point sweep: solve both phases, measure the jump defect,
    move the level set by the scaled defect.

    Returns (u, phi_next, defect, displacement) where defect is the L-inf
    jump defect before the move and displacement the largest interface
    motion applied.
    """
    grid = problem.A.grid
    plus, minus = _phase_regions(problem, phi)
    u_plus = solve_phase(problem.A, problem.f_plus, plus)
    u_minus = solve_phase(problem.A, problem.f_minus, minus)

    # a zero node in the positive phase is a one-point loop with no normal
    polylines = [pl for pl in interface_extract(phi)
                 if np.ptp(pl.points, axis=0).any()]
    points = all_interface_points(polylines)
    if points.size == 0:
        raise PhaseCollapseError("interface vanished")
    J, qp, qm = _jump_at_points(u_plus, u_minus, problem.A, phi,
                                problem.Q, points)
    defect = float(np.max(np.abs(J)))

    # damp vertex-to-vertex quadrature noise before it feeds the motion
    ends = np.cumsum([len(pl.points) for pl in polylines])[:-1]
    J_smooth = np.concatenate([
        _smooth_along(Jp, pl.closed)
        for Jp, pl in zip(np.split(J, ends), polylines)])

    # Newton-style scale: a conservative global estimate of dJ/ds, from the
    # one-sided energies varying over the domain radius
    G = 2.0 * (float(np.max(qp + qm)) + float(np.max(problem.Q.values))) \
        / problem.domain_radius()
    s = _KAPPA * J_smooth / G
    s = np.clip(s, -grid.h / 2, grid.h / 2)
    displacement = float(np.max(np.abs(s)))

    s_ext = extend_velocity(points, s, phi)
    # positive defect means the positive-phase gradient is too strong, so
    # the positive phase must expand: phi increases where J > 0
    phi_next = LevelSet(grid, phi.phi + s_ext.values * _gradient_norm(phi))
    phi_next = _damp_interface_wiggles(phi_next)
    u = _composite(u_plus, u_minus, phi)
    return u, phi_next, defect, displacement


def _anderson_mix(phi: np.ndarray, g: np.ndarray, memory):
    """Type-II Anderson mixing of one fixed-point step.

    ``phi`` is the iterate, ``g`` its image G(phi) under the plain step and
    f = g - phi the residual.  ``memory`` is what the previous call returned
    since the last restart (None right after one): the previous residual
    and image, and one sparse column per pair of consecutive iterates with
    the difference of their residuals (dF) and of their images (dG).  The
    step moves phi only in the velocity band, so the columns are as narrow
    as that band.  The next iterate is G(phi) - dG gamma, where gamma fits
    dF gamma ~ f in least squares, with no per-node clip.  Returns (next
    iterate, memory for the next call).
    """
    f = sp.csc_array((g - phi).reshape(-1, 1))
    mixed = g
    if memory is None:
        dF = dG = sp.csc_array((g.size, 0))
    else:
        f0, g0, dF, dG = memory
        dF = sp.hstack([dF, f - f0], format="csc")
        dG = sp.hstack([dG, sp.csc_array((g - g0).reshape(-1, 1))],
                       format="csc")
        rows = np.union1d(f.indices, dF.indices)
        gamma = np.linalg.lstsq(dF[rows].toarray(), f[rows].toarray()[:, 0],
                                rcond=1e-10)[0]
        mixed = g - (dG @ gamma).reshape(g.shape)
    return mixed, (f, g, dF, dG)


def run(problem: PhaseProblem, phi0: LevelSet, opts: IterationOptions):
    """Iterate :func:`step` until the jump defect and interface displacement
    both fall under tolerance, or the iteration budget runs out.

    The next level set is not the post-move candidate of :func:`step` but
    its Anderson mix with the candidates since the last reinitialization
    (:func:`_anderson_mix`); every _REINIT_EVERY iterations the mix is
    reinitialized and the history cleared.  Only :func:`step` caps a move,
    its displacement at half a cell; the mix is not clipped.

    Returns (u, phi, IterationReport).  The converged level set is the one
    the defect was measured on, not the post-move candidate.
    """
    grid = problem.A.grid
    if np.all(phi0.phi >= 0) or np.all(phi0.phi <= 0):
        raise DegenerateInterfaceError("initial level set is single-signed")
    tol_jump = opts.resolved_tol_jump(problem)
    tol_move = opts.tol_move * grid.h

    phi = LevelSet(grid, phi0.phi.copy())
    jumps, moves, areas = [], [], []
    notes = []
    stop_reason = "budget_exhausted"
    best = None  # (defect, u, phi) of the best pre-move iterate
    memory = None  # Anderson history since the last reinitialization
    cell_area = grid.h**2

    for it in range(1, opts.max_iters + 1):
        try:
            u, phi_candidate, defect, displacement = step(problem, phi)
        except (PhaseCollapseError, UnderResolvedError) as err:
            # a phase shrunk below what the one-sided stencils can see
            notes.append(f"aborted at iteration {it}: {err}")
            log.warning("phase collapse at iteration %d: %s", it, err)
            stop_reason = "phase_collapse"
            break
        jumps.append(defect)
        moves.append(displacement)
        areas.append(float(np.count_nonzero(phi.phi > 0)) * cell_area)
        if best is None or defect < best[0]:
            best = (defect, u, LevelSet(grid, phi.phi.copy()))
        if defect <= tol_jump and displacement <= tol_move:
            stop_reason = "tolerances_met"
            break
        mixed, memory = _anderson_mix(phi.phi, phi_candidate.phi, memory)
        phi = LevelSet(grid, mixed)
        if it % _REINIT_EVERY == 0:
            phi = reinitialize(phi)
            memory = None

    if best is None:
        raise PhaseCollapseError(
            "iteration aborted before its first step completed: "
            + "; ".join(notes))
    if stop_reason != "tolerances_met":
        # hand back the best-seen iterate rather than the last one: the
        # defect flow can stagnate in a noisy neighborhood of the root
        _, u, phi = best
        notes.append(
            f"returned best iterate with defect {best[0]:.6g}")

    flatness = _final_flatness(problem, phi)
    report = IterationReport(
        iterations=len(jumps),
        jump_history=np.asarray(jumps),
        displacement_history=np.asarray(moves),
        area_plus_history=np.asarray(areas),
        stop_reason=stop_reason,
        flatness=flatness,
        notes=notes,
    )
    if stop_reason == "budget_exhausted":
        log.warning("fixed-point loop did not converge in %d iterations",
                    opts.max_iters)
    return u, phi, report


def _final_flatness(problem, phi):
    """Flatness table around the interface centroid; None if the geometry
    does not admit one (no interface, or balls leaving the domain)."""
    grid = problem.A.grid
    try:
        pts = all_interface_points(interface_extract(phi))
        if pts.size == 0:
            return None
        center = pts.mean(axis=0)
        margin = min(center[0] - grid.x0, grid.x1 - center[0],
                     center[1] - grid.y0, grid.y1 - center[1])
        radii = [r for r in (margin / 8, margin / 4, margin / 2)
                 if r > 4 * grid.h]
        if not radii:
            return None
        return flatness_table(phi, center, radii)
    except FblabError:  # diagnostics are best-effort here
        log.debug("flatness table unavailable", exc_info=True)
        return None
