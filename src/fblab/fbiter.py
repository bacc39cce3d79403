"""Free-boundary fixed-point engine.

Alternately solves the two phase problems with zero interface data and moves
the level set by the squared-gradient jump defect until the interface
condition q_A(u+) - q_A(u-) = Q holds.  The defect J is smoothed along each
interface component by one H^1 solve, (I - l^2 d_ss) V = J, with l about
12.6 vertex spacings, so about as many cells on any grid.  The displacement
at an interface point is then the Newton-style _KAPPA * J / G with a global
slope estimate G, capped at half a cell per step, and its extension V is
added to phi as it is: phi is kept near a signed distance by reinitialization.

That defect flow alone converges only linearly, so the loop mixes the
level-set iterates by Anderson acceleration (type II; Anderson 1965, Walker
& Ni 2011): the next level set is the affine combination of the recent
post-move candidates whose residuals cancel best in least squares.  The
history restarts at every reinitialization, which bounds its depth by
_REINIT_EVERY.  The mix is taken as it is: the half-cell cap of each step's
displacement is the loop's only limit on a move.

The cap makes the number of steps from a distant start grow like 1/h, so
:func:`run` is a nested iteration (Hackbusch 1985, section 5; Brandt 1977):
the loop runs first on grids coarsened by injection onto every other node,
where a cell is wider and the interface travels in fewer steps, and each
converged level set is lifted bilinearly to start the next finer grid.  The
finest grid then only polishes, and its stop test alone decides
convergence.  A coarse level ends as soon as its best defect stops falling
between two reinitializations, as it would hand nothing on.

The loop has no fault-injection switch: a negative control feeds it wrong
input data instead, such as a negated level set, which swaps the phases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy

from .diagnostics import FlatnessTable, flatness_table
from .elliptic import (
    CoefficientField,
    PhaseRegion,
    interface_normal_gradient,
    solve_phase,
)
from .errors import (
    DegenerateInterfaceError,
    FieldError,
    PhaseCollapseError,
    UnderResolvedError,
)
from .fields import (
    Grid2,
    LevelSet,
    ScalarField,
    all_interface_points,
    bilinear_sample,
    interface_extract,
    reinitialize,
)

log = logging.getLogger(__name__)

_VELOCITY_BAND = 5  # cells on each side of the interface carrying velocity
_SMOOTH_L2 = 160.0  # squared H^1 smoothing length, in vertex spacings^2
_KAPPA = 0.5  # fraction of the Newton-style displacement applied per step
_REINIT_EVERY = 5  # iterations between reinitializations of phi
_MIN_COARSE_NODES = 33  # fewest nodes per side on a coarse level


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
        if self.mask_radius is not None and not self.mask_radius > 0:
            raise FieldError("mask_radius must be positive")

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
    times the largest jump target when left unset.  ``tol_move`` is in
    cells: :func:`step` caps each move at h/2, so ``tol_move >= 0.5`` tests
    nothing and the stop rests on ``tol_jump`` alone.  ``max_iters`` is the
    budget of each grid of :func:`run`'s ladder, not of the whole run."""

    tol_jump: Optional[float] = None
    tol_move: float = 1e-2
    max_iters: int = 100

    def __post_init__(self):
        # "not > 0" rejects NaN too, a tolerance no run could meet
        if self.tol_jump is not None and not self.tol_jump > 0:
            raise ValueError("tol_jump must be positive")
        if not self.tol_move > 0 or self.max_iters <= 0:
            raise ValueError("tol_move and max_iters must be positive")

    def resolved_tol_jump(self, problem: PhaseProblem) -> float:
        if self.tol_jump is not None:
            return self.tol_jump
        return 1e-3 * float(np.max(problem.Q.values))


STOP_REASONS = ("tolerances_met", "budget_exhausted", "phase_collapse",
                "stalled")


@dataclass
class IterationReport:
    """Per-iteration history of the fixed-point loop.  ``stop_reason`` is
    one of :data:`STOP_REASONS`; the loop converged iff the tolerances were
    met, and only a coarse level of :func:`run` reads ``stalled``.
    :func:`run` fills ``levels`` with one dict per grid of its ladder,
    coarsest first: ``nx``, ``ny``, ``iterations`` and ``stop_reason``."""

    iterations: int
    jump_history: np.ndarray
    displacement_history: np.ndarray
    area_plus_history: np.ndarray
    stop_reason: str
    flatness: Optional[FlatnessTable] = None
    notes: list = field(default_factory=list)
    levels: list = field(default_factory=list)

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
    measured = interface_normal_gradient({+1: u_plus, -1: u_minus}, A, phi,
                                         points)
    (_, qp), (_, qm) = measured[+1], measured[-1]
    target = Q.sample(points[:, 0], points[:, 1])
    return qp - qm - target, qp, qm


def extend_velocity(points: np.ndarray, J: np.ndarray,
                    phi: LevelSet) -> ScalarField:
    """Constant-normal extension: nodes within a 5h band of the interface
    carry the defect of their nearest polyline point; zero outside."""
    if len(points) == 0:
        raise DegenerateInterfaceError("empty interface")
    grid = phi.grid
    tree = scipy.spatial.cKDTree(points)
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
    return scipy.fft.idct(scipy.fft.dct(J, norm="ortho") / transfer,
                          norm="ortho")


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
    jump defect before the move, displacement the largest change of phi at
    an interface point (at most half a cell), and phi_next is phi plus that
    change extended into the velocity band, with its wiggles damped.
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
    phi_next = LevelSet(grid, phi.phi + s_ext.values)
    phi_next = _damp_interface_wiggles(phi_next)
    u = _composite(u_plus, u_minus, phi)
    return u, phi_next, defect, displacement


def _anderson_mix(phi: np.ndarray, g: np.ndarray, memory):
    """Type-II Anderson mixing of one fixed-point step.

    ``phi`` is the iterate, ``g`` its image G(phi) under the plain step and
    f = g - phi the residual.  ``memory`` is what the previous call returned
    since the last restart (None right after one): the previous residual
    and image, and one dense column per pair of consecutive iterates with
    the difference of their residuals (dF) and of their images (dG).  The
    step moves phi only in the velocity band, so the least-squares fit
    reads only the rows where f or some dF column is nonzero.  The next
    iterate is G(phi) - dG gamma, where gamma fits dF gamma ~ f in least
    squares, with no per-node clip.  dG gamma is summed one column at a
    time in column order, which rounds as a sparse column-major product
    does.  Returns (next iterate, memory for the next call).
    """
    f = (g - phi).ravel()
    mixed = g
    if memory is None:
        dF = dG = np.empty((f.size, 0))
    else:
        f0, g0, dF, dG = memory
        dF = np.column_stack([dF, f - f0])
        dG = np.column_stack([dG, (g - g0).ravel()])
        rows = np.flatnonzero((f != 0) | np.any(dF != 0, axis=1))
        gamma = np.linalg.lstsq(dF[rows], f[rows], rcond=1e-10)[0]
        step = np.zeros(f.size)
        for column, weight in zip(dG.T, gamma.tolist()):
            step += column * weight
        mixed = g - step.reshape(g.shape)
    return mixed, (f, g, dF, dG)


def _run_level(problem: PhaseProblem, phi0: LevelSet,
               opts: IterationOptions, coarse: bool = False):
    """Iterate :func:`step` on one grid until the jump defect and interface
    displacement both fall under tolerance, or ``opts.max_iters`` runs out.
    A ``coarse`` level also ends ``stalled`` at a reinitialization where its
    best defect is no lower than at the previous reinitialization.

    The next level set is not the post-move candidate of :func:`step` but
    its Anderson mix with the candidates since the last reinitialization
    (:func:`_anderson_mix`); every _REINIT_EVERY iterations the mix is
    reinitialized and the history cleared.

    Returns (u, phi, IterationReport) with no flatness table.  The converged
    level set is the one the defect was measured on, not the post-move
    candidate.
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
    best_at_restart = np.inf  # best defect at the last reinitialization
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
        if it % _REINIT_EVERY == 0 and coarse and best[0] >= best_at_restart:
            stop_reason = "stalled"
            break
        mixed, memory = _anderson_mix(phi.phi, phi_candidate.phi, memory)
        phi = LevelSet(grid, mixed)
        if it % _REINIT_EVERY == 0:
            phi = reinitialize(phi)
            memory = None
            best_at_restart = best[0]

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

    report = IterationReport(
        iterations=len(jumps),
        jump_history=np.asarray(jumps),
        displacement_history=np.asarray(moves),
        area_plus_history=np.asarray(areas),
        stop_reason=stop_reason,
        notes=notes,
    )
    if stop_reason == "budget_exhausted":
        log.warning("fixed-point loop did not converge in %d iterations",
                    opts.max_iters)
    return u, phi, report


def _can_coarsen(grid: Grid2) -> bool:
    """Every other node of both axes keeps the box corners and at least
    _MIN_COARSE_NODES nodes per side."""
    return ((grid.nx - 1) % 2 == 0 and (grid.ny - 1) % 2 == 0
            and min(grid.nx, grid.ny) + 1 >= 2 * _MIN_COARSE_NODES)


def _coarsen(problem: PhaseProblem, phi0: LevelSet):
    """The problem and start level set injected onto every other node,
    (n + 1) / 2 per side.  ``mask_radius`` is kept, so the ball mask is
    rebuilt on the coarse grid."""
    grid = problem.A.grid
    coarse = replace(grid, nx=(grid.nx + 1) // 2, ny=(grid.ny + 1) // 2,
                     h=2 * grid.h)

    def inject(values):
        return np.ascontiguousarray(values[::2, ::2])

    A = problem.A
    data = {name: ScalarField(coarse, inject(getattr(problem, name).values))
            for name in ("f_plus", "f_minus", "Q", "outer_data")}
    coarse_problem = PhaseProblem(
        A=CoefficientField(coarse, inject(A.a11), inject(A.a12),
                           inject(A.a22)),
        mask_radius=problem.mask_radius, **data)
    return coarse_problem, LevelSet(coarse, inject(phi0.phi))


def _ladder(problem: PhaseProblem, phi0: LevelSet):
    """(problem, start) on every grid of the coarse-to-fine ladder,
    coarsest first; the last entry is the input itself."""
    ladder = [(problem, phi0)]
    while _can_coarsen(ladder[-1][0].A.grid):
        ladder.append(_coarsen(*ladder[-1]))
    return ladder[::-1]


def _lift(phi: LevelSet, grid: Grid2) -> LevelSet:
    """Bilinear interpolation of a coarse level set onto the nodes of
    ``grid``."""
    xx, yy = grid.meshgrid()
    return LevelSet(grid, bilinear_sample(phi.grid, phi.phi, xx, yy))


def run(problem: PhaseProblem, phi0: LevelSet, opts: IterationOptions):
    """Solve the free-boundary problem by nested iteration: the fixed-point
    loop of :func:`_run_level` runs on every grid of the coarse-to-fine
    ladder, coarsest first, with the same options; every level but the
    finest is ``coarse``, so it may end ``stalled``.

    Coarsening takes every other node, n to (n + 1) / 2 per side, while
    n - 1 is even on both axes and the coarse grid keeps at least
    _MIN_COARSE_NODES nodes per side; every field of the problem and the
    start are injected exactly, so 129^2 runs on 33^2, 65^2 and 129^2 and a
    130^2 grid has one level.  ``opts.max_iters`` is a budget per level,
    so the finest grid keeps the whole budget when the coarse levels fail
    and then iterates exactly as a one-grid run from ``phi0`` would.
    A converged level hands its level set, bilinearly lifted, to the next
    grid.  A level that does not converge, or whose lift is single-signed,
    hands on nothing: the next level starts from its own injected start.

    The stop test on the finest grid is the one of :func:`_run_level`, and
    the flatness table is measured there alone.  Returns the finest
    level's (u, phi, IterationReport), whose ``levels`` lists every level.
    """
    ladder = _ladder(problem, phi0)
    levels = []
    lifted = None  # the last converged level's phi on the current grid
    for k, (level_problem, level_phi0) in enumerate(ladder):
        grid = level_problem.A.grid
        finest = k == len(ladder) - 1
        start = level_phi0
        if lifted is not None and lifted.has_both_signs():
            start = lifted
        try:
            u, phi, report = _run_level(level_problem, start, opts,
                                        coarse=not finest)
            iterations, stop_reason = report.iterations, report.stop_reason
        except (PhaseCollapseError, DegenerateInterfaceError):
            if finest:
                raise
            iterations, stop_reason = 0, "phase_collapse"
        log.info("level %dx%d: %s after %d iterations", grid.nx, grid.ny,
                 stop_reason, iterations)
        levels.append({"nx": grid.nx, "ny": grid.ny,
                       "iterations": iterations, "stop_reason": stop_reason})
        lifted = None
        if not finest and stop_reason == "tolerances_met":
            lifted = _lift(phi, ladder[k + 1][0].A.grid)

    report.flatness = _final_flatness(problem, phi)
    report.levels = levels
    return u, phi, report


def _final_flatness(problem, phi):
    """Flatness table around the interface centroid at radii of an eighth,
    a quarter and half its distance to the box edge, those spanning over
    four cells; None if there is no interface or no such radius.  The balls
    stay inside the box, so the table raises no toolkit error."""
    grid = problem.A.grid
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
