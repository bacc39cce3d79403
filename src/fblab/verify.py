"""Self-verification suite: each acceptance criterion is a function that
returns (passed, detail), a pass/fail verdict with a human-readable detail
line; :func:`run_suite` times each call and builds its result.

Hard criteria gate the build (the CLI exits nonzero when any fails); audit
criteria only have to execute and emit their report files.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import (
    ball_quadrature,
    flatness_ladder,
    nondegeneracy,
    rescale,
    weiss_series,
)
from .elliptic import CoefficientField, PhaseRegion, solve_phase
from .fbiter import IterationOptions, run, step
from .fields import (
    LevelSet,
    ScalarField,
    all_interface_points,
    interface_extract,
    make_grid,
    write_table,
)
from .prandtl import (
    PBParams,
    interface_radii,
    jump_threshold,
    jump_threshold_min,
    large_vorticity_condition,
    ordering_check,
    profile_jump,
    radial_slopes,
    threshold_roots,
)
from .problems import (
    pb_levelset,
    pb_problem,
    perturbed_plane_levelset,
    perturbed_plane_problem,
    two_plane_field,
    two_plane_levelset,
    two_plane_problem,
)

DISK_PARAMS = PBParams(mu=1.0, omega=1.0, sigma=8.0, h=1.0)
DISK_BOX = (-1.1, -1.1, 1.1, 1.1)
DISK_OPTIONS = IterationOptions(max_iters=80, tol_jump=0.12, tol_move=0.5)
PERTURBED_OPTIONS = IterationOptions(max_iters=60, tol_jump=0.04,
                                     tol_move=0.5)


def disk_oracle_radius() -> float:
    """Outer root of :func:`profile_jump` = sigma at ``DISK_PARAMS``: the
    interface radius the disk run must recover."""
    return interface_radii(DISK_PARAMS, jump_fn=profile_jump)[1]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    hard: bool
    detail: str
    seconds: float


def build_disk_run():
    """Converged vortex-patch disk run on a 193^2 grid (criteria 3, 4, 6),
    with the ``seconds`` it took to build."""
    t0 = time.perf_counter()
    grid = make_grid(193, 193, DISK_BOX)
    rho2 = disk_oracle_radius()
    problem = pb_problem(grid, DISK_PARAMS)
    phi0 = pb_levelset(grid, rho2 * 1.1)
    u, phi, report = run(problem, phi0, DISK_OPTIONS)
    return {"grid": grid, "params": DISK_PARAMS, "problem": problem,
            "u": u, "phi": phi, "report": report, "rho2": rho2,
            "seconds": time.perf_counter() - t0}


def build_perturbed_run():
    """Converged run with 0.05-amplitude sinusoidal planar boundary data
    (criteria 8, 9), with the ``seconds`` it took to build."""
    t0 = time.perf_counter()
    grid = make_grid(129, 129, (-1.0, -1.0, 1.0, 1.0))
    problem = perturbed_plane_problem(grid)
    u, phi, report = run(problem, perturbed_plane_levelset(grid),
                         PERTURBED_OPTIONS)
    return {"grid": grid, "problem": problem, "u": u, "phi": phi,
            "report": report, "seconds": time.perf_counter() - t0}


class SuiteContext:
    """Caches the two expensive converged runs across criteria."""

    def __init__(self, disk=None, perturbed=None):
        self._disk = disk
        self._perturbed = perturbed

    def disk(self):
        if self._disk is None:
            self._disk = build_disk_run()
        return self._disk

    def perturbed(self):
        if self._perturbed is None:
            self._perturbed = build_perturbed_run()
        return self._perturbed


def _disk_weiss_frame(ctx):
    """Interface center and normalized (u, alpha, beta) for Weiss
    diagnostics on the converged disk run.

    The one-sided oracle slopes at the oracle radius normalize the field so
    the slope identity alpha^2 - beta^2 = 1 holds exactly.
    """
    data = ctx.disk()
    p = data["params"]
    rho2 = data["rho2"]
    a, b = radial_slopes(rho2, rho2, p)
    scale = math.sqrt(a * a - b * b)
    beta = b / scale
    alpha = math.sqrt(1.0 + beta**2)
    u_n = ScalarField(data["grid"], data["u"].values / scale)
    pts = all_interface_points(interface_extract(data["phi"]))
    center = tuple(pts[np.argmax(pts[:, 0])])  # on the positive x-axis
    return data, u_n, center, alpha, beta


def criterion_two_plane_stationarity(ctx, out_dir=None) -> tuple[bool, str]:
    """Exact piecewise-linear profiles are fixed points of the interface
    iteration: tiny jump defect, no drift, bounded runtime per slope."""
    grid = make_grid(129, 129, (-1.0, -1.0, 1.0, 1.0))
    h = grid.h
    worst_jump, worst_drift, worst_time = 0.0, 0.0, 0.0
    ok = True
    for beta in (0.0, 0.5, 1.0, 2.0):
        tb = time.perf_counter()
        problem = two_plane_problem(grid, beta)
        phi0 = two_plane_levelset(grid)
        _, phi, report = run(problem, phi0, IterationOptions(
            max_iters=10, tol_jump=1e-12, tol_move=1e-12))
        drift = float(np.max(np.abs(phi.phi - phi0.phi)))
        elapsed = time.perf_counter() - tb
        worst_jump = max(worst_jump, float(report.jump_history[-1]))
        worst_drift = max(worst_drift, drift)
        worst_time = max(worst_time, elapsed)
        if report.jump_history[-1] > 5 * h**2 or drift >= h / 10 \
                or elapsed >= 30.0:
            ok = False
    detail = (f"max jump {worst_jump:.3g} (limit {5 * h**2:.3g}), "
              f"max drift {worst_drift:.3g} (limit {h / 10:.3g}), "
              f"max time {worst_time:.1f}s")
    return ok, detail


def criterion_weiss_closed_form(ctx, out_dir=None) -> tuple[bool, str]:
    """Normalized energy of the exact profiles matches the closed form
    (1 + 2 beta^2) pi / 2 and is constant across radii."""
    grid = make_grid(129, 129, (-1.0, -1.0, 1.0, 1.0))
    radii = (0.1, 0.2, 0.3, 0.4, 0.5)
    worst_rel, worst_spread = 0.0, 0.0
    for beta in (0.0, 1.0):
        alpha = math.sqrt(1.0 + beta**2)
        u = two_plane_field(grid, beta)
        phi = two_plane_levelset(grid)
        target = (1.0 + 2.0 * beta**2) * math.pi / 2.0
        quad = ball_quadrature(u, phi, (0.0, 0.0), radii)
        vals = weiss_series(radii, alpha, beta, quad).phi_values
        worst_rel = max(worst_rel,
                        max(abs(v - target) / target for v in vals))
        worst_spread = max(worst_spread,
                           (max(vals) - min(vals)) / target)
    ok = worst_rel <= 0.02 and worst_spread <= 0.01
    detail = (f"max rel err {worst_rel:.4f} (limit 0.02), "
              f"max spread {worst_spread:.4f} (limit 0.01)")
    return ok, detail


def criterion_weiss_rescaling(ctx, out_dir=None) -> tuple[bool, str]:
    """Zooming by lambda then evaluating at r equals evaluating at
    lambda * r, on the converged disk solution."""
    data, u_n, center, alpha, beta = _disk_weiss_frame(ctx)
    lam, r = 0.5, 0.4
    u_zoom = rescale(u_n, lam, center)
    phi_field = ScalarField(data["grid"], data["phi"].phi)
    phi_zoom = LevelSet(data["grid"], rescale(phi_field, lam, center).values)

    def weiss_at(v, levelset, radius):
        return weiss_series([radius], alpha, beta,
                            ball_quadrature(v, levelset, center, [radius])
                            ).phi_values[0]

    lhs = weiss_at(u_zoom, phi_zoom, r)
    rhs = weiss_at(u_n, data["phi"], lam * r)
    tol = 0.02 * abs(rhs) + 0.01
    converged = data["report"].converged
    ok = converged and abs(lhs - rhs) <= tol
    detail = (f"zoomed {lhs:.5f} vs direct {rhs:.5f}, "
              f"|diff| {abs(lhs - rhs):.4f} <= {tol:.4f}, "
              f"converged={converged}")
    return ok, detail


def criterion_weiss_monotonicity(ctx, out_dir=None) -> tuple[bool, str]:
    """The normalized energy is non-decreasing in the radius around an
    interface point of the converged disk solution."""
    data, u_n, center, alpha, beta = _disk_weiss_frame(ctx)
    radii = np.geomspace(0.05, 0.45, 8)
    series = weiss_series(radii, alpha, beta,
                          ball_quadrature(u_n, data["phi"], center, radii))
    converged = data["report"].converged
    detail = f"8 radii in [{radii[0]:.3f}, {radii[-1]:.3f}], " \
             f"monotone={series.monotone}"
    if not series.monotone:
        detail += f", first violation at {series.first_violation}"
    detail += f", converged={converged}"
    return converged and series.monotone, detail


def criterion_disk_roots(ctx, out_dir=None) -> tuple[bool, str]:
    """Closed-form threshold minimum and root residuals at
    (mu, omega, h, sigma) = (1, 0, 1, 8)."""
    t0 = time.perf_counter()
    z0, rho_star, rho1, rho2 = threshold_roots(1.0, 1.0, 0.0, 8.0)
    res1 = abs(jump_threshold(rho1, 1.0, 1.0, 0.0) - 8.0)
    res2 = abs(jump_threshold(rho2, 1.0, 1.0, 0.0) - 8.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(z0 - math.e**2) <= 1e-9
          and abs(rho_star - 1.0 / math.e) <= 1e-6
          and abs(rho1 - 0.270) < 5e-3 and abs(rho2 - 0.472) < 5e-3
          and res1 < 1e-10 and res2 < 1e-10
          and elapsed < 1.0)
    detail = (f"z0 {z0:.12f} (e^2 {math.e**2:.12f}), "
              f"roots ({rho1:.6f}, {rho2:.6f}), "
              f"residuals ({res1:.2e}, {res2:.2e}), {elapsed:.3f}s")
    return ok, detail


def criterion_disk_fixed_point(ctx, out_dir=None) -> tuple[bool, str]:
    """The interface iteration recovers the outer oracle radius of the
    vortex-patch disk within two cells, and the run took under 300 s to
    build, whichever criterion built it."""
    data = ctx.disk()
    pts = all_interface_points(interface_extract(data["phi"]))
    radii = np.hypot(pts[:, 0], pts[:, 1])
    h = data["grid"].h
    err = abs(float(radii.mean()) - data["rho2"])
    ok = data["report"].converged and err < 2 * h \
        and data["seconds"] < 300.0
    detail = (f"radius {radii.mean():.5f} vs oracle {data['rho2']:.5f}, "
              f"err {err:.5f} < 2h {2 * h:.5f}, "
              f"converged={data['report'].converged}, "
              f"built in {data['seconds']:.1f}s")
    return ok, detail


def criterion_elliptic_convergence(ctx, out_dir=None) -> tuple[bool, str]:
    """Manufactured product-of-sines problem halves its max error by about
    four when the cell size halves (second order)."""
    t0 = time.perf_counter()
    errs = []
    for n in (33, 65):
        grid = make_grid(n, n, (-1.0, -1.0, 1.0, 1.0))
        A = CoefficientField.identity(grid)
        star = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        region = PhaseRegion(
            phi=LevelSet(grid, np.ones(grid.shape)), sign=1,
            outer_data=ScalarField.from_function(grid, star))
        f = ScalarField.from_function(
            grid, lambda x, y: -2 * np.pi**2 * star(x, y))
        u = solve_phase(A, f, region)
        xx, yy = grid.meshgrid()
        errs.append(float(np.max(np.abs(u.values - star(xx, yy)))))
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= ratio <= 4.5 and elapsed < 60.0
    detail = f"error ratio {ratio:.3f} in [3.5, 4.5], {elapsed:.1f}s"
    return ok, detail


def criterion_flatness_decay(ctx, out_dir=None) -> tuple[bool, str]:
    """The settled perturbed-plane interface flattens geometrically as the
    observation ball shrinks."""
    data = ctx.perturbed()
    pts = all_interface_points(interface_extract(data["phi"]))
    center = tuple(pts[np.argmin(np.abs(pts[:, 0]))])
    vals, fitted = flatness_ladder(data["phi"], center, [0.5, 0.25, 0.125])
    converged = data["report"].converged
    ok = converged and len(vals) == 3 and fitted <= 0.9
    detail = (f"delta/r {np.array2string(vals, precision=5)}, "
              f"fitted ratio {fitted:.3f} <= 0.9, converged={converged}")
    return ok, detail


def criterion_nondegeneracy(ctx, out_dir=None) -> tuple[bool, str]:
    """The positive phase of the converged perturbed-plane run grows at
    least linearly away from the interface with slope at least 0.5."""
    data = ctx.perturbed()
    c0 = nondegeneracy(data["u"], data["phi"],
                       delta_band=2 * data["grid"].h)
    converged = data["report"].converged
    ok = converged and c0 >= 0.5
    detail = f"c0 estimate {c0:.4f} >= 0.5, converged={converged}"
    return ok, detail


def criterion_branch_ordering(ctx, out_dir=None) -> tuple[bool, str]:
    """Radial solutions for nested moduli m < M keep the printed radius and
    profile ordering at 100 interior radii."""
    ok, witness = ordering_check(1.0, 1.2, mu=1.0, omega=1.0, sigma=8.0)
    detail = "radius and pointwise ordering hold" if ok \
        else f"violated at r = {witness}"
    return ok, detail


def criterion_negative_control(ctx, out_dir=None) -> tuple[bool, str]:
    """Flipping the sign of the measured jump must break stationarity of
    the exact profile.  The fault is injected as input data: stepping on
    the negated level set swaps the two phases, so the jump is measured as
    q_A(u-) - q_A(u+)."""
    grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
    problem = two_plane_problem(grid, 1.0)
    phi0 = two_plane_levelset(grid)
    _, _, defect, _ = step(problem, LevelSet(grid, -phi0.phi))
    ok = defect > 5 * grid.h**2
    detail = (f"flipped-sign defect {defect:.3f} exceeds the "
              f"stationarity limit {5 * grid.h**2:.2e}")
    return ok, detail


def criterion_open_question_audits(ctx, out_dir=None) -> tuple[bool, str]:
    """Non-blocking audits: table of the two jump expressions over
    h^2*omega in {0.5, 1, 2}, and a 20x20 sweep testing whether the
    large-vorticity condition implies a non-positive threshold minimum."""
    out_dir = out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    div_rows = []
    for h2w in (0.5, 1.0, 2.0):
        params = PBParams(mu=1.0, omega=h2w, sigma=8.0, h=1.0)
        for rho in np.linspace(0.1, 0.9, 9):
            t = jump_threshold(rho, 1.0, 1.0, h2w)
            p = profile_jump(rho, params)
            div_rows.append((h2w, rho, t, p, t - p))
    div_path = os.path.join(out_dir, "jump_divergence_table.csv")
    write_table(div_path, "h2omega,rho,threshold,profile,difference",
                div_rows)

    sweep_rows = []
    n_holds, n_implied = 0, 0
    for mu in np.linspace(0.2, 2.0, 20):
        for omega in np.linspace(1.0, 25.0, 20):
            holds = large_vorticity_condition(1.0, mu, omega)
            z0, _ = jump_threshold_min(1.0, mu, omega)
            nonpos = z0 <= 0.0
            implied = (not holds) or nonpos
            n_holds += holds
            n_implied += holds and implied
            sweep_rows.append((mu, omega, holds, z0, nonpos, implied))
    sweep_path = os.path.join(out_dir, "large_vorticity_sweep.csv")
    write_table(sweep_path,
                "mu,omega,cond_holds,z0,z0_nonpositive,implication_ok",
                sweep_rows)

    ok = os.path.isfile(div_path) and os.path.isfile(sweep_path)
    detail = (f"reports written to {out_dir}; condition holds at "
              f"{n_holds}/400 points, implication observed at "
              f"{n_implied}/{n_holds}")
    return ok, detail


FULL_CRITERIA = (
    criterion_two_plane_stationarity,
    criterion_weiss_closed_form,
    criterion_weiss_rescaling,
    criterion_weiss_monotonicity,
    criterion_disk_roots,
    criterion_disk_fixed_point,
    criterion_elliptic_convergence,
    criterion_flatness_decay,
    criterion_nondegeneracy,
    criterion_branch_ordering,
    criterion_negative_control,
    criterion_open_question_audits,
)

# the quick level leaves out every criterion that reads a converged run
QUICK_CRITERIA = tuple(fn for fn in FULL_CRITERIA if fn not in (
    criterion_weiss_rescaling, criterion_weiss_monotonicity,
    criterion_disk_fixed_point, criterion_flatness_decay,
    criterion_nondegeneracy))


def run_suite(level: str = "quick", out_dir: Optional[str] = None):
    """Run the requested criteria list and return one CriterionResult per
    criterion: named after its function, hard unless it is the audit that
    ran to its end (a crash is hard, the audit's included), and timed over
    the whole call, a crash included."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    criteria = QUICK_CRITERIA if level == "quick" else FULL_CRITERIA
    ctx = SuiteContext()
    results = []
    for fn in criteria:
        t0 = time.perf_counter()
        crashed = False
        try:
            passed, detail = fn(ctx, out_dir)
        except Exception as err:  # a crash is a failure, not an abort
            crashed = True
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CriterionResult(
            fn.__name__.removeprefix("criterion_"), passed,
            crashed or fn is not criterion_open_question_audits, detail,
            time.perf_counter() - t0))
    return results
