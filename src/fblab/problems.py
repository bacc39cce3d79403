"""Preset problem builders: two-plane configurations, the perturbed plane
and the vortex-patch disk problem on the unit ball."""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import _profile
from .elliptic import CoefficientField
from .fbiter import PhaseProblem
from .fields import Grid2, LevelSet, ScalarField
from .prandtl import PBParams


def two_plane_values(beta: float, nu=(0.0, 1.0), c: float = 0.0):
    """Callable (x, y) -> alpha*t+ - beta*t- with t = <x, nu> + c."""
    alpha = math.sqrt(1.0 + beta**2)
    nx, ny = float(nu[0]), float(nu[1])

    def fn(x, y):
        return _profile(x * nx + y * ny + c, alpha, beta)

    return fn


def two_plane_field(grid: Grid2, beta: float, nu=(0.0, 1.0),
                    c: float = 0.0) -> ScalarField:
    return ScalarField.from_function(grid, two_plane_values(beta, nu, c))


def two_plane_levelset(grid: Grid2, nu=(0.0, 1.0),
                       c: float = 0.0) -> LevelSet:
    nx, ny = float(nu[0]), float(nu[1])
    return LevelSet.from_function(grid, lambda x, y: x * nx + y * ny + c)


def _homogeneous_problem(grid: Grid2, Q: float,
                         outer_data: ScalarField) -> PhaseProblem:
    """A = I and f = 0 in both phases, constant jump target Q."""
    zero = ScalarField.constant(grid, 0.0)
    return PhaseProblem(A=CoefficientField.identity(grid), f_plus=zero,
                        f_minus=zero, Q=ScalarField.constant(grid, Q),
                        outer_data=outer_data)


def two_plane_problem(grid: Grid2, beta: float, Q: float = 1.0,
                      c: float = 0.0) -> PhaseProblem:
    """Homogeneous two-phase problem whose exact solution is the two-plane
    profile: A = I, f = 0, outer data the profile itself."""
    return _homogeneous_problem(grid, Q, two_plane_field(grid, beta, c=c))


def perturbed_plane_levelset(grid: Grid2, amplitude: float = 0.05,
                             phase: float = 0.0) -> LevelSet:
    """The perturbed plane y + amplitude * sin(pi x + phase)."""
    return LevelSet.from_function(
        grid, lambda x, y: y + amplitude * np.sin(np.pi * x + phase))


def perturbed_plane_problem(grid: Grid2, amplitude: float = 0.05,
                            phase: float = 0.0) -> PhaseProblem:
    """One-phase problem with A = I, f = 0, Q = 1 and outer data the positive
    part of the perturbed plane, max(y + amplitude * sin(pi x + phase), 0)."""
    plane = perturbed_plane_levelset(grid, amplitude, phase)
    return _homogeneous_problem(
        grid, 1.0, ScalarField(grid, np.maximum(plane.phi, 0.0)))


def pb_problem(grid: Grid2, params: PBParams) -> PhaseProblem:
    """Vortex-patch disk problem on the unit ball: harmonic outside the
    patch, constant source h^2*omega inside, boundary value mu on the unit
    circle, jump target h^2*sigma."""
    A = CoefficientField.identity(grid)
    return PhaseProblem(
        A=A,
        f_plus=ScalarField.constant(grid, 0.0),
        f_minus=ScalarField.constant(grid, params.h**2 * params.omega),
        Q=ScalarField.constant(grid, params.h**2 * params.sigma),
        outer_data=ScalarField.constant(grid, params.mu),
        mask_radius=1.0,
    )


def pb_levelset(grid: Grid2, rho: float) -> LevelSet:
    """Circle of radius rho about the box center as the initial patch."""
    cx = 0.5 * (grid.x0 + grid.x1)
    cy = 0.5 * (grid.y0 + grid.y1)
    return LevelSet.from_function(
        grid, lambda x, y: np.hypot(x - cx, y - cy) - rho)
