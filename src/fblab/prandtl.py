"""Closed-form radial theory for the vortex-patch (Prandtl-Batchelor) disk
problem.

The transformed disk problem asks for u with u = mu on the unit circle,
harmonic where u > 0, Laplacian h^2 * omega where u < 0, and squared-speed
jump h^2 * sigma across the free boundary, a circle r = rho.  The admissible
radii rho1 < rho2 are the roots of a jump expression at level h^2 * sigma on
either side of its minimum z0; they exist when h^2 * sigma > max(0, z0).
On rho in (1e-8, 1 - 1e-8), scipy's bounded Brent minimizer finds z0,
polished in -log(1 - rho), and ``brentq`` each root.  A minimum or a root
outside that interval or a float overflow raises an FblabError (exit 3 in
the CLI); a failed existence condition raises ConditionError.  Two jump
expressions coexist deliberately: :func:`jump_threshold`, the printed
threshold, and :func:`profile_jump`, built from the profiles' one-sided
slopes (:func:`radial_slopes`).  They agree exactly when h^2 * omega = 1;
both are exported and the divergence is reported, never silently
corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import FblabError

_RHO_LO = 1e-8
_RHO_HI = 1.0 - 1e-8


class ConditionError(FblabError):
    """The existence condition h^2 sigma > max(0, threshold minimum) fails.
    ``z0`` is that minimum and ``rho_star`` its minimizer."""

    def __init__(self, msg, z0=None, rho_star=None):
        super().__init__(msg)
        self.z0 = z0
        self.rho_star = rho_star


@dataclass(frozen=True)
class PBParams:
    """Disk-problem parameters: outer boundary value, vorticity, jump
    constant, and conformal modulus stand-in h."""

    mu: float
    omega: float
    sigma: float
    h: float

    def __post_init__(self):
        for name in ("mu", "omega", "sigma", "h"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


def jump_threshold(rho: float, h: float, mu: float, omega: float) -> float:
    """Threshold function whose level set h^2*sigma picks the admissible
    free-boundary radii:  rho^-2 (log rho)^-2 mu^2 - (1/4) h^2 omega rho^2."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    lr = math.log(rho)
    return mu**2 / (rho**2 * lr**2) - 0.25 * h**2 * omega * rho**2


def _search(jump, h, mu, omega, sigma=None):
    """Minimum z0 of ``jump(rho)`` over (_RHO_LO, _RHO_HI) and its minimizer
    rho_star, by scipy's bounded Brent minimizer and its polish in
    -log(1 - rho).  Given ``sigma``, also the roots rho1 < rho_star < rho2
    of jump = h^2 sigma, by Brent's method; raises ConditionError when
    h^2 sigma does not exceed max(0, z0), and FblabError when ``jump`` is
    still falling at 1 - 1e-8, so the interval holds no minimum."""
    if mu <= 0 or h <= 0 or omega < 0:
        raise ValueError("h, mu must be positive and omega non-negative")
    where = f"h={h:g}, mu={mu:g}, omega={omega:g}" + (
        "" if sigma is None else f", sigma={sigma:g}")
    overflow = f"float overflow in the disk threshold for {where}"

    def level(rho, s=0.0):  # jump(rho) - h^2 s, checked for overflow
        try:
            value = jump(float(rho)) - h**2 * s
        except OverflowError:
            value = math.nan
        if not value > -math.inf:  # +inf passes: it lies above every level
            raise FblabError(overflow)
        return value

    with np.errstate(invalid="ignore"):  # +inf samples: no parabolic step
        res = scipy.optimize.minimize_scalar(
            level, bounds=(_RHO_LO, _RHO_HI), method="bounded",
            options={"xatol": 1e-15})
        z0, rho_star = float(res.fun), float(res.x)
        # it stops about sqrt(eps) rho off, too far where the minimum is
        # sharp next to rho = 1: polish in t = -log(1 - rho) within 1e-6
        res = scipy.optimize.minimize_scalar(
            lambda t: level(-math.expm1(-t)), method="bounded",
            bounds=[-math.log1p(-min(max(rho_star + d, _RHO_LO), _RHO_HI))
                    for d in (-1e-6, 1e-6)], options={"xatol": 1e-15})
    if res.fun < z0:
        z0, rho_star = float(res.fun), -math.expm1(-float(res.x))
    if not z0 < math.inf:
        raise FblabError(overflow)
    if level(_RHO_HI) <= z0:
        raise FblabError(f"the disk threshold for {where} still falls at "
                         f"1 - {_RHO_LO:g}: its minimum lies past the "
                         f"search interval")
    if sigma is None:
        return z0, rho_star
    if not level(rho_star, sigma) < 0 < h**2 * sigma:
        raise ConditionError(f"existence condition fails for {where}",
                             z0=z0, rho_star=rho_star)
    roots = []
    for side, lo, hi in (("inner", _RHO_LO, rho_star),
                         ("outer", rho_star, _RHO_HI)):
        if max(level(lo, sigma), level(hi, sigma)) < 0:
            raise FblabError(f"the {side} admissible radius for {where} lies "
                             f"outside ({_RHO_LO:g}, 1 - {_RHO_LO:g})")
        root, info = scipy.optimize.brentq(
            level, lo, hi, args=(sigma,), xtol=1e-24, maxiter=200,
            full_output=True, disp=False)
        if not info.converged:
            raise FblabError(f"no {side} root converged for {where}")
        roots.append(root)
    return z0, rho_star, *roots


def jump_threshold_min(h: float, mu: float, omega: float):
    """Minimum of :func:`jump_threshold` over (1e-8, 1 - 1e-8).  Returns
    (minimum value, minimizer)."""
    return _search(lambda rho: jump_threshold(rho, h, mu, omega),
                   h, mu, omega)


def interface_radii(params: PBParams, jump_fn=None):
    """Ordered pair (rho1, rho2) of admissible free-boundary radii: the roots
    of ``jump_fn(rho, params)`` = h^2*sigma on either side of its minimum.
    ``jump_fn`` defaults to the printed threshold; pass :func:`profile_jump`
    for the profile-consistent variant.  Raises ConditionError when the
    existence condition fails."""
    p = params
    jump = jump_fn or (lambda rho, p: jump_threshold(rho, p.h, p.mu, p.omega))
    return _search(lambda rho: jump(rho, p), p.h, p.mu, p.omega, p.sigma)[2:]


def threshold_roots(h: float, mu: float, omega: float, sigma: float):
    """Roots of the printed threshold at level h^2*sigma for raw parameter
    values (omega may be zero, unlike :class:`PBParams`).  Returns
    (z0, rho_star, rho1, rho2); raises ConditionError when the level does
    not exceed max(0, z0)."""
    return _search(lambda rho: jump_threshold(rho, h, mu, omega),
                   h, mu, omega, sigma)


def radial_slopes(r, rho: float, params: PBParams):
    """Radial derivatives at ``r`` of the outer logarithmic and the inner
    paraboloid profile with free boundary at ``rho``; at r = rho they are
    the two one-sided slopes at the free boundary."""
    return (-params.mu / (r * math.log(rho)),
            params.h**2 * params.omega * r / 2.0)


@dataclass(frozen=True)
class PBRadialSolution:
    """One radial solution branch: circular free boundary at ``rho``,
    harmonic logarithmic profile outside, paraboloid inside."""

    params: PBParams
    branch: int
    rho: float

    def __post_init__(self):
        if self.branch not in (1, 2):
            raise ValueError("branch must be 1 or 2")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")

    def u(self, r):
        """Signed profile: negative inside the patch, positive outside,
        ``mu`` on the unit circle."""
        r = np.asarray(r, dtype=float)
        p = self.params
        rho = self.rho
        rr = np.maximum(r, 1e-300)
        outer = p.mu * (1.0 - np.log(rr) / math.log(rho))
        inner = p.h**2 * p.omega * (r**2 - rho**2) / 4.0
        return np.where(r >= rho, outer, inner)

    def du(self, r):
        """Radial derivative of the profile (one-sided at r = rho)."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):  # outer slope at r = 0, unused
            outer, inner = radial_slopes(r, self.rho, self.params)
        return np.where(r >= self.rho, outer, inner)


def radial_solution(params: PBParams, branch: int) -> PBRadialSolution:
    """Build the radial solution on the requested branch (1 = inner root,
    2 = outer root)."""
    rho1, rho2 = interface_radii(params)
    return PBRadialSolution(params, branch, rho1 if branch == 1 else rho2)


def profile_jump(rho: float, params: PBParams) -> float:
    """Squared-gradient jump of the exact radial profiles at r = rho:
    mu^2 rho^-2 (log rho)^-2 - h^4 omega^2 rho^2 / 4."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    outer, inner = radial_slopes(rho, rho, params)
    return outer**2 - inner**2


def ordering_check(m: float, M: float, mu: float, omega: float,
                   sigma: float):
    """Check the branch ordering for two moduli m < M: the patch grows with
    the modulus along each branch and solutions with larger patches sit
    strictly below, so on interior radii

        u(M, outer branch) < u(m, outer branch) < u(m, inner branch).

    Returns (ok, witness) where witness is None or the first violating
    radius.
    """
    if not m < M:
        raise ValueError("requires m < M")
    pm = PBParams(mu=mu, omega=omega, sigma=sigma, h=m)
    pM = PBParams(mu=mu, omega=omega, sigma=sigma, h=M)
    r1m, r2m = interface_radii(pm)
    r1M, r2M = interface_radii(pM)
    if not (r2M > r2m > r1m > r1M):
        return False, None

    rs = np.linspace(0.0, 1.0, 102)[1:-1]  # 100 interior radii
    vM2 = PBRadialSolution(pM, 2, r2M).u(rs)
    vm2 = PBRadialSolution(pm, 2, r2m).u(rs)
    vm1 = PBRadialSolution(pm, 1, r1m).u(rs)
    bad = (vM2 >= vm2) | (vm2 >= vm1)
    if np.any(bad):
        return False, float(rs[np.argmax(bad)])
    return True, None


def large_vorticity_condition(h: float, mu: float, omega: float) -> bool:
    """Printed sufficient condition for existence at every sigma > 0:
    h^2 * omega >= 4 e mu."""
    if h <= 0 or mu <= 0 or omega <= 0:
        raise ValueError("parameters must be strictly positive")
    return h**2 * omega >= 4.0 * math.e * mu
