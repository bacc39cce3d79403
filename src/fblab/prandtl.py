"""Closed-form radial theory for the vortex-patch (Prandtl-Batchelor) disk
problem.

The transformed disk problem asks for u with u = mu on the unit circle,
harmonic where u > 0, Laplacian h^2 * omega where u < 0, and squared-speed
jump h^2 * sigma across the free boundary.  Radial solutions have a circular
free boundary r = rho whose admissible radii are the roots of a scalar
threshold function; two branches exist whenever h^2 * sigma exceeds the
threshold minimum.

Two jump expressions coexist deliberately:

* :func:`jump_threshold` is the printed threshold whose level set defines the
  admissible radii;
* :func:`profile_jump` differentiates the explicit radial profiles.

They agree exactly when h^2 * omega = 1 and differ otherwise (the second
term carries h^2*omega vs (h^2*omega)^2 / h^2...); both are exported and the
divergence is reported, never silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _threshold_fn(h: float, mu: float, omega: float):
    """:func:`jump_threshold` as a function of rho alone."""
    if mu <= 0 or h <= 0 or omega < 0:
        raise ValueError("h, mu must be positive and omega non-negative")
    return lambda rho: jump_threshold(rho, h, mu, omega)


def _golden_min(fn):
    """Minimum of ``fn`` over (0, 1) by golden-section search.  Returns
    (minimum value, minimizer)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = _RHO_LO, _RHO_HI
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = fn(c)
    fd = fn(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    rho_star = 0.5 * (a + b)
    return fn(rho_star), rho_star


def jump_threshold_min(h: float, mu: float, omega: float):
    """Minimum of :func:`jump_threshold` over (0, 1) by golden-section
    search.  Returns (minimum value, minimizer)."""
    return _golden_min(_threshold_fn(h, mu, omega))


def _bisect(fn, lo, hi, target):
    flo = fn(lo) - target
    fhi = fn(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise FblabError("bisection bracket does not straddle the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid) - target
        if abs(fm) < 1e-10 and hi - lo < 1e-13:
            return mid
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _admissible_radii(fn, target):
    """Roots of ``fn = target`` on either side of the minimum of ``fn``.
    Returns (z0, rho_star, rho1, rho2); raises ConditionError when
    ``target`` does not exceed max(0, z0)."""
    z0, rho_star = _golden_min(fn)
    if not target > max(0.0, z0):
        raise ConditionError(
            f"existence condition fails: h^2*sigma = {target} "
            f"<= max(0, {z0})", z0=z0, rho_star=rho_star)
    rho1 = _bisect(fn, _RHO_LO, rho_star, target)
    rho2 = _bisect(fn, rho_star, _RHO_HI, target)
    return z0, rho_star, rho1, rho2


def interface_radii(params: PBParams, jump_fn=None):
    """Ordered pair (rho1, rho2) of admissible free-boundary radii: the roots
    of the jump expression equalling h^2*sigma on either side of its minimum.

    ``jump_fn(rho, params)`` defaults to the printed threshold; pass
    :func:`profile_jump` for the profile-consistent variant.  Raises
    ConditionError when the existence condition fails.
    """
    if jump_fn is None:
        def jump_fn(rho, p):
            return jump_threshold(rho, p.h, p.mu, p.omega)
    _, _, rho1, rho2 = _admissible_radii(lambda rho: jump_fn(rho, params),
                                         params.h**2 * params.sigma)
    return rho1, rho2


def threshold_roots(h: float, mu: float, omega: float, sigma: float):
    """Roots of the printed threshold at level h^2*sigma for raw parameter
    values (omega may be zero, unlike :class:`PBParams`).  Returns
    (z0, rho_star, rho1, rho2); raises ConditionError when the level does
    not exceed max(0, z0)."""
    return _admissible_radii(_threshold_fn(h, mu, omega), h**2 * sigma)


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
        p = self.params
        rho = self.rho
        rr = np.maximum(r, 1e-300)
        outer = -p.mu / (rr * math.log(rho))
        inner = p.h**2 * p.omega * r / 2.0
        return np.where(r >= rho, outer, inner)


def radial_solution(params: PBParams, branch: int) -> PBRadialSolution:
    """Build the radial solution on the requested branch (1 = inner root,
    2 = outer root)."""
    rho1, rho2 = interface_radii(params)
    rho = rho1 if branch == 1 else rho2
    return PBRadialSolution(params=params, branch=branch, rho=rho)


def profile_jump(rho: float, params: PBParams) -> float:
    """Squared-gradient jump of the exact radial profiles at r = rho:
    mu^2 rho^-2 (log rho)^-2 - h^4 omega^2 rho^2 / 4."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    lr = math.log(rho)
    outer = params.mu / (rho * lr)
    inner = params.h**2 * params.omega * rho / 2.0
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

    um1 = PBRadialSolution(pm, 1, r1m)
    um2 = PBRadialSolution(pm, 2, r2m)
    uM2 = PBRadialSolution(pM, 2, r2M)
    rs = np.linspace(0.0, 1.0, 102)[1:-1]  # 100 interior radii
    vM2 = uM2.u(rs)
    vm2 = um2.u(rs)
    vm1 = um1.u(rs)
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
