import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab.errors import FblabError
from fblab.prandtl import (
    ConditionError,
    PBParams,
    PBRadialSolution,
    interface_radii,
    jump_threshold,
    jump_threshold_min,
    large_vorticity_condition,
    ordering_check,
    profile_jump,
    radial_solution,
    threshold_roots,
)

# Reference roots computed independently with scipy.optimize (brentq /
# bounded minimize_scalar to 1e-15) for mu=1, omega=2, h=1, sigma=8.
THRESHOLD_MIN_8 = 7.3207611335376095
THRESHOLD_RHO_STAR_8 = 0.37129501400612047
THRESHOLD_ROOTS_8 = (0.26759369095126356, 0.4848731729265295)
PROFILE_ROOTS_8 = (0.2652507090881292, 0.4943549144236452)

PARAMS_8 = PBParams(mu=1.0, omega=2.0, sigma=8.0, h=1.0)


def profile_root_solution():
    """Outer radial solution at the root of the profile-consistent jump."""
    rho = interface_radii(PARAMS_8, jump_fn=profile_jump)[1]
    return PBRadialSolution(PARAMS_8, 2, rho)


def reference_threshold_min(h, mu, omega):
    """Minimum of the printed threshold over (1e-8, 1 - 1e-8) by a 50-digit
    golden-section search in t = -log(1 - rho)."""
    with mpmath.workdps(50):
        h, mu, omega = (mpmath.mpf(v) for v in (h, mu, omega))

        def f(t):
            rho = -mpmath.expm1(-t)
            return (mu**2 / (rho * mpmath.log(rho))**2
                    - h**2 * omega * rho**2 / 4)

        a = -mpmath.log1p(-mpmath.mpf(1e-8))
        b = -mpmath.log(1 - mpmath.mpf(1.0 - 1e-8))
        g = (mpmath.sqrt(5) - 1) / 2
        c, d = b - g * (b - a), a + g * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(260):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - g * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + g * (b - a)
                fd = f(d)
        return f((a + b) / 2)


class TestJumpThreshold:
    def test_closed_form_at_inverse_e(self):
        # mu^2 rho^-2 log^-2 rho = e^2 at rho = 1/e; quadratic term
        # 0.25 * 2 * e^-2
        val = jump_threshold(1 / math.e, h=1.0, mu=1.0, omega=2.0)
        assert val == pytest.approx(math.e**2 - math.exp(-2) / 2, rel=1e-14)

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            jump_threshold(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            jump_threshold(1.0, 1.0, 1.0, 1.0)

    def test_min_without_vorticity(self):
        # omega = 0 leaves rho^-2 log^-2 rho alone: minimum e^2 mu^2 at 1/e
        z0, rho_star = jump_threshold_min(h=1.0, mu=1.0, omega=0.0)
        assert z0 == pytest.approx(math.e**2, rel=1e-12)
        # the basin is flat to machine precision within ~1e-8 of 1/e
        assert rho_star == pytest.approx(1 / math.e, abs=1e-7)

    def test_min_with_infinite_samples(self):
        # mu^2 / (rho log rho)^2 overflows to +inf near both ends of the
        # interval but not at its minimum e^2 mu^2 near 1/e
        mu = 4.6593652304831e153
        z0, rho_star = jump_threshold_min(1.5243069677674909e-49, mu,
                                          2.3765958650293625e-133)
        assert z0 == pytest.approx(math.e**2 * mu**2, rel=1e-12)
        assert rho_star == pytest.approx(1 / math.e, abs=1e-7)

    def test_min_scales_with_mu_squared(self):
        z0, _ = jump_threshold_min(h=1.0, mu=3.0, omega=0.0)
        assert z0 == pytest.approx(9 * math.e**2, rel=1e-12)

    @pytest.mark.parametrize("h, mu, omega", [
        (1e4, 1.0, 1.0), (1e4, 1.0, 1e6), (1e4, 1e-2, 1.0)])
    def test_sharp_min_next_to_one(self, h, mu, omega):
        # minimizers 0.99657, 0.99997 and 0.99984: a search in rho alone
        # stops about 1.5e-8 off and reads z0 up to 4.6e-12 too high
        z0, rho_star = jump_threshold_min(h, mu, omega)
        ref = reference_threshold_min(h, mu, omega)
        assert abs((z0 - ref) / ref) <= 1e-15
        assert jump_threshold(rho_star, h, mu, omega) == z0

    def test_min_past_the_interval_raises(self):
        # h^2 omega / mu^2 = 1.7e27: the threshold still falls at 1 - 1e-8,
        # which the search returned as the minimizer, 0.9999999899999954
        with pytest.raises(FblabError, match="h=1e\\+06, mu=1e-06, "
                           "omega=1700 still falls at 1 - 1e-08"):
            jump_threshold_min(1e6, 1e-6, 1.7e3)

    def test_min_just_inside_the_interval(self):
        # h^2 omega / mu^2 = 2.9e24: the minimizer is 1 - 1.1e-8, inside
        z0, rho_star = jump_threshold_min(1e6, 1e-6, 2.8942661247167516)
        assert 1.0 - 1.2e-8 < rho_star < 1.0 - 1e-8
        assert z0 < jump_threshold(1.0 - 1e-8, 1e6, 1e-6, 2.8942661247167516)

    def test_min_with_vorticity(self):
        z0, rho_star = jump_threshold_min(h=1.0, mu=1.0, omega=2.0)
        assert z0 == pytest.approx(THRESHOLD_MIN_8, abs=1e-15)
        assert rho_star == pytest.approx(THRESHOLD_RHO_STAR_8, abs=1e-8)


class TestInterfaceRadii:
    def test_frozen_roots(self):
        rho1, rho2 = interface_radii(PARAMS_8)
        assert rho1 == pytest.approx(THRESHOLD_ROOTS_8[0], abs=1e-15)
        assert rho2 == pytest.approx(THRESHOLD_ROOTS_8[1], abs=1e-15)

    def test_roots_hit_target(self):
        rho1, rho2 = interface_radii(PARAMS_8)
        for rho in (rho1, rho2):
            res = jump_threshold(rho, 1.0, 1.0, 2.0) - 8.0
            assert abs(res) < 1e-10

    def test_profile_variant_roots(self):
        rho1, rho2 = interface_radii(PARAMS_8, jump_fn=profile_jump)
        assert rho1 == pytest.approx(PROFILE_ROOTS_8[0], abs=1e-15)
        assert rho2 == pytest.approx(PROFILE_ROOTS_8[1], abs=1e-15)

    def test_condition_failure_raises(self):
        weak = PBParams(mu=1.0, omega=2.0, sigma=2.0, h=1.0)
        with pytest.raises(ConditionError) as err:
            interface_radii(weak)
        assert err.value.z0 == pytest.approx(THRESHOLD_MIN_8, rel=1e-8)

    def test_existence_condition_flags(self):
        z0, rho_star, _, _ = threshold_roots(1.0, 1.0, 2.0, 8.0)
        assert z0 == pytest.approx(THRESHOLD_MIN_8, rel=1e-10)
        assert rho_star == pytest.approx(THRESHOLD_RHO_STAR_8, abs=1e-8)
        # a failing condition reports the same minimum and minimizer
        with pytest.raises(ConditionError) as err:
            threshold_roots(1.0, 1.0, 2.0, 2.0)
        assert (err.value.z0, err.value.rho_star) == (z0, rho_star)

    @given(
        mu=st.floats(0.5, 2.0),
        omega=st.floats(0.5, 4.0),
        h=st.floats(0.7, 1.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_roots_straddle_minimizer(self, mu, omega, h):
        z0, rho_star = jump_threshold_min(h, mu, omega)
        sigma = (max(0.0, z0) + 3.0) / h**2
        params = PBParams(mu=mu, omega=omega, sigma=sigma, h=h)
        rho1, rho2 = interface_radii(params)
        assert 0.0 < rho1 < rho_star < rho2 < 1.0
        for rho in (rho1, rho2):
            assert abs(jump_threshold(rho, h, mu, omega)
                       - h**2 * sigma) < 1e-8


    def test_subnormal_threshold_converges(self):
        # mu^2 and h^2 sigma are subnormal here, so Brent's method needs
        # more than scipy's default 100 iterations for the inner root
        z0, rho_star, rho1, rho2 = threshold_roots(
            3.319090719736611e-156, 4.226991272146919e-160,
            1.6154961341421478e-06, 691.321091318841)
        assert 0.0 < rho1 < rho_star < rho2 < 1.0


class TestRadialSolution:
    def test_boundary_and_interface_values(self):
        sol = radial_solution(PARAMS_8, branch=2)
        assert float(sol.u(1.0)) == pytest.approx(1.0, abs=1e-14)
        assert float(sol.u(sol.rho)) == pytest.approx(0.0, abs=1e-13)
        assert float(sol.u(sol.rho - 1e-12)) == pytest.approx(0.0, abs=1e-10)

    def test_sign_pattern(self):
        sol = radial_solution(PARAMS_8, branch=2)
        r = np.linspace(1e-3, 1.0, 400)
        u = sol.u(r)
        assert np.all(u[r < sol.rho - 1e-9] < 0)
        assert np.all(u[r > sol.rho + 1e-9] > 0)

    def test_ode_residual_both_regions(self):
        # outside: (r u')' = 0; inside: (r u')' / r = h^2 omega
        sol = radial_solution(PARAMS_8, branch=2)
        p = sol.params
        eps = 1e-6
        for r in (0.55, 0.7, 0.9):
            flux = (r + eps) * sol.du(r + eps) - (r - eps) * sol.du(r - eps)
            assert abs(flux / (2 * eps * r)) < 1e-7
        for r in (0.1, 0.2, 0.3):
            flux = (r + eps) * sol.du(r + eps) - (r - eps) * sol.du(r - eps)
            assert flux / (2 * eps * r) == pytest.approx(
                p.h**2 * p.omega, rel=1e-7)

    def test_du_is_the_derivative_of_u(self):
        sol = radial_solution(PARAMS_8, branch=2)
        eps = 1e-6
        for r in (0.1, 0.2, 0.3, 0.55, 0.7, 0.9):
            slope = float(sol.u(r + eps) - sol.u(r - eps)) / (2 * eps)
            assert float(sol.du(r)) == pytest.approx(slope, rel=1e-6)
        assert float(sol.du(0.0)) == 0.0  # the patch center, no warning

    def test_profile_jump_matches_one_sided_slopes(self):
        sol = profile_root_solution()
        eps = 1e-9
        a = float(sol.du(sol.rho + eps))
        b = float(sol.du(sol.rho - eps))
        assert a**2 - b**2 == pytest.approx(
            profile_jump(sol.rho, PARAMS_8), rel=1e-7)

    def test_profile_jump_at_root_equals_target(self):
        sol = profile_root_solution()
        assert profile_jump(sol.rho, PARAMS_8) == pytest.approx(8.0, abs=1e-9)

    def test_branch_selection(self):
        s1 = radial_solution(PARAMS_8, branch=1)
        s2 = radial_solution(PARAMS_8, branch=2)
        assert s1.rho < s2.rho
        with pytest.raises(ValueError):
            PBRadialSolution(PARAMS_8, 3, 0.5)


class TestJumpExpressionDivergence:
    def test_disagree_at_inverse_e(self):
        # same parameters, same radius: the two printed expressions differ
        # by e^-2 / 2
        rho = 1 / math.e
        t = jump_threshold(rho, h=1.0, mu=1.0, omega=2.0)
        p = profile_jump(rho, PARAMS_8)
        assert t == pytest.approx(math.e**2 - math.exp(-2) / 2, rel=1e-14)
        assert p == pytest.approx(math.e**2 - math.exp(-2), rel=1e-14)
        assert t - p == pytest.approx(math.exp(-2) / 2, rel=1e-12)

    def test_agree_when_quadratic_weight_is_one(self):
        # h^2 omega = 1 makes the quadratic terms coincide for every radius
        params = PBParams(mu=1.0, omega=1.0, sigma=8.0, h=1.0)
        for rho in (0.2, 0.4, 0.6, 0.8):
            t = jump_threshold(rho, 1.0, 1.0, 1.0)
            p = profile_jump(rho, params)
            assert t == pytest.approx(p, rel=1e-14)


class TestOrdering:
    def test_holds_for_nested_moduli(self):
        ok, witness = ordering_check(0.9, 1.0, mu=1.0, omega=2.0, sigma=12.0)
        assert ok
        assert witness is None

    def test_rejects_unordered_moduli(self):
        with pytest.raises(ValueError):
            ordering_check(1.0, 0.9, mu=1.0, omega=2.0, sigma=12.0)


class TestLargeVorticity:
    def test_boundary_cases(self):
        # threshold is 4 e mu
        assert large_vorticity_condition(1.0, 1.0, 4 * math.e)
        assert not large_vorticity_condition(1.0, 1.0, 10.0)
        assert large_vorticity_condition(2.0, 1.0, 3.0)

    def test_implies_existence_for_any_sigma(self):
        # the condition governs the profile-consistent jump: it holds
        # exactly when that expression dips to or below zero, because
        # rho^2 |log rho| peaks at 1/(2e) (at rho = e^-1/2), so every
        # positive sigma then admits two radii
        for omega in (4 * math.e, 12.0, 20.0):
            assert large_vorticity_condition(1.0, 1.0, omega)
            params = PBParams(mu=1.0, omega=omega, sigma=0.05, h=1.0)
            assert profile_jump(math.exp(-0.5), params) <= 1e-9
            rho1, rho2 = interface_radii(params, jump_fn=profile_jump)
            assert 0 < rho1 < rho2 < 1


class TestParamsValidation:
    @pytest.mark.parametrize("field", ["mu", "omega", "sigma", "h"])
    def test_positive_required(self, field):
        kwargs = dict(mu=1.0, omega=1.0, sigma=1.0, h=1.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            PBParams(**kwargs)
