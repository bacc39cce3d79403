import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fblab.diagnostics
from fblab.cli import _flatness_payload
from fblab.diagnostics import (
    _ACF_MINUS,
    _ACF_PLUS,
    _AREA_MINUS,
    _AREA_PLUS,
    _FIT_BETA_MAX,
    _FIT_NODES,
    _FIT_ROUNDS,
    _GRAD_MINUS,
    _GRAD_PLUS,
    _SHELL,
    ACFSeries,
    FlatnessTable,
    TwoPlane,
    WeissSeries,
    _best_offsets,
    _minimax_lp,
    _offset_lower_bound,
    _polish,
    _profile,
    _unit,
    acf_product,
    ball_quadrature,
    boundary_square_integral,
    deepest_level,
    flatness_ladder,
    flatness_table,
    nondegeneracy,
    oscillation_decay,
    rescale,
    two_plane_fit,
    weiss_series,
)
from fblab.errors import FblabError, GridError, UnderResolvedError
from fblab.fields import (
    LevelSet,
    ScalarField,
    all_interface_points,
    interface_extract,
    make_grid,
    one_sided_gradient,
)
from fblab.problems import (
    two_plane_field,
    two_plane_levelset,
    two_plane_values,
)


def weiss(u, phi, center, radii, alpha, beta):
    """Weiss series from the ball quadrature rows, as the CLI computes it."""
    return weiss_series(radii, alpha, beta,
                        ball_quadrature(u, phi, center, radii))


def acf(u, phi, center, radii):
    """ACF series from the ball quadrature rows, as the CLI computes it."""
    return acf_product(radii, ball_quadrature(u, phi, center, radii))


@pytest.fixture(scope="module")
def grid65():
    return make_grid(65, 65, (-1, -1, 1, 1))


@pytest.fixture(scope="module")
def grid129():
    return make_grid(129, 129, (-1, -1, 1, 1))


@pytest.fixture(scope="module")
def grid257():
    return make_grid(257, 257, (-1, -1, 1, 1))


class TestTwoPlane:
    def test_alpha_derived(self):
        tp = TwoPlane(beta=0.75, nu=np.array([0.0, 1.0]))
        assert tp.alpha**2 - tp.beta**2 == pytest.approx(1.0, abs=1e-15)

    def test_unit_normal_required(self):
        with pytest.raises(ValueError):
            TwoPlane(beta=0.0, nu=np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            TwoPlane(beta=-0.1, nu=np.array([0.0, 1.0]))

    def test_profile_values(self):
        fn = two_plane_values(2.0)
        assert float(fn(0.0, 1.0)) == pytest.approx(math.sqrt(5.0))
        assert float(fn(0.0, -1.0)) == pytest.approx(-2.0)

    def test_evaluate_with_offset(self):
        vals = two_plane_values(0.0, c=0.25)(np.array([0.0, 0.0]),
                                             np.array([0.0, -0.5]))
        assert vals[0] == pytest.approx(0.25)
        assert vals[1] == pytest.approx(0.0)


class TestWeissEnergy:
    def test_one_phase_plane(self, grid65):
        u = two_plane_field(grid65, 0.0)
        phi = two_plane_levelset(grid65)
        E = weiss(u, phi, (0, 0), [0.5], 1.0, 0.0).E_values[0]
        assert E == pytest.approx(math.pi / 4, rel=0.02)

    def test_two_phase_plane(self, grid65):
        u = two_plane_field(grid65, 1.0)
        E = weiss(u, two_plane_levelset(grid65), (0, 0), [0.5], math.sqrt(2),
                  1.0).E_values[0]
        assert E == pytest.approx(3 * math.pi / 4, rel=0.02)

    def test_zero_field_no_phases(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        phi = LevelSet(grid65, -np.ones(grid65.shape))
        assert weiss(u, phi, (0, 0), [0.5], 1.0, 0.0).E_values[0] \
            == pytest.approx(0.0, abs=1e-12)

    def test_ball_must_stay_inside(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        with pytest.raises(GridError):
            ball_quadrature(u, two_plane_levelset(grid65), (0.8, 0), [0.5])

    def test_weight_constraint(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        with pytest.raises(ValueError):
            weiss(u, two_plane_levelset(grid65), (0, 0), [0.5], 1.0, 1.0)


class TestWeissPhi:
    def test_one_phase_constant(self, grid65):
        u = two_plane_field(grid65, 0.0)
        phi = two_plane_levelset(grid65)
        for val in weiss(u, phi, (0, 0), [0.1, 0.3, 0.5], 1.0,
                         0.0).phi_values:
            assert val == pytest.approx(math.pi / 2, rel=0.02)

    def test_two_phase_constant(self, grid65):
        u = two_plane_field(grid65, 1.0)
        phi = two_plane_levelset(grid65)
        for val in weiss(u, phi, (0, 0), [0.1, 0.3, 0.5], math.sqrt(2),
                         1.0).phi_values:
            assert val == pytest.approx(3 * math.pi / 2, rel=0.02)

    def test_zero_field(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        phi = LevelSet(grid65, -np.ones(grid65.shape))
        val = weiss(u, phi, (0, 0), [0.4], 1.0, 0.0).phi_values[0]
        assert val == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_convergence_order_in_h(self, beta, grid65, grid129):
        alpha = math.sqrt(1 + beta**2)
        exact = (1 + 2 * beta**2) * math.pi / 2
        errs = []
        for grid in (grid65, grid129):
            u = two_plane_field(grid, beta)
            val = weiss(u, two_plane_levelset(grid), (0, 0), [0.5], alpha,
                        beta).phi_values[0]
            errs.append(abs(val - exact))
        assert errs[1] <= errs[0] / 1.8


class TestWeissSeries:
    def test_constant_series_monotone(self, grid65):
        u = two_plane_field(grid65, 1.0)
        ws = weiss(u, two_plane_levelset(grid65), (0, 0), [0.1, 0.2, 0.3, 0.4],
                   math.sqrt(2), 1.0)
        assert ws.monotone
        assert ws.first_violation is None

    def test_bump_violates_monotonicity(self, grid65):
        # a large compact bump near the center inflates the small-radius
        # values; the series then decreases and the verdict reports it
        def bumped(x, y):
            d = np.hypot(x, y)
            return np.maximum(y, 0) + 5.0 * np.maximum(0.15 - d, 0.0)**2

        u = ScalarField.from_function(grid65, bumped)
        ws = weiss(u, two_plane_levelset(grid65), (0, 0),
                   [0.1, 0.2, 0.3, 0.4, 0.5], 1.0, 0.0)
        assert not ws.monotone
        assert ws.first_violation is not None
        assert ws.first_violation[0] < ws.first_violation[1]

    def test_radii_must_increase(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        with pytest.raises(ValueError):
            weiss(u, two_plane_levelset(grid65), (0, 0), [0.3, 0.2], 1.0, 0.0)

    def test_parts_recomputable(self, grid65):
        u = two_plane_field(grid65, 1.0)
        ws = weiss(u, two_plane_levelset(grid65), (0, 0), [0.2, 0.4],
                   math.sqrt(2), 1.0)
        recomputed = ws.E_values / ws.radii**2 \
            - ws.boundary_terms / ws.radii**3
        assert np.max(np.abs(recomputed - ws.phi_values)) < 1e-12

    def test_values_portable(self, grid65):
        # where numpy's array power is vectorized (AVX-512), 0.32**3 as an
        # array power rounds differently from the scalar power
        radii = [0.2, 0.32, 0.5]
        ws = weiss(two_plane_field(grid65, 1.0), two_plane_levelset(grid65),
                   (0, 0), radii, math.sqrt(2), 1.0)
        expected = [float(e) / r**2 - float(b) / r**3 for r, e, b
                    in zip(radii, ws.E_values, ws.boundary_terms)]
        assert ws.phi_values.tolist() == expected


class TestRescale:
    def test_homogeneous_field_fixed(self, grid65):
        u = two_plane_field(grid65, 1.0)
        ur = rescale(u, 0.5, (0, 0))
        assert np.max(np.abs(ur.values - u.values)) < 1e-13

    def test_identity_lambda(self, grid65):
        u = ScalarField.from_function(grid65, lambda x, y: np.sin(x) * y)
        ur = rescale(u, 1.0, (0, 0))
        assert np.array_equal(ur.values, u.values)

    def test_scaling_law(self, grid129):
        # the zoom identity phi(rescale(u, lam), r) = phi(u, lam r) is a
        # change of variables valid for any field
        u = ScalarField.from_function(
            grid129,
            lambda x, y: np.maximum(y, 0) + 0.05 * np.sin(2 * x) * (y + 1))
        phi = two_plane_levelset(grid129)
        lam, r = 0.5, 0.4
        left = weiss(rescale(u, lam, (0, 0)), phi, (0, 0), [r], 1.0,
                     0.0).phi_values[0]
        right = weiss(u, phi, (0, 0), [lam * r], 1.0, 0.0).phi_values[0]
        assert abs(left - right) <= 0.02 * abs(right) + 0.01

    def test_invalid_lambda(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        with pytest.raises(ValueError):
            rescale(u, 1.5, (0, 0))


def reference_best_offsets(t, uvals, betas, c_max):
    """The 48-step bisection on the sign of top + bottom over the kept
    nodes, whose residuals bound :func:`_best_offsets`'s."""
    order = np.argsort(t, kind="stable")
    t, uvals = t[order], uvals[order]
    top = uvals < np.append(np.minimum.accumulate(uvals[::-1])[-2::-1], np.inf)
    bot = uvals > np.insert(np.maximum.accumulate(uvals)[:-1], 0, -np.inf)
    t_top, u_top = t[top][:, None], uvals[top][:, None]
    t_bot, u_bot = t[bot][:, None], uvals[bot][:, None]
    alphas = np.sqrt(1.0 + betas**2)

    def extremes(c):
        return (np.max(_profile(t_top + c, alphas, betas) - u_top, axis=0),
                np.min(_profile(t_bot + c, alphas, betas) - u_bot, axis=0))

    lo, hi = np.full(betas.shape, -c_max), np.full(betas.shape, c_max)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        high = np.sum(extremes(mid), axis=0) > 0
        lo, hi = np.where(high, lo, mid), np.where(high, mid, hi)
    c = 0.5 * (lo + hi)
    return np.max(np.abs(extremes(c)), axis=0), c


def offset_slack(uvals, betas, c_max):
    """How far the residuals of :func:`_best_offsets` may exceed the
    bisection's: both offsets lie within c_max 2**-48 of the sign change of
    top + bottom, the residual is sqrt(1 + beta**2)-Lipschitz in the offset,
    and a few roundings of size max|u|."""
    return np.sqrt(1 + np.asarray(betas)**2) * 2 * c_max * 2.0**-48 \
        + 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(uvals)))


def check_offsets(t, uvals, betas, c_max):
    t, uvals, betas = (np.asarray(v, dtype=float) for v in (t, uvals, betas))
    res, cs = _best_offsets(t, uvals, betas, c_max)
    ref_res = reference_best_offsets(t, uvals, betas, c_max)[0]
    assert np.all(np.abs(res - ref_res) <= 1e-12 * (1 + ref_res))
    assert np.all(res <= ref_res + offset_slack(uvals, betas, c_max))
    assert np.all((-c_max <= cs) & (cs <= c_max))
    dev = _profile(t[:, None] + cs, np.sqrt(1 + betas**2), betas) \
        - uvals[:, None]
    assert np.array_equal(res, np.max(np.abs(dev), axis=0))
    return res, cs


class TestBestOffsets:
    @given(nodes=st.lists(st.tuples(st.floats(-1.0, 1.0),
                                    st.floats(-2.0, 2.0)),
                          min_size=1, max_size=40),
           betas=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
           c_max=st.floats(0.01, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection(self, nodes, betas, c_max):
        t, uvals = zip(*nodes)
        check_offsets(t, uvals, betas, c_max)

    def test_zero_beta(self):
        t = np.linspace(-0.5, 0.5, 21)
        uvals = np.maximum(t + 0.1, 0) + 0.01 * np.sin(7 * t)
        res, cs = check_offsets(t, uvals, [0.0, 0.5, 2.0], 0.25)
        assert res[0] < res[2]

    def test_pinned_at_lower_end(self):
        t = np.linspace(-0.5, 0.5, 21)
        res, cs = check_offsets(t, _profile(t - 3.0, math.sqrt(2), 1.0),
                                [1.0, 3.0], 0.25)
        assert np.all(cs < -0.25 + 1e-12)

    def test_pinned_at_upper_end(self):
        t = np.linspace(-0.5, 0.5, 21)
        res, cs = check_offsets(t, _profile(t + 3.0, math.sqrt(2), 1.0),
                                [1.0, 3.0], 0.25)
        assert np.all(cs > 0.25 - 1e-12)

    def test_repeated_t(self):
        check_offsets([0.1, 0.1, 0.1, -0.2, -0.2, 0.3],
                      [0.3, -0.1, 0.2, -0.5, 0.4, 0.0], [0.0, 1.0, 4.0], 0.3)

    def test_single_node(self):
        res, cs = check_offsets([0.2], [0.7], [0.0, 1.0, 5.0], 0.5)
        # one node is fitted exactly wherever the offset can reach it
        assert res[1] < 1e-13 and res[2] < 1e-13


class TestTwoPlaneFit:
    def test_ball_without_nodes_raises(self, grid65):
        u = two_plane_field(grid65, 0.5)
        with pytest.raises(UnderResolvedError, match="no grid node"):
            two_plane_fit(u, (0.999, 0.0), 0.001)

    def test_identity_recovery(self, grid65):
        u = two_plane_field(grid65, 0.7)
        plane, res = two_plane_fit(u, (0, 0), 0.5)
        assert res < 1e-6
        assert plane.beta == pytest.approx(0.7, abs=1e-3)
        assert abs(plane.c) < 1e-3
        assert np.allclose(plane.nu, [0.0, 1.0], atol=1e-3)

    def test_rotated_recovery(self, grid65):
        theta = math.radians(30)
        nu = np.array([-math.sin(theta), math.cos(theta)])
        alpha = math.sqrt(1.49)

        def rotated(x, y):
            t = x * nu[0] + y * nu[1]
            return alpha * np.maximum(t, 0) - 0.7 * np.maximum(-t, 0)

        u = ScalarField.from_function(grid65, rotated)
        plane, _ = two_plane_fit(u, (0, 0), 0.5)
        assert plane.beta == pytest.approx(0.7, abs=1e-3)
        angle = math.degrees(math.atan2(-plane.nu[0], plane.nu[1]))
        assert angle == pytest.approx(30.0, abs=0.2)

    def test_perturbed_residual_bound(self, grid65):
        u = ScalarField.from_function(
            grid65, lambda x, y: np.maximum(y, 0) + 0.01 * np.sin(5 * x))
        _, res = two_plane_fit(u, (0, 0), 0.5)
        assert res <= 0.01 + 1e-6

    def test_exact_recovery_generic(self, grid65):
        theta = math.radians(130)
        nu = np.array([-math.sin(theta), math.cos(theta)])
        beta, c = 3.3, 0.1
        alpha = math.sqrt(1 + beta**2)

        def generic(x, y):
            t = x * nu[0] + y * nu[1] + c
            return alpha * np.maximum(t, 0) + beta * np.minimum(t, 0)

        u = ScalarField.from_function(grid65, generic)
        plane, _ = two_plane_fit(u, (0, 0), 0.5)
        assert plane.beta == pytest.approx(beta, abs=1e-3)
        assert plane.c == pytest.approx(c, abs=1e-3)
        assert np.allclose(plane.nu, nu, atol=1e-3)

    def test_perturbed_generic_beats_planted(self, grid257):
        # the diagnose benchmark family: a generic profile plus a smooth
        # perturbation; the planted parameters bound the optimal residual
        nu, c = np.array([-math.sin(0.31), math.cos(0.31)]), 0.021
        xx, yy = grid257.meshgrid()
        planted = two_plane_values(1.37, nu, c)(xx, yy)
        vals = planted + 0.01 * np.sin(5 * xx + 0.7)
        u = ScalarField(grid257, vals)
        inside = np.hypot(xx, yy) <= 0.8
        planted_res = float(np.max(np.abs(vals - planted)[inside]))
        fitted, res = two_plane_fit(u, (0, 0), 0.8)
        assert res <= planted_res + 1e-9
        # the reported residual is the fitted plane's, over every node
        recomputed = np.max(np.abs(vals - two_plane_values(
            fitted.beta, fitted.nu, fitted.c)(xx, yy))[inside])
        assert res == pytest.approx(recomputed, abs=1e-15)


    def test_diagnose_field_matches_bisection(self, grid257, monkeypatch):
        # shaped like the diagnose benchmark: a 257^2 generic two-plane
        # profile plus a smooth perturbation, fitted at r = 0.8
        u = diagnose_field(grid257)
        calls = []

        def counted(*args):
            calls.append(None)
            return _profile(*args)

        monkeypatch.setattr(fblab.diagnostics, "_profile", counted)
        plane, res = two_plane_fit(u, (0, 0), 0.8)
        # 12504 with a plain 48-step bisection, 263 with the secant
        assert len(calls) <= 325
        monkeypatch.setattr(fblab.diagnostics, "_profile", _profile)
        monkeypatch.setattr(fblab.diagnostics, "_best_offsets",
                            reference_best_offsets)
        ref_plane, ref_res = two_plane_fit(u, (0, 0), 0.8)
        assert res == pytest.approx(ref_res, abs=1e-12)
        assert plane.beta == pytest.approx(ref_plane.beta, abs=1e-9)
        assert plane.c == pytest.approx(ref_plane.c, abs=1e-9)
        assert np.allclose(plane.nu, ref_plane.nu, rtol=0, atol=1e-9)
        assert res <= ref_res + offset_slack(u.values, ref_plane.beta, 0.4)

    def test_second_search_round_needed(self, monkeypatch):
        # case 126 of a 300-field random sweep: four search rounds end at
        # 0.033754261597400192, one round at 0.03431715014454801
        grid = make_grid(129, 129, (-1, -1, 1, 1))
        center, r = (0.02221838680859478, -0.01241073523203988), \
            0.20768519298979415
        beta, theta = 0.21176330465052118, math.radians(8.94851785605837)
        xx, yy = grid.meshgrid()
        t = (xx - center[0]) * -math.sin(theta) \
            + (yy - center[1]) * math.cos(theta) - 0.0013645123317685554
        u = ScalarField(grid, _profile(t, math.sqrt(1 + beta**2), beta)
                        + 0.05 * np.sin(5 * xx + 2.1))
        _, res = two_plane_fit(u, center, r)
        assert res <= 0.033754261597400192 + 1e-12
        monkeypatch.setattr(fblab.diagnostics, "_FIT_ROUNDS",
                            _FIT_ROUNDS[:1])
        _, one_round = two_plane_fit(u, center, r)
        assert one_round > 0.033754261597400192 + 1e-4

    def test_stable_under_one_ulp(self, grid257):
        # seed-0 diagnose input 6: the Nelder-Mead polish moved beta by
        # 5.0e-13 and the residual by 1.1e-13 under this nudge
        beta, nu = 1.2100739546905253, _unit(math.radians(24.201068385765353))
        xx, yy = grid257.meshgrid()
        vals = _profile(xx * nu[0] + yy * nu[1] - 0.013665580426388893,
                        math.sqrt(1 + beta**2), beta) \
            + 0.01 * np.sin(5 * xx + 1.4550823169089036)
        plane, res = two_plane_fit(ScalarField(grid257, vals), (0, 0), 0.8)
        nudged, nudged_res = two_plane_fit(
            ScalarField(grid257, np.nextafter(vals, np.inf)), (0, 0), 0.8)
        assert abs(nudged.beta - plane.beta) <= 1e-14
        assert abs(nudged_res - res) <= 1e-14


@st.composite
def minimax_lps(draw):
    """(a, d, lower, upper) shaped like a polish LP: gradients in units of
    the trust box, deviations in units of the residual, a box about 0.
    Some gradient rows are zero, some rows repeat, with d equal or 1e-9
    apart, and box ends may be 0, collapsed as at beta = 0 or c = +-c_max.
    Gradients are multiples of 1e-6: HiGHS drops matrix entries below
    1e-9, so it is no oracle for smaller ones."""
    m = draw(st.integers(1, 24))
    gradient = st.floats(-4.0, 4.0).map(lambda v: round(v, 6))
    a = np.array(draw(st.lists(st.lists(gradient, min_size=3, max_size=3),
                               min_size=m, max_size=m)))
    d = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m,
                               max_size=m)))
    a[draw(st.lists(st.integers(0, m - 1), max_size=3))] = 0.0
    repeated = draw(st.lists(st.integers(0, m - 1), max_size=4))
    a = np.vstack([a, a[repeated]])
    d = np.append(d, d[repeated] + draw(st.sampled_from([0.0, 1e-9])))
    ends = st.lists(st.one_of(st.just(0.0), st.just(1.0),
                              st.floats(0.0, 1.0)), min_size=3, max_size=3)
    return a, d, -np.array(draw(ends)), np.array(draw(ends))


class TestMinimaxLP:
    @given(lp=minimax_lps())
    @settings(max_examples=300, deadline=None)
    def test_matches_linprog(self, lp):
        from scipy.optimize import linprog

        a, d, lower, upper = lp
        x = _minimax_lp(a, d, lower, upper)
        assert x is not None
        assert np.all((lower - 1e-12 <= x) & (x <= upper + 1e-12))
        ones = np.ones((len(d), 1))
        ref = linprog((0.0, 0.0, 0.0, 1.0),
                      A_ub=np.block([[a, -ones], [-a, -ones]]),
                      b_ub=np.concatenate([-d, d]),
                      bounds=[*zip(lower, upper), (0.0, None)],
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert ref.status == 0
        assert np.max(np.abs(d + a @ x)) == pytest.approx(
            np.max(np.abs(d + a @ ref.x[:3])), abs=1e-12)

    def test_degenerate_pivots_do_not_cycle(self):
        # the zero row pins E at 1; taking the most violated row every time
        # brings an earlier basis back and cycles until the pivot cap
        a = np.array([[-1.3, 2.4, 0.0], [-0.8, -3.4, 1.4], [0.0, 0.0, 0.0],
                      [-3.1, 3.1, 3.9], [1.0, -3.0, 3.9], [2.2, 2.7, 3.0],
                      [0.0, 0.0, -2.7], [-2.0, 2.1, -2.9]])
        d = np.array([-0.4, 0.0, 1.0, 0.3, -0.6, -0.4, -0.6, 0.1])
        x = _minimax_lp(a, d, np.array([-0.1, -1.0, -1.0]),
                        np.array([0.1, 1.0, 1.0]))
        assert x is not None
        assert np.max(np.abs(d + a @ x)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("a, d, optimum", [
        # a x = -d holds inside the box; at E = 0 rounding reads basis row 2
        # as violated by 1.4e-13, and entering it again swaps it for itself
        # until the pivot cap
        ([[-0.2, -4.0, 3.52], [-0.21, -3.96, 3.52], [-1.8, 3.11, 4.0]],
         [0.97, 0.97, 0.98], 0.0),
        # an exact fit but for a repeated row with d 1e-11 apart: a stopping
        # tolerance of 1e-11 or more ends at E = 0, a level of 1e-11
        ([[-2.7, 2.1, 3.9], [-1.9, 2.1, 2.0], [-2.7, 2.1, 3.9]],
         [-0.4, 0.7, -0.4 + 1e-11], 5e-12),
    ])
    def test_small_optimum(self, a, d, optimum):
        a, d = np.array(a), np.array(d)
        x = _minimax_lp(a, d, -np.ones(3), np.ones(3))
        assert x is not None
        assert np.max(np.abs(d + a @ x)) <= optimum + 1e-12


def profile_field(grid, degrees, beta, c=0.0, eps=0.0):
    """The profile along the unit normal at ``degrees`` from (0, 1), plus
    ``eps`` times a smooth perturbation."""
    xx, yy = grid.meshgrid()
    profile = two_plane_values(beta, _unit(math.radians(degrees)), c)
    return ScalarField(grid, profile(xx, yy) + eps * np.sin(5 * xx + 2.1))


def diagnose_field(grid):
    """Shaped like the diagnose benchmark's inputs."""
    return profile_field(grid, -12.0, 1.37, -0.013, 0.01)


def reference_two_plane_fit(u, center, r):
    """:func:`two_plane_fit` without pruning: every (angle, beta) of the
    grid goes to :func:`_best_offsets`, then the same :func:`_polish`."""
    xx, yy = u.grid.meshgrid()
    mask = (xx - center[0])**2 + (yy - center[1])**2 <= r**2
    points = np.column_stack([xx[mask] - center[0], yy[mask] - center[1]])
    uvals = u.values[mask]
    c_max = r / 2
    stride = max(int(np.ceil(len(points) / _FIT_NODES)), 1)
    cpoints, cvals = points[::stride], uvals[::stride]
    theta0, theta_span = 0.0, np.pi
    beta0 = beta_span = _FIT_BETA_MAX / 2
    best = (np.inf, 0.0, 0.0, 0.0)
    for n_theta, n_beta in _FIT_ROUNDS:
        thetas = theta0 + np.linspace(-theta_span, theta_span, n_theta)
        thetas = thetas[np.argsort(np.abs(thetas), kind="stable")]
        betas = np.linspace(max(beta0 - beta_span, 0.0),
                            min(beta0 + beta_span, _FIT_BETA_MAX), n_beta)
        for theta in thetas:
            res, cs = _best_offsets(cpoints @ _unit(theta), cvals, betas,
                                    c_max)
            k = int(np.argmin(res))
            if (res[k], betas[k], abs(cs[k])) < (best[0], best[2],
                                                 abs(best[3])):
                best = (res[k], theta, betas[k], cs[k])
        theta0, beta0 = best[1], best[2]
        theta_span *= 4.0 / (n_theta - 1)
        beta_span *= 4.0 / (n_beta - 1)

    (theta, beta, c), res = _polish(points, uvals, best[1:], c_max)
    return TwoPlane(beta=beta, nu=_unit(theta), c=c), res


def fit_key(plane, res):
    return (res, plane.beta, plane.c, tuple(plane.nu))


class TestPrunedFit:
    """The pruned grid search skips only work that cannot change the fit:
    it equals the unpruned fit to the bit."""

    def test_diagnose_field(self, grid257):
        u = diagnose_field(grid257)
        assert fit_key(*two_plane_fit(u, (0, 0), 0.8)) \
            == fit_key(*reference_two_plane_fit(u, (0, 0), 0.8))

    @pytest.mark.parametrize("degrees, beta, c, eps, r", [
        (25.0, 0.0, 0.02, 0.005, 0.6),  # one phase: beta = 0
        (0.0, 0.0, 0.0, 0.0, 0.5),  # exact: the polish stops below 1e-15
        (179.3, 2.1, -0.03, 0.004, 0.6),  # angle near +-pi
        (-179.6, 0.8, 0.01, 0.004, 0.6),
        (-40.0, 3.3, 0.05, 0.01, 0.5),
    ])
    def test_matches_unpruned(self, grid65, degrees, beta, c, eps, r):
        # on 65^2 the ball holds fewer nodes than the search budget, so the
        # grid search runs on every node (stride 1)
        u = profile_field(grid65, degrees, beta, c, eps)
        xx, yy = grid65.meshgrid()
        assert np.count_nonzero(xx**2 + yy**2 <= r**2) <= _FIT_NODES
        plane, res = two_plane_fit(u, (0, 0), r)
        assert fit_key(plane, res) \
            == fit_key(*reference_two_plane_fit(u, (0, 0), r))
        if eps == 0.0:
            assert res < 1e-15

    def test_one_phase_fit_leaves_the_beta_bound(self, grid65):
        # alpha is flat at beta = 0, where the grid search ends; the
        # Nelder-Mead polish stayed there at 0.0049951912983805455
        u = profile_field(grid65, 25.0, 0.0, 0.02, 0.005)
        plane, res = two_plane_fit(u, (0, 0), 0.6)
        assert res < 0.0049951912983805455 - 1e-8
        assert plane.beta > 0.0

    def test_work_pruned(self, grid257, monkeypatch):
        # unpruned: 80 grid-search calls of _best_offsets, one per angle;
        # 8 pruned calls and 9 evaluations on every node of the ball, where
        # four search rounds and one-signed LP rows took 31 and 14
        u = diagnose_field(grid257)
        xx, yy = grid257.meshgrid()
        n_nodes = np.count_nonzero(xx**2 + yy**2 <= 0.8**2)
        search_calls, node_evals = [], []

        def offsets(t, *args):
            if len(t) <= _FIT_NODES:
                search_calls.append(None)
            return _best_offsets(t, *args)

        def profile(s, *args):
            if np.shape(s) == (n_nodes,):
                node_evals.append(None)
            return _profile(s, *args)

        monkeypatch.setattr(fblab.diagnostics, "_best_offsets", offsets)
        monkeypatch.setattr(fblab.diagnostics, "_profile", profile)
        two_plane_fit(u, (0, 0), 0.8)
        assert 0 < len(search_calls) <= 9
        assert 0 < len(node_evals) <= 10

    def test_memory_bounded(self, grid257):
        # the unpruned fit peaks at 3.28e6 traced bytes; with the lower
        # bound computed for a whole round of angles at once, 29e6
        u = diagnose_field(grid257)
        tracemalloc.start()
        try:
            two_plane_fit(u, (0, 0), 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.28e6 + 2 * 2**20


class TestOffsetLowerBound:
    @given(nodes=st.lists(st.tuples(st.floats(-1.0, 1.0),
                                    st.floats(-2.0, 2.0)),
                          min_size=1, max_size=60),
           betas=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
           c_max=st.floats(0.01, 1.0),
           step=st.integers(1, 8), start=st.integers(0, 7))
    @settings(max_examples=300, deadline=None)
    def test_below_residual(self, nodes, betas, c_max, step, start):
        t, uvals = (np.array(v) for v in zip(*nodes))
        betas = np.array(betas)
        start = min(start, len(t) - 1)
        bound = _offset_lower_bound(t[start::step], uvals[start::step],
                                    betas, c_max)
        assert np.all(bound <= _best_offsets(t, uvals, betas, c_max)[0])

    @pytest.mark.parametrize("shift", [-3.0, 3.0, -0.2500001, 0.2500001])
    def test_pinned_offsets(self, shift):
        # the optimal offset lies beyond +-c_max: the residual is the one
        # at the end of the range
        t = np.linspace(-0.5, 0.5, 41)
        betas = np.array([0.0, 1.0, 3.0])
        uvals = _profile(t + shift, math.sqrt(2), 1.0)
        res, cs = _best_offsets(t, uvals, betas, 0.25)
        assert abs(cs[1]) > 0.25 - 1e-12
        bound = _offset_lower_bound(t[::4], uvals[::4], betas, 0.25)
        assert np.all(bound <= res)
        # on every node, tight at the pinned end for the planted beta
        assert _offset_lower_bound(t, uvals, betas, 0.25)[1] \
            == pytest.approx(res[1], abs=1e-12)

    def test_tight_on_exact_profile(self):
        t = np.linspace(-0.5, 0.5, 41)
        betas = np.array([0.5, 1.0])
        uvals = _profile(t, math.sqrt(2), 1.0)
        bound = _offset_lower_bound(t, uvals, betas, 0.25)
        assert bound[1] == 0.0 and bound[0] > 0.0


class TestFlatness:
    def test_flat_interface(self, grid65):
        table = flatness_table(two_plane_levelset(grid65), (0, 0), [0.5])
        assert np.allclose(np.abs(table.directions), [[0.0, 1.0]])
        assert table.deltas[0] <= grid65.h / 2

    def test_no_interface_in_ball(self, grid65):
        # the interface y = 0.8 meets the ball of radius 0.9 but not 0.3
        phi = LevelSet.from_function(grid65, lambda x, y: y - 0.8 + 0 * x)
        table = flatness_table(phi, (0, 0), [0.3, 0.9])
        assert list(table.radii) == [0.9]
        assert table.directions.shape == (1, 2)
        assert table.deltas[0] == pytest.approx(0.8, abs=1e-12)

    def test_table_directions(self, grid65):
        theta = math.radians(10)
        phi = LevelSet.from_function(
            grid65,
            lambda x, y: -x * math.sin(theta) + y * math.cos(theta))
        table = flatness_table(phi, (0, 0), [0.3, 0.5])
        assert isinstance(table, FlatnessTable)
        # principal normal should recover the tilt
        for nu in table.directions:
            assert abs(-nu[0] / nu[1] - math.tan(theta)) < 0.02
        assert np.all(table.deltas < grid65.h)

    def test_ladder_needs_two_radii(self, grid65):
        # a fitted ratio needs two kept radii: one would be the mean of an
        # empty slice, NaN with a RuntimeWarning
        with pytest.raises(UnderResolvedError, match=r"kept \[0.5\]"):
            flatness_ladder(two_plane_levelset(grid65), (0, 0), [0.5])

    def test_degenerate_direction_on_disk(self, pb_run):
        # the ball of radius 0.55 holds the whole circle: the interface
        # points' two variances agree to a relative gap of about 3e-15
        table = pb_run["report"].flatness
        assert table.directions.shape == (1, 2)
        assert np.all(np.isnan(table.directions))
        pts = all_interface_points(interface_extract(pb_run["phi"]))
        assert table.deltas[0] == np.max(
            np.hypot(*(pts - pts.mean(axis=0)).T))
        assert json.loads(json.dumps(_flatness_payload(table),
                                     allow_nan=False))["directions"] == [None]


class TestNondegeneracy:
    def test_one_phase_plane(self, grid65):
        u = two_plane_field(grid65, 0.0)
        assert nondegeneracy(u, two_plane_levelset(grid65), 0.05) \
            == pytest.approx(1.0, rel=0.05)

    def test_two_phase_plane(self, grid65):
        u = two_plane_field(grid65, 1.0)
        assert nondegeneracy(u, two_plane_levelset(grid65), 0.05) \
            == pytest.approx(math.sqrt(2), rel=0.05)

    def test_scales_exactly(self, grid65):
        u = two_plane_field(grid65, 0.0)
        half = ScalarField(grid65, 0.5 * u.values)
        c_full = nondegeneracy(u, two_plane_levelset(grid65), 0.05)
        c_half = nondegeneracy(half, two_plane_levelset(grid65), 0.05)
        assert c_half == pytest.approx(0.5 * c_full, rel=1e-12)

    def test_no_interface(self, grid65):
        u = ScalarField.constant(grid65, 1.0)
        phi = LevelSet(grid65, np.ones(grid65.shape))
        with pytest.raises(FblabError):
            nondegeneracy(u, phi, 0.05)


class TestOscillationDecay:
    def test_exact_plane_zero_offsets(self, grid257):
        u = two_plane_field(grid257, 0.7)
        plane, _ = two_plane_fit(u, np.array([0.0, 0.0]), 0.8)
        out = oscillation_decay(u, np.array([0.0, 0.0]), 0.8, 1, plane)
        for a, b in out:
            assert abs(a) < 1e-12 and abs(b) < 1e-12

    def test_planted_offset(self, grid257):
        u = two_plane_field(grid257, 0.7, c=0.01)
        plane, _ = two_plane_fit(u, np.array([0.0, 0.0]), 0.8)
        out = oscillation_decay(u, np.array([0.0, 0.0]), 0.8, 1, plane)
        for a, b in out:
            assert a == pytest.approx(0.01, abs=1e-9)
            assert b == pytest.approx(0.01, abs=1e-9)

    def test_depth_precondition(self, grid65):
        u = two_plane_field(grid65, 0.0)
        with pytest.raises(UnderResolvedError):
            oscillation_decay(u, np.array([0.0, 0.0]), 0.8, 2,
                              TwoPlane(beta=0.0, nu=np.array([0.0, 1.0])))

    @pytest.mark.parametrize("r0, h, deepest", [
        (0.8, 2 / 256, 1), (0.8, 0.01, 1), (0.8, 0.0101, 0),
        (0.4, 0.1, 0), (0.1, 0.1, -1), (1.0, 1e-4, 2)])
    def test_deepest_level(self, r0, h, deepest):
        # the scale r0 / 20^k must span four cells, equality included
        assert deepest_level(r0, h) == deepest

    def test_deepest_level_is_the_precondition(self, grid257):
        u = two_plane_field(grid257, 0.7)
        plane = TwoPlane(beta=0.7, nu=np.array([0.0, 1.0]))
        deepest = deepest_level(0.8, grid257.h)
        assert len(oscillation_decay(u, np.array([0.0, 0.0]), 0.8, deepest,
                                     plane)) == deepest + 1
        with pytest.raises(UnderResolvedError):
            oscillation_decay(u, np.array([0.0, 0.0]), 0.8, deepest + 1,
                              plane)


class TestACFProduct:
    def test_one_phase_vanishes(self, grid65):
        u = two_plane_field(grid65, 0.0)
        series = acf(u, two_plane_levelset(grid65), (0, 0), [0.2, 0.4])
        assert np.allclose(series.values, 0.0, atol=1e-14)

    def test_two_phase_constant(self, grid65):
        # closed form: (alpha * beta * pi / 2)^2 = pi^2 / 2 for beta = 1
        u = two_plane_field(grid65, 1.0)
        phi = two_plane_levelset(grid65)
        series = acf(u, phi, (0, 0), [0.2, 0.3, 0.4, 0.5])
        exact = math.pi**2 / 2
        assert np.all(np.abs(series.values - exact) < 0.05 * exact)
        assert series.monotone
        assert isinstance(series, ACFSeries)

    def test_zero_field(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        series = acf(u, two_plane_levelset(grid65), (0, 0), [0.2, 0.4])
        assert np.allclose(series.values, 0.0, atol=1e-14)


def reference_positive_fraction(v):
    """Positive area of the unit square cut linearly between the corner
    values v (counter-clockwise from (0, 0))."""
    corners = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    poly = []
    for k in range(4):
        (xa, ya), (xb, yb) = corners[k], corners[(k + 1) % 4]
        va, vb = v[k], v[(k + 1) % 4]
        if va >= 0:
            poly.append((xa, ya))
        if (va >= 0) != (vb >= 0):
            t = va / (va - vb)
            poly.append((xa + t * (xb - xa), ya + t * (yb - ya)))
    area = sum(xa * yb - xb * ya for (xa, ya), (xb, yb)
               in zip(poly, poly[1:] + poly[:1]))
    return min(0.5 * abs(area), 1.0)


def reference_cell_terms(u, phi, i, j, cell, one_sided):
    """(grad_plus, grad_minus, area_plus, area_minus) of the cell (i, j)
    with covered area ``cell``: a cut cell splits by its linear-cut
    fraction, with corner-averaged one-sided gradients ``one_sided``."""
    h, v = u.grid.h, u.values
    corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
    f = reference_positive_fraction([phi.phi[b, a] for a, b in corners])
    if f in (0.0, 1.0):
        ux = (v[j, i + 1] + v[j + 1, i + 1] - v[j, i] - v[j + 1, i])
        uy = (v[j + 1, i] + v[j + 1, i + 1] - v[j, i] - v[j, i + 1])
        g2 = cell * (ux**2 + uy**2) / (2 * h)**2
        return np.array([g2 * f, g2 * (1 - f), cell * f, cell * (1 - f)])
    terms = np.array([0.0, 0.0, cell * f, cell * (1 - f)])
    for k, (side, frac) in enumerate(((1, f), (-1, 1 - f))):
        gx, gy, valid = one_sided[side]
        grads = [(gx[b, a], gy[b, a]) for a, b in corners if valid[b, a]]
        if grads:
            terms[k] = cell * frac * np.sum(np.mean(grads, 0)**2)
    return terms


def reference_one_sided(u, phi):
    return {side: one_sided_gradient(u, phi, side) for side in (1, -1)}


def reference_cell_quadrature(u, phi, center, r, sub=8):
    """Per-cell loop: cells with a corner in the ball, covered fraction by
    subcells, each cell's terms by :func:`reference_cell_terms`."""
    g, h = u.grid, u.grid.h
    one_sided = reference_one_sided(u, phi)
    terms = np.zeros(4)
    for j in range(g.ny - 1):
        for i in range(g.nx - 1):
            t = np.arange(sub + 1) / sub
            xs, ys = g.x0 + (i + t) * h, g.y0 + (j + t) * h
            s = r - np.hypot(xs[:, None] - center[0], ys[None, :] - center[1])
            if max(s[0, 0], s[-1, 0], s[-1, -1], s[0, -1]) <= 0:
                continue  # no corner in the ball
            w = np.mean([reference_positive_fraction(
                (s[a, b], s[a + 1, b], s[a + 1, b + 1], s[a, b + 1]))
                for a in range(sub) for b in range(sub)])
            terms += reference_cell_terms(u, phi, i, j, w * h * h, one_sided)
    return terms


def circle_case(grid):
    """A circle interface about (0.1, -0.05) of radius 0.35 and a field
    with different slopes on its two sides."""
    phi = LevelSet.from_function(
        grid, lambda x, y: np.hypot(x - 0.1, y + 0.05) - 0.35)
    u = ScalarField.from_function(
        grid, lambda x, y: np.where(phi.sample(x, y) > 0, 2.0, 0.7)
        * phi.sample(x, y) + 0.05 * np.sin(3 * x))
    return u, phi


class TestBallQuadrature:
    def test_matches_per_cell_reference(self):
        u, phi = circle_case(make_grid(33, 33, (-1, -1, 1, 1)))
        center, radii = (0.03, -0.02), [0.2, 0.37, 0.6]
        quad = ball_quadrature(u, phi, center, radii)
        for r, row in zip(radii, quad):
            np.testing.assert_allclose(
                row[[_GRAD_PLUS, _GRAD_MINUS, _AREA_PLUS, _AREA_MINUS]],
                reference_cell_quadrature(u, phi, center, r),
                rtol=1e-12, atol=0)
            assert row[_SHELL] == boundary_square_integral(u, center, r)

    def test_acf_columns_drop_the_centre_cell(self):
        # the centre (0.1, 0.3) lies on the circle, so its cell is cut and
        # its energies come from the one-sided gradients
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        u, phi = circle_case(grid)
        center, radii = (0.1, 0.3), [0.2, 0.37, 0.6]
        i, j = (int(k) for k in grid.cell_of(*center))
        corners = phi.phi[j:j + 2, i:i + 2]
        assert np.min(corners) < 0 < np.max(corners)
        centre = reference_cell_terms(u, phi, i, j, grid.h**2,
                                      reference_one_sided(u, phi))
        assert np.all(centre[:2] > 0)
        quad = ball_quadrature(u, phi, center, radii)
        np.testing.assert_allclose(
            quad[:, [_ACF_PLUS, _ACF_MINUS]],
            quad[:, [_GRAD_PLUS, _GRAD_MINUS]] - centre[:2],
            rtol=1e-12, atol=0)

    def test_one_gradient_per_side(self, monkeypatch):
        # the cut cells of every radius read one whole-grid gradient per
        # side; recomputing it per radius and side made six passes
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        phi = LevelSet.from_function(
            grid, lambda x, y: np.hypot(x - 0.1, y + 0.05) - 0.35)
        u = ScalarField.from_function(grid, lambda x, y: x + 0.5 * y**2)
        sides = []

        def counted(u, phi, side):
            sides.append(side)
            return one_sided_gradient(u, phi, side)

        monkeypatch.setattr(fblab.diagnostics, "one_sided_gradient", counted)
        radii = [0.2, 0.37, 0.6]
        quad = ball_quadrature(u, phi, (0.03, -0.02), radii)
        assert sorted(sides) == [-1, 1]

        # the monitors are arithmetic on the rows and read no field
        def reads_field(*args):
            raise AssertionError("a monitor integrated a field")

        for name in ("one_sided_gradient", "_cell_energy",
                     "boundary_square_integral"):
            monkeypatch.setattr(fblab.diagnostics, name, reads_field)
        acf_product(radii, quad)
        weiss_series(radii, 1.0, 0.0, quad)
        assert sorted(sides) == [-1, 1]


class TestBoundaryIntegral:
    def test_constant_field(self, grid65):
        u = ScalarField.constant(grid65, 2.0)
        val = boundary_square_integral(u, (0, 0), 0.5)
        assert val == pytest.approx(4.0 * 2 * math.pi * 0.5, rel=1e-10)
