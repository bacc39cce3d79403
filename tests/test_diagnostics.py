import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import fblab.diagnostics
from fblab.diagnostics import (
    _FIT_BETA_MAX,
    _FIT_NODES,
    _FIT_ROUNDS,
    ACFSeries,
    FlatnessTable,
    TwoPlane,
    WeissSeries,
    _best_offsets,
    _offset_lower_bound,
    _PolishObjective,
    _profile,
    _unit,
    acf_product,
    ball_quadrature,
    boundary_square_integral,
    deepest_level,
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
    make_grid,
    one_sided_gradient,
)
from fblab.problems import two_plane_values


def two_plane_fn(beta):
    alpha = math.sqrt(1 + beta**2)
    return lambda x, y: alpha * np.maximum(y, 0) - beta * np.maximum(-y, 0)


def flat_phi(grid):
    return LevelSet.from_function(grid, lambda x, y: y + 0 * x)


def weiss(u, phi, center, radii, alpha, beta):
    """Weiss series from the ball quadrature rows, as the CLI computes it."""
    return weiss_series(u, center, radii, alpha, beta,
                        ball_quadrature(u, phi, center, radii))


def acf(u, phi, center, radii):
    return acf_product(u, phi, center, radii,
                       ball_quadrature(u, phi, center, radii))


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
        u = ScalarField.from_function(grid65, two_plane_fn(0.0))
        E = weiss(u, flat_phi(grid65), (0, 0), [0.5], 1.0, 0.0).E_values[0]
        assert E == pytest.approx(math.pi / 4, rel=0.02)

    def test_two_phase_plane(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(1.0))
        E = weiss(u, flat_phi(grid65), (0, 0), [0.5], math.sqrt(2),
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
            ball_quadrature(u, flat_phi(grid65), (0.8, 0), [0.5])

    def test_weight_constraint(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        with pytest.raises(ValueError):
            weiss(u, flat_phi(grid65), (0, 0), [0.5], 1.0, 1.0)


class TestWeissPhi:
    def test_one_phase_constant(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(0.0))
        phi = flat_phi(grid65)
        for val in weiss(u, phi, (0, 0), [0.1, 0.3, 0.5], 1.0,
                         0.0).phi_values:
            assert val == pytest.approx(math.pi / 2, rel=0.02)

    def test_two_phase_constant(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(1.0))
        phi = flat_phi(grid65)
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
            u = ScalarField.from_function(grid, two_plane_fn(beta))
            val = weiss(u, flat_phi(grid), (0, 0), [0.5], alpha,
                        beta).phi_values[0]
            errs.append(abs(val - exact))
        assert errs[1] <= errs[0] / 1.8


class TestWeissSeries:
    def test_constant_series_monotone(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(1.0))
        ws = weiss(u, flat_phi(grid65), (0, 0), [0.1, 0.2, 0.3, 0.4],
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
        ws = weiss(u, flat_phi(grid65), (0, 0), [0.1, 0.2, 0.3, 0.4, 0.5],
                   1.0, 0.0)
        assert not ws.monotone
        assert ws.first_violation is not None
        assert ws.first_violation[0] < ws.first_violation[1]

    def test_radii_must_increase(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        with pytest.raises(ValueError):
            weiss(u, flat_phi(grid65), (0, 0), [0.3, 0.2], 1.0, 0.0)

    def test_parts_recomputable(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(1.0))
        ws = weiss(u, flat_phi(grid65), (0, 0), [0.2, 0.4], math.sqrt(2),
                   1.0)
        recomputed = ws.E_values / ws.radii**2 \
            - ws.boundary_terms / ws.radii**3
        assert np.max(np.abs(recomputed - ws.phi_values)) < 1e-12


class TestRescale:
    def test_homogeneous_field_fixed(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(1.0))
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
        phi = flat_phi(grid129)
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
    nodes, whose offsets :func:`_best_offsets` must reproduce."""
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


def check_offsets(t, uvals, betas, c_max):
    t, uvals, betas = (np.asarray(v, dtype=float) for v in (t, uvals, betas))
    res, cs = _best_offsets(t, uvals, betas, c_max)
    ref_res, ref_cs = reference_best_offsets(t, uvals, betas, c_max)
    assert np.all(np.abs(res - ref_res) <= 1e-12 * (1 + ref_res))
    # the bisection's steps are replayed: equal to the bit
    assert np.array_equal(res, ref_res) and np.array_equal(cs, ref_cs)
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
        u = ScalarField.from_function(grid65, two_plane_fn(0.5))
        with pytest.raises(UnderResolvedError, match="no grid node"):
            two_plane_fit(u, (0.999, 0.0), 0.001)

    def test_identity_recovery(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(0.7))
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
        # 12504 with the 48-step bisection
        assert len(calls) < 5000
        monkeypatch.setattr(fblab.diagnostics, "_profile", _profile)
        monkeypatch.setattr(fblab.diagnostics, "_best_offsets",
                            reference_best_offsets)
        ref_plane, ref_res = two_plane_fit(u, (0, 0), 0.8)
        assert res == pytest.approx(ref_res, abs=1e-12)
        assert plane.beta == pytest.approx(ref_plane.beta, abs=1e-9)
        assert plane.c == pytest.approx(ref_plane.c, abs=1e-9)
        assert np.allclose(plane.nu, ref_plane.nu, rtol=0, atol=1e-9)
        assert (res, plane.beta, plane.c) \
            == (ref_res, ref_plane.beta, ref_plane.c)


def profile_field(grid, degrees, beta, c=0.0, eps=0.0):
    """The profile along the unit normal at ``degrees`` from (0, 1), plus
    ``eps`` times a smooth perturbation."""
    nu = _unit(math.radians(degrees))
    xx, yy = grid.meshgrid()
    s = xx * nu[0] + yy * nu[1] + c
    return ScalarField(grid, _profile(s, math.sqrt(1 + beta**2), beta)
                       + eps * np.sin(5 * xx + 2.1))


def diagnose_field(grid):
    """Shaped like the diagnose benchmark's inputs."""
    return profile_field(grid, -12.0, 1.37, -0.013, 0.01)


def reference_two_plane_fit(u, center, r):
    """:func:`two_plane_fit` without pruning: every (angle, beta) of the
    grid goes to :func:`_best_offsets`, and the polish evaluates every node
    at every point."""
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

    def clamped(z):
        theta, beta, c = (float(v) for v in z)
        return (theta, min(max(beta, 0.0), _FIT_BETA_MAX),
                min(max(c, -c_max), c_max))

    def objective(z):
        theta, beta, c = clamped(z)
        return float(np.max(np.abs(_profile(
            points @ _unit(theta) + c, math.sqrt(1.0 + beta**2), beta)
            - uvals)))

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
    theta, beta, c = clamped(z)
    return TwoPlane(beta=beta, nu=_unit(theta), c=c), best_res


def fit_key(plane, res):
    return (res, plane.beta, plane.c, tuple(plane.nu))


class TestPrunedFit:
    """The pruned grid search and the certified polish skip only work that
    cannot change the fit: it equals the unpruned fit to the bit."""

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

    def test_work_pruned(self, grid257, monkeypatch):
        # unpruned: 112 grid-search calls of _best_offsets, one per angle,
        # and 862 objective evaluations on every node of the ball
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
        assert 0 < len(search_calls) <= 60
        assert 0 < len(node_evals) <= 200

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


def polish_case(data):
    """A random node set in the ball of radius r and a centre z_c, with
    the objective centred there."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 300))
    r = data.draw(st.floats(0.1, 1.0))
    radius = r * np.sqrt(rng.random(n))
    angle = rng.uniform(-np.pi, np.pi, n)
    points = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    theta = data.draw(st.floats(-4.0, 4.0))
    beta = data.draw(st.floats(0.0, _FIT_BETA_MAX))
    c = data.draw(st.floats(-r / 2, r / 2))
    eps = data.draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 1.0]))
    uvals = _profile(points @ _unit(theta) + c, math.sqrt(1 + beta**2),
                     beta) + eps * rng.standard_normal(n)
    objective = _PolishObjective(points, uvals, r, r / 2)
    objective((theta, beta, c))
    return objective


def nearby(data, z, scales=(0.0, 1e-12, 1e-6, 1e-2)):
    """A point near z: each parameter moved by a draw of one of ``scales``,
    then a few ulps either way."""
    out = []
    for v in z:
        scale = data.draw(st.sampled_from(scales))
        v = float(v) + scale * data.draw(st.floats(-1.0, 1.0))
        toward = data.draw(st.sampled_from([-np.inf, np.inf]))
        for _ in range(data.draw(st.integers(0, 4))):
            v = float(np.nextafter(v, toward))
        out.append(v)
    return tuple(out)


class TestPolishObjective:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_certificate_bounds_inactive_nodes(self, data):
        objective = polish_case(data)
        z = objective.clamped(nearby(data, objective.centre))
        outside = np.delete(objective.deviations(z), objective.active)
        assert np.max(np.abs(outside), initial=-np.inf) <= objective.bound(z)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_certificate_covers_rounding(self, data):
        # moves of a few ulps: rounding, not the Lipschitz terms, sets how
        # far an inactive node's deviation can rise
        objective = polish_case(data)
        z = objective.clamped(nearby(data, objective.centre, scales=(0.0,)))
        outside = np.delete(objective.deviations(z), objective.active)
        assert np.max(np.abs(outside), initial=-np.inf) <= objective.bound(z)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_value_is_full_max(self, data):
        objective = polish_case(data)
        z = objective.clamped(nearby(data, objective.centre))
        full = objective.deviations(z)
        assert np.array_equal(objective.deviations(z, objective.active),
                              full[objective.active])
        assert objective(z) == float(np.max(np.abs(full)))

    def test_single_active_node(self):
        # one node far off the profile: a one-row BLAS product would round
        # its t differently from the product over every node
        rng = np.random.default_rng(3)
        points = rng.uniform(-0.5, 0.5, (195, 2))
        z = (0.7, 1.5, 0.01)
        objective = _PolishObjective(points, np.zeros(195), 1.0, 0.5)
        uvals = objective.deviations(z) + 1e-9 * (np.arange(195) == 17)
        objective = _PolishObjective(points, uvals, 1.0, 0.5)
        objective(z)
        assert list(objective.active) == [17]
        for ulps in range(1, 6):
            moved = (z[0], z[1], z[2] + ulps * 2.0**-60)
            full = objective.deviations(moved)
            assert objective.deviations(moved, objective.active)[0] \
                == full[17]
            assert objective(moved) == float(np.max(np.abs(full)))

    def test_recentres_on_improvement(self):
        t = np.linspace(-0.5, 0.5, 101)
        points = np.column_stack([0 * t, t])
        uvals = _profile(t + 0.01, math.sqrt(2), 1.0)
        objective = _PolishObjective(points, uvals, 0.5, 0.25)
        assert objective((0.0, 1.0, 0.2)) > 0
        assert objective.centre == (0.0, 1.0, 0.2)
        assert objective((0.0, 1.0, 0.01)) == 0.0
        assert objective.centre == (0.0, 1.0, 0.01)
        assert len(objective.active) == len(t)
        # a worse point leaves the centre where it is
        objective((0.0, 1.0, 0.1))
        assert objective.centre == (0.0, 1.0, 0.01)


class TestFlatness:
    def test_flat_interface(self, grid65):
        table = flatness_table(flat_phi(grid65), (0, 0), [0.5])
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


class TestNondegeneracy:
    def test_one_phase_plane(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(0.0))
        assert nondegeneracy(u, flat_phi(grid65), 0.05) == pytest.approx(
            1.0, rel=0.05)

    def test_two_phase_plane(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(1.0))
        assert nondegeneracy(u, flat_phi(grid65), 0.05) == pytest.approx(
            math.sqrt(2), rel=0.05)

    def test_scales_exactly(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(0.0))
        half = ScalarField(grid65, 0.5 * u.values)
        c_full = nondegeneracy(u, flat_phi(grid65), 0.05)
        c_half = nondegeneracy(half, flat_phi(grid65), 0.05)
        assert c_half == pytest.approx(0.5 * c_full, rel=1e-12)

    def test_no_interface(self, grid65):
        u = ScalarField.constant(grid65, 1.0)
        phi = LevelSet(grid65, np.ones(grid65.shape))
        with pytest.raises(FblabError):
            nondegeneracy(u, phi, 0.05)


class TestOscillationDecay:
    def test_exact_plane_zero_offsets(self, grid257):
        u = ScalarField.from_function(grid257, two_plane_fn(0.7))
        plane, _ = two_plane_fit(u, np.array([0.0, 0.0]), 0.8)
        out = oscillation_decay(u, np.array([0.0, 0.0]), 0.8, 1, plane)
        for a, b in out:
            assert abs(a) < 1e-12 and abs(b) < 1e-12

    def test_planted_offset(self, grid257):
        u = ScalarField.from_function(
            grid257, lambda x, y: two_plane_fn(0.7)(x, y + 0.01))
        plane, _ = two_plane_fit(u, np.array([0.0, 0.0]), 0.8)
        out = oscillation_decay(u, np.array([0.0, 0.0]), 0.8, 1, plane)
        for a, b in out:
            assert a == pytest.approx(0.01, abs=1e-9)
            assert b == pytest.approx(0.01, abs=1e-9)

    def test_depth_precondition(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(0.0))
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
        u = ScalarField.from_function(grid257, two_plane_fn(0.7))
        plane = TwoPlane(beta=0.7, nu=np.array([0.0, 1.0]))
        deepest = deepest_level(0.8, grid257.h)
        assert len(oscillation_decay(u, np.array([0.0, 0.0]), 0.8, deepest,
                                     plane)) == deepest + 1
        with pytest.raises(UnderResolvedError):
            oscillation_decay(u, np.array([0.0, 0.0]), 0.8, deepest + 1,
                              plane)


class TestACFProduct:
    def test_one_phase_vanishes(self, grid65):
        u = ScalarField.from_function(grid65, two_plane_fn(0.0))
        series = acf(u, flat_phi(grid65), (0, 0), [0.2, 0.4])
        assert np.allclose(series.values, 0.0, atol=1e-14)

    def test_two_phase_constant(self, grid65):
        # closed form: (alpha * beta * pi / 2)^2 = pi^2 / 2 for beta = 1
        u = ScalarField.from_function(grid65, two_plane_fn(1.0))
        series = acf(u, flat_phi(grid65), (0, 0), [0.2, 0.3, 0.4, 0.5])
        exact = math.pi**2 / 2
        assert np.all(np.abs(series.values - exact) < 0.05 * exact)
        assert series.monotone
        assert isinstance(series, ACFSeries)

    def test_zero_field(self, grid65):
        u = ScalarField.constant(grid65, 0.0)
        series = acf(u, flat_phi(grid65), (0, 0), [0.2, 0.4])
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


def reference_cell_quadrature(u, phi, center, r, sub=8):
    """Per-cell loop: cells with a corner in the ball, covered fraction by
    subcells, cut cells split by their linear-cut fraction with
    corner-averaged one-sided gradients."""
    g, h, v = u.grid, u.grid.h, u.values
    one_sided = {side: one_sided_gradient(u, phi, side) for side in (1, -1)}
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
            cell = w * h * h
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            f = reference_positive_fraction([phi.phi[b, a] for a, b in corners])
            if f in (0.0, 1.0):
                ux = (v[j, i + 1] + v[j + 1, i + 1] - v[j, i] - v[j + 1, i])
                uy = (v[j + 1, i] + v[j + 1, i + 1] - v[j, i] - v[j, i + 1])
                g2 = cell * (ux**2 + uy**2) / (2 * h)**2
                terms += (g2 * f, g2 * (1 - f), cell * f, cell * (1 - f))
                continue
            for k, (side, frac) in enumerate(((1, f), (-1, 1 - f))):
                gx, gy, valid = one_sided[side]
                grads = [(gx[b, a], gy[b, a]) for a, b in corners
                         if valid[b, a]]
                if grads:
                    terms[k] += cell * frac * np.sum(np.mean(grads, 0)**2)
            terms[2:] += (cell * f, cell * (1 - f))
    return terms


class TestBallQuadrature:
    def test_matches_per_cell_reference(self):
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        phi = LevelSet.from_function(
            grid, lambda x, y: np.hypot(x - 0.1, y + 0.05) - 0.35)
        u = ScalarField.from_function(
            grid, lambda x, y: np.where(phi.sample(x, y) > 0, 2.0, 0.7)
            * phi.sample(x, y) + 0.05 * np.sin(3 * x))
        center, radii = (0.03, -0.02), [0.2, 0.37, 0.6]
        quad = ball_quadrature(u, phi, center, radii)
        for r, row in zip(radii, quad):
            np.testing.assert_allclose(
                row, reference_cell_quadrature(u, phi, center, r),
                rtol=1e-12, atol=0)


class TestBoundaryIntegral:
    def test_constant_field(self, grid65):
        u = ScalarField.constant(grid65, 2.0)
        val = boundary_square_integral(u, (0, 0), 0.5)
        assert val == pytest.approx(4.0 * 2 * math.pi * 0.5, rel=1e-10)
