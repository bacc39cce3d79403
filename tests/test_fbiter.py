import ast
import inspect
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import fblab.fbiter
from fblab.elliptic import CoefficientField
from fblab.errors import (
    DegenerateInterfaceError,
    FieldError,
    PhaseCollapseError,
    UnderResolvedError,
)
from fblab.fbiter import (
    IterationOptions,
    IterationReport,
    PhaseProblem,
    _SMOOTH_L2,
    _anderson_mix,
    _coarsen,
    _jump_at_points,
    _ladder,
    _run_level,
    _smooth_along,
    extend_velocity,
    run,
    step,
)
from fblab.fields import (
    LevelSet,
    ScalarField,
    all_interface_points,
    interface_extract,
    make_grid,
    polyline_distance,
)
from fblab.problems import (
    pb_levelset,
    pb_problem,
    perturbed_plane_levelset,
    perturbed_plane_problem,
    two_plane_levelset,
    two_plane_problem,
)
from fblab.verify import (
    DISK_BOX,
    DISK_OPTIONS,
    DISK_PARAMS,
    PERTURBED_OPTIONS,
    disk_oracle_radius,
)


@pytest.fixture(scope="module")
def grid65():
    return make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def grid129():
    return make_grid(129, 129, (-1.0, -1.0, 1.0, 1.0))


class TestPhaseProblem:
    def test_rejects_nonpositive_jump_target(self, grid65):
        with pytest.raises(FieldError):
            replace(two_plane_problem(grid65, 1.0),
                    Q=ScalarField.constant(grid65, 0.0))

    def test_rejects_mismatched_grid(self, grid65):
        other = make_grid(33, 33, (-1.0, -1.0, 1.0, 1.0))
        with pytest.raises(FieldError):
            replace(two_plane_problem(grid65, 1.0),
                    f_plus=ScalarField.constant(other, 0.0))

    def test_rejects_nonfinite_data(self, grid65):
        bad = np.zeros(grid65.shape)
        bad[3, 3] = np.nan
        with pytest.raises(FieldError):
            replace(two_plane_problem(grid65, 1.0),
                    f_plus=ScalarField(grid65, bad))

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_mask_radius(self, grid65, radius):
        # unchecked, 0 or -1 pinned every node, so the run collapsed
        # before its first step, and NaN failed on a non-finite field
        with pytest.raises(FieldError, match="mask_radius"):
            replace(two_plane_problem(grid65, 1.0), mask_radius=radius)

    def test_pinned_mask_and_domain_radius(self, grid65):
        prob = two_plane_problem(grid65, 1.0)
        assert prob.pinned_mask() is None
        assert prob.domain_radius() == pytest.approx(1.0)
        prob_ball = replace(prob, mask_radius=0.75)
        mask = prob_ball.pinned_mask()
        assert mask[0, 0] and not mask[32, 32]
        assert prob_ball.domain_radius() == pytest.approx(0.75)


class TestIterationOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationOptions(tol_jump=-1.0)
        with pytest.raises(ValueError):
            IterationOptions(max_iters=0)
        with pytest.raises(ValueError):
            IterationOptions(tol_move=0.0)
        # a NaN tolerance is never met
        with pytest.raises(ValueError):
            IterationOptions(tol_jump=float("nan"))
        with pytest.raises(ValueError):
            IterationOptions(tol_move=float("nan"))

    def test_default_jump_tolerance_tracks_target(self, grid65):
        prob = two_plane_problem(grid65, 1.0, Q=4.0)
        assert IterationOptions().resolved_tol_jump(prob) \
            == pytest.approx(4e-3)
        assert IterationOptions(tol_jump=0.1).resolved_tol_jump(prob) \
            == pytest.approx(0.1)


class TestIterationReport:
    def test_rows_shape(self):
        rep = IterationReport(
            iterations=2,
            jump_history=np.array([1.0, 0.5]),
            displacement_history=np.array([0.1, 0.05]),
            area_plus_history=np.array([2.0, 2.1]),
            stop_reason="tolerances_met",
        )
        assert rep.rows() == [(1, 1.0, 0.1, 2.0), (2, 0.5, 0.05, 2.1)]

    def test_history_lengths_validated(self):
        with pytest.raises(ValueError):
            IterationReport(
                iterations=3,
                jump_history=np.array([1.0]),
                displacement_history=np.array([0.1]),
                area_plus_history=np.array([2.0]),
                stop_reason="budget_exhausted",
            )


class TestStationarity:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_two_plane_profiles_are_fixed_points(self, grid129, beta):
        prob = two_plane_problem(grid129, beta)
        phi0 = two_plane_levelset(grid129)
        u, phi, rep = run(prob, phi0, IterationOptions(
            max_iters=10, tol_jump=1e-12, tol_move=1e-12))
        h = grid129.h
        assert rep.jump_history[-1] <= 5 * h**2
        assert np.max(np.abs(phi.phi - phi0.phi)) < h / 10

    def test_offset_interface_is_also_stationary(self, grid129):
        # interface along a grid line away from the center
        c = 5 * grid129.h
        prob = two_plane_problem(grid129, 1.0, c=c)
        phi0 = two_plane_levelset(grid129, c=c)
        _, phi, rep = run(prob, phi0, IterationOptions(
            max_iters=5, tol_jump=1e-12, tol_move=1e-12))
        assert rep.jump_history[-1] <= 5 * grid129.h**2
        assert np.max(np.abs(phi.phi - phi0.phi)) < grid129.h / 10


class TestJumpMeasurement:
    def test_defect_reflects_target_mismatch(self, grid129):
        # the beta=0 profile has one-sided energies 1 and 0, so against a
        # target of 0.5 the defect is 0.5
        prob = two_plane_problem(grid129, 0.0, Q=0.5)
        phi0 = two_plane_levelset(grid129)
        _, _, defect, _ = step(prob, phi0)
        assert defect == pytest.approx(0.5, abs=5 * grid129.h**2)

    def test_positive_defect_expands_positive_phase(self, grid129):
        prob = two_plane_problem(grid129, 0.0, Q=0.5)
        phi0 = two_plane_levelset(grid129)
        _, phi_next, _, displacement = step(prob, phi0)
        assert displacement > 0
        assert np.all(phi_next.phi >= phi0.phi - 1e-12)
        assert np.count_nonzero(phi_next.phi > 0) \
            > np.count_nonzero(phi0.phi > 0)

    def test_composite_is_positive_zero_at_zero_nodes(self, grid129):
        # the row y = 0 and a stray zero node inside each phase: the phase
        # solves hold u = +0.0 there, whichever phase the composite reads
        prob = two_plane_problem(grid129, 1.0)
        phi0 = two_plane_levelset(grid129)
        phi0.phi[100, 40] = 0.0
        phi0.phi[30, 90] = 0.0
        zero = phi0.phi == 0
        assert np.count_nonzero(zero) == 131
        u, _, _, _ = step(prob, phi0)
        assert u.values[zero].tobytes() == np.zeros(131).tobytes()

    def test_interface_jump_exact_fields(self, grid129):
        # feed the exact one-phase solutions directly: u+ = sqrt(2) y,
        # u- = y sampled everywhere, jump 2 - 1 - 1 = 0
        A = CoefficientField.identity(grid129)
        phi = two_plane_levelset(grid129)
        alpha = np.sqrt(2.0)
        u_plus = ScalarField.from_function(grid129,
                                           lambda x, y: alpha * y)
        u_minus = ScalarField.from_function(grid129, lambda x, y: y)
        Q = ScalarField.constant(grid129, 1.0)
        points = all_interface_points(interface_extract(phi))
        J, _, _ = _jump_at_points(u_plus, u_minus, A, phi, Q, points)
        assert len(points) == len(J) > 0
        assert np.max(np.abs(J)) < 1e-10


class TestExtendVelocity:
    def test_band_carries_nearest_value(self, grid65):
        phi = two_plane_levelset(grid65)
        points = all_interface_points(interface_extract(phi))
        J = np.full(len(points), 2.0)
        ext = extend_velocity(points, J, phi)
        band = np.abs(phi.phi) <= 5 * grid65.h
        assert np.allclose(ext.values[band], 2.0)
        assert np.all(ext.values[~band] == 0.0)

    def test_varying_values_follow_abscissa(self, grid65):
        phi = two_plane_levelset(grid65)
        points = all_interface_points(interface_extract(phi))
        ext = extend_velocity(points, points[:, 0].copy(), phi)
        xx, yy = grid65.meshgrid()
        band = np.abs(phi.phi) <= 2 * grid65.h
        assert np.max(np.abs(ext.values[band] - xx[band])) <= grid65.h

    def test_empty_interface_raises(self, grid65):
        phi = two_plane_levelset(grid65)
        with pytest.raises(DegenerateInterfaceError):
            extend_velocity(np.empty((0, 2)), np.empty(0), phi)


def second_difference(m, closed):
    """Dense second difference over m vertices: periodic on a closed curve,
    reflecting (v[-1] = v[0], v[m] = v[m-1]) at the ends of an open one."""
    eye = np.eye(m)
    if closed:
        return np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2 * eye
    D = np.eye(m, k=1) + np.eye(m, k=-1) - 2 * eye
    D[0, 0] += 1
    D[-1, -1] += 1
    return D


class TestSmoothAlong:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 11, 64, 200])
    @pytest.mark.parametrize("closed", [True, False])
    def test_equals_dense_solve(self, m, closed):
        values = np.random.default_rng(m).normal(size=m)
        expected = np.linalg.solve(
            np.eye(m) - _SMOOTH_L2 * second_difference(m, closed), values)
        out = _smooth_along(values, closed)
        assert out.shape == (m,)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("closed", [True, False])
    def test_preserves_constant(self, closed):
        out = _smooth_along(np.full(50, 0.3), closed)
        np.testing.assert_allclose(out, 0.3, rtol=0, atol=1e-15)

    def test_commutes_with_roll_on_closed_curves(self):
        values = np.random.default_rng(1).normal(size=97)
        for shift in (1, 17, 60):
            np.testing.assert_allclose(
                _smooth_along(np.roll(values, shift), True),
                np.roll(_smooth_along(values, True), shift),
                rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_closed_cosine_mode_is_scaled(self, k):
        m = 97
        wave = np.cos(2 * np.pi * k * np.arange(m) / m + 0.4)
        transfer = 1 / (1 + _SMOOTH_L2 * (2 - 2 * np.cos(2 * np.pi * k / m)))
        np.testing.assert_allclose(_smooth_along(wave, True),
                                   transfer * wave, rtol=0, atol=1e-14)


def disk_modes_2_to_4_run(n):
    """Report of the disk problem on n^2 started at
    rho2 (1 + 0.02 (cos 2t + sin 3t + cos 4t))."""
    grid = make_grid(n, n, DISK_BOX)
    rho2 = disk_oracle_radius()

    def start(x, y):
        th = np.arctan2(y, x)
        modes = np.cos(2 * th) + np.sin(3 * th) + np.cos(4 * th)
        return np.hypot(x, y) - rho2 * (1 + 0.02 * modes)

    _, _, rep = run(pb_problem(grid, DISK_PARAMS),
                    LevelSet.from_function(grid, start), DISK_OPTIONS)
    return rep


class TestRun:
    def test_single_signed_level_set_rejected(self, grid65):
        prob = two_plane_problem(grid65, 1.0)
        phi0 = LevelSet(grid65, np.ones(grid65.shape))
        with pytest.raises(DegenerateInterfaceError):
            run(prob, phi0, IterationOptions())

    def test_report_invariants(self, pb_run):
        rep = pb_run["report"]
        assert rep.converged
        assert rep.iterations == len(rep.jump_history) \
            == len(rep.displacement_history) == len(rep.area_plus_history)
        assert np.all(rep.area_plus_history > 0)
        assert rep.jump_history[-1] < rep.jump_history[0]
        rows = rep.rows()
        assert rows[0][0] == 1 and rows[-1][0] == rep.iterations

    def test_disk_run_reaches_oracle_radius(self, pb_run):
        pts = all_interface_points(interface_extract(pb_run["phi"]))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        h = pb_run["grid"].h
        assert abs(radii.mean() - pb_run["rho2"]) < 2 * h
        # the settled interface is a circle: tiny radial spread
        assert radii.max() - radii.min() < h

    def test_final_flatness_attached(self, pb_run):
        flat = pb_run["report"].flatness
        assert flat is not None
        assert np.all(np.asarray(flat.deltas) >= 0)

    def test_final_flatness_propagates_defects(self, grid65, monkeypatch):
        # only typed toolkit errors mean "no table"; any other exception is
        # a defect and must surface
        def broken(*args, **kwargs):
            raise RuntimeError("defect in flatness_table")

        monkeypatch.setattr(fblab.fbiter, "flatness_table", broken)
        with pytest.raises(RuntimeError, match="defect"):
            fblab.fbiter._final_flatness(two_plane_problem(grid65, 0.5),
                                         two_plane_levelset(grid65))

    def test_final_flatness_propagates_value_errors(self, grid65,
                                                    monkeypatch):
        # a failed consistency check, FlatnessTable's say, is a defect too
        def inconsistent(*args, **kwargs):
            raise ValueError("slab half-widths must lie in [0, r]")

        monkeypatch.setattr(fblab.fbiter, "flatness_table", inconsistent)
        with pytest.raises(ValueError, match="half-widths"):
            fblab.fbiter._final_flatness(two_plane_problem(grid65, 0.5),
                                         two_plane_levelset(grid65))

    def test_disk_start_with_modes_2_to_4_converges(self):
        # a twelfth-of-the-curve smoothing window kept these modes alive
        # and stalled this run at defect 0.295 after 80 iterations
        assert disk_modes_2_to_4_run(193).stop_reason == "tolerances_met"

    def test_coarse_disk_start_with_modes_2_to_4_converges(self):
        # eight passes of an 11-vertex box filter spent all 80 iterations
        # here, best defect 0.186
        assert disk_modes_2_to_4_run(97).stop_reason == "tolerances_met"

    def test_unshifted_start_for_phase_shifted_data_converges(self,
                                                              grid129):
        # the box filter spent all 60 iterations here, best defect 0.047
        _, _, rep = run(perturbed_plane_problem(grid129, phase=1.3),
                        perturbed_plane_levelset(grid129), PERTURBED_OPTIONS)
        assert rep.stop_reason == "tolerances_met"

    def test_stray_zero_node_is_not_measured(self, grid129):
        # a zero node inside the positive phase is a one-point loop of
        # interface_extract; measuring across it raised PhaseCollapseError
        phi0 = perturbed_plane_levelset(grid129)
        phi0.phi[100, 40] = 0.0
        polylines = interface_extract(phi0)
        assert np.all(polylines[-1].points == (-0.375, 0.5625))
        _, _, rep = run(perturbed_plane_problem(grid129), phi0,
                        PERTURBED_OPTIONS)
        assert rep.stop_reason == "tolerances_met"

    def test_perturbed_plane_settles(self, perturbed_run):
        rep = perturbed_run["report"]
        assert rep.converged
        pts = all_interface_points(interface_extract(perturbed_run["phi"]))
        # the settled interface stays within the data's oscillation band
        assert np.max(np.abs(pts[:, 1])) < 0.1


class TestStopReason:
    def test_tolerances_met(self, grid65):
        _, _, rep = run(two_plane_problem(grid65, 1.0),
                        two_plane_levelset(grid65), IterationOptions())
        assert rep.stop_reason == "tolerances_met" and rep.converged

    def test_budget_exhausted(self, grid65):
        _, _, rep = run(two_plane_problem(grid65, 0.0, Q=0.5),
                        two_plane_levelset(grid65),
                        IterationOptions(max_iters=1))
        assert rep.stop_reason == "budget_exhausted" and not rep.converged
        assert rep.iterations == 1
        assert rep.notes[-1].startswith("returned best iterate")

    def test_phase_collapse(self, grid65, monkeypatch):
        # the coarse levels run first; the collapse hits the finest one
        calls = []

        def collapsing(problem, phi):
            if problem.A.grid == grid65:
                calls.append(1)
                if len(calls) == 2:
                    raise PhaseCollapseError("a phase has no interior nodes")
            return step(problem, phi)

        monkeypatch.setattr(fblab.fbiter, "step", collapsing)
        _, _, rep = run(two_plane_problem(grid65, 0.0, Q=0.5),
                        two_plane_levelset(grid65), IterationOptions())
        assert rep.stop_reason == "phase_collapse" and not rep.converged
        assert rep.iterations == 1
        assert rep.notes[0].startswith("aborted at iteration 2")

    def test_empty_phase_named(self, grid65):
        # the minus phase holds only box-border nodes: nothing to solve
        phi = LevelSet.from_function(grid65, lambda x, y: y + 0.999 + 0 * x)
        problem = two_plane_problem(grid65, 0.5)
        with pytest.raises(UnderResolvedError, match="minus phase"):
            step(problem, phi)
        with pytest.raises(PhaseCollapseError, match="minus phase"):
            run(problem, phi, IterationOptions())

    def test_no_step_aborts_before_final_work(self, grid65, monkeypatch):
        # with no completed step there is nothing to report: run raises
        # before it measures the start level set's flatness
        def collapsing(problem, phi):
            raise PhaseCollapseError("a phase has no interior nodes")

        def unexpected(problem, phi):
            raise AssertionError("final flatness of an aborted run")

        monkeypatch.setattr(fblab.fbiter, "step", collapsing)
        monkeypatch.setattr(fblab.fbiter, "_final_flatness", unexpected)
        with pytest.raises(PhaseCollapseError, match="aborted at iteration 1"):
            run(two_plane_problem(grid65, 0.5), two_plane_levelset(grid65),
                IterationOptions())

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            IterationReport(iterations=0, jump_history=np.array([]),
                            displacement_history=np.array([]),
                            area_plus_history=np.array([]),
                            stop_reason="converged")


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestNestedIteration:
    def test_coarsening_injects_every_field(self):
        grid = make_grid(65, 49, (-2.0, -1.5, 2.0, 1.5))
        rng = np.random.default_rng(5)

        def noise():
            return rng.uniform(0.5, 1.5, grid.shape)

        A = CoefficientField(grid, 2 + noise(), 0.2 * noise(), 2 + noise())
        prob = PhaseProblem(
            A=A, f_plus=ScalarField(grid, noise()),
            f_minus=ScalarField(grid, noise()), Q=ScalarField(grid, noise()),
            outer_data=ScalarField(grid, noise()), mask_radius=1.2)
        phi0 = LevelSet(grid, noise() - 1)
        coarse, start = _coarsen(prob, phi0)
        cgrid = coarse.A.grid
        assert (cgrid.nx, cgrid.ny) == (33, 25)
        assert cgrid.h == 2 * grid.h
        assert same_bytes(cgrid.xs, grid.xs[::2])
        assert same_bytes(cgrid.ys, grid.ys[::2])
        for name in ("a11", "a12", "a22"):
            assert same_bytes(getattr(coarse.A, name),
                              getattr(A, name)[::2, ::2])
        for name in ("f_plus", "f_minus", "Q", "outer_data"):
            assert getattr(coarse, name).grid == cgrid
            assert same_bytes(getattr(coarse, name).values,
                              getattr(prob, name).values[::2, ::2])
        assert start.grid == cgrid
        assert same_bytes(start.phi, phi0.phi[::2, ::2])
        assert coarse.mask_radius == 1.2
        assert np.array_equal(coarse.pinned_mask(),
                              prob.pinned_mask()[::2, ::2])

    @pytest.mark.parametrize("shape, box, ladder", [
        ((129, 129), (-1.0, -1.0, 1.0, 1.0), [(33, 33), (65, 65),
                                              (129, 129)]),
        ((193, 193), DISK_BOX, [(49, 49), (97, 97), (193, 193)]),
        ((65, 65), (-1.0, -1.0, 1.0, 1.0), [(33, 33), (65, 65)]),
        ((129, 65), (-2.0, -1.0, 2.0, 1.0), [(65, 33), (129, 65)]),
        ((130, 130), (-1.0, -1.0, 1.0, 1.0), [(130, 130)]),
        ((33, 33), (-1.0, -1.0, 1.0, 1.0), [(33, 33)]),
    ], ids=["129", "193", "65", "129x65", "130", "33"])
    def test_level_ladder(self, shape, box, ladder):
        grid = make_grid(*shape, box)
        levels = _ladder(two_plane_problem(grid, 1.0),
                         two_plane_levelset(grid))
        assert [(p.A.grid.nx, p.A.grid.ny) for p, _ in levels] == ladder
        assert all(p.A.grid == phi.grid for p, phi in levels)
        assert levels[-1][0].A.grid == grid

    @pytest.mark.parametrize("failure", ["collapse", "budget"])
    def test_failed_coarse_levels_leave_the_fine_run_alone(
            self, monkeypatch, grid65, failure):
        # every coarse level fails, so the finest starts from phi0 and the
        # result is that of the one-grid loop, bit for bit
        prob = perturbed_plane_problem(grid65)
        phi0 = perturbed_plane_levelset(grid65)
        expected_u, expected_phi, expected = _run_level(prob, phi0,
                                                        PERTURBED_OPTIONS)
        real = fblab.fbiter._run_level

        def failing(problem, start, opts, coarse=False):
            if problem.A.grid == prob.A.grid:
                return real(problem, start, opts, coarse)
            if failure == "collapse":
                raise PhaseCollapseError("forced coarse failure")
            u, phi, rep = real(problem, start, opts, coarse)
            rep.stop_reason = "budget_exhausted"
            return u, phi, rep

        monkeypatch.setattr(fblab.fbiter, "_run_level", failing)
        u, phi, rep = run(prob, phi0, PERTURBED_OPTIONS)
        assert same_bytes(u.values, expected_u.values)
        assert same_bytes(phi.phi, expected_phi.phi)
        for name in ("jump_history", "displacement_history",
                     "area_plus_history"):
            assert same_bytes(getattr(rep, name), getattr(expected, name))
        assert rep.stop_reason == expected.stop_reason == "tolerances_met"
        coarse_reason = ("phase_collapse" if failure == "collapse"
                         else "budget_exhausted")
        assert [lv["stop_reason"] for lv in rep.levels] \
            == [coarse_reason, "tolerances_met"]
        assert rep.levels[-1]["iterations"] == rep.iterations

    def test_stalled_coarse_level_ends_early(self, monkeypatch):
        # the disk of test_cli's DISK_INI from a circle of radius 0.56: the
        # 33^2 defect stops falling above tol_jump, so that level ends at
        # its second reinitialization and the finest result is the one of
        # a run whose 33^2 level spends its whole budget, bit for bit
        grid = make_grid(129, 129, DISK_BOX)
        prob = pb_problem(grid, DISK_PARAMS)
        phi0 = pb_levelset(grid, 0.56)
        opts = replace(DISK_OPTIONS, max_iters=60)
        u, phi, rep = run(prob, phi0, opts)
        assert [lv["stop_reason"] for lv in rep.levels] \
            == ["stalled", "tolerances_met", "tolerances_met"]
        assert rep.levels[0]["iterations"] <= 10

        real = fblab.fbiter._run_level
        monkeypatch.setattr(fblab.fbiter, "_run_level",
                            lambda problem, start, opts, coarse=False:
                            real(problem, start, opts))
        full_u, full_phi, full = run(prob, phi0, opts)
        assert full.levels[0] == {"nx": 33, "ny": 33, "iterations": 60,
                                  "stop_reason": "budget_exhausted"}
        assert full.levels[1:] == rep.levels[1:]
        assert same_bytes(u.values, full_u.values)
        assert same_bytes(phi.phi, full_phi.phi)
        for name in ("jump_history", "displacement_history",
                     "area_plus_history"):
            assert same_bytes(getattr(rep, name), getattr(full, name))

    def test_single_signed_lift_is_not_used(self, monkeypatch, grid65):
        # a lift with no sign change cannot start a level: the finest grid
        # then starts from its own phi0, as after a failed coarse level
        prob = perturbed_plane_problem(grid65)
        phi0 = perturbed_plane_levelset(grid65)
        expected_u, _, _ = _run_level(prob, phi0, PERTURBED_OPTIONS)
        monkeypatch.setattr(fblab.fbiter, "_lift", lambda phi, grid:
                            LevelSet(grid, np.ones(grid.shape)))
        u, _, rep = run(prob, phi0, PERTURBED_OPTIONS)
        assert rep.levels[0]["stop_reason"] == "tolerances_met"
        assert same_bytes(u.values, expected_u.values)

    def test_fine_perturbed_plane_only_polishes(self):
        # on the 257^2 grid alone the loop takes 15 steps, most of them
        # capped at half a cell; the coarse levels do that travel, and the
        # finest takes at most 3
        grid = make_grid(257, 257, (-1.0, -1.0, 1.0, 1.0))
        _, _, rep = run(perturbed_plane_problem(grid),
                        perturbed_plane_levelset(grid), PERTURBED_OPTIONS)
        assert rep.stop_reason == "tolerances_met"
        assert [lv["nx"] for lv in rep.levels] == [33, 65, 129, 257]
        assert all(lv["stop_reason"] == "tolerances_met"
                   for lv in rep.levels)
        assert rep.iterations == rep.levels[-1]["iterations"] <= 3

    @pytest.mark.parametrize("case, bound", [
        ("perturbed", 0.1), ("phase_1.3_unshifted", 0.15), ("disk", 0.1)],
        ids=["perturbed", "phase_1.3_unshifted", "disk"])
    def test_nested_and_one_grid_runs_agree(self, grid129, case, bound):
        # README: convergence is decided on the finest grid alone, so the
        # nested interface lies on the one-grid one to a fraction of a
        # cell (measured 0.062h, 0.094h and 0.024h).  The disk needs a
        # tolerance under verify's 0.12: there the nested run stops at the
        # edge of its band, 0.556h off
        if case == "disk":
            grid = make_grid(193, 193, DISK_BOX)
            prob = pb_problem(grid, DISK_PARAMS)
            phi0 = pb_levelset(grid, 1.1 * disk_oracle_radius())
            opts = replace(DISK_OPTIONS, tol_jump=0.03, max_iters=200)
        else:
            grid = grid129
            prob = perturbed_plane_problem(
                grid, phase=1.3 if case == "phase_1.3_unshifted" else 0.0)
            phi0 = perturbed_plane_levelset(grid)
            opts = replace(PERTURBED_OPTIONS, max_iters=200)
        _, nested, rep = run(prob, phi0, opts)
        _, one_grid, one_rep = _run_level(prob, phi0, opts)
        assert rep.stop_reason == one_rep.stop_reason == "tolerances_met"
        pts = all_interface_points(interface_extract(nested))
        dist = polyline_distance(pts, interface_extract(one_grid))
        assert np.max(dist) <= bound * grid.h


def reference_anderson_mix(phi, g, memory):
    """The mix as it was over sparse columns: dF and dG as CSC arrays
    grown by hstack, and dG gamma as a sparse matrix-vector product."""
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


class TestAndersonMix:
    def test_matches_sparse_reference_bit_for_bit(self, grid65):
        # updates confined to a band around the zero set, as the velocity
        # extension makes them, and one step that moves nothing
        phi = two_plane_levelset(grid65, nu=(0.6, 0.8), c=0.1).phi
        xx, yy = grid65.meshgrid()
        band = np.abs(phi) < 6 * grid65.h
        mem_new = mem_ref = None
        for k in range(8):
            update = 0.4 * grid65.h * np.sin((k + 2) * xx + 3 * yy) \
                * np.cos(k * yy) * band
            g = phi + (0.0 if k == 4 else update)
            mixed, mem_new = _anderson_mix(phi, g, mem_new)
            expected, mem_ref = reference_anderson_mix(phi, g, mem_ref)
            assert mixed.tobytes() == expected.tobytes()
            # the mix moves every step but the first and the still one
            assert np.array_equal(mixed, g) == (k in (0, 4))
            phi = mixed

    def test_no_sparse_import(self):
        tree = ast.parse(inspect.getsource(fblab.fbiter))
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert not [m for m in imported if m.startswith("scipy.sparse")]

    def test_affine_contraction_exact_in_dim_plus_one_steps(self):
        # on an affine map the type-II mix is GMRES-like: with dim + 1
        # iterates in memory the residuals cancel exactly
        rng = np.random.default_rng(7)
        dim = 4
        Qm, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        M = Qm @ np.diag([0.95, 0.9, -0.85, 0.6]) @ Qm.T \
            + 0.05 * rng.standard_normal((dim, dim))
        b = rng.standard_normal(dim)
        x_star = np.linalg.solve(np.eye(dim) - M, b)

        x, memory = np.zeros(dim), None
        errors = []
        for _ in range(dim + 1):
            x, memory = _anderson_mix(x, M @ x + b, memory)
            errors.append(np.max(np.abs(x - x_star)))
        assert min(errors) < 1e-10

        x = np.zeros(dim)
        for _ in range(dim + 1):
            x = M @ x + b
        assert np.max(np.abs(x - x_star)) > 1e-3

    def test_zero_residual_history_leaves_phi_unchanged(self, grid65):
        phi = two_plane_levelset(grid65).phi
        phi = phi + 0.01 * np.sin(7 * phi)
        memory = None
        for _ in range(4):
            nxt, memory = _anderson_mix(phi, phi.copy(), memory)
            assert nxt.tobytes() == phi.tobytes()

    def test_mix_is_not_clipped(self, grid65):
        # the type-II mix G - dG gamma, with gamma the least-squares fit
        # dF gamma ~ f over dense columns, even where it moves a node by
        # many half cells
        rng = np.random.default_rng(3)
        x, memory = np.zeros(50), None
        fs, gs = [], []
        for _ in range(4):
            g = x + rng.standard_normal(50)
            fs.append(g - x)
            gs.append(g)
            expected = g
            if len(fs) > 1:
                dF = np.diff(fs, axis=0).T
                dG = np.diff(gs, axis=0).T
                gamma = np.linalg.lstsq(dF, fs[-1], rcond=1e-10)[0]
                expected = g - dG @ gamma
            nxt, memory = _anderson_mix(x, g, memory)
            np.testing.assert_allclose(nxt, expected, rtol=0, atol=1e-12)
            assert np.max(np.abs(nxt - x)) > 4 * grid65.h
            x = nxt

    def test_asymmetric_perturbed_start_converges(self):
        # phase-shifted data: the unmixed defect flow stalls above 0.15
        grid = make_grid(97, 97, (-1.0, -1.0, 1.0, 1.0))
        _, _, rep = run(perturbed_plane_problem(grid, phase=1.3),
                        perturbed_plane_levelset(grid, phase=1.3),
                        PERTURBED_OPTIONS)
        assert rep.converged


class TestBrokenJumpSign:
    def test_flipped_sign_breaks_stationarity(self, grid129):
        # the negated level set swaps the phases, so the measurement reads
        # q(u-) - q(u+) - Q = -(alpha^2 - beta^2) - Q = -2
        prob = two_plane_problem(grid129, 1.0)
        phi0 = two_plane_levelset(grid129)
        _, _, defect, _ = step(prob, LevelSet(grid129, -phi0.phi))
        assert defect == pytest.approx(2.0, abs=0.05)

    def test_unset_environment_is_clean(self, grid129):
        prob = two_plane_problem(grid129, 1.0)
        phi0 = two_plane_levelset(grid129)
        _, _, defect, _ = step(prob, phi0)
        assert defect <= 5 * grid129.h**2

    def test_step_ignores_harness_flag(self, grid129, monkeypatch):
        # no module reads the flag: faults are injected as input data
        monkeypatch.setenv("FBLAB_BREAK_JUMP_SIGN", "1")
        prob = two_plane_problem(grid129, 1.0)
        phi0 = two_plane_levelset(grid129)
        _, _, defect, _ = step(prob, phi0)
        assert defect <= 5 * grid129.h**2
