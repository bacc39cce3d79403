"""Acceptance gate: one test per release criterion, each delegating to the
self-verification suite and re-asserting the stated tolerance directly."""

import math
import time

import numpy as np
import pytest

import fblab.fbiter
from fblab import verify
from fblab.cli import main
from fblab.diagnostics import flatness_ladder
from fblab.fields import LevelSet, all_interface_points, interface_extract
from fblab.prandtl import jump_threshold


@pytest.fixture(scope="module")
def ctx(pb_run, perturbed_run):
    return verify.SuiteContext(disk=pb_run, perturbed=perturbed_run)


class TestCriteria:
    def test_01_two_plane_stationarity(self, ctx):
        passed, detail = verify.criterion_two_plane_stationarity(ctx)
        assert passed, detail

    def test_02_weiss_closed_form(self, ctx):
        passed, detail = verify.criterion_weiss_closed_form(ctx)
        assert passed, detail

    def test_03_weiss_rescaling(self, ctx):
        passed, detail = verify.criterion_weiss_rescaling(ctx)
        assert passed, detail

    def test_04_weiss_monotonicity(self, ctx):
        passed, detail = verify.criterion_weiss_monotonicity(ctx)
        assert passed, detail

    def test_05_disk_roots(self, ctx):
        t0 = time.perf_counter()
        passed, detail = verify.criterion_disk_roots(ctx)
        seconds = time.perf_counter() - t0
        assert passed, detail
        # direct re-assertion of the closed-form oracle
        z0, rho_star, rho1, rho2 = verify.threshold_roots(1.0, 1.0, 0.0,
                                                          8.0)
        assert abs(z0 - math.e**2) <= 1e-9
        assert rho_star == pytest.approx(1.0 / math.e, abs=1e-6)
        for rho, approx in ((rho1, 0.270), (rho2, 0.472)):
            assert abs(jump_threshold(rho, 1.0, 1.0, 0.0) - 8.0) < 1e-10
            assert rho == pytest.approx(approx, abs=5e-3)
        assert seconds < 1.0

    def test_06_disk_fixed_point(self, ctx):
        passed, detail = verify.criterion_disk_fixed_point(ctx)
        assert passed, detail
        data = ctx.disk()
        pts = all_interface_points(interface_extract(data["phi"]))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert abs(radii.mean() - data["rho2"]) < 2 * data["grid"].h
        assert data["report"].converged

    def test_07_elliptic_convergence(self, ctx):
        t0 = time.perf_counter()
        passed, detail = verify.criterion_elliptic_convergence(ctx)
        seconds = time.perf_counter() - t0
        assert passed, detail
        assert seconds < 60.0

    def test_08_flatness_decay(self, ctx):
        passed, detail = verify.criterion_flatness_decay(ctx)
        assert passed, detail

    def test_08_flatness_decays_at_every_radius(self, ctx):
        # README: settled interfaces must flatten geometrically, so delta/r
        # falls at each halving of r, not only in the fitted mean ratio
        phi = ctx.perturbed()["phi"]
        pts = all_interface_points(interface_extract(phi))
        center = tuple(pts[np.argmin(np.abs(pts[:, 0]))])
        vals, _ = flatness_ladder(phi, center, [0.5, 0.25, 0.125])
        assert np.all(np.diff(vals) < 0), vals

    def test_09_nondegeneracy(self, ctx):
        passed, detail = verify.criterion_nondegeneracy(ctx)
        assert passed, detail

    def test_10_branch_ordering(self, ctx):
        passed, detail = verify.criterion_branch_ordering(ctx)
        assert passed, detail

    def test_11_negative_control(self, ctx, tmp_path, monkeypatch, capsys):
        passed, detail = verify.criterion_negative_control(ctx)
        assert passed, detail
        # end to end: with the jump measured with the wrong sign, `fblab
        # verify` must fail the stationarity criterion on its merits, not by
        # a crash, and exit 1 naming it.  The original measurement with the
        # phases swapped reads q_A(u-) - q_A(u+) - Q.
        jump = fblab.fbiter._jump_at_points

        def flipped(u_plus, u_minus, A, phi, Q, points):
            return jump(u_minus, u_plus, A, LevelSet(phi.grid, -phi.phi), Q,
                        points)

        monkeypatch.setattr(fblab.fbiter, "_jump_at_points", flipped)
        assert main(["verify", "--level", "quick",
                     "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert "two_plane_stationarity" in err
        row = next(line for line in out.splitlines()
                   if line.startswith("two_plane_stationarity "))
        _, status, _, _, detail = row.split(None, 4)
        assert status == "FAIL"
        assert not detail.startswith("raised"), detail

    def test_12_open_question_audits(self, ctx, tmp_path):
        passed, detail = verify.criterion_open_question_audits(ctx, str(tmp_path))
        assert passed, detail
        div = np.loadtxt(tmp_path / "jump_divergence_table.csv",
                         delimiter=",", skiprows=1)
        assert div.shape == (27, 5)
        # the expressions coincide exactly when the quadratic weight is one
        agree = div[np.isclose(div[:, 0], 1.0)]
        assert np.max(np.abs(agree[:, 4])) < 1e-12
        diverge = div[~np.isclose(div[:, 0], 1.0)]
        assert np.min(np.abs(diverge[:, 4])) > 0
        sweep = np.loadtxt(tmp_path / "large_vorticity_sweep.csv",
                           delimiter=",", skiprows=1)
        assert sweep.shape == (400, 6)
        assert np.all(np.isfinite(sweep[:, 3]))
