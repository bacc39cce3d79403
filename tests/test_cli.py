import fcntl
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fblab
import fblab.cli
import fblab.diagnostics
from fblab.cli import main
from fblab.errors import SolverError, UnderResolvedError
from fblab.fields import (
    LevelSet,
    ScalarField,
    make_grid,
    read_field,
    read_levelset,
    write_field,
    write_table,
)
from fblab.prandtl import jump_threshold_min

TWO_PLANE_INI = """
[meta]
schema_version = 1

[grid]
nx = 65
ny = 65
box = -1.0, -1.0, 1.0, 1.0

[problem]
coefficients = identity
f_plus = constant 0
f_minus = constant 0
jump_target = constant 1
outer = two_plane 0.5 0 0

[init]
interface = flat 0 0

[iteration]
max_iters = 10
tol_jump = 1e-10
tol_move = 1e-6
"""

DISK_INI = """
[meta]
schema_version = 1

[grid]
nx = 129
ny = 129
box = -1.1, -1.1, 1.1, 1.1

[problem]
coefficients = identity
f_plus = constant 0
f_minus = constant 1
jump_target = constant 8
outer = constant 1
mask_radius = 1.0

[init]
interface = circle 0.53

[iteration]
max_iters = 60
tol_jump = 0.12
tol_move = 0.5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def bad_outer_config(tmp_path, content):
    """A config whose ``outer`` field file holds ``content``."""
    (tmp_path / "outer.csv").write_text(content)
    return write(tmp_path, "run.ini", TWO_PLANE_INI.replace(
        "outer = two_plane 0.5 0 0", "outer = file outer.csv"))


class TestSolve:
    def test_stationary_profile_exits_zero(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["stop_reason"] == "tolerances_met"
        assert summary["schema_version"] == 1
        assert summary["final_jump"] < 1e-10
        for name in ("u.csv", "phi.csv", "interface.csv", "iterations.csv"):
            assert (tmp_path / "out" / name).is_file()
        u = read_field(str(tmp_path / "out" / "u.csv"))
        assert u.grid.nx == 65
        header = (tmp_path / "out" / "iterations.csv").read_text()
        assert header.startswith("iter,jump_linf,displacement,area_plus")

    def test_disk_run_recovers_oracle_radius(self, tmp_path):
        from fblab.prandtl import PBParams, interface_radii, profile_jump

        cfg = write(tmp_path, "disk.ini", DISK_INI)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        phi = read_levelset(str(tmp_path / "out" / "phi.csv"))
        from fblab.fields import all_interface_points, interface_extract
        pts = all_interface_points(interface_extract(phi))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        _, rho2 = interface_radii(
            PBParams(mu=1.0, omega=1.0, sigma=8.0, h=1.0),
            jump_fn=profile_jump)
        assert abs(radii.mean() - rho2) < 2 * phi.grid.h

    def test_nonconvergence_exits_two_with_artifacts(self, tmp_path):
        # wrong jump target: the profile is not stationary and two sweeps
        # cannot reach the tight tolerance
        text = TWO_PLANE_INI.replace("jump_target = constant 1",
                                     "jump_target = constant 2")
        text = text.replace("max_iters = 10", "max_iters = 2")
        cfg = write(tmp_path, "run.ini", text)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is False
        assert summary["stop_reason"] == "budget_exhausted"
        assert (tmp_path / "out" / "u.csv").is_file()

    def test_invalid_config_exits_three(self, tmp_path):
        cfg = write(tmp_path, "run.ini",
                    TWO_PLANE_INI.replace("nx = 65", "nx = 4"))
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("old, new, named", [
        ("coefficients = identity", "coefficents = constant 2 0 1",
         "unknown key 'coefficents' in [problem]"),
        ("jump_target = constant 1", "jump_targt = constant 3",
         "unknown key 'jump_targt' in [problem]"),
        ("[iteration]", "[iterations]", "unknown section [iterations]"),
    ], ids=["coefficents", "jump_targt", "iterations"])
    def test_misspelling_exits_three(self, tmp_path, capsys, old, new,
                                     named):
        # a misspelled key or section must not fall back to the default
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI.replace(old, new))
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("content", [
        "x,y,value\nabc\n",     # not a number
        "x,y,value\n0,0,1\n",   # one row: not a grid
    ], ids=["garbage", "one_row"])
    def test_unreadable_field_file_exits_three(self, tmp_path, capsys,
                                               content):
        cfg = bad_outer_config(tmp_path, content)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: outer: ") and "outer.csv" in err

    def test_toolkit_error_exits_three(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise SolverError("residual 1e-3 above contract")

        monkeypatch.setattr(fblab.cli, "fbiter_run", failing)
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err \
            == "error: residual 1e-3 above contract\n"

    def test_defect_propagates(self, tmp_path, monkeypatch):
        # only toolkit errors become exit codes; a defect keeps its traceback
        def broken(*args, **kwargs):
            raise ZeroDivisionError("defect")

        monkeypatch.setattr(fblab.cli, "fbiter_run", broken)
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        with pytest.raises(ZeroDivisionError):
            main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_entry_point_reports_error_without_traceback(self, tmp_path):
        cfg = bad_outer_config(tmp_path, "x,y,value\nabc\n")
        src = os.path.dirname(os.path.dirname(fblab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "fblab", "solve", "--config", cfg,
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_phase_collapse_exits_four(self, tmp_path):
        # the negative phase starts as the one node at the origin, too
        # small for its one-sided interface gradients
        text = TWO_PLANE_INI.replace("interface = flat 0 0",
                                     "interface = circle 0.005")
        cfg = write(tmp_path, "run.ini", text)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 4

    def test_locked_output_refused(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        out = tmp_path / "out"
        out.mkdir()
        with open(out / ".fblab.lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert not (out / "u.csv").exists()

    def test_stale_lockfile_ignored(self, tmp_path):
        # a killed run leaves the file behind, but nobody holds the lock
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".fblab.lock").write_text("12345")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "u.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        for name in ("a", "b"):
            assert main(["solve", "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
        for fname in ("u.csv", "phi.csv", "interface.csv",
                      "iterations.csv", "summary.json"):
            assert (tmp_path / "a" / fname).read_bytes() \
                == (tmp_path / "b" / fname).read_bytes()
        timings = json.loads((tmp_path / "a" / "timings.json").read_text())
        assert timings["seconds"] >= 0


def test_timings_survive_wall_clock_step_back(tmp_path, monkeypatch):
    # the wall clock steps back by an hour just after each command starts
    # (an NTP correction, say): seconds taken from it would be negative
    wall = time.time
    calls = []

    def stepped():
        calls.append(None)
        return wall() - (3600.0 if len(calls) > 1 else 0.0)

    monkeypatch.setattr(fblab.cli.time, "time", stepped)
    cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2, 0.4
levels = 0
""")
    out = tmp_path / "solve-out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    calls.clear()
    assert main(["diagnose", "--u", str(out / "u.csv"),
                 "--phi", str(out / "phi.csv"), "--config", cfg,
                 "--out", str(tmp_path / "diag-out")]) == 0
    for run in ("solve-out", "diag-out"):
        timings = json.loads((tmp_path / run / "timings.json").read_text())
        assert timings["seconds"] >= 0

class TestDiagnose:
    def test_two_plane_fields(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.1, 0.2, 0.3, 0.4, 0.5
levels = 0
""")
        out = str(tmp_path / "solve-out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        diag_out = str(tmp_path / "diag-out")
        assert main(["diagnose", "--u", out + "/u.csv",
                     "--phi", out + "/phi.csv", "--config", cfg,
                     "--out", diag_out]) == 0
        rows = np.loadtxt(diag_out + "/diagnostics.csv", delimiter=",",
                          skiprows=1)
        # normalized energy column is constant (1 + 2 beta^2) pi / 2
        target = 1.5 * math.pi / 2
        assert np.all(np.abs(rows[:, 3] - target) < 0.02 * target)
        summary = json.loads(
            (tmp_path / "diag-out" / "summary.json").read_text())
        assert summary["weiss_monotone"] is True
        assert summary["two_plane_fit"]["beta"] == pytest.approx(0.5,
                                                                 abs=1e-6)

    def test_deterministic_outputs(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2, 0.4
levels = 0
""")
        out = str(tmp_path / "solve-out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        for name in ("a", "b"):
            assert main(["diagnose", "--u", out + "/u.csv",
                         "--phi", out + "/phi.csv", "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
        for fname in ("summary.json", "diagnostics.csv"):
            assert (tmp_path / "a" / fname).read_bytes() \
                == (tmp_path / "b" / fname).read_bytes()
        assert (tmp_path / "a" / "timings.json").is_file()

    def test_fits_two_plane_once(self, tmp_path, monkeypatch):
        # 201^2 nodes resolve the trapping ladder r0/20 >= 4h, so
        # oscillation_decay runs in full
        grid = make_grid(201, 201, (-1.0, -1.0, 1.0, 1.0))
        write_field(ScalarField.from_function(
            grid, lambda x, y: math.sqrt(1.25) * np.maximum(y, 0)
            + 0.5 * np.minimum(y, 0)), str(tmp_path / "u.csv"))
        write_field(LevelSet.from_function(grid, lambda x, y: y + 0 * x),
                    str(tmp_path / "phi.csv"))
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI.replace(
            "nx = 65\nny = 65", "nx = 201\nny = 201") + """
[diagnostics]
center = 0.0, 0.0
radii = 0.45, 0.9
levels = 1
""")
        calls = []
        fit = fblab.diagnostics.two_plane_fit

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(fblab.cli, "two_plane_fit", counted)
        monkeypatch.setattr(fblab.diagnostics, "two_plane_fit", counted)
        assert main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 0
        assert len(calls) == 1
        summary = json.loads((tmp_path / "d" / "summary.json").read_text())
        assert len(summary["trapping_offsets"]) == 2

    def _trapping_run(self, tmp_path, monkeypatch, error):
        """diagnose with levels = 1 and oscillation_decay raising ``error``;
        returns the exit code."""
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        write_field(ScalarField.from_function(
            grid, lambda x, y: np.maximum(y, 0) + 0 * x),
            str(tmp_path / "u.csv"))
        write_field(LevelSet.from_function(grid, lambda x, y: y + 0 * x),
                    str(tmp_path / "phi.csv"))
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2, 0.4
levels = 1
""")

        def failing(*args, **kwargs):
            raise error("trapping ladder")

        monkeypatch.setattr(fblab.cli, "oscillation_decay", failing)
        return main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")])

    def test_unresolved_trapping_is_omitted(self, tmp_path, monkeypatch):
        assert self._trapping_run(tmp_path, monkeypatch,
                                  UnderResolvedError) == 0
        summary = json.loads((tmp_path / "d" / "summary.json").read_text())
        assert summary["trapping_offsets"] is None

    def test_trapping_value_error_propagates(self, tmp_path, monkeypatch):
        # only toolkit errors mean "no ladder"; a ValueError is a defect
        with pytest.raises(ValueError, match="trapping ladder"):
            self._trapping_run(tmp_path, monkeypatch, ValueError)

    def test_mismatched_grids_exit_three(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2
""")
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        # feed the iteration log where a field is expected
        assert main(["diagnose", "--u", out + "/u.csv",
                     "--phi", out + "/iterations.csv", "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3

    @pytest.mark.parametrize("content", [None, "x,y,value\nabc\n"],
                             ids=["missing", "garbage"])
    def test_unreadable_u_exits_three(self, tmp_path, capsys, content):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2
""")
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        write_field(LevelSet.from_function(grid, lambda x, y: y + 0 * x),
                    str(tmp_path / "phi.csv"))
        if content is not None:
            (tmp_path / "u.csv").write_text(content)
        assert main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_too_small_field_names_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2
""")
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        write_field(LevelSet.from_function(grid, lambda x, y: y + 0 * x),
                    str(tmp_path / "phi.csv"))
        xx, yy = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-1, 1, 4))
        write_table(tmp_path / "g4.csv", "x,y,value",
                    np.column_stack([xx.ravel(), yy.ravel(), np.zeros(16)]))
        assert main(["diagnose", "--u", str(tmp_path / "g4.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "g4.csv" in err

    @pytest.mark.parametrize("spec", [
        "center = 0.0, 0.0\nradii = 0.2, 0.2, 0.4",
        "center = nan, 0\nradii = 0.2",
        "center = 0.999, 0\nradii = 0.001",
    ], ids=["repeated-radii", "nan-center", "ball-without-nodes"])
    def test_invalid_diagnostics_spec_exits_three(self, tmp_path, capsys,
                                                  spec):
        cfg = write(tmp_path, "run.ini",
                    TWO_PLANE_INI + "\n[diagnostics]\n" + spec + "\n")
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        write_field(ScalarField.from_function(grid, lambda x, y: y),
                    str(tmp_path / "u.csv"))
        write_field(LevelSet.from_function(grid, lambda x, y: y + 0 * x),
                    str(tmp_path / "phi.csv"))
        assert main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_diagnostics_block_exit_three(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        assert main(["diagnose", "--u", out + "/u.csv",
                     "--phi", out + "/phi.csv", "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3


class TestPrandtl:
    def test_single_point_roots(self, tmp_path):
        out = str(tmp_path / "pb")
        assert main(["prandtl", "--mu", "1", "--omega", "1", "--h", "1",
                     "--sigma", "8", "--profiles", "--out", out]) == 0
        rows = np.loadtxt(out + "/sweep.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        assert rows.shape == (1, 9)
        assert rows[0, 6] == 1  # condition holds
        assert rows[0, 7] == pytest.approx(0.26882776111807333, abs=1e-12)
        assert rows[0, 8] == pytest.approx(0.48006813578768015, abs=1e-12)
        prof = np.loadtxt(out + "/profile_branch2.csv", delimiter=",",
                          skiprows=1)
        assert prof.shape == (201, 2)
        assert prof[-1, 1] == pytest.approx(1.0)  # boundary value

    def test_negative_mu_exits_three(self, tmp_path):
        assert main(["prandtl", "--mu", "-1", "--omega", "1", "--h", "1",
                     "--sigma", "8", "--out", str(tmp_path / "pb")]) == 3

    def test_sweep_below_threshold_exits_two(self, tmp_path):
        out = str(tmp_path / "pb")
        assert main(["prandtl", "--mu", "1", "--omega", "0", "--h", "1",
                     "--sigma", "7", "--sweep", "sigma=7.0:7.3:4",
                     "--out", out]) == 2
        rows = np.loadtxt(out + "/sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (4, 9)
        assert np.all(rows[:, 6] == 0)
        assert np.all(np.isnan(rows[:, 7]))
        # z0 and rho_star still report the threshold minimum e^2 and its
        # minimizer, near 1/e
        assert np.allclose(rows[:, 4], math.e**2)
        assert np.all(rows[:, 5] == jump_threshold_min(1, 1, 0)[1])
        assert rows[0, 5] == pytest.approx(1 / math.e, abs=1e-7)

    def test_sweep_straddling_threshold_flags_rows(self, tmp_path):
        out = str(tmp_path / "pb")
        assert main(["prandtl", "--mu", "1", "--omega", "0", "--h", "1",
                     "--sigma", "8", "--sweep", "sigma=7.0:7.8:5",
                     "--out", out]) == 0
        rows = np.loadtxt(out + "/sweep.csv", delimiter=",", skiprows=1)
        holds = rows[:, 6].astype(bool)
        assert list(holds) == [s > math.e**2 for s in rows[:, 3]]

    @pytest.mark.parametrize("params", [
        "--mu 1 --omega 1 --h 1 --sigma 8 --sweep mu=-1:1:3",
        "--mu 1 --omega 1 --h 1 --sigma 8 --sweep omega=-2:1:2",
        "--mu 1 --omega 1 --h 1 --sigma 8 --sweep h=0:1:3",
        "--mu 1 --omega 1 --h 1 --sigma 8 --sweep sigma=nan:8:2",
        "--mu nan --omega 1 --h 1 --sigma 8",
        "--mu nan --omega 1 --h 1 --sigma 8 --profiles",
        "--mu nan --omega 1 --h 1 --sigma 8 --sweep mu=1:2:2 --profiles",
        "--mu 1 --omega inf --h 1 --sigma 8",
    ], ids=["mu-sweep", "omega-sweep", "h-sweep", "sigma-nan-sweep",
            "mu-nan", "mu-nan-profiles", "mu-nan-swept", "omega-inf"])
    def test_invalid_parameters_exit_three(self, tmp_path, capsys, params):
        # every combination is checked after the sweep is expanded, and
        # nothing is written for an invalid one
        out = tmp_path / "pb"
        assert main(["prandtl", *params.split(), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: mu, h, sigma")
        assert not out.exists()

    def test_bad_sweep_spec_exits_three(self, tmp_path):
        assert main(["prandtl", "--mu", "1", "--omega", "1", "--h", "1",
                     "--sigma", "8", "--sweep", "gamma=1:2:3",
                     "--out", str(tmp_path / "pb")]) == 3

    @pytest.mark.parametrize("params, named", [
        ("--omega 1 --sweep mu=1:2:2 --sweep mu=3:4:2", "'mu'"),
        ("--omega 0 --profiles", "omega"),
    ], ids=["repeated-sweep-key", "profiles-omega-0"])
    def test_rejected_before_writing(self, tmp_path, capsys, params, named):
        out = tmp_path / "pb"
        assert main(["prandtl", "--mu", "1", "--h", "1", "--sigma", "8",
                     *params.split(), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()


class TestArtifactFormat:
    """Every CSV artifact has its documented header, and every entry is
    printed with 17 significant digits, as ``'%.17g'`` prints it."""

    HEADERS = {
        "u.csv": "x,y,value",
        "phi.csv": "x,y,value",
        "interface.csv": "component_id,vertex_id,x,y",
        "iterations.csv": "iter,jump_linf,displacement,area_plus",
        "diagnostics.csv":
            "r,E,boundary_term,phi_weiss,acf_J,delta_flat,nu_x,nu_y",
        "sweep.csv": "h,mu,omega,sigma,z0,rho_star,cond_holds,rho1,rho2",
        "profile_branch1.csv": "r,u",
        "profile_branch2.csv": "r,u",
        "jump_divergence_table.csv":
            "h2omega,rho,threshold,profile,difference",
        "large_vorticity_sweep.csv":
            "mu,omega,cond_holds,z0,z0_nonpositive,implication_ok",
    }

    def test_every_csv_artifact(self, tmp_path):
        from fblab.verify import SuiteContext, criterion_open_question_audits

        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2, 0.4
levels = 0
""")
        solve = str(tmp_path / "solve")
        assert main(["solve", "--config", cfg, "--out", solve]) == 0
        assert main(["diagnose", "--u", solve + "/u.csv",
                     "--phi", solve + "/phi.csv", "--config", cfg,
                     "--out", str(tmp_path / "diagnose")]) == 0
        # mu = 1.5 is not admissible: its row holds nan roots
        assert main(["prandtl", "--mu", "1", "--omega", "1", "--h", "1",
                     "--sigma", "8", "--sweep", "mu=1:1.5:2", "--profiles",
                     "--out", str(tmp_path / "prandtl")]) == 0
        passed, _ = criterion_open_question_audits(
            SuiteContext(), str(tmp_path / "verify"))
        assert passed

        paths = sorted(tmp_path.glob("*/*.csv"))
        assert sorted(p.name for p in paths) == sorted(self.HEADERS)
        tokens = []
        for path in paths:
            text = path.read_text()
            assert text.endswith("\n")
            header, *rows = text.splitlines()
            assert header == self.HEADERS[path.name], path.name
            assert rows, path.name
            width = header.count(",") + 1
            for row in rows:
                toks = row.split(",")
                assert len(toks) == width, (path.name, row)
                tokens += toks
        assert "nan" in tokens
        bad = [tok for tok in tokens if "%.17g" % float(tok) != tok]
        assert not bad, bad[:5]
