import contextlib
import fcntl
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fblab
import fblab.cli
import fblab.diagnostics
from fblab.cli import main
from fblab.diagnostics import acf_product, ball_quadrature
from fblab.errors import SolverError, UnderResolvedError
from fblab.fields import (
    ScalarField,
    make_grid,
    read_field,
    read_levelset,
    write_field,
    write_table,
)
from fblab.prandtl import jump_threshold_min
from fblab.problems import (
    perturbed_plane_levelset,
    perturbed_plane_problem,
    two_plane_field,
    two_plane_levelset,
)
from fblab.verify import disk_oracle_radius

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

# verify's perturbed plane; outer.csv and phi0.csv are written by the test
PERTURBED_INI = """
[meta]
schema_version = 1

[grid]
nx = 129
ny = 129
box = -1.0, -1.0, 1.0, 1.0

[problem]
coefficients = identity
f_plus = constant 0
f_minus = constant 0
jump_target = constant 1
outer = file outer.csv

[init]
interface = file phi0.csv

[iteration]
max_iters = 60
tol_jump = 0.04
tol_move = 0.5
"""


DIAGNOSTICS_BLOCK = """
[diagnostics]
center = 0.0, 0.0
radii = 0.2, 0.4
levels = 0
"""

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# summary.json of every solve, and the entries a [diagnostics] block adds
# (its flatness replaces the engine's)
SOLVE_KEYS = {"schema_version", "converged", "stop_reason", "iterations",
              "levels", "final_jump", "flatness", "notes"}
BATTERY_KEYS = {"two_plane_fit", "weiss_monotone", "weiss_first_violation",
                "acf_monotone", "trapping_offsets", "flatness"}


def readme_ini():
    """The example configuration of README.md."""
    return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def bad_outer_config(tmp_path, content):
    """A config whose ``outer`` field file holds ``content``."""
    (tmp_path / "outer.csv").write_text(content)
    return write(tmp_path, "run.ini", TWO_PLANE_INI.replace(
        "outer = two_plane 0.5 0 0", "outer = file outer.csv"))


def perturbed_config(tmp_path):
    """PERTURBED_INI with its outer.csv and phi0.csv written next to it."""
    grid = make_grid(129, 129, (-1.0, -1.0, 1.0, 1.0))
    write_field(perturbed_plane_problem(grid).outer_data,
                str(tmp_path / "outer.csv"))
    write_field(perturbed_plane_levelset(grid), str(tmp_path / "phi0.csv"))
    return write(tmp_path, "run.ini", PERTURBED_INI)


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
        cfg = write(tmp_path, "disk.ini", DISK_INI)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        # the 33^2 level used to spend all 60 iterations above tol_jump
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert all(lv["stop_reason"] == "tolerances_met"
                   for lv in summary["levels"])
        phi = read_levelset(str(tmp_path / "out" / "phi.csv"))
        from fblab.fields import all_interface_points, interface_extract
        pts = all_interface_points(interface_extract(phi))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert abs(radii.mean() - disk_oracle_radius()) < 2 * phi.grid.h

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
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + DIAGNOSTICS_BLOCK)
        for name in ("a", "b"):
            assert main(["solve", "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
        for fname in ("u.csv", "phi.csv", "interface.csv",
                      "iterations.csv", "diagnostics.csv", "summary.json"):
            assert (tmp_path / "a" / fname).read_bytes() \
                == (tmp_path / "b" / fname).read_bytes()
        timings = json.loads((tmp_path / "a" / "timings.json").read_text())
        assert timings["seconds"] >= 0

    @pytest.mark.parametrize("case", ["disk", "perturbed_plane"])
    def test_iterating_runs_are_deterministic(self, tmp_path, case):
        # the two-plane profile starts at its fixed point; these runs
        # iterate, on closed and on open interface curves
        if case == "disk":
            cfg = write(tmp_path, "run.ini", DISK_INI)
        else:
            cfg = perturbed_config(tmp_path)
        for name in ("a", "b"):
            assert main(["solve", "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert len(np.loadtxt(a / "iterations.csv", delimiter=",",
                              skiprows=1, ndmin=2)) > 1
        # the run lock holds a process id, timings.json the run's seconds
        for fname in set(names) - {".fblab.lock", "timings.json"}:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname

    def test_summary_reports_each_level(self, tmp_path):
        # file-given fields coarsen like built-in ones; iterations.csv
        # holds the finest level's rows
        cfg = perturbed_config(tmp_path)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        levels = summary["levels"]
        assert [(lv["nx"], lv["ny"]) for lv in levels] \
            == [(33, 33), (65, 65), (129, 129)]
        assert all(lv["stop_reason"] == "tolerances_met" for lv in levels)
        assert levels[-1]["iterations"] == summary["iterations"]
        rows = np.loadtxt(tmp_path / "out" / "iterations.csv",
                          delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) == summary["iterations"]

    def test_summary_keys_without_a_block(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(summary) == SOLVE_KEYS
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("case", [
        "readme_example", "two_plane", "readme_example_on_interface",
        "two_plane_trapping"])
    def test_block_runs_the_diagnose_battery(self, tmp_path, case):
        # solve with a [diagnostics] block writes what diagnose writes from
        # solve's own u.csv and phi.csv; 201^2 nodes resolve one trapping
        # level for radii up to 0.9
        text = {
            "readme_example": readme_ini(),
            "two_plane": TWO_PLANE_INI + DIAGNOSTICS_BLOCK,
            "readme_example_on_interface": readme_ini().replace(
                "center = 0.0, 0.0", "center = 0.48, 0.0"),
            "two_plane_trapping": TWO_PLANE_INI.replace(
                "nx = 65\nny = 65", "nx = 201\nny = 201")
            + DIAGNOSTICS_BLOCK.replace("0.2, 0.4", "0.45, 0.9").replace(
                "levels = 0", "levels = 1"),
        }[case]
        cfg = write(tmp_path, "run.ini", text)
        solve, diag = tmp_path / "solve", tmp_path / "diag"
        assert main(["solve", "--config", cfg, "--out", str(solve)]) == 0
        assert main(["diagnose", "--u", str(solve / "u.csv"),
                     "--phi", str(solve / "phi.csv"), "--config", cfg,
                     "--out", str(diag)]) == 0
        assert (solve / "diagnostics.csv").read_bytes() \
            == (diag / "diagnostics.csv").read_bytes()
        solved = json.loads((solve / "summary.json").read_text())
        diagnosed = json.loads((diag / "summary.json").read_text())
        assert set(solved) == SOLVE_KEYS | BATTERY_KEYS
        assert set(diagnosed) == BATTERY_KEYS | {"schema_version"}
        for key in BATTERY_KEYS:
            assert solved[key] == diagnosed[key], key
        assert (solved["trapping_offsets"] is not None) \
            == (case == "two_plane_trapping")


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


_HEAVY = ["scipy.sparse", "scipy.spatial", "scipy.fft", "scipy.optimize"]
# Imports fblab.cli, then runs each argument list of sys.argv[1] (JSON)
# through main; prints [exit code, the loaded modules of sys.argv[2]] after
# each stage.
_IMPORT_PROBE = """
import json, sys
import fblab.cli
heavy = json.loads(sys.argv[2])
def loaded():
    return [name for name in heavy if name in sys.modules]
stages = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    stages.append([fblab.cli.main(argv), loaded()])
print(json.dumps(stages))
"""


def test_only_solve_loads_the_heavy_scipy_submodules(tmp_path):
    # a fresh interpreter: the modules this process has loaded mask nothing
    plain = TWO_PLANE_INI.replace("nx = 65\nny = 65", "nx = 33\nny = 33")
    cfg = write(tmp_path, "run.ini", plain)
    diag = write(tmp_path, "diag.ini", plain + DIAGNOSTICS_BLOCK)
    grid = make_grid(33, 33, (-1.0, -1.0, 1.0, 1.0))
    write_field(two_plane_field(grid, 0.5), str(tmp_path / "u.csv"))
    write_field(two_plane_levelset(grid), str(tmp_path / "phi.csv"))
    commands = [["diagnose", "--u", str(tmp_path / "u.csv"),
                 "--phi", str(tmp_path / "phi.csv"), "--config", diag,
                 "--out", str(tmp_path / "d")],
                ["solve", "--config", cfg, "--out", str(tmp_path / "out")]]
    src = os.path.dirname(os.path.dirname(fblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands),
         json.dumps(_HEAVY)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    # import, diagnose, then solve without a [diagnostics] block: only the
    # solve factors matrices, builds k-d trees and takes DCTs, and neither
    # command solves an LP or finds a root
    assert stages == [[None, []], [0, []], [0, _HEAVY[:3]]]


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
        write_field(two_plane_field(grid, 0.5), str(tmp_path / "u.csv"))
        write_field(two_plane_levelset(grid), str(tmp_path / "phi.csv"))
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

    def test_cut_center_cell_shares_gradients(self, tmp_path, monkeypatch):
        # the interface crosses the cell of the centre, so its ACF terms
        # read one-sided gradients too: the ones of the rest of the ball
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        nu, c = (0.6, 0.8), -0.5 * grid.h
        u = two_plane_field(grid, 0.5, nu, c)
        phi = two_plane_levelset(grid, nu, c)
        write_field(u, str(tmp_path / "u.csv"))
        write_field(phi, str(tmp_path / "phi.csv"))
        center, radii = (0.0, 0.0), [0.2, 0.4]
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2, 0.4
levels = 0
""")
        expected = acf_product(radii, ball_quadrature(u, phi, center, radii))
        sides = []
        gradient = fblab.diagnostics.one_sided_gradient

        def counted(u, phi, side):
            sides.append(side)
            return gradient(u, phi, side)

        monkeypatch.setattr(fblab.diagnostics, "one_sided_gradient", counted)
        assert main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 0
        assert sorted(sides) == [-1, 1]
        rows = np.loadtxt(tmp_path / "d" / "diagnostics.csv", delimiter=",",
                          skiprows=1)
        assert rows[:, 4].tobytes() == expected.values.tobytes()

    def test_unset_levels_runs_deepest_resolved(self, tmp_path):
        # 257^2 nodes on [-1, 1]^2 resolve r0/20 >= 4h at r0 = 0.9 but not
        # r0/400, so the unset depth is level 1: two trapping pairs
        grid = make_grid(257, 257, (-1.0, -1.0, 1.0, 1.0))
        write_field(two_plane_field(grid, 0.5), str(tmp_path / "u.csv"))
        write_field(two_plane_levelset(grid), str(tmp_path / "phi.csv"))
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI.replace(
            "nx = 65\nny = 65", "nx = 257\nny = 257") + """
[diagnostics]
center = 0.0, 0.0
radii = 0.45, 0.9
""")
        assert main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 0
        summary = json.loads((tmp_path / "d" / "summary.json").read_text())
        assert len(summary["trapping_offsets"]) == 2

    def _trapping_run(self, tmp_path, monkeypatch, error):
        """diagnose with levels = 1 and oscillation_decay raising ``error``;
        returns the exit code."""
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        write_field(two_plane_field(grid, 0.0), str(tmp_path / "u.csv"))
        write_field(two_plane_levelset(grid), str(tmp_path / "phi.csv"))
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
        write_field(two_plane_levelset(grid), str(tmp_path / "phi.csv"))
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
        write_field(two_plane_levelset(grid), str(tmp_path / "phi.csv"))
        xx, yy = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-1, 1, 4))
        write_table(tmp_path / "g4.csv", "x,y,value",
                    np.column_stack([xx.ravel(), yy.ravel(), np.zeros(16)]))
        assert main(["diagnose", "--u", str(tmp_path / "g4.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "g4.csv" in err

    def test_non_finite_phi_names_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2
""")
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        write_field(two_plane_field(grid, 0.5), str(tmp_path / "u.csv"))
        xx, yy = grid.meshgrid()
        values = two_plane_levelset(grid).phi.copy()
        values[20, 30] = np.nan
        write_table(tmp_path / "phi.csv", "x,y,value",
                    np.column_stack([xx.ravel(), yy.ravel(), values.ravel()]))
        assert main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "phi.csv" in err
        assert "u.csv" not in err

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
        write_field(two_plane_levelset(grid), str(tmp_path / "phi.csv"))
        assert main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_sub_cell_radii_exit_three(self, tmp_path, capsys):
        # h = 0.031: balls this small would make a one-node fit
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI
                    + "\n[diagnostics]\ncenter = 0.0, 0.0\n"
                    "radii = 0.01, 0.02\n")
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        write_field(two_plane_field(grid, 0.5), str(tmp_path / "u.csv"))
        write_field(two_plane_levelset(grid), str(tmp_path / "phi.csv"))
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        assert main(["diagnose", "--u", str(tmp_path / "u.csv"),
                     "--phi", str(tmp_path / "phi.csv"), "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert err.count("error: ") == 2 and "below two cells" in err

    def test_missing_diagnostics_block_exit_three(self, tmp_path):
        cfg = write(tmp_path, "run.ini", TWO_PLANE_INI)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        assert main(["diagnose", "--u", out + "/u.csv",
                     "--phi", out + "/phi.csv", "--config", cfg,
                     "--out", str(tmp_path / "d")]) == 3


def assert_same_artifacts(a, b, names):
    """The CSV artifacts in directories ``a`` and ``b`` are exactly
    ``names``, byte-identical (the run lock holds a process id)."""
    assert sorted(p.name for p in a.glob("*.csv")) == sorted(names)
    assert sorted(p.name for p in b.glob("*.csv")) == sorted(names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_verify_deterministic_outputs(tmp_path, capsys):
    for name in ("a", "b"):
        assert main(["verify", "--level", "quick",
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert_same_artifacts(tmp_path / "a", tmp_path / "b",
                          ["jump_divergence_table.csv",
                           "large_vorticity_sweep.csv"])


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

    def test_deterministic_outputs(self, tmp_path):
        # mu = 1.5 is not admissible: its row holds nan roots
        for name in ("a", "b"):
            assert main(["prandtl", "--mu", "1", "--omega", "1", "--h", "1",
                         "--sigma", "8", "--sweep", "mu=1:1.5:2",
                         "--profiles", "--out", str(tmp_path / name)]) == 0
        assert_same_artifacts(tmp_path / "a", tmp_path / "b",
                              ["profile_branch1.csv", "profile_branch2.csv",
                               "sweep.csv"])

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


LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestPrandtlSearchFailures:
    """Every failure of the root search is an input error: exit 3 with one
    ``error:`` line, and nothing written."""

    @pytest.mark.parametrize("params, named", [
        ("--h 1e200", "overflow"),
        ("--sweep h=1:1e200:2", "overflow"),
        ("--sweep h=1:2:2 --h 1e200 --profiles", "overflow"),
        ("--mu 5e153", "overflow"),
        ("--mu 1e-6 --omega 0 --h 0.1 --sigma 1e6",
         "inner admissible radius for h=0.1, mu=1e-06, omega=0, sigma=1e+06 "
         "lies outside (1e-08, 1 - 1e-08)"),
        ("--mu 1e-6 --omega 1.7e3 --h 1e6",
         "h=1e+06, mu=1e-06, omega=1700, sigma=1 still falls at 1 - 1e-08"),
    ], ids=["h-overflow", "swept-h-overflow", "profile-overflow",
            "infinite-minimum", "root-below-interval",
            "minimum-past-interval"])
    def test_exit_three_before_writing(self, tmp_path, capsys, params,
                                       named):
        out = tmp_path / "pb"
        assert main(["prandtl", "--mu", "1", "--omega", "1", "--h", "1",
                     "--sigma", "1", *params.split(), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    @given(mu=LOG_UNIFORM, h=LOG_UNIFORM, sigma=LOG_UNIFORM,
           omega=st.just(0.0) | LOG_UNIFORM)
    @settings(max_examples=300, deadline=None)
    def test_any_finite_parameters(self, tmp_path_factory, mu, omega, h,
                                   sigma):
        out = tmp_path_factory.mktemp("pb") / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["prandtl", "--mu", repr(mu), "--omega", repr(omega),
                         "--h", repr(h), "--sigma", repr(sigma),
                         "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 3:
            assert stderr.getvalue().startswith("error: ")
            assert not out.exists()
        else:
            assert (out / "sweep.csv").is_file()


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

    FILES = {
        "solve": ["u.csv", "phi.csv", "interface.csv", "iterations.csv",
                  "diagnostics.csv"],
        "diagnose": ["diagnostics.csv"],
        "prandtl": ["sweep.csv", "profile_branch1.csv",
                    "profile_branch2.csv"],
        "verify": ["jump_divergence_table.csv", "large_vorticity_sweep.csv"],
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
        found = {}
        for path in paths:
            found.setdefault(path.parent.name, []).append(path.name)
        assert found == {run: sorted(names)
                         for run, names in self.FILES.items()}
        assert {name for names in self.FILES.values() for name in names} \
            == set(self.HEADERS)
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
