import configparser
import math
import pathlib
import re

import numpy as np
import pytest

from fblab.config import _SCHEMA, ConfigError, load_config
from fblab.fields import ScalarField, make_grid, write_field

BASE = """
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
"""

# BASE with every optional section present
FULL = BASE + """
[iteration]
max_iters = 3

[diagnostics]
center = 0.0, 0.0
radii = 0.2
"""

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_base_config_resolves(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.grid.nx == cfg.grid.ny == 65
        assert cfg.problem.mask_radius is None
        assert cfg.diagnostics is None
        # outer data matches the requested piecewise-linear profile
        yy = cfg.grid.meshgrid()[1]
        alpha = np.sqrt(1.25)
        expect = alpha * np.maximum(yy, 0) + 0.5 * np.minimum(yy, 0)
        assert np.allclose(cfg.problem.outer_data.values, expect)
        assert np.allclose(cfg.phi0.phi, yy)

    def test_two_plane_outer_bit_identical(self, tmp_path):
        text = BASE.replace("outer = two_plane 0.5 0 0",
                            "outer = two_plane 1.7 23.5 -0.125")
        cfg = load_config(write_config(tmp_path, text))
        xx, yy = cfg.grid.meshgrid()
        th = math.radians(23.5)
        t = xx * -math.sin(th) + yy * math.cos(th) + -0.125
        alpha = math.sqrt(1.0 + 1.7**2)
        expect = alpha * np.maximum(t, 0.0) + 1.7 * np.minimum(t, 0.0)
        assert np.array_equal(cfg.problem.outer_data.values, expect)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.ini"))

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(str(path))

    def test_percent_sign_is_literal(self, tmp_path):
        # the format has no interpolation: '%' is an ordinary character
        text = BASE.replace("outer = two_plane 0.5 0 0",
                            "outer = two_plane 0.5 0 0%")
        with pytest.raises(ConfigError, match="outer"):
            load_config(write_config(tmp_path, text))

    def test_schema_version_checked(self, tmp_path):
        text = BASE.replace("schema_version = 1", "schema_version = 2")
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_config(tmp_path, text))

    def test_small_grid_rejected(self, tmp_path):
        text = BASE.replace("nx = 65", "nx = 4")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, text))

    def test_unknown_outer_kind(self, tmp_path):
        text = BASE.replace("outer = two_plane 0.5 0 0",
                            "outer = wavelet 1 2 3")
        with pytest.raises(ConfigError, match="unknown kind"):
            load_config(write_config(tmp_path, text))

    def test_circle_and_iteration_block(self, tmp_path):
        text = BASE.replace("interface = flat 0 0",
                            "interface = circle 0.4") + """
[iteration]
max_iters = 7
tol_move = 0.25
"""
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.options.max_iters == 7
        assert cfg.options.tol_move == 0.25
        assert cfg.options.tol_jump is None
        # circle: negative inside, positive outside
        assert cfg.phi0.sample(0.0, 0.0) < 0 < cfg.phi0.sample(0.9, 0.0)
        xx, yy = cfg.grid.meshgrid()
        assert np.array_equal(cfg.phi0.phi, np.hypot(xx, yy) - 0.4)

    def test_unknown_iteration_option(self, tmp_path):
        text = BASE + "\n[iteration]\nmomentum = 0.9\n"
        with pytest.raises(ConfigError, match="momentum"):
            load_config(write_config(tmp_path, text))

    def test_invalid_iteration_value(self, tmp_path):
        text = BASE + "\n[iteration]\nmax_iters = 0\n"
        with pytest.raises(ConfigError, match="max_iters"):
            load_config(write_config(tmp_path, text))

    def test_field_from_file(self, tmp_path):
        grid = make_grid(65, 65, (-1.0, -1.0, 1.0, 1.0))
        f = ScalarField.from_function(grid, lambda x, y: 1.0 + x**2)
        write_field(f, tmp_path / "q.csv")
        text = BASE.replace("jump_target = constant 1",
                            "jump_target = file q.csv")
        cfg = load_config(write_config(tmp_path, text))
        assert np.allclose(cfg.problem.Q.values, f.values)

    def test_file_grid_mismatch(self, tmp_path):
        other = make_grid(33, 33, (-1.0, -1.0, 1.0, 1.0))
        write_field(ScalarField.constant(other, 1.0), tmp_path / "q.csv")
        text = BASE.replace("jump_target = constant 1",
                            "jump_target = file q.csv")
        with pytest.raises(ConfigError, match="does not match"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("content", [
        "x,y,value\nabc\n",     # not a number
        "x,y,value\n0,0,1\n",   # one row: not a grid
    ], ids=["garbage", "one_row"])
    @pytest.mark.parametrize("line, spec", [
        ("outer = two_plane 0.5 0 0", "outer = file bad.csv"),
        ("interface = flat 0 0", "interface = file bad.csv"),
        ("coefficients = identity",
         "coefficients = file bad.csv bad.csv bad.csv"),
    ], ids=["outer", "interface", "coefficients"])
    def test_unreadable_field_file(self, tmp_path, content, line, spec):
        (tmp_path / "bad.csv").write_text(content)
        text = BASE.replace(line, spec)
        with pytest.raises(ConfigError, match="bad.csv"):
            load_config(write_config(tmp_path, text))

    def test_missing_referenced_file(self, tmp_path):
        text = BASE.replace("jump_target = constant 1",
                            "jump_target = file nothere.csv")
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(write_config(tmp_path, text))

    def test_nonpositive_jump_target_rejected(self, tmp_path):
        text = BASE.replace("jump_target = constant 1",
                            "jump_target = constant 0")
        with pytest.raises(ConfigError, match="invalid problem"):
            load_config(write_config(tmp_path, text))

    def test_diagnostics_block(self, tmp_path):
        text = BASE + """
[diagnostics]
center = 0.0, 0.0
radii = 0.1, 0.2, 0.4
levels = 1
"""
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.diagnostics.radii == [0.1, 0.2, 0.4]
        assert cfg.diagnostics.levels == 1

    @pytest.mark.parametrize("nodes, radii, deepest", [
        (65, "0.1, 0.2, 0.4", 0), (257, "0.3, 0.8", 1), (65, "0.1", 0)])
    def test_unset_levels_is_deepest_resolved(self, tmp_path, nodes, radii,
                                              deepest):
        # r0 / 20^levels >= 4h at the largest radius r0; never negative
        text = BASE.replace("nx = 65\nny = 65",
                            f"nx = {nodes}\nny = {nodes}") + f"""
[diagnostics]
center = 0.0, 0.0
radii = {radii}
"""
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.diagnostics.levels == deepest

    def test_diagnostics_radii_must_fit_box(self, tmp_path):
        text = BASE + """
[diagnostics]
center = 0.9, 0.0
radii = 0.5
"""
        with pytest.raises(ConfigError, match="leave the domain"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("radii", ["0.01, 0.02", "0.0624, 0.2"])
    def test_diagnostics_radii_below_two_cells_rejected(self, tmp_path,
                                                        radii):
        # h = 2/64: a smaller ball holds too few nodes for a fit
        text = BASE + f"""
[diagnostics]
center = 0.0, 0.0
radii = {radii}
"""
        with pytest.raises(ConfigError, match="below two cells"):
            load_config(write_config(tmp_path, text))

    def test_diagnostics_radius_of_two_cells_accepted(self, tmp_path):
        text = BASE + """
[diagnostics]
center = 0.0, 0.0
radii = 0.0625, 0.2
"""
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.diagnostics.radii[0] == 2 * cfg.grid.h

    def test_diagnostics_radii_must_be_numbers(self, tmp_path):
        text = BASE + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2, abc
"""
        with pytest.raises(ConfigError, match="radii"):
            load_config(write_config(tmp_path, text))

    def test_diagnostics_radii_must_increase(self, tmp_path):
        text = BASE + """
[diagnostics]
center = 0.0, 0.0
radii = 0.4, 0.2
"""
        with pytest.raises(ConfigError, match="increasing"):
            load_config(write_config(tmp_path, text))

    def test_diagnostics_radii_must_increase_strictly(self, tmp_path):
        text = BASE + """
[diagnostics]
center = 0.0, 0.0
radii = 0.2, 0.2, 0.4
"""
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("text", [
        BASE + "\n[diagnostics]\ncenter = nan, 0\nradii = 0.2\n",
        BASE + "\n[diagnostics]\ncenter = 0, 0\nradii = 0.2, nan\n",
        BASE.replace("[init]", "mask_radius = nan\n\n[init]"),
        BASE + "\n[iteration]\ntol_jump = nan\n",
        BASE + "\n[iteration]\ntol_move = nan\n",
        BASE + "\n[iteration]\ntol_move = inf\n",
    ], ids=["center-nan", "radii-nan", "mask_radius-nan", "tol_jump-nan",
            "tol_move-nan", "tol_move-inf"])
    def test_non_finite_numbers_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match="finite"):
            load_config(write_config(tmp_path, text))

    def test_constant_coefficients(self, tmp_path):
        text = BASE.replace("coefficients = identity",
                            "coefficients = constant 2 0.5 1")
        cfg = load_config(write_config(tmp_path, text))
        assert np.allclose(cfg.problem.A.a11, 2.0)
        assert np.allclose(cfg.problem.A.a12, 0.5)

    def test_non_elliptic_coefficients_rejected(self, tmp_path):
        text = BASE.replace("coefficients = identity",
                            "coefficients = constant 1 2 1")
        with pytest.raises(ConfigError, match="elliptic"):
            load_config(write_config(tmp_path, text))

    def test_mask_radius(self, tmp_path):
        text = BASE.replace("[init]", "mask_radius = 0.9\n\n[init]")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.problem.mask_radius == 0.9
        assert cfg.problem.pinned_mask() is not None

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_nonpositive_mask_radius_is_an_invalid_problem(self, tmp_path,
                                                            radius):
        text = BASE.replace("[init]", f"mask_radius = {radius}\n\n[init]")
        with pytest.raises(ConfigError,
                           match="invalid problem: mask_radius must be"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("section, line", [
        ("meta", "schema_verison = 1"),
        ("grid", "nz = 65"),
        ("problem", "coefficents = constant 2 0 1"),
        ("init", "interfce = circle 0.4"),
        ("iteration", "max_iter = 50"),
        ("diagnostics", "level = 1"),
    ], ids=lambda v: v.split(" ")[0])
    def test_misspelled_key_rejected(self, tmp_path, section, line):
        text = FULL.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        key = line.split(" ")[0]
        with pytest.raises(ConfigError,
                           match=rf"unknown key '{key}' in \[{section}\]"):
            load_config(write_config(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = BASE + "\n[iterations]\nmax_iters = 3\n"
        with pytest.raises(ConfigError,
                           match=r"unknown section \[iterations\]"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("line, spec", [
        ("coefficients = identity", "coefficients = identity 3"),
        ("coefficients = identity", "coefficients = constant 2 0"),
        ("f_plus = constant 0", "f_plus = constant 0 1"),
        ("outer = two_plane 0.5 0 0", "outer = file a.csv b.csv"),
        ("interface = flat 0 0", "interface = circle"),
    ], ids=["identity", "constant", "scalar", "file", "circle"])
    def test_argument_count_checked(self, tmp_path, line, spec):
        kind = spec.split()[2]
        with pytest.raises(ConfigError, match=f"'{kind}' takes"):
            load_config(write_config(tmp_path, BASE.replace(line, spec)))

    def test_circle_radius_positive(self, tmp_path):
        text = BASE.replace("interface = flat 0 0", "interface = circle 0")
        with pytest.raises(ConfigError, match="radius must be positive"):
            load_config(write_config(tmp_path, text))


def test_readme_example_names_every_key(tmp_path):
    """README's example configuration loads and names every key of the
    schema, so the documented format and the parser cannot drift."""
    example = re.search(r"```ini\n(.*?)```", README.read_text(),
                        re.S).group(1)
    load_config(write_config(tmp_path, example))
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    parser.read_string(example)
    named = {(sec, key) for sec in parser.sections()
             for key in parser.options(sec)}
    assert named == {(sec, key) for sec, keys in _SCHEMA.items()
                     for key in keys}
