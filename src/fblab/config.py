"""INI run configuration: grid, problem data, initial interface, stopping
rule, and optional diagnostics block.

The format is deliberately expression-free: every field comes from an enum
keyword, literal numbers, or a sampled-field CSV file, so runs are
reproducible byte for byte.  :data:`_SCHEMA` declares every section and key;
any other section or key is an error, so a misspelled key cannot fall back
to its default unnoticed.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from typing import Optional

from .diagnostics import deepest_level
from .elliptic import CoefficientField
from .errors import FblabError, FieldError
from .fbiter import IterationOptions, PhaseProblem
from .fields import (
    Grid2,
    LevelSet,
    ScalarField,
    make_grid,
    read_field,
)
from .problems import pb_levelset, two_plane_field, two_plane_levelset

SCHEMA_VERSION = 1

# section -> key -> default; None marks a required key, "" an optional
# number left unset.  [iteration] and [diagnostics] may be left out.
_SCHEMA = {
    "meta": {"schema_version": None},
    "grid": {"nx": None, "ny": None, "box": None},
    "problem": {"coefficients": "identity", "f_plus": "constant 0",
                "f_minus": "constant 0", "jump_target": "constant 1",
                "outer": None, "mask_radius": ""},
    "init": {"interface": None},
    "iteration": {"tol_jump": "", "tol_move": "0.01", "max_iters": "100"},
    "diagnostics": {"center": None, "radii": None, "levels": ""},
}


class ConfigError(FblabError):
    """The configuration file is missing, malformed, or inconsistent."""


@dataclass
class DiagnosticsSpec:
    """Center, radii and trapping depth for the post-run diagnostics; an
    unset depth is the deepest level the grid resolves at the largest
    radius (:func:`~fblab.diagnostics.deepest_level`)."""

    center: tuple
    radii: list
    levels: int


@dataclass
class RunConfig:
    """Fully resolved run: every file read, every field sampled."""

    grid: Grid2
    problem: PhaseProblem
    phi0: LevelSet
    options: IterationOptions
    diagnostics: Optional[DiagnosticsSpec] = None


def _split(value: str):
    return [tok for tok in value.replace(",", " ").split() if tok]


def _floats(value: str, n: Optional[int], what: str):
    """The numbers in ``value``; exactly ``n`` of them unless n is None."""
    toks = _split(value)
    if n is not None and len(toks) != n:
        raise ConfigError(f"{what} needs {n} numbers, got {value!r}")
    try:
        vals = [float(t) for t in toks]
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from err
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return vals


def _same_grid_values(path: str, grid: Grid2, base: str, what: str):
    """The values in field file ``path``, which must lie on the run grid;
    the one place where a field file enters the configuration."""
    full = path if os.path.isabs(path) else os.path.join(base, path)
    if not os.path.isfile(full):
        raise ConfigError(f"{what} file does not exist: {full}")
    try:
        f = read_field(full)
    except FieldError as err:
        raise ConfigError(f"{what}: {err}") from err
    if not grid.same_layout(f.grid):
        raise ConfigError(f"{what} grid does not match the run grid")
    return f.values


def _normal(angle: float):
    th = math.radians(angle)
    return (-math.sin(th), math.cos(th))


def _circle(grid: Grid2, radius: float) -> LevelSet:
    if radius <= 0:
        raise ConfigError("interface circle radius must be positive")
    return pb_levelset(grid, radius)


# Kind tables of the ``kind args...`` entries: kind -> (argument count,
# whether the arguments are field-file paths rather than numbers, builder
# called with the grid and the numbers or the files' values).
_SCALAR_KINDS = {
    "constant": (1, False, ScalarField.constant),
    "file": (1, True, ScalarField),
}
_OUTER_KINDS = {
    **_SCALAR_KINDS,
    "two_plane": (3, False, lambda grid, beta, angle, offset:
                  two_plane_field(grid, beta, _normal(angle), offset)),
}
_COEFFICIENT_KINDS = {
    "identity": (0, False, CoefficientField.identity),
    "constant": (3, False, CoefficientField.constant),
    "file": (3, True, CoefficientField),
}
_INTERFACE_KINDS = {
    "flat": (2, False, lambda grid, angle, offset:
             two_plane_levelset(grid, _normal(angle), offset)),
    "circle": (1, False, _circle),
    "file": (1, True, LevelSet),
}


def _parse_spec(spec: str, grid: Grid2, base: str, what: str, kinds):
    """Build the field named by ``spec``, a ``kind args...`` entry whose
    kind and argument count ``kinds`` declares."""
    toks = _split(spec)
    if not toks:
        raise ConfigError(f"{what} is empty")
    kind, args = toks[0], toks[1:]
    if kind not in kinds:
        raise ConfigError(f"{what}: unknown kind {kind!r}")
    count, files, build = kinds[kind]
    if len(args) != count:
        noun = ("path" if files else "number") + ("" if count == 1 else "s")
        raise ConfigError(f"{what}: {kind!r} takes {count} {noun}, "
                          f"got {spec!r}")
    if files:
        args = [_same_grid_values(p, grid, base, what) for p in args]
    else:
        args = _floats(" ".join(args), None, what)
    try:  # such as a coefficient matrix that is not uniformly elliptic
        return build(grid, *args)
    except FieldError as err:
        raise ConfigError(f"{what}: {err}") from err


def _get(parser, section, key):
    """The raw entry, or its default from :data:`_SCHEMA`."""
    if parser.has_option(section, key):
        return parser.get(section, key)
    default = _SCHEMA[section][key]
    if default is not None:
        return default
    if not parser.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    raise ConfigError(f"missing {key} in [{section}]")


def _number(parser, section, key, cast):
    """The finite number under ``key`` read by ``cast``; None when the key
    is optional and unset."""
    raw = _get(parser, section, key).strip()
    if not raw and _SCHEMA[section][key] == "":
        return None
    try:
        value = cast(raw)
    except ValueError as err:
        raise ConfigError(f"{section} {key}: {err}") from err
    if not math.isfinite(value):
        raise ConfigError(f"{section} {key} must be finite, got {raw!r}")
    return value


def load_config(path: str) -> RunConfig:
    """Parse and fully resolve a run configuration file.  Raises
    ConfigError for every kind of invalid input."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file does not exist: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    base = os.path.dirname(os.path.abspath(path))

    version = _get(parser, "meta", "schema_version")
    if version.strip() != str(SCHEMA_VERSION):
        raise ConfigError(
            f"unsupported schema_version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}")

    nx = _number(parser, "grid", "nx", int)
    ny = _number(parser, "grid", "ny", int)
    box = _floats(_get(parser, "grid", "box"), 4, "grid box")
    try:
        grid = make_grid(nx, ny, box)
    except FblabError as err:
        raise ConfigError(f"invalid grid: {err}") from err

    def field(section, key, kinds):
        return _parse_spec(_get(parser, section, key), grid, base, key,
                           kinds)

    A = field("problem", "coefficients", _COEFFICIENT_KINDS)
    f_plus = field("problem", "f_plus", _SCALAR_KINDS)
    f_minus = field("problem", "f_minus", _SCALAR_KINDS)
    Q = field("problem", "jump_target", _SCALAR_KINDS)
    outer = field("problem", "outer", _OUTER_KINDS)
    mask_radius = _number(parser, "problem", "mask_radius", float)
    try:
        problem = PhaseProblem(A=A, f_plus=f_plus, f_minus=f_minus, Q=Q,
                               outer_data=outer, mask_radius=mask_radius)
    except FblabError as err:
        raise ConfigError(f"invalid problem: {err}") from err

    phi0 = field("init", "interface", _INTERFACE_KINDS)

    try:
        options = IterationOptions(
            tol_jump=_number(parser, "iteration", "tol_jump", float),
            tol_move=_number(parser, "iteration", "tol_move", float),
            max_iters=_number(parser, "iteration", "max_iters", int))
    except ValueError as err:
        raise ConfigError(f"invalid iteration options: {err}") from err

    diagnostics = None
    if parser.has_section("diagnostics"):
        center = _floats(_get(parser, "diagnostics", "center"), 2, "center")
        radii = _floats(_get(parser, "diagnostics", "radii"), None, "radii")
        if not radii or any(r <= 0 for r in radii):
            raise ConfigError("diagnostics radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("diagnostics radii must be strictly increasing")
        if radii[0] < 2.0 * grid.h:
            # a smaller ball holds at most a dozen nodes, as few as one,
            # and a fit through one node reports residual 0 for any field
            raise ConfigError(f"diagnostics radius {radii[0]:g} is below two "
                              f"cells, 2h = {2.0 * grid.h:g}")
        cx, cy = center
        margin = min(cx - grid.x0, grid.x1 - cx, cy - grid.y0, grid.y1 - cy)
        if max(radii) > margin:
            raise ConfigError("diagnostics radii leave the domain box")
        levels = _number(parser, "diagnostics", "levels", int)
        if levels is None:
            levels = max(0, deepest_level(max(radii), grid.h))
        elif levels < 0:
            raise ConfigError("diagnostics levels must be non-negative")
        diagnostics = DiagnosticsSpec(center=(cx, cy), radii=radii,
                                      levels=levels)

    return RunConfig(grid=grid, problem=problem, phi0=phi0, options=options,
                     diagnostics=diagnostics)
