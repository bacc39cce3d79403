"""INI run configuration: grid, problem data, initial interface, iteration
knobs, and optional diagnostics block.

The format is deliberately expression-free: every field comes from an enum
keyword, literal numbers, or a sampled-field CSV file, so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from typing import Optional

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


class ConfigError(FblabError):
    """The configuration file is missing, malformed, or inconsistent."""


@dataclass
class DiagnosticsSpec:
    """Center, radii and trapping depth for the post-run diagnostics."""

    center: tuple
    radii: list
    levels: int = 2


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


def _existing(path: str, base: str, what: str) -> str:
    full = path if os.path.isabs(path) else os.path.join(base, path)
    if not os.path.isfile(full):
        raise ConfigError(f"{what} file does not exist: {full}")
    return full


def _same_grid_field(path: str, grid: Grid2, what: str) -> ScalarField:
    """The field in file ``path``, which must lie on the run grid; the one
    place where a field file enters the configuration."""
    try:
        f = read_field(path)
    except FieldError as err:
        raise ConfigError(f"{what}: {err}") from err
    if not grid.same_layout(f.grid):
        raise ConfigError(f"{what} grid does not match the run grid")
    return ScalarField(grid, f.values)


def _parse_scalar_spec(spec: str, grid: Grid2, base: str,
                       what: str) -> ScalarField:
    toks = _split(spec)
    if not toks:
        raise ConfigError(f"{what} is empty")
    kind = toks[0]
    if kind == "constant":
        (v,) = _floats(" ".join(toks[1:]), 1, what)
        return ScalarField.constant(grid, v)
    if kind == "file":
        if len(toks) != 2:
            raise ConfigError(f"{what}: 'file' takes one path")
        return _same_grid_field(_existing(toks[1], base, what), grid, what)
    raise ConfigError(f"{what}: unknown kind {kind!r}")


def _parse_outer_spec(spec: str, grid: Grid2, base: str) -> ScalarField:
    toks = _split(spec)
    if toks and toks[0] == "two_plane":
        beta, angle, offset = _floats(" ".join(toks[1:]), 3, "outer")
        th = math.radians(angle)
        return two_plane_field(grid, beta, (-math.sin(th), math.cos(th)),
                               offset)
    return _parse_scalar_spec(spec, grid, base, "outer")


def _parse_coefficients(spec: str, grid: Grid2, base: str) -> CoefficientField:
    toks = _split(spec)
    if not toks:
        raise ConfigError("coefficients is empty")
    kind = toks[0]
    if kind == "identity":
        return CoefficientField.identity(grid)
    try:  # a FieldError here means the matrix is not uniformly elliptic
        if kind == "constant":
            a11, a12, a22 = _floats(" ".join(toks[1:]), 3, "coefficients")
            return CoefficientField.constant(grid, a11, a12, a22)
        if kind == "file":
            if len(toks) != 4:
                raise ConfigError("coefficients: 'file' takes three paths "
                                  "(a11, a12, a22)")
            arrs = [
                _same_grid_field(_existing(p, base, "coefficients"), grid,
                                 "coefficients").values
                for p in toks[1:]
            ]
            return CoefficientField(grid, *arrs)
    except FieldError as err:
        raise ConfigError(f"coefficients: {err}") from err
    raise ConfigError(f"coefficients: unknown kind {kind!r}")


def _parse_interface(spec: str, grid: Grid2, base: str) -> LevelSet:
    toks = _split(spec)
    if not toks:
        raise ConfigError("interface is empty")
    kind = toks[0]
    if kind == "flat":
        angle, offset = _floats(" ".join(toks[1:]), 2, "interface")
        th = math.radians(angle)
        return two_plane_levelset(grid, (-math.sin(th), math.cos(th)),
                                  offset)
    if kind == "circle":
        (radius,) = _floats(" ".join(toks[1:]), 1, "interface")
        if radius <= 0:
            raise ConfigError("interface circle radius must be positive")
        return pb_levelset(grid, radius)
    if kind == "file":
        if len(toks) != 2:
            raise ConfigError("interface: 'file' takes one path")
        f = _same_grid_field(_existing(toks[1], base, "interface"), grid,
                             "interface")
        return LevelSet(grid, f.values)
    raise ConfigError(f"interface: unknown kind {kind!r}")


def _get(parser, section, key, default=None):
    if not parser.has_section(section):
        if default is None:
            raise ConfigError(f"missing [{section}] section")
        return default
    if not parser.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing {key} in [{section}]")
        return default
    return parser.get(section, key)


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
    base = os.path.dirname(os.path.abspath(path))

    version = _get(parser, "meta", "schema_version")
    if version.strip() != str(SCHEMA_VERSION):
        raise ConfigError(
            f"unsupported schema_version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}")

    try:
        nx = int(_get(parser, "grid", "nx"))
        ny = int(_get(parser, "grid", "ny"))
    except ValueError as err:
        raise ConfigError(f"grid counts: {err}") from err
    box = _floats(_get(parser, "grid", "box"), 4, "grid box")
    try:
        grid = make_grid(nx, ny, box)
    except FblabError as err:
        raise ConfigError(f"invalid grid: {err}") from err

    A = _parse_coefficients(
        _get(parser, "problem", "coefficients", "identity"), grid, base)
    f_plus = _parse_scalar_spec(
        _get(parser, "problem", "f_plus", "constant 0"), grid, base, "f_plus")
    f_minus = _parse_scalar_spec(
        _get(parser, "problem", "f_minus", "constant 0"), grid, base,
        "f_minus")
    Q = _parse_scalar_spec(
        _get(parser, "problem", "jump_target", "constant 1"), grid, base,
        "jump_target")
    outer = _parse_outer_spec(_get(parser, "problem", "outer"), grid, base)
    mask_radius = None
    raw_mask = _get(parser, "problem", "mask_radius", "")
    if raw_mask.strip():
        (mask_radius,) = _floats(raw_mask, 1, "mask_radius")
        if mask_radius <= 0:
            raise ConfigError("mask_radius must be positive")
    try:
        problem = PhaseProblem(A=A, f_plus=f_plus, f_minus=f_minus, Q=Q,
                               outer_data=outer, mask_radius=mask_radius)
    except FblabError as err:
        raise ConfigError(f"invalid problem: {err}") from err

    phi0 = _parse_interface(_get(parser, "init", "interface"), grid, base)

    kwargs = {}
    if parser.has_section("iteration"):
        casts = {"tol_jump": float, "tol_move": float, "max_iters": int,
                 "kappa": float, "reinit_every": int}
        for key in parser.options("iteration"):
            if key not in casts:
                raise ConfigError(f"unknown iteration option {key!r}")
            try:
                kwargs[key] = casts[key](parser.get("iteration", key))
            except ValueError as err:
                raise ConfigError(f"iteration {key}: {err}") from err
            if not math.isfinite(kwargs[key]):
                raise ConfigError(f"iteration {key} must be finite")
    try:
        options = IterationOptions(**kwargs)
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
        cx, cy = center
        margin = min(cx - grid.x0, grid.x1 - cx, cy - grid.y0, grid.y1 - cy)
        if max(radii) > margin:
            raise ConfigError("diagnostics radii leave the domain box")
        try:
            levels = int(_get(parser, "diagnostics", "levels", "2"))
        except ValueError as err:
            raise ConfigError(f"diagnostics levels: {err}") from err
        if levels < 0:
            raise ConfigError("diagnostics levels must be non-negative")
        diagnostics = DiagnosticsSpec(center=(cx, cy), radii=radii,
                                      levels=levels)

    return RunConfig(grid=grid, problem=problem, phi0=phi0, options=options,
                     diagnostics=diagnostics)
