"""Command-line front end: experiment orchestration and data-file emission.

Subcommands
-----------
solve     run the free-boundary fixed-point iteration from a config file
diagnose  evaluate the diagnostic battery on saved u / phi fields
prandtl   closed-form disk-problem roots, sweeps, and radial profiles
verify    run the self-verification suite

Exit codes: 0 success; 1 verification hard failure; 2 non-convergence or
empty sweep; 3 invalid configuration or input files, or any other toolkit
error; 4 phase collapse.  Commands raise toolkit errors and :func:`main`
alone maps them to codes 3 and 4.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from .config import SCHEMA_VERSION, ConfigError, load_config
from .diagnostics import (
    acf_product,
    ball_quadrature,
    flatness_table,
    oscillation_decay,
    two_plane_fit,
    weiss_series,
)
from .errors import FblabError, PhaseCollapseError
from .fields import (
    interface_extract,
    read_field,
    read_levelset,
    write_field,
    write_polylines,
    write_table,
)
from .fbiter import run as fbiter_run
from .prandtl import (
    ConditionError,
    PBParams,
    radial_solution,
    threshold_roots,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NOT_CONVERGED = 2
EXIT_BAD_CONFIG = 3
EXIT_PHASE_COLLAPSE = 4

_LOCK_NAME = ".fblab.lock"


@contextmanager
def _locked_output(out_dir: str):
    """Exclusive per-directory lock; concurrent writers are refused.

    The lock is an advisory ``flock`` held on ``.fblab.lock`` for the run.
    The kernel drops it when the holder exits, however it exits, so a file
    left behind by a killed run does not block later runs.  The file itself
    is kept: unlinking it would let two runs lock different files."""
    os.makedirs(out_dir, exist_ok=True)
    lock_path = os.path.join(out_dir, _LOCK_NAME)
    fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(
                f"output directory {out_dir} is locked by another run")
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        yield out_dir
    finally:
        os.close(fd)


def _write_run_json(out_dir, summary, t0):
    """Write the deterministic ``summary.json`` and, apart from it,
    ``timings.json`` with the seconds since ``t0``, a ``perf_counter``
    reading: a monotonic clock, which a wall-clock step cannot turn back."""
    timings = {"seconds": round(time.perf_counter() - t0, 3)}
    for name, obj in (("summary.json", summary), ("timings.json", timings)):
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _flatness_payload(table):
    if table is None:
        return None
    return {
        "radii": [float(r) for r in table.radii],
        "deltas": [float(d) for d in table.deltas],
        "directions": [[float(c) for c in d] for d in table.directions],
    }


def _fit_payload(tp, residual):
    angle = math.degrees(math.atan2(-tp.nu[0], tp.nu[1]))
    return {
        "beta": float(tp.beta),
        "alpha": float(tp.alpha),
        "angle_degrees": angle,
        "offset": float(tp.c),
        "residual": float(residual),
    }


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    with _locked_output(args.out) as out_dir:
        u, phi, report = fbiter_run(cfg.problem, cfg.phi0, cfg.options)

        write_field(u, os.path.join(out_dir, "u.csv"))
        write_field(phi, os.path.join(out_dir, "phi.csv"))
        write_polylines(interface_extract(phi),
                        os.path.join(out_dir, "interface.csv"))
        write_table(os.path.join(out_dir, "iterations.csv"),
                    "iter,jump_linf,displacement,area_plus", report.rows())

        fit = monotone = None
        if cfg.diagnostics is not None:
            spec = cfg.diagnostics
            tp, residual = two_plane_fit(u, spec.center, max(spec.radii))
            fit = _fit_payload(tp, residual)
            series = weiss_series(
                u, spec.center, spec.radii, tp.alpha, tp.beta,
                ball_quadrature(u, phi, spec.center, spec.radii))
            monotone = bool(series.monotone)

        summary = {
            "schema_version": SCHEMA_VERSION,
            "converged": bool(report.converged),
            "stop_reason": report.stop_reason,
            "iterations": int(report.iterations),
            "final_jump": float(report.jump_history[-1])
            if report.iterations else None,
            "two_plane_fit": fit,
            "weiss_monotone": monotone,
            "flatness": _flatness_payload(report.flatness),
            "notes": list(report.notes),
        }
        _write_run_json(out_dir, summary, t0)

    if not report.converged:
        print("fixed-point iteration did not converge; artifacts written",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_diagnose(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    if cfg.diagnostics is None:
        raise ConfigError("diagnose requires a [diagnostics] section")
    u = read_field(args.u)
    phi = read_levelset(args.phi)
    if not u.grid.same_layout(phi.grid):
        raise ConfigError("u and phi grids differ")
    if not u.grid.same_layout(cfg.grid):
        raise ConfigError("field grids do not match the config grid")

    spec = cfg.diagnostics
    with _locked_output(args.out) as out_dir:
        tp, residual = two_plane_fit(u, spec.center, max(spec.radii))
        quad = ball_quadrature(u, phi, spec.center, spec.radii)
        series = weiss_series(u, spec.center, spec.radii, tp.alpha, tp.beta,
                              quad)
        acf = acf_product(u, phi, spec.center, spec.radii, quad)
        table = flatness_table(phi, spec.center, spec.radii)
        flat_by_r = {float(r): (d, *dirv)
                     for r, d, dirv in zip(table.radii, table.deltas,
                                           table.directions)}
        nan3 = (float("nan"),) * 3
        write_table(
            os.path.join(out_dir, "diagnostics.csv"),
            "r,E,boundary_term,phi_weiss,acf_J,delta_flat,nu_x,nu_y",
            [(r, series.E_values[k], series.boundary_terms[k],
              series.phi_values[k], acf.values[k],
              *flat_by_r.get(float(r), nan3))
             for k, r in enumerate(spec.radii)])

        trapping = None
        if spec.levels > 0:
            try:
                offsets = oscillation_decay(
                    u, spec.center, max(spec.radii), spec.levels, tp)
                trapping = [[float(a), float(b)] for a, b in offsets]
            except FblabError:
                trapping = None  # scale ladder not resolvable here

        summary = {
            "schema_version": SCHEMA_VERSION,
            "two_plane_fit": _fit_payload(tp, residual),
            "weiss_monotone": bool(series.monotone),
            "weiss_first_violation": series.first_violation,
            "acf_monotone": bool(acf.monotone),
            "trapping_offsets": trapping,
            "flatness": _flatness_payload(table),
        }
        _write_run_json(out_dir, summary, t0)
    return EXIT_OK


def _parse_sweep(specs):
    """Each spec is key=a:b:n; returns a list of (key, values)."""
    sweeps = []
    for spec in specs or ():
        try:
            key, rng = spec.split("=", 1)
            a, b, n = rng.split(":")
            values = np.linspace(float(a), float(b), int(n))
        except ValueError as err:
            raise ConfigError(f"bad sweep spec {spec!r}: {err}") from err
        if key not in ("mu", "omega", "h", "sigma"):
            raise ConfigError(f"unknown sweep key {key!r}")
        if key in dict(sweeps):
            raise ConfigError(f"sweep key {key!r} given twice")
        if len(values) < 1:
            raise ConfigError(f"empty sweep {spec!r}")
        sweeps.append((key, values))
    return sweeps


def cmd_prandtl(args) -> int:
    base = {"mu": args.mu, "omega": args.omega, "h": args.h,
            "sigma": args.sigma}
    combos = [dict(base)]
    for key, values in _parse_sweep(args.sweep):
        combos = [dict(c, **{key: float(v)})
                  for c in combos for v in values]
    # the base parameters feed the profiles even where a sweep replaces them
    for c in (base, *combos):
        if not (all(math.isfinite(v) for v in c.values())
                and min(c["mu"], c["h"], c["sigma"]) > 0
                and c["omega"] >= 0):
            raise ConfigError(
                "mu, h, sigma must be finite and positive and omega finite "
                "and non-negative, got "
                + ", ".join(f"{k}={v:g}" for k, v in c.items()))
    if args.profiles and base["omega"] == 0:
        raise ConfigError("--profiles needs omega > 0, got omega=0")

    rows, any_holds = [], False
    for c in combos:
        try:
            z0, rho_star, rho1, rho2 = threshold_roots(
                c["h"], c["mu"], c["omega"], c["sigma"])
            holds = True
        except ConditionError as err:
            z0, rho_star = err.z0, err.rho_star
            rho1 = rho2 = float("nan")
            holds = False
        any_holds = any_holds or holds
        rows.append((c["h"], c["mu"], c["omega"], c["sigma"], z0,
                     rho_star, holds, rho1, rho2))

    profiles = []  # computed first: a failed search must write nothing
    if args.profiles:
        rs = np.linspace(0.0, 1.0, 201)
        try:
            profiles = [radial_solution(PBParams(**base), branch).u(rs)
                        for branch in (1, 2)]
        except ConditionError:
            pass  # no admissible radii: sweep rows already say so

    with _locked_output(args.out) as out_dir:
        write_table(os.path.join(out_dir, "sweep.csv"),
                    "h,mu,omega,sigma,z0,rho_star,cond_holds,rho1,rho2",
                    rows)
        for branch, u in enumerate(profiles, start=1):
            write_table(os.path.join(out_dir, f"profile_branch{branch}.csv"),
                        "r,u", np.column_stack([rs, u]))

    if not any_holds:
        print("no sweep point satisfies the existence condition",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.level, out_dir=args.out)
    width = max(len(r.name) for r in results)
    hard_failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        kind = "hard" if r.hard else "audit"
        print(f"{r.name:<{width}}  {status}  {kind:<5}  "
              f"{r.seconds:7.1f}s  {r.detail}")
        if r.hard and not r.passed:
            hard_failures.append(r.name)
    if hard_failures:
        print("hard criteria failed: " + ", ".join(hard_failures),
              file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(f"all {len(results)} criteria executed; hard criteria passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblab",
        description="Two-phase free-boundary simulation and verification "
                    "toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="run the free-boundary iteration from a config file")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(fn=cmd_solve)

    p_diag = sub.add_parser(
        "diagnose", help="run the diagnostic battery on saved fields")
    p_diag.add_argument("--u", required=True)
    p_diag.add_argument("--phi", required=True)
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(fn=cmd_diagnose)

    p_pb = sub.add_parser(
        "prandtl", help="disk-problem roots, sweeps and radial profiles")
    p_pb.add_argument("--mu", type=float, required=True)
    p_pb.add_argument("--omega", type=float, required=True)
    p_pb.add_argument("--h", type=float, required=True)
    p_pb.add_argument("--sigma", type=float, required=True)
    p_pb.add_argument("--sweep", action="append", metavar="key=a:b:n")
    p_pb.add_argument("--profiles", action="store_true",
                      help="also write radial profile CSVs for both "
                           "branches")
    p_pb.add_argument("--out", required=True)
    p_pb.set_defaults(fn=cmd_prandtl)

    p_ver = sub.add_parser("verify", help="run the self-verification suite")
    p_ver.add_argument("--level", choices=("quick", "full"),
                       default="quick")
    p_ver.add_argument("--out", default="verify-out",
                       help="directory for audit report files")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the single place where toolkit errors become
    exit codes.  Anything that is not an FblabError is a defect and
    propagates with its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PhaseCollapseError as err:
        print(f"error: phase collapse: {err}", file=sys.stderr)
        return EXIT_PHASE_COLLAPSE
    except FblabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
