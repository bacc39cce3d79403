"""One measured benchmark process (started by ``run.py``, once per run).

It imports ``fblab.cli``, writes its first input, and reports the set-up
time counted from the moment its parent spawned it.  Unless
``--setup-only`` is given it then calls ``fblab.cli.main`` in a closed
loop, one call at a time, until ``--seconds`` have passed, reads its peak
RSS, runs every call's correctness gate, and prints one JSON line.

Without ``--trace``, call ``k`` uses the workload's input ``k``.  With
``--trace``, every call uses input 0, alternately untraced and traced, so
that counts repeat exactly and the tracing overhead is the median traced
minus the median untraced wall time of the same input.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import workloads
from tracer import LayerStats, Tracer, aggregate


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _size(path):
    return {"bytes": os.path.getsize(path)}


# (wrap point, span name, counts recorded from the call)
WRAPS = (
    ("fblab.cli.load_config", "config.load_config", None),
    ("fblab.cli.fbiter_run", "fbiter.run", None),
    ("fblab.fbiter.step", "fbiter.step",
     lambda a, kw, r: {"defect": float(r[2])}),
    ("fblab.fbiter.solve_phase", "elliptic.solve_phase",
     lambda a, kw, r: {"nodes": _arg(a, kw, 2, "region").node_count()}),
    ("fblab.fbiter._jump_at_points", "fbiter.jump",
     lambda a, kw, r: {"points": len(_arg(a, kw, 5, "points"))}),
    ("fblab.fbiter.interface_normal_gradient",
     "elliptic.interface_normal_gradient", None),
    ("fblab.fbiter.extend_velocity", "fbiter.extend_velocity", None),
    ("fblab.fbiter.reinitialize", "fields.reinitialize", None),
    ("fblab.fbiter.interface_extract", "fields.interface_extract", None),
    ("fblab.cli.interface_extract", "fields.interface_extract", None),
    ("fblab.diagnostics.interface_extract", "fields.interface_extract",
     None),
    ("fblab.fbiter.flatness_table", "diagnostics.flatness_table", None),
    ("fblab.cli.flatness_table", "diagnostics.flatness_table", None),
    ("fblab.cli.two_plane_fit", "diagnostics.two_plane_fit", None),
    ("fblab.diagnostics.two_plane_fit", "diagnostics.two_plane_fit", None),
    ("fblab.cli.weiss_series", "diagnostics.weiss_series", None),
    ("fblab.cli.acf_product", "diagnostics.acf_product", None),
    ("fblab.cli.oscillation_decay", "diagnostics.oscillation_decay", None),
    ("fblab.cli.write_field", "fields.write_field",
     lambda a, kw, r: _size(_arg(a, kw, 1, "path"))),
    ("fblab.cli.read_field", "fields.read_field",
     lambda a, kw, r: _size(_arg(a, kw, 0, "path"))),
    ("fblab.config.read_field", "fields.read_field",
     lambda a, kw, r: _size(_arg(a, kw, 0, "path"))),
    ("fblab.fields.read_field", "fields.read_field",
     lambda a, kw, r: _size(_arg(a, kw, 0, "path"))),
)

ROOT_SPAN = "cli"


ING = "elliptic.interface_normal_gradient"
# per-layer metric -> (unit, span name, LayerStats field or counted span
# attribute; None for the improving ratio, derived from the step sequence)
PER_LAYER = {
    f"{ING}.calls": ("count", ING, "calls"),
    f"{ING}.s": ("s", ING, "seconds"),
    f"{ING}.errors": ("count", ING, "errors"),
    "fbiter.points": ("count", "fbiter.jump", "points"),
    "fbiter.jump.s": ("s", "fbiter.jump", "seconds"),
    "elliptic.solve_phase.calls": ("count", "elliptic.solve_phase", "calls"),
    "elliptic.solve_phase.s": ("s", "elliptic.solve_phase", "seconds"),
    "elliptic.solve_phase.nodes": ("count", "elliptic.solve_phase", "nodes"),
    "fields.reinitialize.calls": ("count", "fields.reinitialize", "calls"),
    "fields.reinitialize.s": ("s", "fields.reinitialize", "seconds"),
    "fields.interface_extract.calls":
        ("count", "fields.interface_extract", "calls"),
    "fields.interface_extract.s":
        ("s", "fields.interface_extract", "seconds"),
    "fbiter.iterations": ("count", "fbiter.step", "completed"),
    "fbiter.step.calls": ("count", "fbiter.step", "calls"),
    "fbiter.step.self_s": ("s", "fbiter.step", "self_seconds"),
    "fbiter.extend_velocity.s": ("s", "fbiter.extend_velocity", "seconds"),
    "fbiter.improving_ratio": ("ratio", "fbiter.step", None),
    "diagnostics.two_plane_fit.calls":
        ("count", "diagnostics.two_plane_fit", "calls"),
    "diagnostics.two_plane_fit.s":
        ("s", "diagnostics.two_plane_fit", "seconds"),
    "diagnostics.weiss_series.s":
        ("s", "diagnostics.weiss_series", "seconds"),
    "diagnostics.acf_product.s": ("s", "diagnostics.acf_product", "seconds"),
    "diagnostics.flatness_table.s":
        ("s", "diagnostics.flatness_table", "seconds"),
    "diagnostics.oscillation_decay.self_s":
        ("s", "diagnostics.oscillation_decay", "self_seconds"),
    "fields.write_field.s": ("s", "fields.write_field", "seconds"),
    "fields.write_field.bytes": ("B", "fields.write_field", "bytes"),
    "fields.read_field.s": ("s", "fields.read_field", "seconds"),
    "fields.read_field.bytes": ("B", "fields.read_field", "bytes"),
    "config.load_config.s": ("s", "config.load_config", "seconds"),
    "cli.self_s": ("s", ROOT_SPAN, "self_seconds"),
}
# reported from the run rather than from one call's spans
RUN_METRICS = {"trace.overhead_s": "s", "trace.absent_wraps": "count"}


def _improving_ratio(spans, run_id):
    """Share of iterations after the first that lower the jump defect."""
    defects = [s.attrs["defect"] for s in spans
               if s.run_id == run_id and s.name == "fbiter.step"
               and not s.error]
    if len(defects) < 2:
        return 0.0
    better = sum(b < a for a, b in zip(defects, defects[1:]))
    return better / (len(defects) - 1)


def layer_values(spans, run_id) -> dict:
    """Every per-layer metric of one traced call; a layer that was not
    called reads 0."""
    stats = aggregate(spans, run_id)
    out = {}
    for metric, (_, span, field) in PER_LAYER.items():
        st = stats.get(span, LayerStats())
        if field is None:
            out[metric] = _improving_ratio(spans, run_id)
        elif hasattr(st, field):
            out[metric] = getattr(st, field)
        else:
            out[metric] = st.attrs.get(field, 0)
    return out


def blas_threads():
    """Thread count OpenBLAS reports for numpy's bundled library, or None
    where numpy links another BLAS."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy
    import scipy

    task_dir = "/proc/self/task"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "os_threads": (len(os.listdir(task_dir))
                       if os.path.isdir(task_dir) else None),
        "seed": seed,
    }


def _with_out(call, out_dir):
    """The same call writing to another output directory (``--out`` is the
    last argument of every generated call)."""
    return dataclasses.replace(call, out_dir=out_dir,
                               argv=call.argv[:-1] + [out_dir])


def _timed_call(cli, call, tracer=None):
    """Run one CLI call; returns (exit code or None if it raised, wall s).
    An exception from the program is a failed call, not a benchmark
    crash."""
    t = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(call.argv)
        else:
            with tracer.span(ROOT_SPAN):
                code = cli.main(call.argv)
    except Exception:  # noqa: BLE001 - counted as a failed call
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - t


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work", required=True)
    p.add_argument("--spans", help="file for the traced spans (JSON)")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="parent's time.monotonic() just before the spawn")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import fblab.cli as cli

    rho = (workloads.disk_oracle_radius()
           if args.workload == "disk_solve" else None)
    first = workloads.make_input(args.workload, args.seed, 0, args.work, rho)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    results = []  # (call, exit code, wall seconds, traced)
    t0 = time.perf_counter()
    k = 0
    while True:
        if tracer is None:
            call = first if k == 0 else workloads.make_input(
                args.workload, args.seed, k, args.work, rho)
        else:  # input 0 throughout, untraced and traced calls alternating
            call = first if k == 0 else _with_out(
                first, os.path.join(args.work, f"out0_{k}"))
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.run_id = k
            tracer.install(WRAPS)
        try:
            code, wall = _timed_call(cli, call, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        results.append((call, code, wall, traced))
        k += 1
        if time.perf_counter() - t0 >= args.seconds \
                and (tracer is None or k >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gates = [workloads.check_call(call, code if code is not None else -1)
             for call, code, _, _ in results]
    report = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "calls": [{"params": call.params, "exit": code, "wall_s": wall,
                   "traced": traced, "gate": dataclasses.asdict(g)}
                  for (call, code, wall, traced), g in zip(results, gates)],
        "env": environment(args.seed),
    }
    if tracer is not None:
        per_call = [layer_values(tracer.spans, rid)
                    for rid in range(1, len(results), 2)]
        layers = {}
        for name, (unit, _, _) in PER_LAYER.items():
            # counts repeat exactly, so keep them whole numbers
            median = (statistics.median_low if unit in ("count", "B")
                      else statistics.median)
            layers[name] = median([pc[name] for pc in per_call])
        walls = {flag: statistics.median(w for _, _, w, t in results
                                         if t == flag)
                 for flag in (True, False)}
        layers["trace.overhead_s"] = walls[True] - walls[False]
        layers["trace.absent_wraps"] = len(tracer.absent)
        report["layers"] = layers
        report["absent"] = tracer.absent
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
