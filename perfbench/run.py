"""fblab benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload disk_solve --seed 0 --seconds 35 \
        --trace 0

Workloads (see ``workloads.py`` for the input families and gates):

* ``disk_solve``: ``fblab solve`` on the vortex-patch disk problem, 193^2.
* ``perturbed_solve``: ``fblab solve`` on perturbed planar data, 129^2.
* ``diagnose``: ``fblab diagnose`` on a perturbed two-plane profile, 257^2.

``BENCHMARK.json`` lists only the last two.  The disk loop needs 9 to 39
iterations depending on the start radius, erratically (9-11 below factor
1.097, 33-39 up to 1.099, 17 above, 11 again at 1.110), so a run's median
wall time over its four or five seeded starts moves by more than 25% from
seed to seed.  ``disk_solve`` still runs, is gated against the closed-form
radius, and prints ``radius_err_h`` per call.

Each run starts fresh processes from this one, one at a time: a few that
only set up (import ``fblab.cli`` and write the first input), then one that
also calls ``fblab.cli.main`` in a closed loop for ``--seconds`` and checks
every call's artifacts.  With ``--trace 0`` the last line of the output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans are written to
``.perfbench_out/``.  The lines before it repeat the metrics for people,
with the environment and each call's gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import PER_LAYER, RUN_METRICS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # processes whose set-up time is measured, main included
BUDGET_S = 170.0  # seconds one run may take in all
FAILED_RATIO = 1e3  # gate_ratio of a failed call


def _spawn(args, work, extra, timeout):
    """Start one child, wait for it, and return its JSON report."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", str(work), *extra]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          stdout=subprocess.PIPE, text=True, timeout=timeout,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def result(calls, metrics) -> dict:
    """The final JSON object: a call whose gate failed is a failed
    operation."""
    failed = sum(not c["gate"]["ok"] for c in calls)
    return {"correct": failed == 0, "attempted": len(calls),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fblab" / "cli.py").is_file():
        print(f"error: no fblab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    work_root = ROOT / ".perfbench_work"
    run_dir = work_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            d = run_dir / f"setup{i}"
            setups.append(_spawn(args, d, ["--setup-only"], 60)["setup_s"])
            shutil.rmtree(d)
        extra = []
        if args.trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            extra = ["--trace", "--spans",
                     str(out / f"trace-{args.workload}-seed{args.seed}.json")]
        remaining = BUDGET_S - (time.monotonic() - t_start)
        rep = _spawn(args, run_dir / "main", extra, max(remaining, 1.0))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as err:
        print(f"error: benchmark process failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    setups.append(rep["setup_s"])

    calls = rep["calls"]
    failed = sum(not c["gate"]["ok"] for c in calls)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"calls={len(calls)} failed={failed} "
          f"({100.0 * failed / len(calls):.1f}% of calls)")
    print("env " + json.dumps(rep["env"], sort_keys=True))
    for i, c in enumerate(calls):
        g = c["gate"]
        status = "ok" if g["ok"] else f"FAILED: {g['reason']}"
        print(f"  call {i}: {json.dumps(c['params'])} exit={c['exit']} "
              f"wall={c['wall_s']:.3f}s traced={c['traced']} "
              f"{json.dumps(g['values'])} {status}")

    if args.trace:
        units = {n: spec[0] for n, spec in PER_LAYER.items()} | RUN_METRICS
        metrics = {n: {"value": rep["layers"][n], "unit": u}
                   for n, u in units.items()}
        if rep["absent"]:
            print("absent wrap points: " + ", ".join(rep["absent"]))
    else:
        walls = [c["wall_s"] for c in calls]
        ratios = [c["gate"]["ratio"] if c["gate"]["ok"] else FAILED_RATIO
                  for c in calls]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
            "gate_ratio": {"value": statistics.median(ratios),
                           "unit": "ratio"},
        }
        q1, q3 = _quartiles(walls)
        print(f"  wall_s quartiles {q1:.4f} .. {q3:.4f} s over "
              f"{len(walls)} calls; setup_s samples "
              + " ".join(f"{s:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result(calls, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
