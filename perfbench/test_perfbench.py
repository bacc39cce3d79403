"""Tests of the benchmark's own machinery; none runs a full workload.

Run with ``python3 -m pytest perfbench``.
"""

import json
import math
import os
import sys
import types
from dataclasses import asdict

import numpy as np
import pytest

import child
import run
import workloads
from tracer import Tracer, aggregate, self_times


def _busy(n=20000):
    return sum(range(n))


@pytest.fixture
def fake_layers():
    """A throwaway module standing in for a layer: ``outer`` calls
    ``inner`` twice through the module attribute, like fbiter calls
    solve_phase."""
    mod = types.ModuleType("fake_layers")

    def inner():
        return _busy()

    def outer():
        _busy()
        mod.inner()
        _busy()
        mod.inner()
        return _busy()

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_self_times_partition_parent_duration(fake_layers):
    tracer = Tracer()
    assert tracer.wrap("fake_layers.inner", "inner")
    assert tracer.wrap("fake_layers.outer", "outer")
    with tracer.span("root"):
        fake_layers.outer()
        _busy()
    tracer.uninstall()

    names = [s.name for s in tracer.spans]
    assert names == ["root", "outer", "inner", "inner"]
    selfs = self_times(tracer.spans)
    root = tracer.spans[0]
    assert all(s > 0 for s in selfs)
    assert sum(selfs) == pytest.approx(root.duration, rel=1e-12)
    # one level: a parent's self time plus its children's durations
    outer = tracer.spans[1]
    kids = [s.duration for s in tracer.spans if s.parent == 1]
    assert selfs[1] + sum(kids) == pytest.approx(outer.duration, rel=1e-12)

    stats = aggregate(tracer.spans, run_id=0)
    assert stats["inner"].calls == 2
    assert stats["outer"].self_seconds == pytest.approx(selfs[1])


def test_tracer_restores_and_tolerates_missing_wrap_points(fake_layers):
    original = fake_layers.inner
    tracer = Tracer()
    tracer.install([
        ("fake_layers.removed_layer", "gone", None),
        ("fake_layers_missing_module.fn", "gone", None),
        ("fake_layers.inner", "inner", lambda a, kw, r: {"value": r}),
    ])
    assert fake_layers.inner is not original
    fake_layers.inner()
    tracer.uninstall()
    assert fake_layers.inner is original
    assert tracer.absent == ["fake_layers.removed_layer",
                             "fake_layers_missing_module.fn"]
    assert tracer.spans[0].attrs == {"value": _busy()}


def test_error_spans_are_counted(fake_layers):
    def broken():
        raise ValueError("boom")

    fake_layers.inner = broken
    tracer = Tracer()
    tracer.wrap("fake_layers.inner", "inner")
    with pytest.raises(ValueError):
        fake_layers.inner()
    tracer.uninstall()
    assert aggregate(tracer.spans, 0)["inner"].errors == 1


def _disk_artifacts(tmp_path, radius, h=0.025):
    from fblab.fields import LevelSet, make_grid, write_field

    n = int(round(2.2 / h)) + 1
    grid = make_grid(n, n, (-1.1, -1.1, 1.1, 1.1))
    write_field(LevelSet.from_function(
        grid, lambda x, y: np.hypot(x, y) - radius), tmp_path / "phi.csv")
    (tmp_path / "summary.json").write_text(json.dumps({"converged": True}))
    return workloads.CallInput("disk_solve", {}, [], str(tmp_path),
                               {"rho": radius, "h": grid.h})


def _gate_row(gate):
    return {"gate": asdict(gate)}


def test_wrong_oracle_counts_as_failed_call(tmp_path):
    call = _disk_artifacts(tmp_path, radius=0.5)
    good = workloads.check_call(call, 0)
    assert good.ok and good.values["radius_err_h"] < 0.5

    h = call.expect["h"]
    wrong = dict(call.expect, rho=call.expect["rho"] + 5 * h)
    bad = workloads.check_call(
        workloads.CallInput("disk_solve", {}, [], call.out_dir, wrong), 0)
    assert not bad.ok

    crashed = workloads.check_call(call, 2)
    assert not crashed.ok

    res = run.result([_gate_row(good), _gate_row(bad), _gate_row(crashed)],
                     {})
    assert res["attempted"] == 3
    assert res["failed"] == 2
    assert res["correct"] is False


def test_missing_artifacts_fail_the_gate(tmp_path):
    call = workloads.CallInput("perturbed_solve", {}, [], str(tmp_path),
                               {"h": 0.01})
    gate = workloads.check_call(call, 0)
    assert not gate.ok and "unreadable" in gate.reason


def _input_files(call, work):
    in_dir = os.path.dirname(call.argv[call.argv.index("--config") + 1])
    out = {}
    for name in sorted(os.listdir(in_dir)):
        with open(os.path.join(in_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    rho = 0.5  # skip the oracle root-finding; it does not depend on seed
    made = []
    for rep in ("a", "b"):
        call = workloads.make_input(workload, 7, 1, str(tmp_path / rep), rho)
        made.append((call.params, _input_files(call, tmp_path / rep)))
    assert made[0] == made[1]
    other = workloads.make_input(workload, 8, 1, str(tmp_path / "c"), rho)
    assert other.params != made[0][0]


def test_seed_zero_starts_at_the_verify_inputs():
    def first(workload):
        return workloads.sequence_point(workload, 0, 0)

    lerp = workloads._lerp
    assert lerp(workloads.DISK_FACTOR, first("disk_solve")[0]) == 1.1
    assert lerp(workloads.PERTURBED_AMPLITUDE,
                2 * first("perturbed_solve")[0]) == 0.05
    beta, angle, offset, phase = first("diagnose")
    assert lerp(workloads.DIAGNOSE_BETA, beta) == pytest.approx(1.0)
    assert lerp(workloads.DIAGNOSE_ANGLE, angle) == 0.0
    assert lerp(workloads.DIAGNOSE_OFFSET, offset) == 0.0
    assert phase == 0.0


def test_sequence_prefix_covers_the_range():
    pts = [workloads.sequence_point("disk_solve", 11, k)[0]
           for k in range(8)]
    # every eighth of [0, 1) holds at most two of the first eight points
    counts = np.bincount((np.array(pts) * 8).astype(int), minlength=8)
    assert counts.max() <= 2


def test_benchmark_json_lists_the_reported_metrics():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {n: spec[0] for n, spec in child.PER_LAYER.items()}
    expected.update(child.RUN_METRICS)
    assert per_layer == expected
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "wall_s", "peak_rss_mb", "gate_ratio"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isclose(
        max(m["bound"] for m in spec["end_to_end"]),
        next(m["bound"] for m in spec["end_to_end"]
             if m["name"] == "setup_s"))


def test_step_metrics_from_spans():
    from tracer import Span

    spans = [Span("cli", 0.0, 10.0, None, 1)]
    for i, defect in enumerate([3.0, 2.0, 2.5, 1.0]):
        spans.append(Span("fbiter.step", i, i + 0.5, 0, 1,
                          attrs={"defect": defect}))
    spans.append(Span("fbiter.step", 4.0, 4.5, 0, 1, error=True))
    values = child.layer_values(spans, 1)
    assert values["fbiter.step.calls"] == 5
    assert values["fbiter.iterations"] == 4
    assert values["fbiter.improving_ratio"] == pytest.approx(2 / 3)
    assert values["cli.self_s"] == pytest.approx(10.0 - 2.5)
    assert values["diagnostics.two_plane_fit.calls"] == 0
