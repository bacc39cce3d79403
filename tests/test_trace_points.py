"""The benchmark in ``perfbench/`` times fblab's layers by wrapping module
attributes (``perfbench/child.py``'s ``WRAPS``) and reads call arguments by
position.  These tests fail when a refactor moves a wrapped name, renames a
read parameter or stops calling a layer through its module attribute, which
the benchmark would otherwise only report as ``trace.absent_wraps`` or as
missing spans.  The benchmark's input files are also checked against the
problem builders of ``fblab.problems`` and its disk problem against
``fblab.verify``'s, which its generator does not import."""

import importlib
import inspect
import os
import sys

import pytest

import fblab.cli
import fblab.config
import fblab.fbiter
import fblab.fields
from fblab.fbiter import IterationOptions, run
from fblab.fields import make_grid, write_field
from fblab.problems import (
    perturbed_plane_levelset,
    perturbed_plane_problem,
    two_plane_levelset,
    two_plane_problem,
)
from fblab.verify import DISK_BOX, disk_oracle_radius

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``child``, ``tracer`` and ``workloads`` modules."""
    sys.path.insert(0, PERFBENCH)
    try:
        return (importlib.import_module("child"),
                importlib.import_module("tracer"),
                importlib.import_module("workloads"))
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture
def tracer(bench):
    child, tracer_mod, _ = bench
    t = tracer_mod.Tracer()
    t.install(child.WRAPS)
    try:
        yield t
    finally:
        t.uninstall()


def test_every_wrap_target_resolves(tracer):
    assert tracer.absent == []


@pytest.mark.parametrize("func, index, name", [
    (fblab.fbiter.solve_phase, 2, "region"),
    (fblab.fbiter._jump_at_points, 5, "points"),
    (fblab.cli.write_field, 1, "path"),
    (fblab.cli.read_field, 0, "path"),
    (fblab.config.read_field, 0, "path"),
    (fblab.fields.read_field, 0, "path"),
])
def test_positional_arguments_read_by_the_benchmark(func, index, name):
    assert list(inspect.signature(func).parameters)[index] == name


def test_run_calls_layers_through_module_attributes(tracer):
    grid = make_grid(33, 33, (-1.0, -1.0, 1.0, 1.0))
    run(two_plane_problem(grid, 0.0, Q=0.5), two_plane_levelset(grid),
        IterationOptions(max_iters=2))
    names = [s.name for s in tracer.spans]
    assert names.count("fbiter.step") == 2
    assert names.count("elliptic.solve_phase") == 4
    assert names.count("fbiter.jump") == 2
    # one measurement of both phases per step
    assert names.count("elliptic.interface_normal_gradient") == 2


def test_perturbed_inputs_match_the_problem_builders(bench, tmp_path):
    # seed 0's first two perturbed_solve calls, one per amplitude sign
    _, _, workloads = bench
    grid = make_grid(129, 129, (-1.0, -1.0, 1.0, 1.0))
    amplitudes = []
    for k in range(2):
        a = workloads.make_input("perturbed_solve", 0, k,
                                 str(tmp_path)).params["amplitude"]
        amplitudes.append(a)
        for name, field in (("outer.csv",
                             perturbed_plane_problem(grid, a).outer_data),
                            ("phi0.csv", perturbed_plane_levelset(grid, a))):
            write_field(field, tmp_path / name)
            assert (tmp_path / name).read_bytes() \
                == (tmp_path / f"in{k}" / name).read_bytes(), (k, name)
    assert amplitudes[0] > 0 > amplitudes[1]


def test_disk_problem_matches_verify(bench):
    _, _, workloads = bench
    assert workloads.DISK_BOX == DISK_BOX
    assert workloads.disk_oracle_radius() == disk_oracle_radius()
