"""Session-scoped converged runs, built once because the iteration and
acceptance suites read the same converged runs."""

import pytest

from fblab.verify import build_disk_run, build_perturbed_run


@pytest.fixture(scope="session")
def pb_run():
    """Converged vortex-patch disk run on a 193^2 grid, started 10% outside
    the outer oracle radius."""
    return build_disk_run()


@pytest.fixture(scope="session")
def perturbed_run():
    """Converged run with sinusoidally perturbed planar boundary data
    (0.05 amplitude) on a 129^2 grid."""
    return build_perturbed_run()
