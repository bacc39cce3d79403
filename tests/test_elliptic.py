import numpy as np
import pytest

from fblab import elliptic
from fblab.elliptic import (
    _THETA_MIN,
    CoefficientField,
    PhaseRegion,
    holder_seminorm_estimate,
    interface_normal_gradient,
    solve_phase,
)
from fblab.errors import FieldError, SolverError, UnderResolvedError
from fblab.fields import (
    LevelSet,
    ScalarField,
    all_interface_points,
    interface_extract,
    make_grid,
)


def full_box_region(grid, boundary_fn):
    phi = LevelSet(grid, np.ones(grid.shape))
    outer = ScalarField.from_function(grid, boundary_fn)
    return PhaseRegion(phi=phi, sign=1, outer_data=outer)


def solve_full_box(grid, A, f_fn, boundary_fn):
    f = ScalarField.from_function(grid, f_fn)
    return solve_phase(A, f, full_box_region(grid, boundary_fn))


class TestCoefficientField:
    def test_ellipticity_bounds(self):
        grid = make_grid(9, 9, (0, 0, 1, 1))
        A = CoefficientField.constant(grid, 2.0, 0.5, 1.0)
        # eigenvalues of [[2, .5], [.5, 1]]
        lo = 1.5 - np.sqrt(0.5)
        hi = 1.5 + np.sqrt(0.5)
        assert A.lambda_min == pytest.approx(lo, rel=1e-12)
        assert A.lambda_max == pytest.approx(hi, rel=1e-12)

    def test_non_elliptic_rejected(self):
        grid = make_grid(9, 9, (0, 0, 1, 1))
        with pytest.raises(FieldError):
            CoefficientField.constant(grid, 1.0, 2.0, 1.0)

    def test_holder_seminorm_linear(self):
        grid = make_grid(17, 17, (0, 0, 1, 1))
        A = CoefficientField.from_functions(
            grid, lambda x, y: 1 + 0.5 * x, lambda x, y: 0 * x,
            lambda x, y: 1 + 0 * x)
        # Lipschitz coefficient: gamma=1 seminorm equals the slope
        assert holder_seminorm_estimate(A, 1.0) == pytest.approx(0.5, rel=1e-10)


class TestSolvePhase:
    def test_linear_exact(self):
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        A = CoefficientField.identity(grid)
        u = solve_full_box(grid, A, lambda x, y: 0 * x, lambda x, y: y)
        yy = grid.meshgrid()[1]
        assert np.max(np.abs(u.values - yy)) < 1e-10

    def test_manufactured_convergence_ratio(self):
        # L-inf error ratio between h and h/2 in [3.5, 4.5]
        errs = []
        for n in (33, 65):
            grid = make_grid(n, n, (-1, -1, 1, 1))
            A = CoefficientField.identity(grid)
            star = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
            u = solve_full_box(grid, A,
                               lambda x, y: -2 * np.pi**2 * star(x, y), star)
            xx, yy = grid.meshgrid()
            errs.append(np.max(np.abs(u.values - star(xx, yy))))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_variable_coefficients_manufactured(self):
        # anisotropic A with cross term; second-order on the full box
        import sympy as sy
        xs, ys = sy.symbols("x y")
        us = sy.sin(sy.pi * xs) * sy.cos(sy.pi * ys / 2)
        a11s = 1 + xs**2 / 4
        a12s = xs * ys / 8
        a22s = 1 + ys**2 / 4
        fs = (sy.diff(a11s * sy.diff(us, xs) + a12s * sy.diff(us, ys), xs)
              + sy.diff(a12s * sy.diff(us, xs) + a22s * sy.diff(us, ys), ys))
        u_fn = sy.lambdify((xs, ys), us, "numpy")
        f_fn = sy.lambdify((xs, ys), fs, "numpy")
        errs = []
        for n in (33, 65):
            grid = make_grid(n, n, (-1, -1, 1, 1))
            A = CoefficientField.from_functions(
                grid, lambda x, y: 1 + x**2 / 4, lambda x, y: x * y / 8,
                lambda x, y: 1 + y**2 / 4)
            u = solve_full_box(grid, A, f_fn, u_fn)
            xx, yy = grid.meshgrid()
            errs.append(np.max(np.abs(u.values - u_fn(xx, yy))))
        ratio = errs[0] / errs[1]
        assert ratio > 3.0

    def test_disk_poisson_center_value(self):
        # f = 1 on {r < 0.5} with u = 0 at the circle: u(0,0) = -rho^2/4
        grid = make_grid(129, 129, (-1, -1, 1, 1))
        A = CoefficientField.identity(grid)
        phi = LevelSet.from_function(grid, lambda x, y: 0.25 - x**2 - y**2)
        region = PhaseRegion(phi=phi, sign=1,
                             outer_data=ScalarField.constant(grid, 0.0))
        f = ScalarField.constant(grid, 1.0)
        u = solve_phase(A, f, region)
        j0 = (grid.ny - 1) // 2
        i0 = (grid.nx - 1) // 2
        assert u.values[j0, i0] == pytest.approx(-0.0625, abs=4e-3)

    def test_disk_poisson_convergence_order(self):
        # manufactured u* = sin(r^2 - rho^2), zero on the circle,
        # f = 4 cos(s) - 4 r^2 sin(s) with s = r^2 - rho^2
        errs = []
        hs = []
        for n in (33, 65, 129):
            grid = make_grid(n, n, (-1, -1, 1, 1))
            A = CoefficientField.identity(grid)
            phi = LevelSet.from_function(grid,
                                         lambda x, y: 0.25 - x**2 - y**2)
            region = PhaseRegion(phi=phi, sign=1,
                                 outer_data=ScalarField.constant(grid, 0.0))
            f = ScalarField.from_function(
                grid, lambda x, y: 4 * np.cos(x**2 + y**2 - 0.25)
                - 4 * (x**2 + y**2) * np.sin(x**2 + y**2 - 0.25))
            u = solve_phase(A, f, region)
            xx, yy = grid.meshgrid()
            rr2 = xx**2 + yy**2
            exact = np.where(rr2 < 0.25, np.sin(rr2 - 0.25), 0.0)
            mask = rr2 < 0.25
            errs.append(np.max(np.abs(u.values[mask] - exact[mask])))
            hs.append(grid.h)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 1.8

    def test_discrete_maximum_principle(self):
        rng = np.random.default_rng(7)
        grid = make_grid(33, 33, (0, 0, 1, 1))
        A = CoefficientField.identity(grid)
        bvals = rng.uniform(-1, 1, grid.shape)
        outer = ScalarField(grid, bvals)
        phi = LevelSet(grid, np.ones(grid.shape))
        region = PhaseRegion(phi=phi, sign=1, outer_data=outer)
        u = solve_phase(A, ScalarField.constant(grid, 0.0), region)
        boundary = np.zeros(grid.shape, dtype=bool)
        boundary[0, :] = boundary[-1, :] = True
        boundary[:, 0] = boundary[:, -1] = True
        assert np.max(u.values[~boundary]) <= np.max(u.values[boundary]) + 1e-12

    def test_deterministic(self):
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        A = CoefficientField.identity(grid)
        star = lambda x, y: np.sin(x) * np.cos(y)
        u1 = solve_full_box(grid, A, lambda x, y: 0 * x, star)
        u2 = solve_full_box(grid, A, lambda x, y: 0 * x, star)
        assert np.array_equal(u1.values, u2.values)

    @pytest.mark.parametrize("n", [33, 48])
    @pytest.mark.parametrize("shape", ["plane", "disk"])
    def test_zero_data_gives_no_negative_zero(self, n, shape):
        # with f = 0 and zero outer data every node is 0, and it must be
        # +0.0 wherever it sits: written fields print -0.0 as "-0"
        grid = make_grid(n, n, (-1, -1, 1, 1))
        xx, yy = grid.meshgrid()
        phi = LevelSet(grid, yy - 0.1 * xx - 0.013 if shape == "plane"
                       else 0.6 - np.hypot(xx, yy))
        zero = ScalarField.constant(grid, 0.0)
        for A in (CoefficientField.identity(grid),
                  CoefficientField.constant(grid, 1.5, 0.2, 0.8)):
            for sign in (1, -1):
                region = PhaseRegion(phi=phi, sign=sign, outer_data=zero)
                u = solve_phase(A, zero, region)
                assert np.all(u.values == 0.0)
                assert not np.any(np.signbit(u.values))

    @pytest.mark.parametrize("raised, expected", [
        (RuntimeError, SolverError), (TypeError, TypeError)])
    def test_only_factor_failures_become_solver_errors(self, raised, expected,
                                                       monkeypatch):
        # SuperLU raises RuntimeError for an exactly singular factor; any
        # other exception is a defect and propagates unchanged
        def fail(*args, **kwargs):
            raise raised("Factor is exactly singular")

        monkeypatch.setattr(elliptic.spla, "splu", fail)
        grid = make_grid(9, 9, (0, 0, 1, 1))
        with pytest.raises(expected, match="exactly singular"):
            solve_full_box(grid, CoefficientField.identity(grid),
                           lambda x, y: 0 * x, lambda x, y: y)


def reference_solve_phase(A, f, region):
    """Node-by-node assembly of the scheme ``solve_phase`` documents: face
    fluxes with arithmetic face coefficients, ghost-value elimination of
    u = 0 at cut edges (nodes closer than _THETA_MIN * h pinned to 0), and
    the 9-point a12 cross flux on rows whose 3x3 neighbourhood stays in the
    phase."""
    g = region.phi.grid
    h2 = g.h**2
    phi = region.phi.phi
    s = region.sign * phi
    ny, nx = g.shape
    pinned = (np.zeros(g.shape, dtype=bool) if region.pinned is None
              else region.pinned)
    faces = ((0, 1), (0, -1), (1, 0), (-1, 0))
    known, unknown = {}, []
    for j in range(ny):
        for i in range(nx):
            if phi[j, i] == 0.0:
                known[j, i] = 0.0
            elif s[j, i] > 0 and (j in (0, ny - 1) or i in (0, nx - 1)
                                  or pinned[j, i]):
                known[j, i] = region.outer_data.values[j, i]
            elif s[j, i] > 0:
                unknown.append((j, i))

    def theta(p, q):
        return s[p] / (s[p] - s[q])

    def outside(q):
        return s[q] <= 0 and q not in known

    for j, i in list(unknown):
        if any(outside((j + dj, i + di))
               and theta((j, i), (j + dj, i + di)) < _THETA_MIN
               for dj, di in faces):
            unknown.remove((j, i))
            known[j, i] = 0.0
    index = {p: k for k, p in enumerate(unknown)}
    M = np.zeros((len(index), len(index)))
    b = np.zeros(len(index))
    for (j, i), k in index.items():
        b[k] = -f.values[j, i]

        def add(q, w):
            if q in index:
                M[k, index[q]] += w
            else:
                b[k] -= w * known[q]

        for dj, di in faces:
            q = (j + dj, i + di)
            c = A.a11 if dj == 0 else A.a22
            aF = 0.5 * (c[j, i] + c[q])
            if outside(q):
                M[k, k] += aF / (theta((j, i), q) * h2)
            else:
                M[k, k] += aF / h2
                add(q, -aF / h2)
        if any(outside((j + dj, i + di))
               for dj in (-1, 0, 1) for di in (-1, 0, 1)):
            continue
        w = 1.0 / (4 * h2)
        for sgn, d in ((1, 1), (-1, -1)):
            # east/west face: a12 times du/dy averaged over the face nodes
            af = 0.5 * (A.a12[j, i] + A.a12[j, i + d])
            for ii in (i, i + d):
                add((j + 1, ii), -sgn * af * w)
                add((j - 1, ii), sgn * af * w)
            # north/south face: a12 times du/dx averaged over the face nodes
            af = 0.5 * (A.a12[j, i] + A.a12[j + d, i])
            for jj in (j, j + d):
                add((jj, i + 1), -sgn * af * w)
                add((jj, i - 1), sgn * af * w)
    sol = np.linalg.solve(M, b)
    out = np.zeros(g.shape)
    for p, v in known.items():
        out[p] = v
    for p, k in index.items():
        out[p] = sol[k]
    return out


def diamond_problem(sign, ring, a12):
    """The positive phase (outside a skewed diamond) touches all four box
    borders; the ring pins nodes to the outer data inside the box.  The
    interface cuts grid edges and passes through the nodes (0, +-0.5)."""
    grid = make_grid(33, 33, (-1, -1, 1, 1))
    xx, yy = grid.meshgrid()
    A = CoefficientField.from_functions(
        grid, lambda x, y: 1.2 + 0.3 * np.sin(2 * x), a12,
        lambda x, y: 1 + 0.2 * y**2)
    phi = LevelSet(grid, np.abs(xx) + np.abs(yy) + 0.1 * xx - 0.5)
    rr = np.hypot(xx, yy)
    region = PhaseRegion(
        phi=phi, sign=sign,
        outer_data=ScalarField.from_function(
            grid, lambda x, y: np.sin(x) + x * y),
        pinned=((rr >= 0.7) & (rr <= 0.8)) if ring else None)
    f = ScalarField.from_function(grid, lambda x, y: np.cos(3 * x) - y)
    return A, f, region


def near_node_problem(side):
    """Identity coefficients; the interface sits 1e-5 from node row 16,
    on the far side from the phase, whose linear data vanish on it."""
    grid = make_grid(33, 33, (-1, -1, 1, 1))
    yy = grid.meshgrid()[1]
    c = grid.ys[16] + side * 1e-5
    exact = side * (c - yy)
    region = PhaseRegion(phi=LevelSet(grid, c - yy), sign=side,
                         outer_data=ScalarField(grid, exact))
    f = ScalarField.constant(grid, 0.0)
    return CoefficientField.identity(grid), f, region, exact


class TestSolvePhaseReference:
    @pytest.mark.parametrize("ring", [False, True])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_per_node_assembly(self, sign, ring):
        A, f, region = diamond_problem(sign, ring,
                                       lambda x, y: 0.25 * np.cos(x + y))
        u = solve_phase(A, f, region)
        ref = reference_solve_phase(A, f, region)
        np.testing.assert_allclose(u.values, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("geometry", ["diamond", "ring", "near"])
    def test_symmetric_matrix_diagonal_pivots(self, geometry, sign,
                                              monkeypatch):
        # with a12 = 0 the ghost-value scheme gives an exactly symmetric
        # matrix, handed to SuperLU as CSC, and SuperLU keeps the diagonal
        # pivots of its symmetric ordering
        if geometry == "near":
            A, f, region, _ = near_node_problem(sign)
        else:
            A, f, region = diamond_problem(sign, geometry == "ring",
                                           lambda x, y: 0 * x)
        factored = []
        splu = elliptic.spla.splu

        def spy(M, **kwargs):
            lu = splu(M, **kwargs)
            factored.append((M, lu))
            return lu

        monkeypatch.setattr(elliptic.spla, "splu", spy)
        u = solve_phase(A, f, region)
        [(M, lu)] = factored
        assert M.format == "csc"
        assert abs(M - M.T).max() == 0.0
        assert np.array_equal(lu.perm_r, lu.perm_c)
        ref = reference_solve_phase(A, f, region)
        np.testing.assert_allclose(u.values, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", [1, -1])
    def test_crossing_next_to_node_pins_it(self, side):
        # theta < _THETA_MIN holds row 16 at exactly 0 instead of dividing by
        # theta, and the solve still meets its residual bound (solve_phase
        # raises SolverError otherwise)
        A, f, region, exact = near_node_problem(side)
        u = solve_phase(A, f, region)
        row = u.values[16, 1:-1]
        assert np.all(row == 0.0) and not np.any(np.signbit(row))
        # holding the row at 0 moves the linear solution by the 1e-5 offset
        in_phase = exact > 0
        assert np.max(np.abs(u.values - exact)[in_phase]) <= 1e-5 + 1e-12
        ref = reference_solve_phase(A, f, region)
        np.testing.assert_allclose(u.values, ref, rtol=0, atol=1e-12)


def two_plane(beta):
    alpha = np.sqrt(1 + beta**2)
    return lambda x, y: alpha * np.maximum(y, 0) - beta * np.maximum(-y, 0)


class TestInterfaceNormalGradient:
    def test_two_plane_both_sides(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        A = CoefficientField.identity(grid)
        u = ScalarField.from_function(grid, two_plane(0.5))
        phi = LevelSet.from_function(grid, lambda x, y: y)
        _, qp = interface_normal_gradient(u, A, phi, (0.1, 0.0), +1)
        _, qm = interface_normal_gradient(u, A, phi, (0.1, 0.0), -1)
        assert qp == pytest.approx(1.25, abs=1e-10)
        assert qm == pytest.approx(0.25, abs=1e-10)

    def test_pb_radial_positive_side(self):
        # u+ = mu (1 - log r / log rho) at r = rho = 1/e:
        # |grad u|^2 = e^2
        grid = make_grid(193, 193, (-1, -1, 1, 1))
        A = CoefficientField.identity(grid)
        rho = 1 / np.e

        def uplus(x, y):
            r = np.maximum(np.hypot(x, y), 1e-12)
            return np.where(r >= rho, 1 - np.log(r) / np.log(rho), 0.0)

        u = ScalarField.from_function(grid, uplus)
        phi = LevelSet.from_function(grid, lambda x, y: np.hypot(x, y) - rho)
        _, qp = interface_normal_gradient(u, A, phi, (rho, 0.0), +1)
        assert qp == pytest.approx(np.e**2, rel=0.03)

    def test_scaled_identity_coefficients(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        A = CoefficientField.constant(grid, 2.0, 0.0, 2.0)
        u = ScalarField.from_function(grid, two_plane(0.0))
        phi = LevelSet.from_function(grid, lambda x, y: y)
        _, qp = interface_normal_gradient(u, A, phi, (-0.2, 0.0), +1)
        assert qp == pytest.approx(2.0, abs=1e-10)

    def check_batched_matches_points(self, u, A, phi, side):
        pts = all_interface_points(interface_extract(phi))
        grads, qs = interface_normal_gradient(u, A, phi, pts, side)
        assert grads.shape == (len(pts), 2) and qs.shape == (len(pts),)
        for p, g, q in zip(pts, grads, qs):
            g1, q1 = interface_normal_gradient(u, A, phi, p, side)
            assert g1.shape == (2,) and isinstance(q1, float)
            np.testing.assert_allclose(g, g1, rtol=1e-14, atol=0)
            assert q == pytest.approx(q1, rel=1e-14, abs=0)

    def test_batched_two_plane(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        A = CoefficientField.constant(grid, 1.5, 0.2, 0.8)
        u = ScalarField.from_function(grid, two_plane(0.5))
        phi = LevelSet.from_function(grid, lambda x, y: y - 0.1 * x + 0.013)
        for side in (1, -1):
            self.check_batched_matches_points(u, A, phi, side)

    def test_batched_disk(self):
        grid = make_grid(193, 193, (-1, -1, 1, 1))
        A = CoefficientField.from_functions(
            grid, lambda x, y: 1 + 0.2 * x, lambda x, y: 0.1 * y,
            lambda x, y: 1.5 + 0 * x)
        rho = 1 / np.e
        r = lambda x, y: np.maximum(np.hypot(x, y), 1e-12)
        u = ScalarField.from_function(
            grid, lambda x, y: np.where(r(x, y) >= rho,
                                        1 - np.log(r(x, y)) / np.log(rho),
                                        0.5 * (r(x, y)**2 - rho**2)))
        phi = LevelSet.from_function(grid, lambda x, y: np.hypot(x, y) - rho)
        for side in (1, -1):
            self.check_batched_matches_points(u, A, phi, side)

    def test_one_cell_sliver_raises(self):
        grid = make_grid(17, 17, (0, 0, 1, 1))
        u = ScalarField.from_function(grid, lambda x, y: y)
        A = CoefficientField.identity(grid)
        # positive phase one node thick: no 3-node stencil on that side
        phi = LevelSet(grid, np.where(
            np.isclose(grid.meshgrid()[1], grid.ys[8]), 1.0, -1.0))
        pts = all_interface_points(interface_extract(phi))
        with pytest.raises(UnderResolvedError, match="no usable corner"):
            interface_normal_gradient(u, A, phi, pts, +1)
        with pytest.raises(UnderResolvedError):
            interface_normal_gradient(u, A, phi, pts[0], +1)
