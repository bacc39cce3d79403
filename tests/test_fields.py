import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fblab.errors import DegenerateInterfaceError, FieldError, GridError
from fblab.fields import (
    LevelSet,
    ScalarField,
    _masked_gradient,
    interface_extract,
    make_grid,
    one_sided_gradient,
    polyline_distance,
    read_field,
    reinitialize,
    write_field,
    write_table,
)
from fblab.problems import perturbed_plane_levelset, perturbed_plane_problem


class TestMakeGrid:
    def test_unit_spacing_65(self):
        g = make_grid(65, 65, (-1, -1, 1, 1))
        assert g.h == 2 / 64

    def test_spacing_8(self):
        g = make_grid(8, 8, (0, 0, 1, 1))
        assert g.h == pytest.approx(1 / 7, rel=1e-15)

    def test_non_square_cells_rejected(self):
        with pytest.raises(GridError):
            make_grid(65, 33, (-1, -1, 1, 1))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GridError):
            make_grid(4, 4, (0, 0, 1, 1))

    def test_inverted_box_rejected(self):
        with pytest.raises(GridError):
            make_grid(16, 16, (1, 1, 0, 0))


class TestSameLayout:
    grid = make_grid(129, 129, (-1.0, -1.0, 1.0, 1.0))

    @pytest.mark.parametrize("box", [
        (-1.0 + 1e-6, -1.0, 1.0 + 1e-6, 1.0),  # x origin shifted by 1e-6
        (-1.0, -1.0 - 1e-6, 1.0, 1.0 - 1e-6),  # y origin shifted by 1e-6
        (-1.0, -1.0, 1.0 + 1.28e-7, 1.0 + 1.28e-7),  # h 6.4e-8 longer
    ], ids=["shifted_x", "shifted_y", "stretched"])
    def test_rejects_moved_grid(self, box):
        other = make_grid(129, 129, box)
        assert not self.grid.same_layout(other)
        assert not other.same_layout(self.grid)

    def test_accepts_rounding(self):
        # origins 5e-15 off and a spacing 3 ulps off
        g = self.grid
        other = replace(g, x0=g.x0 + 5e-15, y0=g.y0 - 5e-15,
                        h=g.h + 3 * np.spacing(g.h))
        assert self.grid.same_layout(other)
        assert other.same_layout(self.grid)

    def test_round_tripped_grid_matches(self, tmp_path):
        grid = make_grid(40, 17, (0.1, -0.3, 0.1 + 39 * 0.0375, 0.3))
        write_field(ScalarField.constant(grid, 1.0), tmp_path / "u.csv")
        assert read_field(tmp_path / "u.csv").grid.same_layout(grid)


def centered_gradient(u):
    return _masked_gradient(u.values, np.ones(u.values.shape, dtype=bool),
                            u.grid.h)


class TestGradient:
    def setup_method(self):
        self.grid = make_grid(33, 33, (-1, -1, 1, 1))

    def test_linear_field_exact_centered(self):
        u = ScalarField.from_function(self.grid, lambda x, y: x)
        gx, gy, valid = centered_gradient(u)
        assert valid[17, 10]
        assert np.allclose([gx[17, 10], gy[17, 10]], [1.0, 0.0], atol=1e-14)

    def test_linear_field_exact_all_modes(self):
        u = ScalarField.from_function(self.grid, lambda x, y: 2 * x - 3 * y)
        phi = LevelSet.from_function(self.grid, lambda x, y: y)
        for gx, gy, valid in (centered_gradient(u),
                              one_sided_gradient(u, phi, 1)):
            assert valid[20, 16]
            assert np.allclose([gx[20, 16], gy[20, 16]], [2.0, -3.0],
                               atol=1e-13)
        gx, gy, valid = one_sided_gradient(u, phi, -1)
        assert valid[10, 16]
        assert np.allclose([gx[10, 16], gy[10, 16]], [2.0, -3.0], atol=1e-13)

    def test_quadratic_field_taylor_error(self):
        # centered stencil on x^2 + y^2 is exact for the quadratic; the
        # frozen oracle is the Taylor expansion of the stencil itself
        u = ScalarField.from_function(self.grid, lambda x, y: x**2 + y**2)
        i = int(round((0.5 - self.grid.x0) / self.grid.h))
        j = int(round((0.0 - self.grid.y0) / self.grid.h))
        gx, gy, valid = centered_gradient(u)
        assert valid[j, i]
        assert np.allclose([gx[j, i], gy[j, i]], [1.0, 0.0], atol=1e-12)

    def test_two_plane_one_sided_exact(self):
        # u = alpha * y+ with alpha=1: one-sided into positive just above the
        # zero line reproduces (0, 1) exactly
        u = ScalarField.from_function(self.grid, lambda x, y: np.maximum(y, 0))
        phi = LevelSet.from_function(self.grid, lambda x, y: y)
        j0 = int(round((0.0 - self.grid.y0) / self.grid.h)) + 1
        gx, gy, valid = one_sided_gradient(u, phi, 1)
        assert valid[j0, 16]
        assert np.allclose([gx[j0, 16], gy[j0, 16]], [0.0, 1.0], atol=1e-13)

    def test_sliver_has_no_stencil(self):
        grid = make_grid(17, 17, (0, 0, 1, 1))
        u = ScalarField.from_function(grid, lambda x, y: y)
        # positive phase one node thick: no 3-node stencil on that side
        phi = LevelSet(grid, np.where(
            np.isclose(grid.meshgrid()[1], grid.ys[8]), 1.0, -1.0))
        _, _, valid = one_sided_gradient(u, phi, 1)
        assert not valid[8, 8]


def reference_node_gradient(values, h, usable, i, j):
    """Per-node stencil: per axis centered, else forward, else backward
    second-order biased, over usable in-grid nodes; None if some axis has
    no stencil."""
    ny, nx = values.shape

    def ok(jj, ii):
        return 0 <= jj < ny and 0 <= ii < nx and usable[jj, ii]

    out = []
    for dj, di in ((0, 1), (1, 0)):
        if ok(j - dj, i - di) and ok(j + dj, i + di):
            out.append((values[j + dj, i + di] - values[j - dj, i - di])
                       / (2.0 * h))
        elif ok(j + dj, i + di) and ok(j + 2 * dj, i + 2 * di):
            out.append((-3.0 * values[j, i] + 4.0 * values[j + dj, i + di]
                        - values[j + 2 * dj, i + 2 * di]) / (2.0 * h))
        elif ok(j - dj, i - di) and ok(j - 2 * dj, i - 2 * di):
            out.append((3.0 * values[j, i] - 4.0 * values[j - dj, i - di]
                        + values[j - 2 * dj, i - 2 * di]) / (2.0 * h))
        else:
            return None
    return out


class TestOneSidedGradient:
    def check_against_reference(self, u, phi):
        h = u.grid.h
        for side in (1, -1):
            gx, gy, valid = one_sided_gradient(u, phi, side)
            usable = side * phi.phi >= 0
            for j in range(u.grid.ny):
                for i in range(u.grid.nx):
                    ref = reference_node_gradient(u.values, h, usable, i, j)
                    if not usable[j, i] or ref is None:
                        assert not valid[j, i]
                        continue
                    assert valid[j, i]
                    assert gx[j, i] == ref[0] and gy[j, i] == ref[1]

    def test_three_cell_sliver(self):
        grid = make_grid(17, 17, (0, 0, 1, 1))
        u = ScalarField.from_function(
            grid, lambda x, y: np.sin(3 * x) * np.exp(y) + x * y**2)
        # positive phase: rows 7..10, three cells thick
        rows = np.arange(grid.ny)[:, None] + 0 * np.arange(grid.nx)
        phi = LevelSet(grid, np.where((rows >= 7) & (rows <= 10), 1.0, -1.0))
        self.check_against_reference(u, phi)
        _, _, valid = one_sided_gradient(u, phi, 1)
        assert np.all(valid[7:11])

    def test_disk(self):
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        u = ScalarField.from_function(
            grid, lambda x, y: np.cos(2 * x) * y + x**3)
        phi = LevelSet.from_function(
            grid, lambda x, y: np.hypot(x - 0.1, y + 0.05) - 0.45)
        self.check_against_reference(u, phi)


def _edge_crossings(phi):
    """Linear crossing of every grid edge whose two nodes differ in
    ``phi > 0``, computed independently of interface_extract."""
    p = phi.phi
    xx, yy = phi.grid.meshgrid()
    out = []
    for a, b in (np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :]):
        cut = (p[a] > 0) != (p[b] > 0)
        pa, pb = p[a][cut], p[b][cut]
        t = pa / (pa - pb)
        out.append(np.column_stack([
            xx[a][cut] + t * (xx[b][cut] - xx[a][cut]),
            yy[a][cut] + t * (yy[b][cut] - yy[a][cut])]))
    return np.vstack(out)


def _check_contour(phi, pls):
    """The contract of interface_extract's polylines."""
    g = phi.grid
    tol = 1e-12
    crossings = _edge_crossings(phi)
    verts = np.vstack([pl.points for pl in pls])
    # every vertex is the crossing of a cut edge, and every cut edge gives
    # exactly one vertex: so no polyline, closed or open, repeats a vertex
    assert len(verts) == len(crossings)
    assert np.max(cKDTree(crossings).query(verts)[0]) <= tol
    assert np.max(cKDTree(verts).query(crossings)[0]) <= tol
    origin = np.array([g.x0, g.y0])
    seen_closed = False
    for pl in pls:
        pts = pl.points
        # open components come first and run from the box boundary to the
        # box boundary
        assert not (seen_closed and not pl.closed)
        seen_closed = pl.closed
        if not pl.closed:
            for x, y in pts[[0, -1]]:
                assert min(x - g.x0, g.x1 - x, y - g.y0, g.y1 - y) <= tol
        elif not np.any(phi.phi == 0.0):
            assert np.any(pts[0] != pts[-1])
        # consecutive vertices lie in one closed cell
        seg = pl.segments()
        lo = (np.min(seg, axis=1) - origin) / g.h
        hi = (np.max(seg, axis=1) - origin) / g.h
        assert np.all(np.ceil(hi - 1 - 1e-9) <= np.floor(lo + 1e-9))


# The per-cell marching squares with an edge-keyed stitch that
# interface_extract replaced, kept as the reference it must match bit for
# bit.  Edges by name: the node offsets of their ends, crossing from the
# first; pairs by cell code, saddles by (code, center average > 0).
_REF_EDGES = {"b": ((0, 0), (1, 0)), "r": ((1, 0), (1, 1)),
              "t": ((0, 1), (1, 1)), "l": ((0, 0), (0, 1))}
_REF_PAIRS = {1: "lb", 2: "br", 3: "lr", 4: "rt", 6: "bt", 7: "lt", 8: "tl",
              9: "tb", 11: "tr", 12: "rl", 13: "rb", 14: "bl",
              (5, False): "lbtr", (5, True): "ltbr",
              (10, False): "brlt", (10, True): "lbtr"}


def _reference_extract(phi):
    """[(closed, (m, 2) points)] of the zero contour, one cell at a time."""
    p, g = phi.phi, phi.grid
    segs = []  # per segment: [(edge key, point), (edge key, point)]
    for j in range(g.ny - 1):
        for i in range(g.nx - 1):
            corners = [p[j, i], p[j, i + 1], p[j + 1, i + 1], p[j + 1, i]]
            code = sum(1 << k for k, v in enumerate(corners) if v > 0)
            center = 0.25 * (corners[0] + corners[1] + corners[2]
                             + corners[3])
            names = _REF_PAIRS.get(
                (code, center > 0) if code in (5, 10) else code, "")
            x, y = g.x0 + i * g.h, g.y0 + j * g.h
            ends = []
            for name in names:
                (ai, aj), (bi, bj) = _REF_EDGES[name]
                ax, ay = (x + g.h if ai else x), (y + g.h if aj else y)
                bx, by = (x + g.h if bi else x), (y + g.h if bj else y)
                pa, pb = p[j + aj, i + ai], p[j + bj, i + bi]
                t = pa / (pa - pb)
                ends.append(((ai == bi, i + ai, j + aj),
                             (ax + t * (bx - ax), ay + t * (by - ay))))
            segs += [ends[k:k + 2] for k in range(0, len(ends), 2)]

    adj = {}
    for k, seg in enumerate(segs):
        for end, (key, _) in enumerate(seg):
            adj.setdefault(key, []).append((k, end))
    used = [False] * len(segs)

    def walk(k, end):
        first_key, pts = segs[k][end][0], []
        while True:
            used[k] = True
            pts.append(segs[k][end][1])
            key, last = segs[k][1 - end]
            nxt = [(m, e) for m, e in adj[key] if not used[m]]
            if not nxt:
                return pts, last, key == first_key
            k, end = nxt[0]

    out = []
    for k, end in [items[0] for items in adj.values() if len(items) == 1]:
        if not used[k]:
            pts, last, _ = walk(k, end)
            out.append((False, np.array(pts + [last])))
    for k in range(len(segs)):
        if not used[k]:
            pts, last, closed = walk(k, 0)
            out.append((closed, np.array(pts if closed else pts + [last])))
    return out


def _open_and_loop(x, y):
    """Zero set: an open curve across the box and a circle below it."""
    return np.maximum(y - 0.6 - 0.1 * np.sin(3 * x),
                      0.3 - np.hypot(x, y + 0.2))


def _noise(x, y):
    return np.random.default_rng(7).standard_normal(x.shape)


_CONTOUR_FIELDS = {
    "circle": lambda x, y: x**2 + y**2 - 0.25,
    "perturbed": lambda x, y: y - 0.1 * np.sin(np.pi * x),
    "sin_cos": lambda x, y: np.sin(7 * x) * np.cos(5 * y),
    "open_and_loop": _open_and_loop,
    "noise": _noise,
    "rounded_noise": lambda x, y: np.round(_noise(x, y)),
    # every cell a saddle, with center averages of both signs
    "saddles": lambda x, y: np.where(np.indices(x.shape).sum(axis=0) % 2,
                                     -1.0, 1.0) + 0.3 * np.sin(3 * x + 2 * y),
}

# A field with saddles of code 5 (cells (1, 5) and (4, 1)) and code 10
# (cells (1, 2), (4, 0) and (5, 5)), center averages 0 and positive, a zero
# node and two open components; its polylines as the dict-based extractor
# wrote them, bit for bit.
_SADDLE_FIELD = [
    [3, 2, -1, -1, -1, 3, -1, -1],
    [2, -1, -1, -1, 3, -1, -1, -1],
    [-1, -1, 1, 0, -1, 1, -1, -1],
    [-1, 1, -1, -1, -1, -1, -1, -1],
    [-1, -1, -1, -1, -1, -1, -1, -1],
    [-1, 1, -1, -1, -1, -1, 2, -1],
    [-1, -1, 1, -1, -1, 2, -1, -1],
    [-1, -1, -1, -1, -1, -1, -1, -1],
]
_SADDLE_POLYLINES = [
    (False, [[-0.5238095238095238, -1.0],
             [-0.7142857142857143, -0.8095238095238095],
             [-0.8095238095238095, -0.7142857142857143],
             [-1.0, -0.5238095238095238]]),
    (False, [[0.21428571428571422, -1.0],
             [0.1428571428571428, -0.9285714285714286],
             [-0.07142857142857148, -0.7142857142857143],
             [0.1428571428571428, -0.5],
             [0.28571428571428564, -0.4285714285714286],
             [0.4285714285714284, -0.28571428571428575],
             [0.5714285714285712, -0.4285714285714286],
             [0.4285714285714285, -0.5714285714285714],
             [0.3571428571428571, -0.7142857142857143],
             [0.4285714285714284, -0.7857142857142857],
             [0.6428571428571427, -1.0]]),
    (True, [[-0.4285714285714286, -0.5714285714285714],
            [-0.5714285714285714, -0.4285714285714286],
            [-0.4285714285714286, -0.28571428571428575],
            [-0.1428571428571429, -0.4285714285714286]]),
    (True, [[-0.7142857142857143, -0.28571428571428575],
            [-0.8571428571428572, -0.1428571428571429],
            [-0.7142857142857143, -5.551115123125783e-17],
            [-0.5714285714285714, -0.1428571428571429]]),
    (True, [[-0.7142857142857143, 0.28571428571428564],
            [-0.8571428571428572, 0.4285714285714284],
            [-0.7142857142857143, 0.5714285714285712],
            [-0.5714285714285714, 0.4285714285714285]]),
    (True, [[0.7142857142857141, 0.23809523809523803],
            [0.5238095238095236, 0.4285714285714284],
            [0.4285714285714285, 0.5238095238095236],
            [0.23809523809523803, 0.7142857142857142],
            [0.4285714285714284, 0.9047619047619047],
            [0.6190476190476188, 0.7142857142857141],
            [0.7142857142857142, 0.6190476190476188],
            [0.9047619047619047, 0.4285714285714285]]),
    (True, [[-0.5714285714285714, 0.7142857142857141],
            [-0.4285714285714286, 0.5714285714285712],
            [-0.28571428571428575, 0.7142857142857142],
            [-0.4285714285714286, 0.857142857142857]]),
]


class TestInterfaceExtract:
    def test_flat_line_exact(self):
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, lambda x, y: y)
        pls = interface_extract(phi)
        assert len(pls) == 1
        assert np.allclose(pls[0].points[:, 1], 0.0, atol=1e-14)

    def test_circle_perimeter(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, lambda x, y: x**2 + y**2 - 0.25)
        pls = interface_extract(phi)
        assert len(pls) == 1
        assert pls[0].closed
        seg = pls[0].segments()
        perimeter = np.sum(np.linalg.norm(seg[:, 1] - seg[:, 0], axis=1))
        assert perimeter == pytest.approx(np.pi, rel=0.02)

    def test_single_signed_empty(self):
        grid = make_grid(16, 16, (0, 0, 1, 1))
        phi = LevelSet(grid, np.ones(grid.shape))
        assert interface_extract(phi) == []

    def test_consecutive_vertex_spacing(self):
        grid = make_grid(49, 49, (-1, -1, 1, 1))
        phi = LevelSet.from_function(
            grid, lambda x, y: y - 0.1 * np.sin(np.pi * x))
        pls = interface_extract(phi)
        for pl in pls:
            gaps = np.linalg.norm(np.diff(pl.points, axis=0), axis=1)
            assert np.all(gaps <= 2 * grid.h + 1e-12)

    @pytest.mark.parametrize("code", [5, 10])
    @pytest.mark.parametrize("high, loops", [
        (0.5, [4, 4]), (1.0, [4, 4]), (1.5, [8])])
    def test_saddle_cell(self, code, high, loops):
        # cell (3, 3) has code 5 (nodes 00 and 11 inside) or 10 (nodes 10
        # and 01 inside) and the center average (high - 1) / 2: at most 0
        # separates the two inside nodes, positive joins them
        grid = make_grid(8, 8, (0, 0, 7, 7))
        values = -np.ones(grid.shape)
        inside = [(3, 3), (4, 4)] if code == 5 else [(3, 4), (4, 3)]
        for j, i in inside:
            values[j, i] = high
        phi = LevelSet(grid, values)
        pls = interface_extract(phi)
        assert all(pl.closed for pl in pls)
        assert [len(pl.points) for pl in pls] == loops
        if len(pls) == 2:
            centers = sorted(tuple(pl.points.mean(axis=0)) for pl in pls)
            assert np.allclose(centers, sorted((i, j) for j, i in inside))
        _check_contour(phi, pls)

    def test_exact_zero_nodes_count_as_outside(self):
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        values = grid.meshgrid()[1].copy()  # the row j = 16 is y = 0
        values[24, 8] = 0.0  # a zero node inside the positive phase
        pls = interface_extract(LevelSet(grid, values))
        assert [pl.closed for pl in pls] == [False, True]
        # a crossing from a zero node to a positive one lies on the node
        line = pls[0].points
        assert np.array_equal(line[np.argsort(line[:, 0])],
                              np.column_stack([grid.xs, np.zeros(33)]))
        assert np.array_equal(pls[1].points,
                              np.tile([grid.xs[8], grid.ys[24]], (4, 1)))

    def test_open_component_then_loop(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, _open_and_loop)
        pls = interface_extract(phi)
        assert [pl.closed for pl in pls] == [False, True]
        ends = pls[0].points[[0, -1]]
        assert sorted(np.abs(ends[:, 0])) == [1.0, 1.0]
        x, y = pls[1].points.T
        assert np.allclose(np.hypot(x, y + 0.2), 0.3, atol=grid.h)

    @pytest.mark.parametrize("n", [9, 17, 33, 65])
    @pytest.mark.parametrize("name", sorted(_CONTOUR_FIELDS))
    def test_contour_contract(self, name, n):
        grid = make_grid(n, n, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, _CONTOUR_FIELDS[name])
        pls = interface_extract(phi)
        _check_contour(phi, pls)
        ref = _reference_extract(phi)
        assert [pl.closed for pl in pls] == [closed for closed, _ in ref]
        assert [pl.points.tobytes() for pl in pls] == \
            [pts.tobytes() for _, pts in ref]

    def test_saddle_field_frozen(self):
        phi = LevelSet(make_grid(8, 8, (-1, -1, 1, 1)),
                       np.array(_SADDLE_FIELD, dtype=float))
        pls = interface_extract(phi)
        assert [(pl.closed, pl.points.tolist()) for pl in pls] == \
            _SADDLE_POLYLINES
        assert [(closed, pts.tolist())
                for closed, pts in _reference_extract(phi)] == \
            _SADDLE_POLYLINES
        _check_contour(phi, pls)


# level sets whose gradient is within 0.35 of unit near their zero set
_UNIT_FIELDS = {
    "wavy": lambda x, y: y - 0.1 * np.sin(np.pi * x),
    "circle": lambda x, y: x**2 + y**2 - 0.25,
}


class TestReinitialize:
    def test_scaled_plane_recovers_distance(self):
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, lambda x, y: 3 * y)
        d = reinitialize(phi)
        yy = grid.meshgrid()[1]
        assert np.max(np.abs(d.phi - yy)) < 1e-10

    def test_cubic_plane_near_axis(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, lambda x, y: y**3)
        d = reinitialize(phi)
        yy = grid.meshgrid()[1]
        band = np.abs(yy) <= 0.2
        assert np.max(np.abs(d.phi[band] - yy[band])) < 2 * grid.h

    def test_circle_distance(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, lambda x, y: x**2 + y**2 - 0.25)
        d = reinitialize(phi)
        xx, yy = grid.meshgrid()
        rr = np.hypot(xx, yy)
        exact = rr - 0.5
        # away from the skeleton point at the center
        mask = rr > 0.1
        assert np.max(np.abs(d.phi[mask] - exact[mask])) < grid.h

    def test_unit_gradient_away_from_interface(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, lambda x, y: x**2 + y**2 - 0.25)
        d = reinitialize(phi)
        xx, yy = grid.meshgrid()
        rr = np.hypot(xx, yy)
        gy, gx = np.gradient(d.phi, grid.h)
        gn = np.hypot(gx, gy)
        # exclude the interface band, the skeleton, and the box border where
        # the centered difference degrades
        mask = (np.abs(rr - 0.5) > 2 * grid.h) & (rr > 0.15) & \
            (np.abs(xx) < 0.9) & (np.abs(yy) < 0.9)
        assert np.max(np.abs(gn[mask] - 1.0)) < 0.1

    def test_zero_set_displacement(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, lambda x, y: x**2 + y**2 - 0.25)
        before = interface_extract(phi)
        d = reinitialize(phi)
        after = interface_extract(d)
        pts = np.vstack([pl.points for pl in after])
        assert np.max(polyline_distance(pts, before)) < grid.h / 2

    @pytest.mark.parametrize("name", sorted(_UNIT_FIELDS))
    def test_zero_set_unchanged(self, name):
        # with |grad phi| within 0.35 of 1 where the sign changes, every
        # anchor keeps |phi|, and so does every vertex of the zero set
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, _UNIT_FIELDS[name])
        gy, gx = np.gradient(phi.phi, grid.h)
        anchor = reference_anchors(phi.phi)
        assert np.all(np.abs(np.hypot(gx, gy)[anchor] - 1.0) <= 0.35)
        before = interface_extract(phi)
        after = interface_extract(reinitialize(phi))
        assert [pl.closed for pl in after] == [pl.closed for pl in before]
        assert all(np.array_equal(a.points, b.points)
                   for a, b in zip(after, before))

    @pytest.mark.parametrize("name", sorted(_UNIT_FIELDS))
    def test_far_nodes_bound_polyline_distance(self, name):
        # the nearest vertex is no nearer than the polylines, and no farther
        # than the nearest point on them plus half the longest segment
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, _UNIT_FIELDS[name])
        pls = interface_extract(phi)
        segs = np.vstack([pl.segments() for pl in pls])
        half = 0.5 * np.max(np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1))
        far = ~reference_anchors(phi.phi)
        xx, yy = grid.meshgrid()
        exact = polyline_distance(np.column_stack([xx[far], yy[far]]), pls)
        d = np.abs(reinitialize(phi).phi[far])
        assert np.all(d >= exact - 1e-12)
        assert np.all(d**2 <= exact**2 + half**2 + 1e-12)

    def test_idempotent(self):
        # every anchor of these fields keeps |phi|, so reapplying is a
        # fixed point to the bit
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        for fn in _UNIT_FIELDS.values():
            d1 = reinitialize(LevelSet.from_function(grid, fn))
            assert np.array_equal(reinitialize(d1).phi, d1.phi)

    def test_sign_pattern_preserved(self):
        grid = make_grid(65, 65, (-1, -1, 1, 1))
        phi = LevelSet.from_function(
            grid, lambda x, y: y - 0.1 * np.sin(np.pi * x))
        d = reinitialize(phi)
        assert np.array_equal(np.sign(d.phi), np.sign(phi.phi))

    def test_single_signed_rejected(self):
        grid = make_grid(16, 16, (0, 0, 1, 1))
        with pytest.raises(DegenerateInterfaceError):
            reinitialize(LevelSet(grid, np.ones(grid.shape)))


def reference_anchors(p):
    """Zero nodes and both ends of every strict sign-change edge."""
    anchor = p == 0.0
    cross_x = p[:, :-1] * p[:, 1:] < 0.0
    anchor[:, :-1] |= cross_x
    anchor[:, 1:] |= cross_x
    cross_y = p[:-1, :] * p[1:, :] < 0.0
    anchor[:-1, :] |= cross_y
    anchor[1:, :] |= cross_y
    return anchor


def reference_reinitialize(phi):
    """The anchors of :func:`reinitialize` keep ``|phi| / scale``; every
    other node takes its distance to the nearest extracted vertex, found by
    comparing with all of them."""
    g, p = phi.grid, phi.phi
    anchor = reference_anchors(p)
    gy, gx = np.gradient(p, g.h)
    gn = np.hypot(gx, gy)
    scale = np.where(np.abs(gn - 1.0) <= 0.35, 1.0, np.maximum(gn, 1e-12))
    d = np.abs(p) / scale
    px, py = np.vstack([pl.points for pl in interface_extract(phi)]).T
    xx, yy = g.meshgrid()
    far = ~anchor
    dist2 = (xx[far][:, None] - px[None, :]) ** 2 \
        + (yy[far][:, None] - py[None, :]) ** 2
    d[far] = np.sqrt(np.min(dist2, axis=1))
    return d * np.sign(p)


class TestPolylineDistance:
    @pytest.fixture(scope="class")
    def nodes(self):
        """The 129^2 nodes of [-1, 1]^2 and the perturbed plane's interface,
        as nondegeneracy measures them."""
        grid = make_grid(129, 129, (-1, -1, 1, 1))
        xx, yy = grid.meshgrid()
        return (np.column_stack([xx.ravel(), yy.ravel()]),
                interface_extract(perturbed_plane_levelset(grid)))

    def test_working_set_is_bounded(self, nodes):
        # 16 641 nodes against 141 segments: chunked (point, segment)
        # temporaries, not one block of millions of pairs
        pts, pls = nodes
        tracemalloc.start()
        try:
            polyline_distance(pts, pls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_chunks_match_single_points(self, nodes):
        pts, pls = nodes
        rows = np.random.default_rng(0).choice(len(pts), 200, replace=False)
        whole = polyline_distance(pts, pls)
        single = [polyline_distance(pts[i], pls)[0] for i in rows]
        assert np.array_equal(whole[rows], single)


class TestReinitializeExact:
    """Anchors and nearest-vertex distances match an all-pairs reference
    bit for bit."""

    # k is the wave number of the random fields and the slope of the sliver;
    # slope 1 takes the unit-gradient branch, slopes 0.4 and 2 rescale
    @pytest.mark.parametrize("k", [3, 1, 2], ids=["default_k", "k1", "k2"])
    def test_random_level_sets(self, k):
        rng = np.random.default_rng(7)
        grid = make_grid(41, 41, (-1, -1, 1, 1))
        xx, yy = grid.meshgrid()
        for _ in range(4):
            a, b = rng.normal(size=(2, 3))
            vals = (np.sin(a[0] * k * xx + a[1]) * np.cos(b[0] * k * yy)
                    + 0.5 * a[2] * xx + b[1] * yy**2 - 0.2 * b[2]
                    + 0.05 * rng.normal(size=grid.shape))
            phi = LevelSet(grid, vals - np.median(vals))
            assert np.array_equal(reinitialize(phi).phi,
                                  reference_reinitialize(phi))

    @pytest.mark.parametrize("k", [0.4, 1, 2], ids=["default_k", "k1", "k2"])
    def test_sliver_level_set(self, k):
        grid = make_grid(33, 33, (0, 0, 1, 1))
        yy = grid.meshgrid()[1]
        phi = LevelSet(grid, k * (grid.h / 2 - np.abs(yy - 0.51)))
        assert np.array_equal(reinitialize(phi).phi,
                              reference_reinitialize(phi))

    def test_flat_level_set(self):
        # a straight zero set, where many vertices are almost equally near
        grid = make_grid(129, 129, (-1, -1, 1, 1))
        phi = LevelSet.from_function(grid, lambda x, y: 1.3 * (y - 0.0123))
        assert np.array_equal(reinitialize(phi).phi,
                              reference_reinitialize(phi))

    def test_zero_node_level_set(self):
        # the field of test_exact_zero_nodes_count_as_outside
        grid = make_grid(33, 33, (-1, -1, 1, 1))
        values = grid.meshgrid()[1].copy()
        values[24, 8] = 0.0
        phi = LevelSet(grid, values)
        assert np.array_equal(reinitialize(phi).phi,
                              reference_reinitialize(phi))


class TestCsvRoundTrip:
    def test_field_round_trip(self, tmp_path):
        grid = make_grid(17, 17, (-1, -1, 1, 1))
        u = ScalarField.from_function(grid, lambda x, y: np.sin(x) * y)
        path = tmp_path / "u.csv"
        write_field(u, path)
        v = read_field(path)
        assert v.grid.nx == 17 and v.grid.ny == 17
        assert np.allclose(v.values, u.values, atol=1e-15)

    @pytest.mark.parametrize("content", [
        None,                        # no such file
        "x,y,value\nabc\n",         # not a number
        "x,y,value\n0,0,1\n",       # one row: not a grid
    ], ids=["missing", "garbage", "one_row"])
    def test_unreadable_file_names_path(self, tmp_path, content):
        path = tmp_path / "u.csv"
        if content is not None:
            path.write_text(content)
        with pytest.raises(FieldError, match="u.csv"):
            read_field(path)

    @pytest.mark.parametrize("n", [129, 257])
    def test_round_trip_bit_identical(self, tmp_path, n):
        # the grids and profiles of the benchmark's input files
        grid = make_grid(n, n, (-1.0, -1.0, 1.0, 1.0))
        u = perturbed_plane_problem(grid).outer_data
        write_field(u, tmp_path / "u.csv")
        v = read_field(tmp_path / "u.csv")
        assert v.grid == grid
        assert np.array_equal(v.values, u.values)

    @staticmethod
    def grid_rows(n):
        """``x + 10y`` on n x n nodes of the unit square, in write_field's
        row order."""
        xx, yy = np.meshgrid(np.linspace(0.0, 1.0, n),
                             np.linspace(0.0, 1.0, n))
        return np.column_stack([xx.ravel(), yy.ravel(),
                                (xx + 10 * yy).ravel()])

    @pytest.mark.parametrize("case", ["shuffled", "squared_x"])
    def test_misread_layout_names_path(self, tmp_path, case):
        rows = self.grid_rows(9)
        if case == "shuffled":
            rows = rows[np.random.default_rng(0).permutation(len(rows))]
        else:
            rows[:, 0] **= 2  # same end points and count, not uniform
        path = tmp_path / "u.csv"
        write_table(path, "x,y,value", rows)
        with pytest.raises(FieldError, match="u.csv"):
            read_field(path)

    @pytest.mark.parametrize("ncol", [1, 3])
    @pytest.mark.parametrize("nrow", [0, 1, 4095, 4096, 4097, 9000])
    def test_table_bytes_match_savetxt(self, tmp_path, nrow, ncol):
        # block boundaries at 4096 rows, and the entries whose text is
        # special: nan, +-inf, -0, integer-valued floats and huge values
        rng = np.random.default_rng(nrow + ncol)
        data = rng.standard_normal((nrow, ncol)) * 10.0 ** rng.integers(
            -300, 300, (nrow, ncol))
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 3.0, -7.0, 1e300,
                   -1e300, 1.0 / 3.0, 5e-324]
        flat = data.reshape(-1)
        flat[rng.choice(flat.size, min(flat.size, 40), replace=False)] = \
            np.resize(special, min(flat.size, 40))
        header = ",".join(f"c{k}" for k in range(ncol))
        write_table(tmp_path / "new.csv", header, data)
        np.savetxt(tmp_path / "ref.csv", data, delimiter=",", header=header,
                   comments="", fmt="%.17g")
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n, box", [
        ((129, 129), (-1.0, -1.0, 1.0, 1.0)),
        ((257, 257), (-1.0, -1.0, 1.0, 1.0)),
        ((40, 17), (0.1, -0.3, 0.1 + 39 * 0.0375, 0.3)),
    ], ids=["129", "257", "non_square_box"])
    def test_field_bytes_match_savetxt(self, tmp_path, n, box):
        # the x and y columns are formatted once per grid line, the values
        # per node; the special texts are -0, integers and subnormals
        grid = make_grid(*n, box)
        rng = np.random.default_rng(n[0])
        values = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(
            -300, 300, grid.shape)
        special = [-0.0, 0.0, 3.0, -7.0, 1e16, 5e-324, -5e-324, 1e-323,
                   2.2250738585072014e-308]
        flat = values.reshape(-1)
        flat[rng.choice(flat.size, 90, replace=False)] = np.resize(special, 90)
        write_field(LevelSet(grid, values), tmp_path / "new.csv")
        xx, yy = grid.meshgrid()
        np.savetxt(tmp_path / "ref.csv",
                   np.column_stack([xx.ravel(), yy.ravel(), values.ravel()]),
                   delimiter=",", header="x,y,value", comments="",
                   fmt="%.17g")
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_path(self, tmp_path, bad):
        rows = self.grid_rows(9)
        rows[40, 2] = bad
        path = tmp_path / "u.csv"
        write_table(path, "x,y,value", rows)
        with pytest.raises(FieldError, match="u.csv.*non-finite"):
            read_field(path)

    @pytest.mark.parametrize("row, col", [
        (0, 1), (0, 0), (8, 0), (40, 0), (40, 1), (80, 1),
    ])
    def test_nan_coordinate_names_path(self, tmp_path, row, col):
        rows = self.grid_rows(9)
        rows[row, col] = np.nan
        path = tmp_path / "u.csv"
        write_table(path, "x,y,value", rows)
        with pytest.raises(FieldError, match="u.csv"):
            read_field(path)

    def test_too_small_grid_names_path(self, tmp_path):
        path = tmp_path / "u.csv"
        write_table(path, "x,y,value", self.grid_rows(4))
        with pytest.raises(FieldError, match="u.csv.*nx=4, ny=4"):
            read_field(path)
