"""Uniform-grid scalar fields, level sets, interface extraction and
signed-distance reinitialization.

Conventions
-----------
Fields store node values in arrays of shape ``(ny, nx)`` indexed ``[j, i]``
with ``i`` the x-index and ``j`` the y-index.  The grid is a uniform box with
square cells; ``h`` is the common spacing.  The positive phase is
``{phi > 0}``, the negative phase ``{phi < 0}``; nodes with ``phi == 0`` sit
exactly on the interface.

Reinitialization keeps a first-order distance estimate at the nodes that
carry the zero set (the anchors), so the anchors alone fix the extracted
interface, which is unchanged bit for bit where ``|grad phi|`` is near 1.
Every other node takes its distance to the nearest interface vertex, an
upper bound on its distance to the polylines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import (
    DegenerateInterfaceError,
    FieldError,
    GridError,
)

logger = logging.getLogger(__name__)

_SQUARE_CELL_RTOL = 1e-12
_LAYOUT_TOL = 1e-14  # largest origin shift and relative h change of a layout


@dataclass(frozen=True)
class Grid2:
    """Uniform 2-D node grid on the box [x0, x1] x [y0, y1]."""

    nx: int
    ny: int
    x0: float
    y0: float
    x1: float
    y1: float
    h: float

    @property
    def shape(self):
        return (self.ny, self.nx)

    @property
    def xs(self):
        return self.x0 + self.h * np.arange(self.nx)

    @property
    def ys(self):
        return self.y0 + self.h * np.arange(self.ny)

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys, indexing="xy")

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def cell_of(self, x, y):
        """Cell indices (i, j) such that the point(s) lie in cell
        [x_i, x_i+h] x [y_j, y_j+h], clamped to valid cells."""
        i = np.clip(np.floor((x - self.x0) / self.h), 0, self.nx - 2)
        j = np.clip(np.floor((y - self.y0) / self.h), 0, self.ny - 2)
        return i.astype(int), j.astype(int)

    def same_layout(self, other: "Grid2") -> bool:
        """Equal node counts, origins within _LAYOUT_TOL of each other and
        spacings within _LAYOUT_TOL relative to ``other``'s."""
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and abs(self.x0 - other.x0) <= _LAYOUT_TOL
            and abs(self.y0 - other.y0) <= _LAYOUT_TOL
            and abs(self.h - other.h) <= _LAYOUT_TOL * abs(other.h)
        )


def make_grid(nx: int, ny: int, box) -> Grid2:
    """Build a uniform square-cell grid.

    ``box`` is (x0, y0, x1, y1).  Raises GridError for counts < 8, inverted
    boxes, or non-square cells.
    """
    x0, y0, x1, y1 = (float(v) for v in box)
    if nx < 8 or ny < 8:
        raise GridError(f"node counts must be >= 8, got nx={nx}, ny={ny}")
    if not (x1 > x0 and y1 > y0):
        raise GridError(f"degenerate box {box}")
    hx = (x1 - x0) / (nx - 1)
    hy = (y1 - y0) / (ny - 1)
    if abs(hx - hy) > _SQUARE_CELL_RTOL * max(abs(hx), abs(hy)):
        raise GridError(
            f"non-square cells: hx={hx!r} != hy={hy!r} for nx={nx}, ny={ny}"
        )
    return Grid2(nx=int(nx), ny=int(ny), x0=x0, y0=y0, x1=x1, y1=y1, h=hx)


def _check_values(grid: Grid2, values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise FieldError(
            f"{what} shape {values.shape} does not match grid {grid.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise FieldError(f"{what} contains non-finite values")
    return values


@dataclass
class ScalarField:
    """Node-indexed real values on a Grid2."""

    grid: Grid2
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_values(self.grid, self.values, "field values")

    @classmethod
    def from_function(cls, grid: Grid2, fn) -> "ScalarField":
        xx, yy = grid.meshgrid()
        return cls(grid, np.asarray(fn(xx, yy), dtype=float))

    @classmethod
    def constant(cls, grid: Grid2, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def sample(self, x, y):
        """Bilinear interpolation at point(s) (x, y)."""
        return bilinear_sample(self.grid, self.values, x, y)


@dataclass
class LevelSet:
    """Implicit interface: zero set of ``phi`` splits the box into phases."""

    grid: Grid2
    phi: np.ndarray

    def __post_init__(self):
        self.phi = _check_values(self.grid, self.phi, "phi")

    @classmethod
    def from_function(cls, grid: Grid2, fn) -> "LevelSet":
        xx, yy = grid.meshgrid()
        return cls(grid, np.asarray(fn(xx, yy), dtype=float))

    def has_both_signs(self) -> bool:
        return bool(np.any(self.phi > 0) and np.any(self.phi < 0))

    def sample(self, x, y):
        return bilinear_sample(self.grid, self.phi, x, y)


@dataclass
class Polyline:
    """One connected interface component, ordered vertex list."""

    points: np.ndarray  # (m, 2)
    closed: bool = False

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)

    def segments(self) -> np.ndarray:
        """(m-1, 2, 2) array of segment endpoints (m, 2, 2 if closed)."""
        pts = self.points
        if self.closed:
            pts = np.vstack([pts, pts[:1]])
        return np.stack([pts[:-1], pts[1:]], axis=1)


def bilinear_sample(grid: Grid2, values: np.ndarray, x, y):
    """Bilinear interpolation of node values; points clamped to the box."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = np.clip((x - grid.x0) / grid.h, 0.0, grid.nx - 1 - 1e-12)
    fy = np.clip((y - grid.y0) / grid.h, 0.0, grid.ny - 1 - 1e-12)
    i = np.floor(fx).astype(int)
    j = np.floor(fy).astype(int)
    tx = fx - i
    ty = fy - j
    v00 = values[j, i]
    v10 = values[j, i + 1]
    v01 = values[j + 1, i]
    v11 = values[j + 1, i + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def _masked_gradient(values, usable, h):
    """Whole-array gradient whose stencils use only ``usable`` nodes.

    Per axis it prefers the centered second-order stencil, then the forward
    and then the backward second-order biased one.  Returns ``(gx, gy,
    ok)``; ``ok`` is false where some axis has no admissible 3-node stencil.
    """
    ny, nx = values.shape
    v = np.pad(values, 2)
    use = np.pad(usable, 2)  # nodes off the grid are never usable
    out = []
    ok = np.ones(values.shape, dtype=bool)
    for shift in (lambda a, k: a[2:2 + ny, 2 + k:2 + k + nx],
                  lambda a, k: a[2 + k:2 + k + ny, 2:2 + nx]):
        centered = shift(use, -1) & shift(use, 1)
        forward = shift(use, 1) & shift(use, 2)
        backward = shift(use, -1) & shift(use, -2)
        # numerators, lowest preference first so that each stencil
        # overrides the last; in place, to hold few full-grid temporaries
        d = 3.0 * values
        d -= 4.0 * shift(v, -1)
        d += shift(v, -2)
        t = -3.0 * values
        t += 4.0 * shift(v, 1)
        t -= shift(v, 2)
        np.copyto(d, t, where=forward)
        np.subtract(shift(v, 1), shift(v, -1), out=t)
        np.copyto(d, t, where=centered)
        d /= 2.0 * h
        out.append(d)
        ok &= centered | forward | backward
    return out[0], out[1], ok


def one_sided_gradient(u: ScalarField, phi: LevelSet, side: int):
    """Gradient of ``u`` at every node from stencils restricted to one phase.

    A node is usable iff ``side * phi >= 0``.  Returns ``(gx, gy, valid)``;
    ``valid`` is false at off-side nodes and at nodes without an admissible
    3-node stencil on some axis (phase slivers thinner than 3 cells).
    """
    usable = side * phi.phi >= 0.0
    gx, gy, ok = _masked_gradient(u.values, usable, u.grid.h)
    return gx, gy, usable & ok


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

# Crossed-edge pairs of a cell, indexed by its code, the inside-corner
# bitmask (1 = node 00, 2 = 10, 4 = 11, 8 = 01).  Edges are numbered
# b = 0, r = 1, t = 2, l = 3 and -1 pads.  Rows 16 and 17 are the saddles 5
# and 10 whose cell-center average is positive.
_MS_PAIRS = np.array([
    [-1, -1, -1, -1], [3, 0, -1, -1], [0, 1, -1, -1], [3, 1, -1, -1],
    [1, 2, -1, -1], [3, 0, 2, 1], [0, 2, -1, -1], [3, 2, -1, -1],
    [2, 3, -1, -1], [2, 0, -1, -1], [0, 1, 3, 2], [2, 1, -1, -1],
    [1, 3, -1, -1], [1, 0, -1, -1], [0, 3, -1, -1], [-1, -1, -1, -1],
    [3, 2, 0, 1], [3, 0, 2, 1],
]).reshape(18, 2, 2)
# node offsets (di, dj) of the ends of edges b, r, t and l; the crossing is
# interpolated from the first end
_EDGE_NODES = np.array([[[0, 0], [1, 0]], [[1, 0], [1, 1]],
                        [[0, 1], [1, 1]], [[0, 0], [0, 1]]])


def interface_extract(phi: LevelSet) -> list[Polyline]:
    """Marching-squares zero contour of ``phi`` as ordered polylines.

    A node is inside when ``phi > 0``.  Each vertex is the linear crossing
    of a cell edge whose two nodes differ in that test, and consecutive
    vertices share a cell.  Saddle cells are disambiguated by the sign of
    the cell-center average.  Open components come first, each starting and
    ending at the box boundary; closed loops follow and do not repeat their
    first vertex at their end.  Returns an empty list (and logs) when phi
    is single-signed.
    """
    p = phi.phi
    g = phi.grid
    if not phi.has_both_signs():
        logger.warning("interface_extract: single-signed phi, empty interface")
        return []

    b = (p > 0.0).view(np.uint8)
    code = (b[:-1, :-1] | b[:-1, 1:] << 1 | b[1:, 1:] << 2 | b[1:, :-1] << 3)
    j, i = np.nonzero((code != 0) & (code != 15))
    row = code[j, i]
    center = 0.25 * (p[j, i] + p[j, i + 1] + p[j + 1, i + 1] + p[j + 1, i])
    saddle = ((row == 5) | (row == 10)) & (center > 0.0)
    row[saddle] = 16 + (row[saddle] == 10)
    pairs = _MS_PAIRS[row]
    cell, pair = np.nonzero(pairs[:, :, 0] >= 0)

    # segment k, in cell order, has the ends 2k and 2k + 1.  Each end's point
    # is computed from its own cell: the neighbour sharing the edge rounds
    # its node coordinates differently.
    off = _EDGE_NODES[pairs[cell, pair].ravel()]
    ij = np.column_stack([i, j])[np.repeat(cell, 2)]
    node = ij[:, None, :] + off
    xy = (np.array([g.x0, g.y0]) + ij * g.h)[:, None, :] + off * g.h
    val = p[node[..., 1], node[..., 0]]
    t = val[:, 0] / (val[:, 0] - val[:, 1])
    pts = xy[:, 0] + t[:, None] * (xy[:, 1] - xy[:, 0])

    # an edge is numbered by its first node, doubled, plus 1 if vertical.
    # Ends on the same edge are partners; an end without one is on the box
    # boundary.
    vertical = off[:, 0, 0] == off[:, 1, 0]
    edge = 2 * (node[:, 0, 1] * g.nx + node[:, 0, 0]) + vertical
    order = np.argsort(edge, kind="stable")
    first, second = order[:-1], order[1:]
    shared = edge[first] == edge[second]
    partner = np.full(len(edge), -1)
    partner[first[shared]] = second[shared]
    partner[second[shared]] = first[shared]

    # entering a segment at end n, the walk leaves by end n ^ 1 and enters
    # its partner.  Open components start at their first boundary end, then
    # each loop at end 0 of its first segment.
    ends = len(edge)
    follow = partner[np.arange(ends) ^ 1].tolist()
    used = bytearray(ends // 2)
    starts = np.flatnonzero(partner < 0).tolist() + list(range(0, ends, 2))
    polylines = []
    for start in starts:
        chain, n = [], start
        while n >= 0 and not used[n >> 1]:
            used[n >> 1] = 1
            chain.append(n)
            n = follow[n]
        if not chain:
            continue
        if n < 0:
            chain.append(chain[-1] ^ 1)
        polylines.append(Polyline(pts[chain], closed=n >= 0))
    return polylines


def all_interface_points(polylines) -> np.ndarray:
    """Concatenate polyline vertices into one (m, 2) array."""
    if not polylines:
        return np.zeros((0, 2))
    return np.vstack([pl.points for pl in polylines])


# ---------------------------------------------------------------------------
# reinitialization
# ---------------------------------------------------------------------------

_UNIT_GRADIENT_TOL = 0.35  # |grad phi| this close to 1 counts as unit


def reinitialize(phi: LevelSet) -> LevelSet:
    """Rebuild ``phi`` as an (approximate) signed distance to its zero set.

    Zero nodes and both ends of every strict sign-change edge are anchors.
    They keep the first-order estimate ``|phi| / |grad phi|``, or ``|phi|``
    itself where |grad phi| is within 0.35 of 1.  The anchors alone fix the
    zero set of :func:`interface_extract`, so where the gradient is near
    unit it is unchanged bit for bit.  Every other node takes its distance
    to the nearest vertex of that zero set, an upper bound on its distance
    to the polylines.  Applied to its own output, it returns that output
    bit for bit when the output's |grad phi| is within 0.35 of 1 at every
    anchor.  Elsewhere an anchor is rescaled again: on a random 41^2 level
    set, one anchor read 0.767 after one application and 27.8 after two.
    """
    if not phi.has_both_signs():
        raise DegenerateInterfaceError(
            "reinitialize requires a two-signed phi")
    g = phi.grid
    p = phi.phi

    sign = np.sign(p)

    # anchor set: zero nodes plus endpoints of strict sign-change edges
    anchor = p == 0.0
    cross_x = p[:, :-1] * p[:, 1:] < 0.0
    anchor[:, :-1] |= cross_x
    anchor[:, 1:] |= cross_x
    cross_y = p[:-1, :] * p[1:, :] < 0.0
    anchor[:-1, :] |= cross_y
    anchor[1:, :] |= cross_y

    gy, gx = np.gradient(p, g.h)
    gn = np.hypot(gx, gy)
    # treat near-unit gradients as exact distance so that reapplication is a
    # fixed point; otherwise rescale locally
    scale = np.where(np.abs(gn - 1.0) <= _UNIT_GRADIENT_TOL, 1.0,
                     np.maximum(gn, 1e-12))
    d = np.abs(p) / scale

    xx, yy = g.meshgrid()
    far = ~anchor
    vertices = all_interface_points(interface_extract(phi))
    d[far] = scipy.spatial.cKDTree(vertices).query(
        np.column_stack([xx[far], yy[far]]))[0]
    return LevelSet(g, d * sign)


# ---------------------------------------------------------------------------
# point-to-polyline distance
# ---------------------------------------------------------------------------

_DISTANCE_PAIRS = 65_536  # (point, segment) pairs per chunk: 1 MB per
# (chunk, S, 2) temporary, however many nodes are measured


def polyline_distance(points: np.ndarray, polylines) -> np.ndarray:
    """Distance from each query point to the nearest polyline segment."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not polylines:
        raise DegenerateInterfaceError("no polylines to measure against")
    segs = np.vstack([pl.segments() for pl in polylines])  # (S, 2, 2)
    a = segs[:, 0, :]
    b = segs[:, 1, :]
    ab = b - a
    denom = np.maximum(np.einsum("sk,sk->s", ab, ab), 1e-300)

    best = np.full(len(points), np.inf)
    chunk = max(1, _DISTANCE_PAIRS // max(len(segs), 1))
    for s in range(0, len(points), chunk):
        e = min(s + chunk, len(points))
        ap = points[s:e, None, :] - a[None, :, :]        # (c, S, 2)
        t = np.clip(np.einsum("csk,sk->cs", ap, ab) / denom, 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        dist = np.linalg.norm(points[s:e, None, :] - proj, axis=2)
        best[s:e] = dist.min(axis=1)
    return best


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

_FMT = "%.17g"  # the one float format of every CSV table
_WRITE_ROWS = 4096  # rows formatted per string, which bounds its size


def write_table(path, header: str, rows) -> None:
    """Write ``rows`` as a CSV table under the comma-separated ``header``,
    every entry as a float with 17 significant digits.  Integers and
    flags print as integers (``3``, ``1``) and NaN as ``nan``.

    The bytes are those of ``np.savetxt(path, data, delimiter=",",
    header=header, comments="", fmt=_FMT)``, but one ``%`` formats a whole
    block of rows in place of savetxt's one ``%`` per row."""
    data = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    row_fmt = ",".join([_FMT] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(data), _WRITE_ROWS):
            block = data[start:start + _WRITE_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_field(f: ScalarField | LevelSet, path) -> None:
    """Write a full-grid field as CSV ``x,y,value``, row-major by y then x.

    The bytes are those of :func:`write_table` on the rows ``(x, y,
    value)``, but each grid x and each grid y is formatted once, and one
    ``%`` per grid row fills in only its values."""
    values = f.values if isinstance(f, ScalarField) else f.phi
    xs = [_FMT % x for x in f.grid.xs.tolist()]
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for y, row in zip(f.grid.ys.tolist(), values):
            tail = f",{_FMT % y},{_FMT}\n"
            fh.write((tail.join(xs) + tail) % tuple(row.tolist()))


def read_field(path) -> ScalarField:
    """Read a field written by :func:`write_field`, rebuilding its grid.
    Raises FieldError, naming the file, for a file that cannot be read or
    does not hold a full uniform grid in ``write_field``'s row order."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as err:
        raise FieldError(f"cannot read field file {path}: {err}") from err
    if data.ndim != 2 or data.shape[1] != 3:
        raise FieldError(f"malformed field file {path}")
    x, y, values = data.T
    # the first grid row is the leading run of rows that share y[0]; it is
    # empty when y[0] is NaN
    differs = y != y[0]
    nx = int(np.argmax(differs)) if differs.any() else len(y)
    ny = len(y) // max(nx, 1)
    if nx * ny != len(data):
        raise FieldError(f"field file {path} is not a full grid")
    try:
        grid = make_grid(nx, ny, (x[0], y[0], x[nx - 1], y[-1]))
        field = ScalarField(grid, values.reshape(ny, nx))
    except (GridError, FieldError) as err:
        raise FieldError(f"field file {path}: {err}") from err
    max_off = np.maximum(np.max(np.abs(x.reshape(ny, nx) - grid.xs)),
                         np.max(np.abs(y.reshape(ny, nx) - grid.ys[:, None])))
    if not max_off <= 1e-9 * grid.h:  # a NaN coordinate fails too
        raise FieldError(f"field file {path} is not a uniform grid in "
                         "row-major order (y, then x)")
    return field


def read_levelset(path) -> LevelSet:
    f = read_field(path)
    return LevelSet(f.grid, f.values)


def write_polylines(polylines, path) -> None:
    """CSV ``component_id,vertex_id,x,y``."""
    write_table(path, "component_id,vertex_id,x,y",
                [(cid, vid, x, y) for cid, pl in enumerate(polylines)
                 for vid, (x, y) in enumerate(pl.points)])
