"""Uniform-grid scalar fields, level sets, interface extraction and
signed-distance reinitialization.

Conventions
-----------
Fields store node values in arrays of shape ``(ny, nx)`` indexed ``[j, i]``
with ``i`` the x-index and ``j`` the y-index.  The grid is a uniform box with
square cells; ``h`` is the common spacing.  The positive phase is
``{phi > 0}``, the negative phase ``{phi < 0}``; nodes with ``phi == 0`` sit
exactly on the interface.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateInterfaceError,
    FieldError,
    GridError,
)

logger = logging.getLogger(__name__)

_SQUARE_CELL_RTOL = 1e-12
_ENVELOPE_K = 16  # nearest anchors tried per node by reinitialize


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
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and np.isclose(self.x0, other.x0, atol=1e-14)
            and np.isclose(self.y0, other.y0, atol=1e-14)
            and np.isclose(self.h, other.h, rtol=1e-14)
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


def _centered_gradient_norm(grid: Grid2, values: np.ndarray) -> np.ndarray:
    gy, gx = np.gradient(values, grid.h)
    return np.hypot(gx, gy)


def reinitialize(phi: LevelSet) -> LevelSet:
    """Rebuild ``phi`` as an (approximate) signed distance to its zero set.

    Nodes incident to a sign-change edge are anchored with a first-order
    distance estimate ``|phi| / |grad phi|`` (kept as-is when the input is
    already unit-gradient, which makes the operation idempotent); all other
    nodes take the lower envelope ``min_a (d_a + |x - x_a|)`` over anchors.
    The zero set is preserved to within the anchor estimate, i.e. under h/2.
    """
    if not phi.has_both_signs():
        raise DegenerateInterfaceError("reinitialize requires a two-signed phi")
    g = phi.grid
    p = phi.phi
    h = g.h

    sign = np.sign(p)

    # anchor set: zero nodes plus endpoints of strict sign-change edges
    anchor = p == 0.0
    cross_x = p[:, :-1] * p[:, 1:] < 0.0
    anchor[:, :-1] |= cross_x
    anchor[:, 1:] |= cross_x
    cross_y = p[:-1, :] * p[1:, :] < 0.0
    anchor[:-1, :] |= cross_y
    anchor[1:, :] |= cross_y

    gn = _centered_gradient_norm(g, p)
    # treat near-unit gradients as exact distance so that reapplication is a
    # fixed point; otherwise rescale locally
    scale = np.where(np.abs(gn - 1.0) <= _UNIT_GRADIENT_TOL, 1.0,
                     np.maximum(gn, 1e-12))
    d_anchor = np.abs(p) / scale

    jj, ii = np.nonzero(anchor)
    ax = g.x0 + ii * h
    ay = g.y0 + jj * h
    ad = d_anchor[jj, ii]

    xx, yy = g.meshgrid()
    d = np.empty(g.shape)
    d[anchor] = d_anchor[anchor]
    far_mask = ~anchor
    d[far_mask] = _lower_envelope(xx[far_mask], yy[far_mask], ax, ay, ad)
    return LevelSet(g, d * sign)


def _lower_envelope(fx, fy, ax, ay, ad):
    """Exact ``min_a (ad_a + |x - x_a|)`` at the points (fx, fy).

    The candidates are each point's ``_ENVELOPE_K`` nearest anchors.  Since
    ``ad >= 0``, no farther anchor can undercut a candidate minimum that
    lies below the k-th nearest distance; points whose minimum does not are
    recomputed over every anchor.
    """
    k = min(_ENVELOPE_K, len(ax))
    dk, idx = cKDTree(np.column_stack([ax, ay])).query(
        np.column_stack([fx, fy]), k=k)
    dk, idx = dk.reshape(len(fx), k)[:, -1], idx.reshape(len(fx), k)
    out = np.min(np.hypot(fx[:, None] - ax[idx], fy[:, None] - ay[idx])
                 + ad[idx], axis=1)
    if k < len(ax):
        # the margin covers the tree rounding its distances differently
        redo = np.nonzero(out >= dk * (1.0 - 1e-12))[0]
        chunk = max(1, 4_000_000 // len(ax))
        for s in range(0, len(redo), chunk):
            sel = redo[s:s + chunk]
            dist = np.hypot(fx[sel, None] - ax[None, :],
                            fy[sel, None] - ay[None, :])
            out[sel] = np.min(dist + ad[None, :], axis=1)
    return out


# ---------------------------------------------------------------------------
# point-to-polyline distance
# ---------------------------------------------------------------------------

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
    chunk = max(1, int(2_000_000 // max(len(segs), 1)))
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
    block of rows, which writes a 257^2 field about twice as fast as
    savetxt's one ``%`` per row."""
    data = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    row_fmt = ",".join([_FMT] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(data), _WRITE_ROWS):
            block = data[start:start + _WRITE_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_field(f: ScalarField | LevelSet, path) -> None:
    """Write a full-grid field as CSV ``x,y,value``, row-major by y then x."""
    values = f.values if isinstance(f, ScalarField) else f.phi
    xx, yy = f.grid.meshgrid()
    write_table(path, "x,y,value",
                np.column_stack([xx.ravel(), yy.ravel(), values.ravel()]))


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
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    nx, ny = len(xs), len(ys)
    if nx * ny != len(data):
        raise FieldError(f"field file {path} is not a full grid")
    try:
        grid = make_grid(nx, ny, (xs[0], ys[0], xs[-1], ys[-1]))
    except GridError as err:
        raise FieldError(f"field file {path}: {err}") from err
    xx, yy = grid.meshgrid()
    off = np.abs(data[:, :2] - np.column_stack([xx.ravel(), yy.ravel()]))
    if np.max(off) > 1e-9 * grid.h:
        raise FieldError(f"field file {path} is not a uniform grid in "
                         "row-major order (y, then x)")
    return ScalarField(grid, data[:, 2].reshape(ny, nx))


def read_levelset(path) -> LevelSet:
    f = read_field(path)
    return LevelSet(f.grid, f.values)


def write_polylines(polylines, path) -> None:
    """CSV ``component_id,vertex_id,x,y``."""
    write_table(path, "component_id,vertex_id,x,y",
                [(cid, vid, x, y) for cid, pl in enumerate(polylines)
                 for vid, (x, y) in enumerate(pl.points)])
