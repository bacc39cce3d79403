"""Variable-coefficient divergence-form Dirichlet solver on one phase of a
level-set-partitioned box, plus one-sided interface gradient extraction.

Interface gradients are measured for a whole batch of interface points at
once: one whole-array one-sided node gradient per phase, blended bilinearly
at probe points along the normal and extrapolated back to the interface.

Discretization: node-centered finite-volume fluxes with arithmetic face
averaging of the coefficient matrix.  The free boundary carries the value
u = 0, imposed by ghost-value elimination at the linear-interpolation
crossing of each cut edge (locally first order, globally second order for
Dirichlet data).  The cross term ``a12`` uses a 9-point treatment and is
dropped on rows whose stencil crosses the interface.  The matrix is thus
symmetric when ``a12 = 0`` and structurally close to symmetric otherwise, so
SuperLU factors it in symmetric mode on a minimum-degree ordering of A + A^T,
which fills less than a column ordering; partial pivoting stays on.

The box border is always Dirichlet data, so no unknown sits on it.  The
assembly therefore reads every stencil from shifted views of the interior
block, ``a[1+dj:ny-1+dj, 1+di:nx-1+di]``, and never leaves the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FieldError, SolverError, UnderResolvedError
from .fields import (
    Grid2,
    LevelSet,
    ScalarField,
    bilinear_sample,
    one_sided_gradient,
)

# an interface crossing closer than this fraction of h to a node pins the
# node to the interface value instead of producing a huge ghost coefficient
_THETA_MIN = 1e-3


@dataclass
class CoefficientField:
    """Symmetric 2x2 coefficient matrix per node with ellipticity bounds."""

    grid: Grid2
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    lambda_min: float = 0.0
    lambda_max: float = 0.0

    def __post_init__(self):
        for name in ("a11", "a12", "a22"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise FieldError(f"{name} shape mismatch")
            if not np.all(np.isfinite(arr)):
                raise FieldError(f"{name} contains non-finite values")
            setattr(self, name, arr)
        tr = self.a11 + self.a22
        disc = np.sqrt((self.a11 - self.a22) ** 2 + 4 * self.a12**2)
        lo = 0.5 * (tr - disc)
        hi = 0.5 * (tr + disc)
        self.lambda_min = float(lo.min())
        self.lambda_max = float(hi.max())
        if self.lambda_min <= 0:
            raise FieldError(
                f"coefficient matrix not uniformly elliptic "
                f"(lambda_min={self.lambda_min})"
            )

    @classmethod
    def identity(cls, grid: Grid2) -> "CoefficientField":
        one = np.ones(grid.shape)
        return cls(grid, one, np.zeros(grid.shape), one.copy())

    @classmethod
    def constant(cls, grid: Grid2, a11: float, a12: float,
                 a22: float) -> "CoefficientField":
        full = np.full
        return cls(grid, full(grid.shape, float(a11)),
                   full(grid.shape, float(a12)), full(grid.shape, float(a22)))

    @classmethod
    def from_functions(cls, grid: Grid2, f11, f12, f22) -> "CoefficientField":
        xx, yy = grid.meshgrid()
        return cls(grid, np.asarray(f11(xx, yy), dtype=float) + 0 * xx,
                   np.asarray(f12(xx, yy), dtype=float) + 0 * xx,
                   np.asarray(f22(xx, yy), dtype=float) + 0 * xx)

    def matrix_at(self, x: float, y: float) -> np.ndarray:
        g = self.grid
        m11 = bilinear_sample(g, self.a11, x, y)
        m12 = bilinear_sample(g, self.a12, x, y)
        m22 = bilinear_sample(g, self.a22, x, y)
        return np.array([[m11, m12], [m12, m22]])


def holder_seminorm_estimate(A: CoefficientField, gamma: float) -> float:
    """Discrete C^{0,gamma} seminorm estimate over axis-aligned node pairs at
    dyadic lags.  Reported, never enforced: grid sampling cannot certify
    Hoelder continuity of the underlying coefficients."""
    g = A.grid
    best = 0.0
    lag = 1
    while lag < max(g.nx, g.ny):
        dist = lag * g.h
        for arr in (A.a11, A.a12, A.a22):
            if lag < g.nx:
                best = max(best, np.max(np.abs(arr[:, lag:] - arr[:, :-lag]))
                           / dist**gamma)
            if lag < g.ny:
                best = max(best, np.max(np.abs(arr[lag:, :] - arr[:-lag, :]))
                           / dist**gamma)
        lag *= 2
    return float(best)


@dataclass
class PhaseRegion:
    """One phase of a level-set partition, with its Dirichlet data.

    ``sign`` is +1 for {phi > 0}, -1 for {phi < 0}.  ``pinned`` optionally
    marks nodes held at the outer data regardless of position (used for ball
    masks inside the box).  The free boundary carries the value 0.
    """

    phi: LevelSet
    sign: int
    outer_data: ScalarField
    pinned: np.ndarray | None = None

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise FieldError("region sign must be +1 or -1")
        if not self.phi.grid.same_layout(self.outer_data.grid):
            raise FieldError("phi and outer data live on different grids")
        if self.pinned is not None:
            self.pinned = np.asarray(self.pinned, dtype=bool)
            if self.pinned.shape != self.phi.grid.shape:
                raise FieldError("pinned mask shape mismatch")

    def interior_mask(self) -> np.ndarray:
        """Solvable nodes: strictly this phase, strictly inside the box, not
        pinned."""
        m = self.sign * self.phi.phi > 0
        m[0, :] = m[-1, :] = False
        m[:, 0] = m[:, -1] = False
        if self.pinned is not None:
            m &= ~self.pinned
        return m

    def node_count(self) -> int:
        return int(np.count_nonzero(self.interior_mask()))


_UNKNOWN, _KNOWN, _OUTSIDE = 1, 2, 0
_FACES = ((0, 1), (0, -1), (1, 0), (-1, 0))  # (dj, di) neighbour offsets
_RESIDUAL_TOL = 1e-8  # relative bound on the discrete residual


def _classify(region: PhaseRegion):
    """Node status arrays and the known-value field: the rest of the phase
    (box border, pinned nodes) carries the outer data, and nodes exactly on
    the zero set carry the interface value 0."""
    status = np.where(region.sign * region.phi.phi > 0, _KNOWN,
                      _OUTSIDE).astype(np.int8)
    status[region.interior_mask()] = _UNKNOWN
    known = np.where(status == _KNOWN, region.outer_data.values, 0.0)
    status[region.phi.phi == 0.0] = _KNOWN
    return status, known


def solve_phase(A: CoefficientField, f: ScalarField,
                region: PhaseRegion) -> ScalarField:
    """Solve div(A grad u) = f on one phase with u = 0 imposed at
    linear-interpolation crossings and outer data on the box boundary.

    Returns u on the region's nodes (Dirichlet trace included), zero
    elsewhere.  Raises SolverError when the discrete residual exceeds
    ``_RESIDUAL_TOL`` relative to max(1, |rhs|), UnderResolvedError for an
    empty region.
    """
    g = region.phi.grid
    if not (g.same_layout(A.grid) and g.same_layout(f.grid)):
        raise FieldError("grid mismatch between A, f and region")
    h2 = g.h * g.h
    sphase = region.sign * region.phi.phi
    ny, nx = g.shape

    def nb(a, dj=0, di=0):
        """Neighbour (dj, di) of every node of the interior block."""
        return a[1 + dj:ny - 1 + dj, 1 + di:nx - 1 + di]

    status, known = _classify(region)

    # pre-pass: pin nodes whose nearest crossing is too close (their known
    # value stays 0, the interface value)
    for dj, di in _FACES:
        cut = (nb(status) == _UNKNOWN) & (nb(status, dj, di) == _OUTSIDE)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = nb(sphase) / (nb(sphase) - nb(sphase, dj, di))
        nb(status)[cut & (theta < _THETA_MIN)] = _KNOWN

    unk = status == _UNKNOWN
    n_unknown = int(np.count_nonzero(unk))
    if n_unknown == 0:
        raise UnderResolvedError("region has no interior nodes")

    idx = -np.ones(g.shape, dtype=np.int64)
    idx[unk] = np.arange(n_unknown)
    u = nb(unk)
    row_of = nb(idx)[u]

    rows, cols, vals = [], [], []
    diag = np.zeros(n_unknown)
    rhs = 0.0 - nb(f.values)[u]  # +0.0, never -0.0, where f = 0

    for dj, di in _FACES:
        coeff = A.a11 if dj == 0 else A.a22
        aF = (0.5 * (nb(coeff) + nb(coeff, dj, di)))[u]
        nb_status = nb(status, dj, di)[u]

        m_u = nb_status == _UNKNOWN
        diag[m_u] += aF[m_u] / h2
        rows.append(row_of[m_u])
        cols.append(nb(idx, dj, di)[u][m_u])
        vals.append(-aF[m_u] / h2)

        m_k = nb_status == _KNOWN
        diag[m_k] += aF[m_k] / h2
        rhs[m_k] += aF[m_k] * nb(known, dj, di)[u][m_k] / h2

        m_o = nb_status == _OUTSIDE
        sp_u = nb(sphase)[u][m_o]
        theta = np.clip(sp_u / (sp_u - nb(sphase, dj, di)[u][m_o]),
                        _THETA_MIN, 1.0)
        diag[m_o] += aF[m_o] / (theta * h2)

    if np.any(A.a12 != 0.0):
        # the cross flux is kept only on rows whose 3x3 neighbourhood stays
        # inside the phase; near the interface it is dropped (first order)
        elig = u.copy()
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                if dj or di:
                    elig &= nb(status, dj, di) != _OUTSIDE
        row_e = nb(idx)[elig]
        for (dj, di), w in _cross_weights(A.a12, nb, h2).items():
            w = w[elig]
            nb_status = nb(status, dj, di)[elig]
            m_u = nb_status == _UNKNOWN
            rows.append(row_e[m_u])
            cols.append(nb(idx, dj, di)[elig][m_u])
            vals.append(w[m_u])
            m_k = nb_status == _KNOWN
            rhs[row_e[m_k]] -= w[m_k] * nb(known, dj, di)[elig][m_k]

    rows.append(row_of)
    cols.append(row_of)
    vals.append(diag)
    M = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_unknown, n_unknown))
    try:
        sol = spla.splu(M, permc_spec="MMD_AT_PLUS_A",
                        options=dict(SymmetricMode=True)).solve(rhs)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"sparse solve failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SolverError("sparse solve produced non-finite values")

    resid = np.max(np.abs(M @ sol - rhs))
    scale = max(1.0, np.max(np.abs(rhs)))
    if resid > _RESIDUAL_TOL * scale:
        raise SolverError(f"residual {resid:.3e} exceeds tol "
                          f"{_RESIDUAL_TOL:.3e} (scale {scale:.3e})")

    out = np.zeros(g.shape)
    out[unk] = sol
    keep = status == _KNOWN
    out[keep] = known[keep]
    return ScalarField(g, out)


def _cross_weights(a12, nb, h2):
    """9-point weights of -(d/dx(a12 du/dy) + d/dy(a12 du/dx)) at the
    interior block, keyed by neighbour offset (dj, di); the assembled
    operator is -div, so cross-flux contributions enter with a minus sign."""
    weights: dict[tuple[int, int], np.ndarray] = {}

    def add(dj, di, w):
        weights[dj, di] = weights.get((dj, di), 0.0) + w

    q = 1.0 / (4.0 * h2)
    # d/dx (a12 du/dy): east face minus west face; du/dy at the face
    # averages the centered dy-differences of its two nodes
    for sgn, di0 in ((+1.0, 0), (-1.0, -1)):
        bf = 0.5 * (nb(a12) + nb(a12, 0, 2 * di0 + 1))
        for di in (di0, di0 + 1):
            add(1, di, -sgn * bf * q)
            add(-1, di, +sgn * bf * q)
    # d/dy (a12 du/dx): north face minus south face
    for sgn, dj0 in ((+1.0, 0), (-1.0, -1)):
        bf = 0.5 * (nb(a12) + nb(a12, 2 * dj0 + 1, 0))
        for dj in (dj0, dj0 + 1):
            add(dj, 1, -sgn * bf * q)
            add(dj, -1, +sgn * bf * q)
    return weights


# ---------------------------------------------------------------------------
# one-sided interface gradients
# ---------------------------------------------------------------------------

_PROBE_OFFSETS = (1.5, 2.5)  # in units of h, Richardson-extrapolated to 0


def _blend_at_points(grads, valid, grid, px, py):
    """One-sided gradients ``(m, 2)`` at off-grid points: bilinear blend of
    the valid node gradients ``grads[j, i]`` among the corners of each
    containing cell, renormalized by the weights of the corners used.  Also
    returns the mask of points with a usable corner."""
    h = grid.h
    i, j = grid.cell_of(px, py)
    tx = (px - (grid.x0 + i * h)) / h
    ty = (py - (grid.y0 + j * h)) / h
    total = np.zeros(px.shape)
    acc = np.zeros(px.shape + (2,))
    for ci, cj, w in ((i, j, (1 - tx) * (1 - ty)),
                      (i + 1, j, tx * (1 - ty)),
                      (i, j + 1, (1 - tx) * ty),
                      (i + 1, j + 1, tx * ty)):
        use = valid[cj, ci] & (w > 0)
        acc += np.where(use[:, None], w[:, None] * grads[cj, ci], 0.0)
        total += np.where(use, w, 0.0)
    ok = total > 0
    return acc / np.where(ok, total, 1.0)[:, None], ok


def interface_normal_gradient(u: ScalarField, A: CoefficientField,
                              phi: LevelSet, points, side: int):
    """One-sided gradient of u at interface points and its A-energy.

    ``points`` is one point ``(2,)`` or many ``(m, 2)``.  The gradient is
    evaluated at probe points offset 1.5h and 2.5h along the interface
    normal into the requested side and extrapolated linearly back to the
    interface; each probe blends the one-sided node gradients of
    :func:`~fblab.fields.one_sided_gradient`, computed once per call.
    Returns ``(grad, q_A)`` with ``q_A = <A grad, grad>``: shapes ``(2,)``
    and float for one point, ``(m, 2)`` and ``(m,)`` for many.  Raises
    UnderResolvedError naming the first point with a vanishing level-set
    gradient or with no usable corner around a probe.
    """
    if side not in (1, -1):
        raise FieldError("side must be +1 or -1")
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    g = u.grid
    h = g.h
    # normal from phi, oriented into the requested side
    eps = h
    nx = (phi.sample(x + eps, y) - phi.sample(x - eps, y)) / (2 * eps)
    ny = (phi.sample(x, y + eps) - phi.sample(x, y - eps)) / (2 * eps)
    nrm = np.hypot(nx, ny)
    flat = nrm < 1e-14
    nrm = np.where(flat, 1.0, nrm)
    nx = nx / nrm * side
    ny = ny / nrm * side

    gx, gy, valid = one_sided_gradient(u, phi, side)
    node_grads = np.stack([gx, gy], axis=-1)
    probes = []
    bad = flat
    for off in _PROBE_OFFSETS:
        px = np.clip(x + off * h * nx, g.x0, g.x1)
        py = np.clip(y + off * h * ny, g.y0, g.y1)
        grads, ok = _blend_at_points(node_grads, valid, g, px, py)
        probes.append(grads)
        bad = bad | ~ok
    if np.any(bad):
        k = int(np.argmax(bad))
        what = ("vanishing level-set gradient" if flat[k]
                else "no usable corner for the one-sided gradient")
        raise UnderResolvedError(f"{what} at ({x[k]:.4f}, {y[k]:.4f})")
    d1, d2 = _PROBE_OFFSETS
    grad0 = (d2 * probes[0] - d1 * probes[1]) / (d2 - d1)
    # stacked matmul rounds exactly as the per-point grad @ A @ grad
    Am = np.ascontiguousarray(np.moveaxis(A.matrix_at(x, y), -1, 0))
    q_A = (grad0[:, None, :] @ Am @ grad0[:, :, None])[:, 0, 0]
    if single:
        return grad0[0], float(q_A[0])
    return grad0, q_A
