"""Cell- and edge-centered fields with the discrete calculus on them.

Cell fields hold one value per cell center (i, j); edge fields hold values
at the x-edge points (x_{i+1/2}, y_j) or y-edge points (x_i, y_{j+1/2}),
boundary edges included.  Values are float arrays indexed [i, j], of the
grid's shape (nx, ny) plus the type's extra points along each axis:
(0, 0), (1, 0) or (0, 1), the one difference between the three types,
which share one base and its shape check.  The gradient's edge arrays
(``dx``, ``dy``) are stored x fastest, the memory order of the solver's
flat vectors, so the transposes the density matrix is assembled from are
contiguous.

The operators:

* ``dx`` / ``dy``: center-to-edge difference quotients (discrete gradient
  components).  Boundary edges are set to zero, which encodes the
  homogeneous Neumann condition structurally.
* ``Dx`` / ``Dy``: edge-to-center difference quotients (discrete divergence
  components).
* ``interp_x`` / ``interp_y``: cell values interpolated to interior edge
  points.  The piecewise bilinear interpolant evaluated at an x-edge point
  (x_{i+1/2}, y_j) degenerates to 1D interpolation along x, because the
  point lies on the line y = y_j where the y-weights collapse; the weights
  are the opposing half-cell widths:
  (dx_{i+1} p_{i,j} + dx_i p_{i+1,j}) / (2 dx_{i+1/2}).
  Boundary edges carry zero; they are only ever multiplied by the zero
  boundary gradient, so any fixed convention works and zero keeps flux
  assembly uniform.
* ``delta_correction``: the second-derivative-weighted perturbation
  (dx_i^2/8) p_xx + (dy_j^2/8) p_yy that restores second-order edge-gradient
  accuracy on non-uniform grids.  Takes analytic second derivatives sampled
  at cell centers.

Inner products use fixed summation (numpy pairwise reduction over a fixed
traversal order), so identical inputs give bit-identical results.  The x/y
edge inner products run over interior edges only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .grid import StaggeredGrid2D

__all__ = [
    "CellField",
    "EdgeFieldX",
    "EdgeFieldY",
    "GradientPair",
    "cell_field_from_function",
    "edge_x_from_function",
    "edge_y_from_function",
    "dx",
    "dy",
    "Dx",
    "Dy",
    "grad",
    "interp_x",
    "interp_y",
    "delta_correction",
    "inner_m",
    "norm_m",
    "inner_x",
    "inner_y",
    "norm_tm",
]


@dataclass(frozen=True)
class _Field:
    """Values on a grid's cells, with ``extra`` more points along each
    axis: the shape check and the extrema the field types share."""

    grid: StaggeredGrid2D
    values: np.ndarray
    extra: ClassVar[tuple[int, int]] = (0, 0)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        shape = tuple(n + e for n, e in zip(self.grid.shape, self.extra))
        if values.shape != shape:
            raise ValueError(f"{type(self).__name__} values must have shape {shape}, "
                             f"got {values.shape}")
        object.__setattr__(self, "values", values)

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def argmax(self) -> tuple[int, int]:
        """Index (i, j) of the maximum; ties break to the lowest (j, i)."""
        k = int(np.argmax(self.values.ravel(order="F")))
        nx = self.values.shape[0]
        return (k % nx, k // nx)


class CellField(_Field):
    """Scalar values at cell centers, shape (nx, ny)."""


class EdgeFieldX(_Field):
    """Values at x-edge points (x_{i+1/2}, y_j), shape (nx+1, ny)."""

    extra = (1, 0)


class EdgeFieldY(_Field):
    """Values at y-edge points (x_i, y_{j+1/2}), shape (nx, ny+1)."""

    extra = (0, 1)


@dataclass(frozen=True)
class GradientPair:
    """The two staggered components of a discrete gradient."""

    gx: EdgeFieldX
    gy: EdgeFieldY

    def inf_norm(self) -> float:
        """Max-abs of the x component plus max-abs of the y component."""
        return self.gx.max_abs() + self.gy.max_abs()


def cell_field_from_function(grid: StaggeredGrid2D, fn: Callable) -> CellField:
    """Sample fn(x, y) at cell centers (vectorized over broadcast arrays)."""
    xs = grid.x_axis.centers[:, None]
    ys = grid.y_axis.centers[None, :]
    return CellField(grid, np.broadcast_to(fn(xs, ys), grid.shape).astype(np.float64))


def edge_x_from_function(grid: StaggeredGrid2D, fn: Callable) -> EdgeFieldX:
    """Sample fn(x, y) at x-edge points, boundary edges included."""
    xs = grid.x_axis.primal[:, None]
    ys = grid.y_axis.centers[None, :]
    nx, ny = grid.shape
    return EdgeFieldX(grid, np.broadcast_to(fn(xs, ys), (nx + 1, ny)).astype(np.float64))


def edge_y_from_function(grid: StaggeredGrid2D, fn: Callable) -> EdgeFieldY:
    xs = grid.x_axis.centers[:, None]
    ys = grid.y_axis.primal[None, :]
    nx, ny = grid.shape
    return EdgeFieldY(grid, np.broadcast_to(fn(xs, ys), (nx, ny + 1)).astype(np.float64))


# ---------------------------------------------------------------------------
# difference operators


def dx(p: CellField) -> EdgeFieldX:
    """Center-to-edge difference in x; boundary edges are zero (Neumann).

    The differences and quotients are taken in place in the interior of
    the zeroed result, so no temporary is made."""
    g = p.grid
    out = np.zeros((g.ny, g.nx + 1)).T
    interior = out[1:-1, :]
    np.subtract(p.values[1:, :], p.values[:-1, :], out=interior)
    interior /= g.x_axis.dual_widths[:, None]
    return EdgeFieldX(g, out)


def dy(p: CellField) -> EdgeFieldY:
    """Center-to-edge difference in y, as ``dx``."""
    g = p.grid
    out = np.zeros((g.ny + 1, g.nx)).T
    interior = out[:, 1:-1]
    np.subtract(p.values[:, 1:], p.values[:, :-1], out=interior)
    interior /= g.y_axis.dual_widths[None, :]
    return EdgeFieldY(g, out)


def Dx(v: EdgeFieldX) -> CellField:
    """Edge-to-center difference in x over the cell width."""
    g = v.grid
    return CellField(g, np.diff(v.values, axis=0) / g.x_axis.cell_widths[:, None])


def Dy(w: EdgeFieldY) -> CellField:
    g = w.grid
    return CellField(g, np.diff(w.values, axis=1) / g.y_axis.cell_widths[None, :])


def grad(p: CellField) -> GradientPair:
    return GradientPair(dx(p), dy(p))


def interp_x(p: CellField) -> EdgeFieldX:
    """Cell values interpolated to interior x-edge points; boundaries zero."""
    g = p.grid
    w = g.x_axis.cell_widths
    out = np.zeros((g.nx + 1, g.ny))
    out[1:-1, :] = (w[1:, None] * p.values[:-1, :] + w[:-1, None] * p.values[1:, :]) / (
        2.0 * g.x_axis.dual_widths[:, None]
    )
    return EdgeFieldX(g, out)


def interp_y(p: CellField) -> EdgeFieldY:
    g = p.grid
    w = g.y_axis.cell_widths
    out = np.zeros((g.nx, g.ny + 1))
    out[:, 1:-1] = (w[None, 1:] * p.values[:, :-1] + w[None, :-1] * p.values[:, 1:]) / (
        2.0 * g.y_axis.dual_widths[None, :]
    )
    return EdgeFieldY(g, out)


def delta_correction(pxx: CellField, pyy: CellField) -> CellField:
    """(dx_i^2 / 8) pxx + (dy_j^2 / 8) pyy from analytic second derivatives."""
    g = pxx.grid
    if pyy.grid is not g:
        raise ValueError("second-derivative fields must share one grid")
    wx2 = g.x_axis.cell_widths[:, None] ** 2
    wy2 = g.y_axis.cell_widths[None, :] ** 2
    return CellField(g, (wx2 / 8.0) * pxx.values + (wy2 / 8.0) * pyy.values)


# ---------------------------------------------------------------------------
# inner products and norms


def _same_grid(f, g) -> None:
    if f.grid is not g.grid:
        raise ValueError("fields live on different grids")


def inner_m(f: CellField, g: CellField) -> float:
    """Cell-weighted inner product sum_ij dx_i dy_j f_ij g_ij."""
    _same_grid(f, g)
    # grouping the field product first keeps the sum bitwise symmetric, and
    # a C-order product fixes the sum's order whatever the arrays' layouts
    return float(np.sum(np.multiply(f.grid.cell_areas, f.values * g.values, order="C")))


def norm_m(f: CellField) -> float:
    return float(np.sqrt(inner_m(f, f)))


def inner_x(f: EdgeFieldX, g: EdgeFieldX) -> float:
    """Edge-weighted inner product over interior x-edges (i = 1 .. nx-1)."""
    _same_grid(f, g)
    gr = f.grid
    w = gr.x_axis.dual_widths[:, None] * gr.y_axis.cell_widths[None, :]
    return float(np.sum(w * (f.values[1:-1, :] * g.values[1:-1, :])))


def inner_y(f: EdgeFieldY, g: EdgeFieldY) -> float:
    _same_grid(f, g)
    gr = f.grid
    w = gr.x_axis.cell_widths[:, None] * gr.y_axis.dual_widths[None, :]
    return float(np.sum(w * (f.values[:, 1:-1] * g.values[:, 1:-1])))


def norm_tm(pair: GradientPair) -> float:
    """sqrt(|gx|_x^2 + |gy|_y^2), the staggered-gradient norm."""
    return float(np.sqrt(inner_x(pair.gx, pair.gx) + inner_y(pair.gy, pair.gy)))
