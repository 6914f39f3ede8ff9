"""Staggered 1D axes and 2D tensor-product grids.

An axis partitions [lo, hi] into N cells by N+1 primal points (cell
boundaries).  Cell centers sit at the midpoints of the primal intervals,
cell widths are the primal spacings, and dual widths are the distances
between adjacent centers.  Scalars live at centers; gradient/flux values
live at primal (edge) points.

Four axis families are provided:

* uniform partitions,
* randomly perturbed partitions (uniform points jittered by a seeded PRNG),
* quadratic refinement toward the middle of (0, 1),
* power-law refinement toward the +0.5 corner of (-0.5, 0.5).

All geometry is precomputed at construction time and the arrays are frozen;
axes and grids are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Axis1D",
    "StaggeredGrid2D",
    "build_uniform",
    "build_random_perturbed",
    "build_middle_refined",
    "build_corner_refined",
    "remap_axis",
    "make_grid",
    "axis_subseeds",
]

# Relative tolerance for the telescoping-width consistency check.
_WIDTH_SUM_RTOL = 1e-13


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Axis1D:
    """One coordinate direction of a staggered grid.

    Attributes
    ----------
    primal : (N+1,) cell boundary points, strictly increasing, endpoints lo/hi
    centers : (N,) cell centers, ``centers[i] = (primal[i] + primal[i+1]) / 2``
    cell_widths : (N,) primal spacings
    dual_widths : (N-1,) distances between adjacent centers,
        ``dual_widths[i] = (cell_widths[i] + cell_widths[i+1]) / 2``
    """

    primal: np.ndarray
    centers: np.ndarray
    cell_widths: np.ndarray
    dual_widths: np.ndarray
    lo: float
    hi: float

    @property
    def n_cells(self) -> int:
        return self.centers.size

    def __repr__(self) -> str:  # keep reprs short; arrays can be large
        return f"Axis1D(n_cells={self.n_cells}, lo={self.lo}, hi={self.hi})"


def axis_from_primal(primal, lo: float, hi: float) -> Axis1D:
    """Build an Axis1D from its primal points, validating all invariants."""
    primal = np.asarray(primal, dtype=np.float64)
    if primal.ndim != 1 or primal.size < 3:
        raise ValueError("axis needs at least 3 primal points (2 cells)")
    if not np.all(np.isfinite(primal)):
        raise ValueError("primal points must be finite")
    if not np.all(np.diff(primal) > 0.0):
        raise ValueError("primal points must be strictly increasing")
    lo, hi = float(lo), float(hi)
    if primal[0] != lo or primal[-1] != hi:
        raise ValueError("primal endpoints must equal the domain endpoints")
    if not np.isfinite(hi - lo):
        raise ValueError("axis length must be finite")

    with np.errstate(over="ignore"):
        centers = (primal[:-1] + primal[1:]) / 2.0
        cell_widths = np.diff(primal)
        dual_widths = (cell_widths[:-1] + cell_widths[1:]) / 2.0
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(dual_widths))):
        raise ValueError("cell centers and dual widths must be finite")
    if abs(cell_widths.sum() - (hi - lo)) > _WIDTH_SUM_RTOL * (hi - lo):
        raise ValueError("cell widths do not sum to the domain length")
    return Axis1D(
        primal=_frozen(primal),
        centers=_frozen(centers),
        cell_widths=_frozen(cell_widths),
        dual_widths=_frozen(dual_widths),
        lo=lo,
        hi=hi,
    )


def build_uniform(lo: float, hi: float, n: int) -> Axis1D:
    """Uniform partition of [lo, hi] into n equal cells."""
    if n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    if not hi > lo:
        raise ValueError(f"domain must satisfy hi > lo, got [{lo}, {hi}]")
    primal = lo + (hi - lo) * np.arange(n + 1) / n
    primal[0], primal[-1] = lo, hi
    return axis_from_primal(primal, lo, hi)


def build_random_perturbed(lo: float, hi: float, n: int, beta: float, seed: int) -> Axis1D:
    """Uniform partition with interior points jittered by ``beta * h_fix``.

    Interior primal points become ``uniform_i + beta * h_fix * (-1 + 2 u_i)``
    with ``u_i`` drawn from numpy's PCG64 generator seeded with ``seed``
    (documented, 64-bit, bit-reproducible across runs).  Endpoints stay fixed.
    ``beta < 0.5`` guarantees the perturbed points remain strictly ordered.
    """
    if not 0.0 <= beta < 0.5:
        raise ValueError(f"beta must lie in [0, 0.5), got {beta}")
    if n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    if not hi > lo:
        raise ValueError(f"domain must satisfy hi > lo, got [{lo}, {hi}]")
    h_fix = (hi - lo) / n
    primal = lo + (hi - lo) * np.arange(n + 1) / n
    primal[0], primal[-1] = lo, hi
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(n - 1)
    primal[1:-1] += beta * h_fix * (-1.0 + 2.0 * u)
    return axis_from_primal(primal, lo, hi)


def build_middle_refined(n: int) -> Axis1D:
    """Axis on (0, 1) quadratically clustered around x = 0.5.

    Primal points are ``1/2 +- i^2 / (2 (n/2 + 1)^2)`` for
    ``i = 0 .. n/2 + 1``; the extreme indices land exactly on 0 and 1, so the
    axis carries ``n + 2`` cells for the nominal parameter ``n``.
    """
    if n % 2 != 0:
        raise ValueError(f"middle refinement needs even n, got {n}")
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    half = n // 2
    i = np.arange(half + 2, dtype=np.float64)
    offsets = i**2 / (2.0 * (half + 1) ** 2)
    upper = 0.5 + offsets          # i = 0 .. half+1, last lands on 1.0
    lower = 0.5 - offsets[1:][::-1]  # i = half+1 .. 1, first lands on 0.0
    primal = np.concatenate([lower, upper])
    return axis_from_primal(primal, 0.0, 1.0)


def build_corner_refined(n: int) -> Axis1D:
    """Axis on (-0.5, 0.5) clustered toward +0.5 with a 3/2-power law.

    ``primal[n - i] = 1/2 - (i/n)**1.5`` for ``i = 0 .. n``; the smallest
    cell is adjacent to the +0.5 boundary.
    """
    if n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    i = np.arange(n, -1, -1, dtype=np.float64)  # primal[k] uses i = n - k
    primal = 0.5 - (i / n) ** 1.5
    return axis_from_primal(primal, -0.5, 0.5)


def remap_axis(axis: Axis1D, lo: float, hi: float) -> Axis1D:
    """Affinely map an axis onto a new interval [lo, hi]."""
    if not hi > lo:
        raise ValueError(f"domain must satisfy hi > lo, got [{lo}, {hi}]")
    scale = (hi - lo) / (axis.hi - axis.lo)
    primal = lo + (axis.primal - axis.lo) * scale
    primal[0], primal[-1] = lo, hi
    return axis_from_primal(primal, lo, hi)


@dataclass(frozen=True)
class StaggeredGrid2D:
    """Tensor product of two axes plus precomputed cell-area weights."""

    x_axis: Axis1D
    y_axis: Axis1D
    cell_areas: np.ndarray = field(repr=False)  # (nx, ny), dx_i * dy_j

    @property
    def nx(self) -> int:
        return self.x_axis.n_cells

    @property
    def ny(self) -> int:
        return self.y_axis.n_cells

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)


def make_grid(x_axis: Axis1D, y_axis: Axis1D) -> StaggeredGrid2D:
    with np.errstate(over="ignore"):
        areas = _frozen(np.outer(x_axis.cell_widths, y_axis.cell_widths))
    if not np.all(np.isfinite(areas)):
        raise ValueError("cell areas must be finite")
    return StaggeredGrid2D(x_axis=x_axis, y_axis=y_axis, cell_areas=areas)


def axis_subseeds(seed: int) -> tuple[int, int]:
    """Derive independent per-axis sub-seeds from one master seed.

    A 2D perturbed grid draws its x and y jitter from independent streams;
    the sub-seeds come from ``numpy.random.SeedSequence(seed)`` so the pair
    is a documented, reproducible function of the master seed.
    """
    sx, sy = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(sx), int(sy)
