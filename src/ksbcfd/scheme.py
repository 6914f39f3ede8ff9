"""The decoupled, mass-conservative time stepper.

State variables live at cell centers: ``u`` approximates the cell density
and ``z`` the chemoattractant concentration.  One run consists of

1. a prediction-correction start-up step producing second-order accurate
   first-level values: a backward-Euler predictor ubar for the density,
   then the Crank-Nicolson stage below with  u* = (ubar + u^0) / 2;
2. Crank-Nicolson marching for all later steps, each one run of the same
   stage with the explicit second-order extrapolation
   u* = (3 u^n - u^{n-1}) / 2.

The stage solves the concentration first, with u* standing in for the
half-level density, which decouples it from the density solve; the density
solve that follows is fully implicit in the new concentration gradient.

The nonlinear cross-diffusion flux uses cell values interpolated to edge
points times the staggered concentration gradient; a product carrying the
half-level superscript is discretized as the average of the products at the
two adjacent time levels, which keeps every system linear in its single
unknown level.

Every discrete equation row is scaled by its cell area before assembly.
This makes the concentration matrix exactly symmetric and gives both
operators zero column sums, so the total weighted density is conserved up to
the linear-solver residual.  On the tensor-product grid the concentration
matrix (1/tau + 1/2) W - (1/2) W L is an area-weighted heat operator, which
the fast-diagonalization solver (``linalg.TensorHeatSolver``, built once per
run) solves directly.  The density matrix adds the chemotaxis term, is
nonsymmetric whenever the concentration gradient is nonzero, and is solved
with BiCGStab right-preconditioned by the inverse of its heat part
(1/tau) W - theta W L.  That inverse ignores the chemotaxis term,
which matters where it outweighs diffusion: near the singular time of a
blow-up run, rows at the peak stop being diagonally dominant.  When any row
is not, the preconditioner is the float64 heat inverse followed by an exact
solve of the density system on the tensor block that bounds those rows
(``linalg.block_corrected``, SuperLU); when none is, it is the heat inverse
alone in single precision (``TensorHeatSolver.solve_fp32``), which costs
less per application and barely changes the iteration counts.  Residuals
and acceptance stay in float64.  A Crank-Nicolson density solve with the
heat inverse alone starts from the least-squares fit of its right-hand
side by those of the last eight (``DensityHistory``), whose coefficients
it applies to their solutions: on the corner blow-up run at 180^2 the
solves take 714 BiCGStab iterations, where the extrapolation
2 u^n - u^{n-1} alone takes 989.  Block-corrected solves, and those with
fewer than two solves stored, start from that extrapolation (from u^n on
the first step).  When BiCGStab does not converge, the same
system is solved once more by sparse LU (SuperLU).  Every solve, direct or
iterative, refines its solution once when the recomputed residual misses
the solver tolerance 1e-12, keeps the refinement when it lowers that
residual or when only it passes the backward-error test, and accepts the
solution when the residual meets the tolerance or its componentwise
backward error is at most 16 units of roundoff.

Every matrix is a five-point stencil, built one way: its entries are
written into a band that a scipy DIA matrix takes as its data, one row per
neighbour in the flat order of the unknowns (``_five_point``).
``Workspace`` assembles the constant concentration matrix once per run.
Density matrices change every step with the concentration gradient:
``Workspace`` builds the Crank-Nicolson heat-part band once, and each step
adds the chemotaxis term to a copy of it and reads the rows' diagonal
dominance off the same copy.  The gradient's edge arrays and the sampled
forcing are stored in that flat order too, so a step makes no layout
copies.  A Crank-Nicolson equation A x^{n+1} = (2/tau) W x^n - A x^n + W f
builds its right-hand side as a product with its own A, the concentration
matrix or the density matrix ``State`` carries from the previous stage;
the matrix-free stencils are the tests' oracle of both.

Manufactured problems add pointwise forcing sampled at cell centers at the
half-level time (at the full first-level time in the backward-Euler
predictor).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy

from . import linalg
from .fields import (
    CellField,
    EdgeFieldX,
    EdgeFieldY,
    GradientPair,
    Dx,
    Dy,
    cell_field_from_function,
    delta_correction,
    dx,
    dy,
    edge_x_from_function,
    edge_y_from_function,
    grad,
    interp_x,
    interp_y,
    norm_m,
    norm_tm,
)
from .grid import StaggeredGrid2D
from .linalg import SolveReport
from .problems import ProblemSpec

__all__ = [
    "SchemeConfig",
    "State",
    "DensityHistory",
    "StepDiagnostics",
    "RunResult",
    "Workspace",
    "BlowUpDetected",
    "StepSolveError",
    "UniquenessConditionWarning",
    "step_of",
    "apply_laplacian",
    "apply_chemotaxis",
    "init_state",
    "predict_u1",
    "first_step",
    "step_cn",
    "run",
    "error_norms",
]


class BlowUpDetected(RuntimeError):
    """The density exceeded the blow-up threshold or went non-finite."""

    def __init__(self, state: "State", diagnostics: "StepDiagnostics"):
        super().__init__(f"blow-up detected at t={state.t} (step {state.n})")
        self.state = state
        self.diagnostics = diagnostics


class StepSolveError(RuntimeError):
    """A linear solve failed to converge.

    ``report`` is the iterative solve's report; ``fallback`` the direct
    solve's, or None when no direct fallback was tried.  ``run`` sets
    ``diagnostics`` to the records of the steps before the failure.
    """

    def __init__(self, step: int, system: str, report: SolveReport,
                 fallback: SolveReport | None = None):
        if fallback is None:
            tail = "no direct fallback tried"
        else:
            tail = (f"direct fallback tried: {fallback.reason}, "
                    f"relative residual {fallback.final_relative_residual:.3e}")
        super().__init__(
            f"{system} solve failed at step {step}: {report.reason} after "
            f"{report.iterations} iterations, relative residual "
            f"{report.final_relative_residual:.3e}; {tail}"
        )
        self.step = step
        self.system = system
        self.report = report
        self.fallback = fallback
        self.diagnostics: list[StepDiagnostics] = []


class UniquenessConditionWarning(UserWarning):
    """The advisory time-step bound for solvability was violated."""


# How many ULPs of slack the integer-step-count check allows; division noise
# makes an exact half-ULP test brittle for steps like 1/80.
_STEP_COUNT_ULPS = 64


def step_of(t: float, tau: float) -> int | None:
    """The n with n tau = t, to ``_STEP_COUNT_ULPS`` units in the last place
    of n, or None when t lies between steps."""
    ratio = t / tau
    if not math.isfinite(ratio):
        return None
    n = round(ratio)
    return n if abs(ratio - n) <= _STEP_COUNT_ULPS * np.spacing(max(1.0, float(n))) else None


@dataclass(frozen=True)
class SchemeConfig:
    lam: float
    tau: float
    t_final: float
    blowup_threshold: float = 1e12

    def __post_init__(self):
        # each message starts with the name of the field at fault
        for name in ("lam", "tau", "t_final", "blowup_threshold"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        n = step_of(self.t_final, self.tau)
        if n is None or n < 1:
            raise ValueError(f"t_final must be an integer step count of tau, "
                             f"got t_final/tau = {self.t_final / self.tau!r}")

    @property
    def n_steps(self) -> int:
        return step_of(self.t_final, self.tau)


# How many Crank-Nicolson density solves a ``DensityHistory`` keeps.
_HISTORY = 8

# A right-hand side within this relative distance of the last one holds no
# trend, only rounding, and its solve starts from u^n: a fit of rounding
# passes the solver tolerance unrefined and feeds it into the next fit, so
# a constant state would drift (5e-13 in 200 steps, 7e-11 in 3 000).
_REPEATED = 1e-12


@dataclass(frozen=True)
class DensityHistory:
    """The right-hand sides and solutions of the last ``_HISTORY``
    Crank-Nicolson density solves, from which the next solve starts.

    Each is stored newest first as the newest vector and the differences of
    consecutive ones: ``rhs = (b^n, b^n - b^{n-1}, b^{n-1} - b^{n-2}, ...)``
    and ``sol`` likewise, with ``gram`` the Gram matrix of ``rhs``.  Its
    entries are carried from step to step; a Gram of the raw right-hand
    sides would lose the fit, which lives in their differences, to rounding.
    """

    rhs: tuple[np.ndarray, ...] = ()
    sol: tuple[np.ndarray, ...] = ()
    gram: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def projection(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """``d = b - b^n``, the products ``V^T d`` with the stored basis ``V``
        and ``d . d``: the ``_HISTORY + 1`` dot products of a step."""
        d = b - self.rhs[0]
        return d, np.array([v @ d for v in self.rhs]), float(d @ d)

    def start(self, projection: tuple[np.ndarray, np.ndarray, float]) -> np.ndarray:
        """``W c`` for the ``c`` that minimises ``|b - V c|``, where
        ``projection`` is ``self.projection(b)`` and ``W`` the stored
        solutions' basis; u^n when ``b`` repeats ``b^n`` to ``_REPEATED``.

        With ``b = V e_0 + d`` and ``h = V^T d`` this is ``c = e_0 + G^+ h``
        for the Gram matrix ``G``, which is solved by least squares with its
        columns scaled to a unit diagonal.  Extrapolation is
        ``c = (1, 1, 0, ...)``.
        """
        _, h, dd = projection
        if dd <= _REPEATED**2 * (self.gram[0, 0] + 2.0 * h[0] + dd):  # |b|^2, as in pushed
            return self.sol[0]
        diag = np.diagonal(self.gram)
        scale = np.divide(1.0, np.sqrt(diag), out=np.zeros_like(diag), where=diag > 0.0)
        c = scale * np.linalg.lstsq(self.gram * scale * scale[:, None], scale * h)[0]
        x0 = (1.0 + c[0]) * self.sol[0]
        for cj, w in zip(c[1:], self.sol[1:]):
            x0 = daxpy(w, x0, a=cj)
        return x0

    def pushed(self, b: np.ndarray, x: np.ndarray,
               projection: tuple[np.ndarray, np.ndarray, float] | None) -> DensityHistory:
        """The history with the solve ``(b, x)`` added and, beyond
        ``_HISTORY``, its oldest dropped; ``projection`` is
        ``self.projection(b)``, None when the history is empty.

        The new basis is ``(b, d, old differences)`` for ``d = b - b^n``, and
        ``b = b^n + d`` gives its Gram entries from the old ones and
        ``projection`` alone: sums, free of cancellation.
        """
        if projection is None:
            return DensityHistory((b,), (x,), np.array([[float(b @ b)]]))
        d, h, dd = projection
        old = self.gram
        g = np.empty((old.shape[0] + 1,) * 2)
        g[0, 0], g[0, 1], g[1, 1] = old[0, 0] + 2.0 * h[0] + dd, h[0] + dd, dd
        g[0, 2:], g[1, 2:] = old[0, 1:] + h[1:], h[1:]
        g[2:, 2:] = old[1:, 1:]
        g[1:, 0], g[2:, 1] = g[0, 1:], g[1, 2:]
        k = _HISTORY
        return DensityHistory((b, d, *self.rhs[1:k - 1]),
                              (x, x - self.sol[0], *self.sol[1:k - 1]), g[:k, :k])


@dataclass(frozen=True)
class State:
    """One time level, with u^{n-1} for extrapolation, A(grad z^n) (None at
    n = 0) and the Crank-Nicolson density solves that led to it."""

    t: float
    n: int
    u_curr: CellField
    u_prev: CellField | None
    z_curr: CellField
    a_curr: sp.dia_matrix | None = None
    history: DensityHistory = DensityHistory()


@dataclass(frozen=True)
class StepDiagnostics:
    """One step's record; its fields, in order, are the diagnostics.csv columns."""

    t: float
    mass: float
    u_max: float
    u_min: float
    z_max: float
    argmax_i: int  # cell (i, j) of u_max
    argmax_j: int
    iters_z: int
    iters_u: int
    residual_z: float
    residual_u: float
    block_cells: int
    dz_inf: float
    uniqueness_ok: bool
    neg_cells: int  # cells with u < 0; recorded, never a halt reason


@dataclass
class RunResult:
    state: State
    diagnostics: list[StepDiagnostics]
    initial_mass: float  # sum(W u^0), which no diagnostics row holds
    blew_up: bool = False


# ---------------------------------------------------------------------------
# matrix-free stencils: the tests' oracle of the assembled matrices


def apply_laplacian(p: CellField) -> CellField:
    """Discrete Laplacian: divergence of the zero-boundary-flux gradient."""
    return CellField(p.grid, Dx(dx(p)).values + Dy(dy(p)).values)


def apply_chemotaxis(p: CellField, g: GradientPair) -> CellField:
    """Divergence of (interpolated p) * g, the cross-diffusion flux."""
    fx = EdgeFieldX(p.grid, interp_x(p).values * g.gx.values)
    fy = EdgeFieldY(p.grid, interp_y(p).values * g.gy.values)
    return CellField(p.grid, Dx(fx).values + Dy(fy).values)


# ---------------------------------------------------------------------------
# matrix assembly (rows scaled by cell areas)
#
# Unknown vectors flatten cell (i, j) to k = i + nx * j (the x index varies
# fastest); this order is fixed so assembled matrices are comparable across
# runs and against golden values.


# neighbour slots of a five-point row, in column order
_SOUTH, _WEST, _CENTER, _EAST, _NORTH = range(5)


def _heat_band(grid: StaggeredGrid2D, diagonal: np.ndarray, theta: float) -> np.ndarray:
    """The band (see ``_five_point``) of ``D - theta W L``.

    ``D`` is the diagonal matrix of ``diagonal``, shape (nx, ny), and ``W L``
    the area-weighted discrete Laplacian: an interior edge couples its two
    cells with the cell width along the edge over the dual width across it,
    and each center is minus the sum of its row's couplings, taken east,
    west, north, south: that order sets the last bits of the centers, on
    which the byte-pinned outputs of a run depend.
    """
    nx, ny = grid.shape
    dxw, dyw = grid.x_axis.cell_widths, grid.y_axis.cell_widths
    dxd, dyd = grid.x_axis.dual_widths, grid.y_axis.dual_widths
    band = np.zeros((5, ny, nx))
    south, west, center, east, north = band
    # an edge couples its two cells' rows at the column of the cell across it
    east[:, 1:] = west[:, :-1] = center[:, :-1] = dyw[:, None] / dxd[None, :]
    north[1:, :] = south[:-1, :] = dxw[None, :] / dyd[:, None]
    center[:, 1:] += west[:, :-1]
    center[:-1, :] += north[1:, :]
    center[1:, :] += south[:-1, :]
    np.negative(center, out=center)
    band *= -theta
    center += diagonal.T
    return band.reshape(5, nx * ny)


def _add_chemotaxis(band: np.ndarray, grid: StaggeredGrid2D, g: GradientPair, s: float) -> None:
    """Add ``s`` times the area-weighted divergence of (interpolated cell
    values) * g to a band, in place.

    The area-weighted flux across an interior edge is g times the edge
    length times the interpolated cell value, which weighs the cell on
    either side by the other cell's width across the edge over twice the
    dual width.  Every array here is (ny, nx), x fastest, as the band is.
    """
    dxw, dyw = grid.x_axis.cell_widths, grid.y_axis.cell_widths
    dxd, dyd = grid.x_axis.dual_widths, grid.y_axis.dual_widths
    flux_x = dyw[:, None] * g.gx.values.T[:, 1:-1]  # interior x-edges, (ny, nx-1)
    coef_l = flux_x * dxw[None, 1:] / (2.0 * dxd[None, :])
    coef_r = flux_x * dxw[None, :-1] / (2.0 * dxd[None, :])
    flux_y = dxw[None, :] * g.gy.values.T[1:-1, :]  # interior y-edges, (ny-1, nx)
    coef_b = flux_y * dyw[1:, None] / (2.0 * dyd[:, None])
    coef_t = flux_y * dyw[:-1, None] / (2.0 * dyd[:, None])
    center = np.zeros(grid.shape[::-1])
    center[:, :-1] += coef_l
    center[:, 1:] -= coef_r
    center[:-1, :] += coef_b
    center[1:, :] -= coef_t
    # a cell's entry in the slot of offset o lies o places on in the row
    south, west, middle, east, north = band.reshape(5, *center.shape)
    middle += s * center
    east[:, 1:] += s * coef_r
    west[:, :-1] -= s * coef_l
    north[1:, :] += s * coef_t
    south[:-1, :] -= s * coef_b


def _five_point(band: np.ndarray, nx: int) -> sp.dia_matrix:
    """The five-point matrix of a band.

    Row k = i + nx j of a five-point matrix couples cell (i, j) with cells
    (i, j-1), (i-1, j), (i, j), (i+1, j) and (i, j+1): diagonals -nx, -1, 0,
    1 and nx.  A band is the matrix's DIA data, shape (5, nx ny): row o of
    it holds the diagonal of offset o, entry (k, k + o) at column k + o,
    zero where the neighbour lies outside the grid.  In ascending order of
    the offsets, scipy's DIA product sums each row in column order, as a
    CSR product does.
    """
    if not np.all(np.isfinite(band)):
        raise ValueError("matrix entries must be finite")
    n = band.shape[1]
    return sp.dia_matrix((band, (-nx, -1, 0, 1, nx)), shape=(n, n))


def _weak_rows_block(band: np.ndarray, nx: int) -> np.ndarray | None:
    """The rows k = i + nx j, ascending, of the tensor block bounding the
    rows of a band that are not diagonally dominant
    (``|a_kk| < sum_{j != k} |a_kj|``), or None when every row is."""
    off = np.zeros(band.shape[1])
    off[nx:] = np.abs(band[_SOUTH, :-nx])
    off[1:] += np.abs(band[_WEST, :-1])
    off[:-1] += np.abs(band[_EAST, 1:])
    off[:-nx] += np.abs(band[_NORTH, nx:])
    weak = (np.abs(band[_CENTER]) < off).reshape(-1, nx)
    if not weak.any():
        return None
    i, j = np.flatnonzero(weak.any(axis=0)), np.flatnonzero(weak.any(axis=1))
    return (np.arange(i[0], i[-1] + 1) + nx * np.arange(j[0], j[-1] + 1)[:, None]).ravel()


class Workspace:
    """Per-run operator cache: area weights (and 2/tau times them), the
    grid's fast-diagonalization heat solver, the concentration matrix (which
    both sides of its equation use) and its inverse by that solver, and the
    heat-part band the Crank-Nicolson density matrices are filled in on."""

    def __init__(self, grid: StaggeredGrid2D, config: SchemeConfig):
        self.grid = grid
        self.config = config
        self.areas = grid.cell_areas.ravel(order="F")
        self.areas_2_tau = 2.0 / config.tau * self.areas
        self.heat = linalg.TensorHeatSolver(grid.x_axis, grid.y_axis)
        # s W - theta W L at s = 1/tau + 1/2, theta = 1/2; SPD, and its inverse
        s, theta = 1.0 / config.tau + 0.5, 0.5
        self.z_system = _five_point(_heat_band(grid, s * grid.cell_areas, theta), grid.nx)
        self.z_inverse = functools.partial(self.heat.solve, s=s, theta=theta)
        # band of the heat part (1/tau) W - theta W L at theta = 1/2, which
        # every step copies; the predictor's, at theta = 1, is built on its call
        self._cn_heat_band = _heat_band(grid, grid.cell_areas / config.tau, 0.5)

    def u_system(self, g: GradientPair, theta: float = 0.5
                 ) -> tuple[sp.dia_matrix, np.ndarray | None]:
        """The density system (1/tau) W - theta W L + theta lam W C(g), for
        theta 1/2 (Crank-Nicolson) or 1 (the backward-Euler predictor), and
        the block bounding its rows that are not diagonally dominant
        (``_weak_rows_block``).  The matrix's data is a heat band: a copy
        of the kept one at theta 1/2, a new one otherwise.
        """
        band = (self._cn_heat_band.copy() if theta == 0.5
                else _heat_band(self.grid, self.grid.cell_areas / self.config.tau, theta))
        _add_chemotaxis(band, self.grid, g, theta * self.config.lam)
        return _five_point(band, self.grid.nx), _weak_rows_block(band, self.grid.nx)


# ---------------------------------------------------------------------------
# forcing helpers


def _forcing(problem: ProblemSpec, name: str, grid: StaggeredGrid2D, t: float):
    """The forcing ``name`` (``f_rho`` or ``f_c``) at the cell centers, x fastest; 0.0 if none."""
    if problem.forcing is None:
        return 0.0
    xs = grid.x_axis.centers[None, :]
    ys = grid.y_axis.centers[:, None]
    return np.broadcast_to(getattr(problem.forcing, name)(xs, ys, t), grid.shape[::-1]).T


# ---------------------------------------------------------------------------
# the scheme


def init_state(problem: ProblemSpec, grid: StaggeredGrid2D) -> State:
    """Sample the initial data.

    The density starts from pointwise samples; the concentration subtracts
    the second-derivative correction so the discrete initial gradient is
    second-order accurate on non-uniform grids.
    """
    if problem.c0_xx is None or problem.c0_yy is None:
        raise ValueError(
            f"problem {problem.name!r} lacks closed-form second derivatives of the "
            "initial concentration, required by the discrete initial condition"
        )
    u0 = cell_field_from_function(grid, problem.rho0)
    c0 = cell_field_from_function(grid, problem.c0)
    corr = delta_correction(
        cell_field_from_function(grid, problem.c0_xx),
        cell_field_from_function(grid, problem.c0_yy),
    )
    z0 = CellField(grid, c0.values - corr.values)
    return State(t=0.0, n=0, u_curr=u0, u_prev=None, z_curr=z0)


def _solve_concentration(ws: Workspace, rhs: np.ndarray, step: int) -> tuple[np.ndarray, SolveReport]:
    """Direct fast-diagonalization solve of the concentration system.

    There is no fallback: a solution whose recomputed residual misses the
    solver tolerance after ``linalg.direct_solve``'s refinement raises
    ``StepSolveError``.
    """
    x, report = linalg.direct_solve(ws.z_system, rhs, ws.z_inverse)
    if not report.converged:
        raise StepSolveError(step, "concentration", report)
    return x, report


def _solve_density(ws: Workspace, system: sp.dia_matrix, block: np.ndarray | None,
                   rhs: np.ndarray, theta: float, step: int, name: str,
                   warm_start: CellField) -> tuple[np.ndarray, SolveReport]:
    """BiCGStab for a density system from ``Workspace.u_system``, with a
    sparse LU fallback.

    The right preconditioner is the inverse of the system's heat part
    (1/tau) W - theta W L: in single precision when ``block`` is None, and
    otherwise in float64 followed by an exact solve of ``system`` on the
    rows ``block`` (``linalg.block_corrected``).  The fallback's report
    keeps the BiCGStab iteration count and carries the residual recomputed
    from the direct solution; a fallback that misses the solver tolerance
    raises ``StepSolveError``.  The report's ``block_cells`` is the size of
    the correction block, 0 when there is none or its matrix is exactly
    singular.
    """
    s = 1.0 / ws.config.tau
    if block is None:
        precond, cells = functools.partial(ws.heat.solve_fp32, s=s, theta=theta), 0
    else:
        heat = functools.partial(ws.heat.solve, s=s, theta=theta)
        precond = linalg.block_corrected(system, heat, block)
        cells = 0 if precond is heat else block.size  # 0: A_SS exactly singular
    x, report = linalg.bicgstab(system, rhs, precond, x0=np.ravel(warm_start.values, order="F"))
    if not report.converged:
        x, direct = linalg.sparse_lu_solve(system, rhs)
        if not direct.converged:
            raise StepSolveError(step, name, report, fallback=direct)
        report = replace(direct, iterations=report.iterations)
    return x, replace(report, block_cells=cells)


def predict_u1(state: State, problem: ProblemSpec, ws: Workspace) -> tuple[CellField, SolveReport]:
    """Backward-Euler density predictor for the first level."""
    if state.n != 0:
        raise ValueError("the predictor runs from the initial level only")
    grid, tau = ws.grid, ws.config.tau
    system, block = ws.u_system(grad(state.z_curr), 1.0)
    rhs_vals = state.u_curr.values / tau + _forcing(problem, "f_rho", grid, tau)
    rhs = ws.areas * np.ravel(rhs_vals, order="F")
    x, report = _solve_density(ws, system, block, rhs, 1.0, step=1, name="density predictor",
                               warm_start=state.u_curr)
    return CellField(grid, x.reshape(grid.shape, order="F")), report


def _diagnostics(state: State, grad_z: GradientPair, config: SchemeConfig, rep_z: SolveReport,
                 reps_u: tuple[SolveReport, ...]) -> StepDiagnostics:
    """One step's record; ``grad_z`` is the gradient of the concentration
    the step computed, and ``reps_u`` are the reports of its density solves
    (the predictor's and the corrector's on the first step)."""
    u, z = state.u_curr, state.z_curr
    dz_inf = grad_z.inf_norm()
    argmax_i, argmax_j = u.argmax()
    return StepDiagnostics(
        t=state.t,
        mass=float(np.sum(u.grid.cell_areas * u.values)),
        u_max=u.max(),
        u_min=u.min(),
        z_max=z.max(),
        argmax_i=argmax_i,
        argmax_j=argmax_j,
        iters_z=rep_z.iterations,
        iters_u=sum(r.iterations for r in reps_u),
        residual_z=rep_z.final_relative_residual,
        residual_u=max(r.final_relative_residual for r in reps_u),
        block_cells=max(r.block_cells for r in reps_u),
        dz_inf=dz_inf,
        uniqueness_ok=bool(config.tau < 4.0 / (config.lam**2 * (dz_inf + 1.0) ** 2)),
        neg_cells=int(np.count_nonzero(u.values < 0.0)),
    )


def _check_blowup(state: State, diag: StepDiagnostics, config: SchemeConfig) -> None:
    u, z = state.u_curr, state.z_curr
    if u.max_abs() > config.blowup_threshold or not u.is_finite() or not z.is_finite():
        raise BlowUpDetected(state, diag)


def _cn_stage(ws: Workspace, state: State, u_star: np.ndarray, problem: ProblemSpec,
              name: str, reps_before: tuple[SolveReport, ...] = ()) -> tuple[State, StepDiagnostics]:
    """One Crank-Nicolson stage from ``state``: the concentration solve with
    ``u_star`` as the half-level density, then the density solve in the new
    concentration gradient.  That solve starts from the fit of its
    right-hand side by ``state.history`` (``DensityHistory.start``) when the
    history holds two solves or more and the preconditioner is the heat
    inverse alone; otherwise from 2 u^n - u^{n-1}, or from u^n when there
    is no u^{n-1}.  The right-hand sides multiply ``ws.z_system`` and
    ``state.a_curr``.

    Returns the new state and its step's record, whose density columns
    also count ``reps_before``, the reports of the step's earlier density
    solves; raises ``BlowUpDetected`` when the new state crosses the
    threshold.  ``name`` names the density system in a ``StepSolveError``.
    """
    grid, tau, w = ws.grid, ws.config.tau, ws.areas
    step = state.n + 1
    t_half = (state.n + 0.5) * tau
    u_n, z_n = state.u_curr, state.z_curr
    u_flat, z_flat = np.ravel(u_n.values, order="F"), np.ravel(z_n.values, order="F")

    source = np.ravel(u_star + _forcing(problem, "f_c", grid, t_half), order="F")
    rhs = ws.areas_2_tau * z_flat - ws.z_system @ z_flat + w * source
    xz, rep_z = _solve_concentration(ws, rhs, step=step)
    z_next = CellField(grid, xz.reshape(grid.shape, order="F"))

    g_next = grad(z_next)
    system, block = ws.u_system(g_next)
    source = np.ravel(_forcing(problem, "f_rho", grid, t_half), order="F")
    rhs = ws.areas_2_tau * u_flat - state.a_curr @ u_flat + w * source
    history = state.history
    projection = history.projection(rhs) if history.rhs else None
    if block is None and len(history.rhs) >= 2:
        warm = CellField(grid, history.start(projection).reshape(grid.shape, order="F"))
    elif state.u_prev is None:
        warm = u_n
    else:
        warm = CellField(grid, 2.0 * u_n.values - state.u_prev.values)
    xu, rep_u = _solve_density(ws, system, block, rhs, 0.5, step=step, name=name, warm_start=warm)
    u_next = CellField(grid, xu.reshape(grid.shape, order="F"))

    new_state = State(t=step * tau, n=step, u_curr=u_next, u_prev=u_n, z_curr=z_next,
                      a_curr=system, history=history.pushed(rhs, xu, projection))
    diag = _diagnostics(new_state, g_next, ws.config, rep_z, (*reps_before, rep_u))
    _check_blowup(new_state, diag, ws.config)
    return new_state, diag


def first_step(state: State, problem: ProblemSpec, ws: Workspace) -> tuple[State, StepDiagnostics]:
    """Prediction, then the Crank-Nicolson stage with u* = (ubar + u^0) / 2."""
    u_bar, rep_pred = predict_u1(state, problem, ws)
    u_star = 0.5 * (u_bar.values + state.u_curr.values)
    state = replace(state, a_curr=ws.u_system(grad(state.z_curr))[0])
    return _cn_stage(ws, state, u_star, problem, "density corrector", reps_before=(rep_pred,))


def step_cn(state: State, problem: ProblemSpec, ws: Workspace) -> tuple[State, StepDiagnostics]:
    """One Crank-Nicolson step, with u* = (3 u^n - u^{n-1}) / 2."""
    if state.n < 1 or state.u_prev is None or state.a_curr is None:
        raise ValueError("Crank-Nicolson marching needs two density levels and a_curr; "
                         "run the first step")
    u_star = 1.5 * state.u_curr.values - 0.5 * state.u_prev.values
    return _cn_stage(ws, state, u_star, problem, "density")


def run(problem: ProblemSpec, grid: StaggeredGrid2D, config: SchemeConfig,
        on_step: Callable[[State], None] | None = None) -> RunResult:
    """March from the initial data to t_final or until blow-up halts the run,
    taking ``first_step`` and then ``step_cn``; ``on_step`` sees every level,
    the initial one and the halting one included.

    The advisory solvability monitor compares the time step against
    4 / (lam^2 (|dZ|_inf + 1)^2), substituting the observed concentration
    gradient bound for the unobservable continuous one; violations are
    recorded per step and warn once per run with a
    ``UniquenessConditionWarning``, which the ``warnings`` filters silence.
    """
    state = init_state(problem, grid)
    initial_mass = float(np.sum(grid.cell_areas * state.u_curr.values))
    ws = Workspace(grid, config)
    diagnostics: list[StepDiagnostics] = []
    blew_up = warned = False
    while True:
        if on_step is not None:
            on_step(state)
        if blew_up or state.n == config.n_steps:
            return RunResult(state, diagnostics, initial_mass, blew_up)
        step = first_step if state.n == 0 else step_cn
        try:
            state, diag = step(state, problem, ws)
        except BlowUpDetected as blow:
            state, diag, blew_up = blow.state, blow.diagnostics, True
        except StepSolveError as failure:
            failure.diagnostics = diagnostics
            raise
        diagnostics.append(diag)
        if not (diag.uniqueness_ok or warned):
            warnings.warn(
                f"time step {config.tau} exceeds the advisory solvability bound "
                f"4/(lam^2 (|dZ|_inf + 1)^2) at t={diag.t}",
                UniquenessConditionWarning,
                stacklevel=2,
            )
            warned = True


def error_norms(state: State, problem: ProblemSpec) -> tuple[float, float, float]:
    """Cell-norm errors of density and concentration plus the staggered
    gradient-norm error of the concentration, against the exact solution."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    grid = state.u_curr.grid
    t = state.t
    ex = problem.exact
    rho_exact = cell_field_from_function(grid, lambda x, y: ex.rho(x, y, t))
    c_exact = cell_field_from_function(grid, lambda x, y: ex.c(x, y, t))
    e_rho = norm_m(CellField(grid, rho_exact.values - state.u_curr.values))
    e_c = norm_m(CellField(grid, c_exact.values - state.z_curr.values))

    cx_exact = edge_x_from_function(grid, lambda x, y: ex.c_x(x, y, t))
    cy_exact = edge_y_from_function(grid, lambda x, y: ex.c_y(x, y, t))
    gz = grad(state.z_curr)
    diff = GradientPair(
        EdgeFieldX(grid, cx_exact.values - gz.gx.values),
        EdgeFieldY(grid, cy_exact.values - gz.gy.values),
    )
    return e_rho, e_c, norm_tm(diff)
