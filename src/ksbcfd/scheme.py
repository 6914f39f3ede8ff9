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
the linear-solver residual.  Every heat part is an area-weighted heat
operator s W - (1/2) W L, which the fast-diagonalization solver
(``linalg.TensorHeatSolver``, built once per run) inverts.  The
concentration matrix is one, at s = 1/tau + 1/2, and is solved directly.
A density matrix, at s = 1/tau (1/(2 tau) in the predictor's backward-Euler
equation, halved), adds the chemotaxis term, is nonsymmetric whenever the
concentration gradient is nonzero, and is solved with BiCGStab
right-preconditioned by the inverse of its heat part in single precision
(``TensorHeatSolver.solve_fp32``), cheaper than float64 at about the same
iteration counts.  That inverse ignores the chemotaxis term, which matters
where it outweighs diffusion: near the singular time of a blow-up run,
rows at the peak stop being diagonally dominant.  Where any row is not,
an exact solve of the density system on the box that
``linalg.FivePointMatrix.weak_box`` finds follows it
(``linalg.block_corrected``, by block elimination in numpy).  Residuals and
acceptance stay in float64.  Every Crank-Nicolson density solve starts
from u^n + dX c, where c fits b - A^n u^n by the last eight differences dB
of consecutive right-hand sides, and dX holds the differences of the last
nine solutions (``DensityHistory``, the one holder of the density levels
as vectors: u^0 from ``init_state``, then u^n and u^{n-1}, which u* also
reads, as its newest two); the extrapolation 2 u^n - u^{n-1} is c = e_0.
A start whose residual exceeds |b| gives way to zero (``linalg``'s rule).
On the corner blow-up run at 180^2 the solves take 464 BiCGStab iterations
(626 with every solve at 1e-12, where the extrapolation alone took 935).
Every solve, direct or iterative, follows ``linalg``'s one rule of
refinement and acceptance.  The tolerance is 1e-12, but a density system
with no weak box stops at 1e-10 (``_DOMINANT_TOL``): there the forward
error is about the residual, far below the discretization error.
``_solve_density`` is the one entry point of both density solves: it asks
the system for its weak box and takes the correction and the tolerance
from it, with no flag from its callers.  A solve that ``linalg`` does not
accept raises ``StepSolveError``: there is no second solve path.
After each density solve a uniform shift takes the residual's sum out,
so the discrete mass moves by rounding only, whatever the tolerance
(``_solve_density``).

Every matrix is a five-point stencil, built one way: its entries are
written into a band, the DIA data of a ``linalg.FivePointMatrix``, one row
per neighbour in the flat order of the unknowns, which the matrix checks
for finite entries; its products run in numpy, and a run loads no scipy
module.
``Workspace`` assembles the constant concentration matrix once per run;
its band is the only one a run keeps.  Density matrices change every step
with the concentration gradient: each step copies the concentration band,
lowers its center by W/2 to the Crank-Nicolson heat part and adds the
chemotaxis term; the density matrix keeps that copy as its band.  The
gradient's edge arrays and the sampled forcing are stored in that flat
order too, so a step makes no layout copies.  A Crank-Nicolson equation
A x^{n+1} = (2/tau) W x^n - A x^n + W f needs only the product A x^n of
the previous level's own matrix, and the previous solve already holds it
as b - r, its right-hand side less its true residual (which
``linalg`` hands back): ``State`` carries A(grad z^n) u^n and A_z z^n as
vectors, and a step multiplies by no matrix.  The first step takes A_z z^0
and A(grad z^0) u^0 once, the latter from the one matrix it assembles,
before lowering its center by W/(2 tau) more to the predictor's.  Those
two vectors are also the next step's buffers: it builds the concentration
right-hand side in A_z z^n's, which then holds A_z z^{n+1}, and writes the
fit's difference b - A^n u^n into A^n u^n's, so a state's products belong
to the one step that follows it.  W is a flat view of the grid's areas,
which the grid stores x fastest.  The matrix-free stencils are the tests'
oracle of the assembly and the right-hand sides.

Manufactured problems add pointwise forcing sampled at cell centers at the
half-level time (at the full first-level time in the backward-Euler
predictor).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

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

    ``report`` is the solve's report, whose reason, iterations and residual
    the message names.  ``run`` sets ``diagnostics`` to the records of the
    steps before the failure.
    """

    def __init__(self, step: int, system: str, report: SolveReport):
        super().__init__(
            f"{system} solve failed at step {step}: {report.reason} after "
            f"{report.iterations} iterations, relative residual "
            f"{report.final_relative_residual:.3e}"
        )
        self.step = step
        self.system = system
        self.report = report
        self.diagnostics: list[StepDiagnostics] = []


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


@dataclass(frozen=True, kw_only=True)
class SchemeConfig:
    """A run's time step, final time and blow-up threshold; lam is ``ProblemSpec.lam``."""

    tau: float
    t_final: float
    blowup_threshold: float = 1e12

    def __post_init__(self):
        # each message starts with the name of the field at fault
        for name in ("tau", "t_final", "blowup_threshold"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        n = step_of(self.t_final, self.tau)
        if n is None or n < 1:
            raise ValueError(f"t_final must be an integer step count of tau, "
                             f"got t_final/tau = {self.t_final / self.tau!r}")

    @property
    def n_steps(self) -> int:
        return step_of(self.t_final, self.tau)


# How many differences of consecutive Crank-Nicolson density solves a
# ``DensityHistory`` keeps; it keeps one solution level more.
_HISTORY = 8

# A right-hand side within this relative distance of the last one holds no
# trend, only rounding, and its solve starts from u^n: a fit of rounding
# passes the solver tolerance unrefined and feeds it into the next fit, so
# a constant state would drift (5e-13 in 200 steps, 7e-11 in 3 000).
_REPEATED = 1e-12

# ``DensityHistory.projection``: d = b - A^n u^n, (d . d, dB^T d) and b . b
_Projection = tuple[np.ndarray, np.ndarray, float]


@dataclass(frozen=True)
class DensityHistory:
    """The density levels, flat and newest first (``levels[0]`` is u^n,
    ``levels[1]`` u^{n-1}): u^0 from ``init_state``, then up to ``_HISTORY``
    + 1 density solutions, the arrays ``State.u_curr`` views.  Between them
    the ``_HISTORY`` differences of consecutive right-hand sides (``d_rhs``,
    the columns of dB), with ``gram`` = dB^T dB.  A level's right-hand
    side is taken as the product A^n u^n that the state carries, which
    equals it to the solver residual, so none is stored.  The fit lives in
    the differences: a Gram of the raw right-hand sides would lose it to
    rounding.
    """

    levels: tuple[np.ndarray, ...] = ()
    d_rhs: tuple[np.ndarray, ...] = ()
    gram: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def projection(self, b: np.ndarray, au: np.ndarray) -> _Projection:
        """``d = b - A^n u^n``, for ``au`` = A^n u^n, its products
        ``(d . d, dB^T d)`` and ``b . b``.  ``d`` is written into ``au``'s
        buffer, which ``pushed`` keeps as the newest difference."""
        d = np.subtract(b, au, out=au)
        return d, np.array([d @ d, *(v @ d for v in self.d_rhs)]), float(b @ b)

    def start(self, projection: _Projection) -> np.ndarray:
        """``u^n + dX c`` for the ``c`` that minimises ``|d - dB c|``, where
        ``projection`` is ``self.projection(b, A^n u^n)`` and column j of dX
        is ``levels[j] - levels[j + 1]``: the normal equations, solved by
        least squares with the Gram's columns scaled to a unit diagonal.
        ``c = 0``, the start u^n, while no difference is stored and when
        ``b`` repeats A^n u^n to ``_REPEATED``; extrapolation is ``c = e_0``.
        The sum telescopes to one weight per level.  It stays in numpy, like
        all of the step's vector algebra: scipy's BLAS has a thread pool of
        its own, and at two BLAS threads one call into it between numpy's
        products slows a run 3-4 times.
        """
        u = self.levels[0]
        if not self.d_rhs:
            return u
        _, h, bb = projection
        if h[0] <= _REPEATED**2 * bb:
            return u
        diag = np.diagonal(self.gram)
        scale = np.divide(1.0, np.sqrt(diag), out=np.zeros_like(diag), where=diag > 0.0)
        c = scale * np.linalg.lstsq(self.gram * scale * scale[:, None], scale * h[1:])[0]
        # levels[j] weighs c_j - c_{j-1}, with c_{-1} = -1 and c_k = 0
        weights = np.diff(c, prepend=-1.0, append=0.0)
        x0, tmp = np.multiply(weights[0], u), np.empty_like(u)
        for wj, level in zip(weights[1:], self.levels[1:]):
            x0 += np.multiply(wj, level, out=tmp)
        return x0

    def pushed(self, x: np.ndarray, projection: _Projection) -> DensityHistory:
        """The history with the solution ``x`` from u^n = ``levels[0]``
        added, where ``projection`` is ``self.projection(b, A^n u^n)`` of
        its right-hand side ``b``; beyond ``_HISTORY`` differences the
        oldest level is dropped.  The Gram shifts by one and takes
        ``projection``'s products as its new first row.
        """
        d, h, _ = projection
        k = min(len(self.d_rhs) + 1, _HISTORY)
        g = np.empty((k, k))
        g[0], g[1:, 0], g[1:, 1:] = h[:k], h[1:k], self.gram[:k - 1, :k - 1]
        return DensityHistory((x, *self.levels[:k]), (d, *self.d_rhs[:k - 1]), g)


@dataclass(frozen=True)
class State:
    """One time level: u^n as a cell field, z^n, the products
    A(grad z^n) u^n and A_z z^n of the level's own matrices (None at
    n = 0), which the next Crank-Nicolson right-hand sides take, and the
    density history, whose levels hold u^n and u^{n-1} as flat vectors.

    ``au_curr`` and ``az_curr`` belong to the step that follows the state:
    it writes vectors of its own into their buffers, so a state is stepped
    once (``run`` never steps one twice), and a caller that steps it again
    passes copies.  ``u_curr`` and ``z_curr`` are not touched."""

    t: float
    n: int
    u_curr: CellField
    z_curr: CellField
    au_curr: np.ndarray | None = None
    az_curr: np.ndarray | None = None
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


# the center slot of a five-point band, its main diagonal
_CENTER = 2


def _heat_band(grid: StaggeredGrid2D, diagonal: np.ndarray) -> np.ndarray:
    """The band (``linalg.FivePointMatrix``'s data) of ``D - (1/2) W L``.

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
    band *= -0.5
    center += diagonal.T
    return band.reshape(5, nx * ny)


def _add_chemotaxis(band: np.ndarray, grid: StaggeredGrid2D, g: GradientPair, s: float) -> None:
    """Add ``s`` times the area-weighted divergence of (interpolated cell
    values) * g to a band, in place.

    The area-weighted flux across an interior edge is g times the edge
    length times the interpolated cell value, which weighs the cell on
    either side by the other cell's width across the edge over twice the
    dual width.  ``s`` and those weights are folded into one factor per
    interior edge of an axis, so each cell's coefficient is one product of
    the flux with such a factor.  It goes straight into the band: into the
    cell's center, from its left, right, bottom and top edges in that
    order, which sets the centers' last bits, and into the slot of the cell
    across the edge.  The x-edges' arrays die before the y-edges' are
    made.  Every array here is (ny, nx), x fastest, as the band is.
    """
    nx, ny = grid.shape
    dxw, dyw = grid.x_axis.cell_widths, grid.y_axis.cell_widths
    dxd, dyd = grid.x_axis.dual_widths, grid.y_axis.dual_widths
    # a cell's entry in the slot of offset o lies o places on in the row
    south, west, center, east, north = band.reshape(5, ny, nx)
    flux = dyw[:, None] * g.gx.values.T[:, 1:-1]  # interior x-edges, (ny, nx-1)
    coef = flux * (s * dxw[1:] / (2.0 * dxd))  # the edge's left cell
    center[:, :-1] += coef
    west[:, :-1] -= coef
    flux *= s * dxw[:-1] / (2.0 * dxd)  # now its right cell's coefficient
    center[:, 1:] -= flux
    east[:, 1:] += flux
    del flux, coef
    flux = dxw[None, :] * g.gy.values.T[1:-1, :]  # interior y-edges, (ny-1, nx)
    coef = flux * (s * dyw[1:] / (2.0 * dyd))[:, None]  # the edge's bottom cell
    center[:-1, :] += coef
    south[:-1, :] -= coef
    flux *= (s * dyw[:-1] / (2.0 * dyd))[:, None]  # now its top cell's coefficient
    center[1:, :] -= flux
    north[1:, :] += flux


class Workspace:
    """Per-run operator cache: the area weights W, a flat view of the
    grid's ``cell_areas``, and their sum, the grid's fast-diagonalization
    heat solver, and the concentration matrix, whose band is the one
    constant band of a run, and its inverse by that solver.  A step forms
    W/2 and (2/tau) W where it uses them, with no stored copy.  None of them
    depends on the chemotactic sensitivity."""

    def __init__(self, grid: StaggeredGrid2D, config: SchemeConfig):
        self.grid = grid
        self.config = config
        self.areas = grid.cell_areas.ravel(order="F")
        self.total_area = float(self.areas.sum())
        self.heat = linalg.TensorHeatSolver(grid.x_axis, grid.y_axis)
        # s W - (1/2) W L at s = 1/tau + 1/2; SPD, and its inverse
        s = 1.0 / config.tau + 0.5
        self.z_system = linalg.FivePointMatrix(_heat_band(grid, s * grid.cell_areas), grid.nx)
        self.z_inverse = functools.partial(self.heat.solve, s=s)

    def u_system(self, g: GradientPair, lam: float) -> linalg.FivePointMatrix:
        """The Crank-Nicolson density system
        (1/tau) W - (1/2) W L + (1/2) lam W C(g), ``lam`` the problem's: a
        copy of the concentration matrix's band with its center lowered by
        W / 2, the one place the two heat parts differ, and the chemotaxis
        term added.
        """
        band = self.z_system.data.copy()
        band[_CENTER] -= 0.5 * self.areas
        _add_chemotaxis(band, self.grid, g, 0.5 * lam)
        return linalg.FivePointMatrix(band, self.grid.nx)


# ---------------------------------------------------------------------------
# forcing helpers


def _forcing(problem: ProblemSpec, name: str, grid: StaggeredGrid2D, t: float):
    """The forcing ``name`` (``f_rho`` or ``f_c``) at the cell centers as a
    flat vector, x fastest; 0.0 if none."""
    if problem.forcing is None:
        return 0.0
    xs = grid.x_axis.centers[None, :]
    ys = grid.y_axis.centers[:, None]
    return np.broadcast_to(getattr(problem.forcing, name)(xs, ys, t), grid.shape[::-1]).ravel()


# ---------------------------------------------------------------------------
# the scheme


def init_state(problem: ProblemSpec, grid: StaggeredGrid2D) -> State:
    """Sample the initial data.

    The density starts from pointwise samples, which also seed the density
    history as u^0 in the solver's flat order; the concentration subtracts
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
    return State(t=0.0, n=0, u_curr=u0, z_curr=z0,
                 history=DensityHistory((np.ravel(u0.values, order="F"),)))


# The relative residual at which a density system with no weak box stops:
# there the forward error is about the residual, and the scheme's
# discretization error lies far above it (Arioli, Noulard & Russo 2001,
# Calcolo 38).  A system with a weak box keeps ``linalg``'s 1e-12: on
# criterion 6's, the forward error is about 20 times the residual.
_DOMINANT_TOL = 1e-10


def _solve_density(ws: Workspace, system: linalg.FivePointMatrix, rhs: np.ndarray, s: float,
                   step: int, name: str, x0: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    """BiCGStab from ``x0`` for a density system whose heat part is
    s W - (1/2) W L, then a uniform shift that keeps the discrete mass.

    The right preconditioner is the inverse of that heat part in single
    precision (``Workspace.heat.solve_fp32``).  The solve asks ``system``
    for its weak box (``linalg.FivePointMatrix.weak_box``): with none, it
    stops at the relative residual ``_DOMINANT_TOL``; with one, an exact
    solve of ``system`` on the box follows the heat inverse
    (``linalg.block_corrected``) and the solve stops at ``linalg``'s own
    tolerance, also when that box meets an exactly singular pivot block and
    the heat inverse runs alone.  BiCGStab is the one solve path: a
    solution it does not converge to, after its refinement pass on the true
    residual, raises ``StepSolveError`` with its reason, iterations and
    residual.

    The density matrix's column sums are s W, so ``1^T r = 1^T b - s W^T x``
    for ``r = b - A x``, and the shift ``x += 1^T r / (s sum W)`` puts the
    discrete mass W^T x on ``1^T b / s`` whatever the tolerance.  It takes
    ``1^T r`` in that form, not as the sum of the computed residual, whose
    product rounds by about eps ``1^T |A| |x|``: near the singular time of a
    blow-up run that is 1e4 to 1e5 times ``1^T |b|``, and it doubled the
    corner runs' mass drift at their halt.  The report carries the shifted
    residual ``r - shift A 1``, with ``A 1`` from the band's row sums, and
    its relative residual.  Its ``block_cells`` is the size of the
    correction block, 0 when there is none or its elimination meets an
    exactly singular pivot block.
    """
    precond = heat = functools.partial(ws.heat.solve_fp32, s=s)
    box = system.weak_box()
    if box is not None:
        precond = linalg.block_corrected(system, heat, box)
    # 0: no box, or a singular pivot block
    cells = 0 if precond is heat else math.prod(cut.stop - cut.start for cut in box)
    x, report = linalg.bicgstab(system, rhs, precond, x0=x0,
                                tol=_DOMINANT_TOL if box is None else None)
    if not report.converged:
        raise StepSolveError(step, name, report)
    shift = (float(rhs.sum()) / s - float(ws.areas @ x)) / ws.total_area
    if shift:
        # x is x0 itself when the start met the tolerance; x0 may be u^n's array
        x = x + shift if x is x0 else np.add(x, shift, out=x)
        row_sums, r = system.row_sums(), report.residual
        r -= np.multiply(row_sums, shift, out=row_sums)
        report = replace(report, residual=r,
                         final_relative_residual=float(np.linalg.norm(r) / np.linalg.norm(rhs)))
    return x, replace(report, block_cells=cells)


def predict_u1(state: State, problem: ProblemSpec, ws: Workspace
               ) -> tuple[CellField, SolveReport, np.ndarray]:
    """The backward-Euler density predictor for the first level from the
    history's u^0, its report, and A(grad z^0) u^0, taken before that
    matrix's center is lowered in place by W/(2 tau) to the predictor's."""
    if state.n != 0:
        raise ValueError("the predictor runs from the initial level only")
    grid, tau = ws.grid, ws.config.tau
    system = ws.u_system(grad(state.z_curr), problem.lam)
    u0 = state.history.levels[0]
    au = system @ u0
    system.data[_CENTER] -= 0.5 * ws.areas / tau
    rhs = 0.5 * ws.areas * (u0 / tau + _forcing(problem, "f_rho", grid, tau))
    x, report = _solve_density(ws, system, rhs, 0.5 / tau, step=1, name="density predictor", x0=u0)
    return CellField(grid, x.reshape(grid.shape, order="F")), report, au


def _mass(u: CellField) -> float:
    """sum(W u), over the product in C order, which fixes the sum's order
    whatever the layout of ``u``."""
    return float(np.sum(np.multiply(u.grid.cell_areas, u.values, order="C")))


def _diagnostics(state: State, dz_inf: float, config: SchemeConfig, lam: float,
                 rep_z: SolveReport, reps_u: tuple[SolveReport, ...]) -> StepDiagnostics:
    """One step's record; ``dz_inf`` is ``GradientPair.inf_norm`` of the
    gradient of the concentration the step computed, taken when the density
    system was assembled so that no gradient outlives the assembly, ``lam``
    the problem's sensitivity, and ``reps_u`` are the reports of its density
    solves (the predictor's and the corrector's on the first step)."""
    u, z = state.u_curr, state.z_curr
    argmax_i, argmax_j = u.argmax()
    return StepDiagnostics(
        t=state.t,
        mass=_mass(u),
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
        uniqueness_ok=bool(config.tau < 4.0 / (lam**2 * (dz_inf + 1.0) ** 2)),
        neg_cells=int(np.count_nonzero(u.values < 0.0)),
    )


def _check_blowup(state: State, diag: StepDiagnostics, config: SchemeConfig) -> None:
    """Halt on ``max|u|`` above the threshold or a non-finite u or z, read
    off the record's extrema (which propagate NaN and +-inf) and z's minimum."""
    extrema = (diag.u_max, diag.u_min, diag.z_max, state.z_curr.min())
    if (not all(map(math.isfinite, extrema))
            or max(diag.u_max, -diag.u_min) > config.blowup_threshold):
        raise BlowUpDetected(state, diag)


def _concentration_stage(ws: Workspace, state: State, u_star: Callable[[], np.ndarray],
                         problem: ProblemSpec, t_half: float
                         ) -> tuple[CellField, np.ndarray, SolveReport]:
    """The concentration solve of a stage from ``state``, with ``u_star()``
    as the flat half-level density: z^{n+1}, the product A_z z^{n+1} it
    carries on as ``b - r``, and the solve's report without its residual.
    The right-hand side ``b`` is built in ``state.az_curr``'s buffer, and
    ``b - r`` is left there.  The solve is direct, by the
    fast-diagonalization inverse (``linalg.direct_solve``); a solution its
    refinement leaves short of the verdict raises ``StepSolveError``.  u*
    and the residual die here, before the density system is assembled."""
    grid = ws.grid
    z_flat = np.ravel(state.z_curr.values, order="F")
    source = u_star() + _forcing(problem, "f_c", grid, t_half)
    # (2/tau) W z^n - A_z z^n + W source, in A_z z^n's buffer
    rhs = np.subtract(2.0 / ws.config.tau * ws.areas * z_flat, state.az_curr, out=state.az_curr)
    rhs += ws.areas * source
    x, report = linalg.direct_solve(ws.z_system, rhs, ws.z_inverse)
    if not report.converged:
        raise StepSolveError(state.n + 1, "concentration", report)
    # b - r in b's buffer; r may be b itself, when b - r is rightly 0
    return (CellField(grid, x.reshape(grid.shape, order="F")),
            np.subtract(rhs, report.residual, out=rhs), replace(report, residual=None))


def _cn_stage(ws: Workspace, state: State, u_star: Callable[[], np.ndarray], problem: ProblemSpec,
              name: str, reps_before: tuple[SolveReport, ...] = ()) -> tuple[State, StepDiagnostics]:
    """One Crank-Nicolson stage from ``state``: the concentration solve with
    ``u_star()`` as the half-level density (``_concentration_stage``), then
    the density solve in the new concentration gradient, from the fit of
    its right-hand side by ``state.history`` (``DensityHistory.start``; u^n
    on the first step).  The right-hand sides take u^n from the history and
    A_z z^n and A^n u^n from ``state``, and the new state carries ``b - r``
    of each solve, its right-hand side less its true residual, as the
    products of the new level, A_z z^{n+1} in A_z z^n's buffer; the fit's
    difference ``b - A^n u^n`` takes A^n u^n's.  Of the concentration solve
    and the gradient only A_z z^{n+1}, the report and ``dz_inf`` live on
    through the density solve.

    Returns the new state and its step's record, whose density columns
    also count ``reps_before``, the reports of the step's earlier density
    solves; raises ``BlowUpDetected`` when the new state crosses the
    threshold.  ``name`` names the density system in a ``StepSolveError``.
    """
    grid, tau = ws.grid, ws.config.tau
    step = state.n + 1
    t_half = (state.n + 0.5) * tau
    z_next, az_next, rep_z = _concentration_stage(ws, state, u_star, problem, t_half)
    g = grad(z_next)
    system, dz_inf = ws.u_system(g, problem.lam), g.inf_norm()
    del g  # the edge arrays die before the density solve

    history = state.history
    source = _forcing(problem, "f_rho", grid, t_half)
    rhs_u = 2.0 / tau * ws.areas * history.levels[0] - state.au_curr + ws.areas * source
    projection = history.projection(rhs_u, state.au_curr)
    xu, rep_u = _solve_density(ws, system, rhs_u, 1.0 / tau, step=step, name=name,
                               x0=history.start(projection))
    u_next = CellField(grid, xu.reshape(grid.shape, order="F"))

    new_state = State(t=step * tau, n=step, u_curr=u_next, z_curr=z_next,
                      au_curr=rhs_u - rep_u.residual, az_curr=az_next,
                      history=history.pushed(xu, projection))
    diag = _diagnostics(new_state, dz_inf, ws.config, problem.lam, rep_z, (*reps_before, rep_u))
    _check_blowup(new_state, diag, ws.config)
    return new_state, diag


def first_step(state: State, problem: ProblemSpec, ws: Workspace) -> tuple[State, StepDiagnostics]:
    """Prediction, then the Crank-Nicolson stage with u* = (ubar + u^0) / 2,
    from A_z z^0 and the predictor's product A(grad z^0) u^0."""
    u_bar, rep_pred, au = predict_u1(state, problem, ws)
    u0 = state.history.levels[0]
    az = ws.z_system @ np.ravel(state.z_curr.values, order="F")
    state = replace(state, au_curr=au, az_curr=az)
    return _cn_stage(ws, state, lambda: 0.5 * (np.ravel(u_bar.values, order="F") + u0), problem,
                     "density corrector", reps_before=(rep_pred,))


def step_cn(state: State, problem: ProblemSpec, ws: Workspace) -> tuple[State, StepDiagnostics]:
    """One Crank-Nicolson step, with u* = (3 u^n - u^{n-1}) / 2 from the history."""
    if len(state.history.levels) < 2 or state.au_curr is None or state.az_curr is None:
        raise ValueError("Crank-Nicolson marching needs two density levels and the products "
                         "au_curr and az_curr; run the first step")
    u_n, u_nm1 = state.history.levels[:2]
    return _cn_stage(ws, state, lambda: 1.5 * u_n - 0.5 * u_nm1, problem, "density")


def run(problem: ProblemSpec, grid: StaggeredGrid2D, config: SchemeConfig,
        on_step: Callable[[State], None] | None = None) -> RunResult:
    """March from the initial data to t_final or until blow-up halts the run,
    taking ``first_step`` and then ``step_cn``; ``on_step`` sees every level,
    the initial one and the halting one included.  The sensitivity lam is
    ``problem.lam``; a grid whose extent is not ``problem.domain`` raises
    ``ValueError``.

    The advisory solvability monitor compares the time step against
    4 / (lam^2 (|dZ|_inf + 1)^2), substituting the observed concentration
    gradient bound for the unobservable continuous one. Each step's
    ``uniqueness_ok`` records the outcome; a violation does not stop the
    run and is not reported otherwise.
    """
    extent = (grid.x_axis.lo, grid.x_axis.hi, grid.y_axis.lo, grid.y_axis.hi)
    if extent != tuple(problem.domain):
        raise ValueError(f"grid extent {extent} is not the domain {tuple(problem.domain)} "
                         f"of problem {problem.name!r}")
    state = init_state(problem, grid)
    initial_mass = _mass(state.u_curr)
    ws = Workspace(grid, config)
    diagnostics: list[StepDiagnostics] = []
    blew_up = False
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
