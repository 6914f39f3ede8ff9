"""Sparse and tensor-product linear algebra for the per-step systems.

Every solver takes the system as a ``Matrix``: anything with a shape, a
product ``@`` and ``abs()``.  The stepper's matrices are
``FivePointMatrix`` bands whose product runs in numpy.  There are a
fast-diagonalization solver for
the area-weighted heat operator s W - W L / 2 of a tensor-product grid, the
heat part of every system, which solves the concentration system directly
and preconditions the density solves, with a
single-precision variant used only as a preconditioner; BiCGStab for the
nonsymmetric density systems, right-preconditioned by an operator; a block
correction that follows such an operator with an exact solve, by block
elimination in numpy, on a box of cells where it is a poor approximation;
and one direct solve by a given inverse, refined once on a miss, which
solves the concentration system by the heat inverse.
The Krylov solvers take the preconditioner as a callable ``r -> M^-1 r``;
there is no built-in one.  Conjugate Gradient for symmetric positive
definite systems is not used by the stepper: it is kept, tested against
numpy's dense solve, as a solver whose calls the benchmark's ``linalg.cg``
span counts.  ``sparse_lu_solve`` (scipy's SuperLU) is kept for the same
reason, the benchmark's ``linalg.lu`` span: no run calls it.

Every solve, by ``cg``, ``bicgstab`` or ``direct_solve``, follows one rule
(``_refined``): a first solution, at most one refinement when that misses
the tolerance ``_TOL``, aimed at ``_REFINEMENT`` times the true residual it
starts from and kept if it lowers the 2-norm residual or if the verdict's
backward-error test accepts it and not the first solution, and one
verdict (``_verdict``).  That tolerance and the budget of 10 n Krylov
iterations are the module's, not arguments.  The ``SolveReport``'s
``reason`` says why a solve stopped: ``converged``, ``max_iter`` (iteration
budget spent), ``stagnated`` (a BiCGStab sweep went ``_STAGNATION_WINDOW``
iterations without a new best residual, or a Krylov refinement still
missed) or ``breakdown`` (a vanishing denominator, an exactly singular LU
factor, or a direct solution that misses even after its refinement).

A rerun of the same program with identical inputs gives bit-identical
outputs at a fixed BLAS thread count.  numpy's dot products and norms on
long vectors, and the matrix products of the tensor solver, run in the BLAS
library, whose threads split the sums; a different thread count can change
the last bits of a result (and with them a Krylov iteration count).  The
thread count is all that matters: an in-process run whose solver functions
are wrapped, as a profiler or tracer does, writes the ``ksbcfd`` command's
bits at the same thread count.  Reported residuals are always recomputed
from the returned iterate (``|b - A x| / |b|``), never taken from the
recursive residual of the iteration, and the report hands that true
residual ``r = b - A x`` back (``SolveReport.residual``): ``b - r`` is the
product ``A x`` to rounding, which the stepper carries to its next
right-hand side instead of multiplying again.

The products, the heat solver's axis modes, the block correction and
every vector operation stay in numpy, so a run loads no scipy module, and
with it neither scipy's OpenBLAS nor its thread pool.  Only an explicit
``sparse_lu_solve`` or ``FivePointMatrix.tocsc`` imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

__all__ = [
    "FivePointMatrix",
    "Matrix",
    "SolveReport",
    "TensorHeatSolver",
    "block_corrected",
    "cg",
    "bicgstab",
    "direct_solve",
    "sparse_lu_solve",
]


class Matrix(Protocol):
    """What the solvers use of a square matrix: a ``FivePointMatrix`` or any
    scipy sparse matrix.  Only ``sparse_lu_solve`` converts it to scipy's
    CSC form."""

    shape: tuple[int, int]

    def __matmul__(self, x: np.ndarray) -> np.ndarray: ...

    def __abs__(self) -> Matrix: ...

    def tocsc(self): ...


class FivePointMatrix:
    """A five-point matrix held as its band, with a product in numpy.

    Row k = i + nx j couples cell (i, j) with cells (i, j-1), (i-1, j),
    (i, j), (i+1, j) and (i, j+1): diagonals -nx, -1, 0, 1 and nx
    (``offsets``).  The band ``data``, shape (5, nx ny), is the matrix's DIA
    data: row o of it holds the diagonal of offset o, entry (k, k + o) at
    column k + o, zero where the neighbour lies outside the grid.  The
    product sums each row in the order of the offsets, as scipy's DIA
    product does and, the offsets ascending, as a CSR product does, so the
    three agree bit for bit.  Those sums start from +0.0.  This one writes
    the first diagonal's terms straight into the result, zeroes only the
    rows that have none, and adds +0.0 to the rest at the end: that turns a
    row whose every term is -0.0 into the +0.0 those sums give, and changes
    no other row.  ``tocsc`` imports ``scipy.sparse``.  No run calls it:
    it stays for ``sparse_lu_solve``, which the benchmark's ``linalg.lu``
    span binds by name, and for the tests' CSR and dense oracles.
    """

    def __init__(self, data: np.ndarray, nx: int):
        self.data, self.nx = data, nx
        self.shape = (data.shape[1], data.shape[1])

    @property
    def offsets(self) -> tuple[int, ...]:
        return (-self.nx, -1, 0, 1, self.nx)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n, nx = self.shape[0], self.nx
        y, tmp = np.empty(n), np.empty(n)
        y[:nx] = 0.0  # the rows with no south neighbour
        np.multiply(self.data[0, :-nx], x[:-nx], out=y[nx:])
        for offset, diagonal in zip(self.offsets[1:], self.data[1:]):
            rows = slice(max(0, -offset), n - max(0, offset))
            cols = slice(max(0, offset), n - max(0, -offset))
            np.multiply(diagonal[cols], x[cols], out=tmp[rows])
            y[rows] += tmp[rows]
        y[nx:] += 0.0
        return y

    def __abs__(self) -> FivePointMatrix:
        return FivePointMatrix(np.abs(self.data), self.nx)

    def tocsc(self):
        import scipy.sparse as sp  # loaded on the first conversion

        return sp.dia_matrix((self.data, self.offsets), shape=self.shape).tocsc()


# Denominators smaller than this (relative to the surrounding scale) count as
# algorithmic breakdown.
_BREAKDOWN = 1e-300


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    final_relative_residual: float
    reason: str  # converged, max_iter, stagnated or breakdown
    # cells of the preconditioner's exact correction block (``block_corrected``),
    # 0 when the solve had none; the stepper sets it
    block_cells: int = 0
    # the true residual b - A x of the returned solution, None when there is none;
    # a full-grid vector, which the stepper drops once it has taken b - r from it
    residual: np.ndarray | None = field(default=None, compare=False, repr=False)


# The relative residual |b - A x| / |b| at which every solve stops.
_TOL = 1e-12

# A bound on the componentwise backward error, in units of roundoff.
_BACKWARD_ULPS = 16


def _backward_stable(a: Matrix, b: np.ndarray, x: np.ndarray, r: np.ndarray) -> bool:
    """Whether ``r = b - A x`` has ``|r| <= _BACKWARD_ULPS eps (|A| |x| + |b|)`` in
    every row: a componentwise backward error (Oettli & Prager 1964) that
    float64 can meet where ``|A| |x|`` far outweighs ``|b|``."""
    return bool(np.all(
        np.abs(r) <= _BACKWARD_ULPS * np.finfo(np.float64).eps * (abs(a) @ np.abs(x) + np.abs(b))))


def _verdict(a: Matrix, b: np.ndarray, x: np.ndarray, r: np.ndarray, b_norm: float,
             iterations: int, reason: str) -> SolveReport:
    """The report of a solve that returns ``x``, with residual ``r = b - A x``.

    ``x`` converges when ``|r| / |b| <= _TOL`` or, on a miss, when it is
    ``_backward_stable``.  Otherwise it carries ``reason``.
    """
    res = float(np.linalg.norm(r) / b_norm)
    converged = res <= _TOL or _backward_stable(a, b, x, r)
    return SolveReport(converged, iterations, res, "converged" if converged else reason,
                       residual=r)


# The refinement pass aims this factor below the true residual it starts
# from.  After a first pass that converged, that residual lies a little above
# ``_TOL |b|``, where the pass's recursive residual met it, and a pass aimed
# only just below the target stops with the true residual still above it.
# On the corner blow-up runs' last density solves, 1e-4 leaves some short of
# the verdict, and 1e-8 passes them all at more iterations than 1e-6.
_REFINEMENT = 1e-6


def _refined(a: Matrix, b: np.ndarray, sweep: Callable,
             x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve ``a x = b`` by a first pass of ``sweep`` and at most one refinement pass.

    ``sweep(r, tol_abs, max_iter) -> (dx, iterations, reason)`` solves
    ``A dx = r`` aiming at ``|r - A dx| <= tol_abs`` in at most ``max_iter``
    iterations, what is left of the solve's 10 n.  The first pass runs on
    the residual of ``x0`` (read, not copied) aimed at ``_TOL |b|``, or from
    zero when ``x0`` is None (with no product) or its residual exceeds
    ``|b|``, zero's residual.
    When the true residual misses ``_TOL`` after a pass that
    converged or broke down, the refinement pass runs on it aimed at
    ``_REFINEMENT`` times its norm.  A swept solution is kept when it lowers
    the 2-norm residual, or when it is ``_backward_stable`` and the solution
    before it is not.  ``_verdict`` decides; a miss after a pass that
    converged is ``stagnated``.  The report carries the kept solution's
    residual.
    """
    b, b_norm = _checked_rhs(a, b)
    n = a.shape[0]
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, "converged", residual=b)
    x, r = np.zeros(n), b
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        r0 = b - a @ x0
        if np.linalg.norm(r0) <= b_norm:
            x, r = x0, r0
    res = float(np.linalg.norm(r) / b_norm)
    iterations, reason, target = 0, "converged", _TOL * b_norm
    for _ in range(2):
        if res <= _TOL or reason not in ("converged", "breakdown"):
            break
        dx, sweep_iters, reason = sweep(r, target, 10 * n - iterations)
        iterations += sweep_iters
        swept = x + dx
        swept_r = b - a @ swept
        swept_res = float(np.linalg.norm(swept_r) / b_norm)
        if swept_res < res or (_backward_stable(a, b, swept, swept_r)
                               and not _backward_stable(a, b, x, r)):
            x, r, res = swept, swept_r, swept_res
        target = _REFINEMENT * res * b_norm
    return x, _verdict(a, b, x, r, b_norm, iterations,
                       "stagnated" if reason == "converged" else reason)


def cg(a: Matrix, b: np.ndarray, precond: Callable[[np.ndarray], np.ndarray],
       x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned Conjugate Gradient for SPD systems.

    ``precond`` applies ``r -> M^-1 r`` for an SPD ``M``.  The caller asserts
    symmetry.  ``_refined``'s rule with ``_cg_sweep`` as the pass.
    """
    return _refined(a, b, lambda r, tol_abs, left: _cg_sweep(a, r, precond, tol_abs, left), x0)


def _cg_sweep(a: Matrix, b: np.ndarray, m: Callable, tol_abs: float,
              max_iter: int) -> tuple[np.ndarray, int, str]:
    """One preconditioned CG pass from a zero initial guess.

    Stops on the recursive residual reaching ``tol_abs`` or on breakdown
    (zero or negative curvature ``p^T A p``, or a vanishing ``r^T M^-1 r``).
    Returns (iterate, iterations, reason) with a ``SolveReport`` reason.
    """
    x = np.zeros(b.shape[0])
    r, p = b, m(b)
    rz = float(r @ p)
    for iterations in range(max_iter):
        if np.linalg.norm(r) <= tol_abs:
            return x, iterations, "converged"
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0 or abs(rz) < _BREAKDOWN:
            return x, iterations, "breakdown"
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        z = m(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, max_iter, "max_iter"


# A BiCGStab sweep that goes this many iterations without a new best
# residual has stagnated and ends the solve.  In the solves of the test suite
# that converge, the longest such run is 73 iterations, so the window never
# cuts a converging solve short; near the singular time of a blow-up run a
# sweep can stall for good, and this exit replaces a spin to ``max_iter``.
_STAGNATION_WINDOW = 500


def _bicgstab_sweep(a: Matrix, b: np.ndarray, m: Callable, tol_abs: float,
                    max_iter: int) -> tuple[np.ndarray, int, str]:
    """One BiCGStab pass from a zero initial guess.

    Stops on the recursive residual reaching ``tol_abs``, on breakdown (a
    vanishing denominator, among them a residual orthogonal to the shadow
    residual), or after ``_STAGNATION_WINDOW`` iterations without a new best
    residual.  Returns (iterate, iterations, reason) with a ``SolveReport``
    reason.  Vectors are updated in place, in each expression's order, and
    neither ``b`` (the shadow residual) nor a preconditioner output is written.
    """
    n = b.shape[0]
    x = np.zeros(n)
    r0, r = b, b.copy()  # r holds s from the middle of an iteration on
    rho = alpha = omega = 1.0
    v, p, tmp = np.zeros(n), np.zeros(n), np.empty(n)  # tmp: the scratch vector
    iterations = 0
    # best iterate by recursive residual; returned when the recursion breaks
    # down or wanders off instead of the (possibly worse) final iterate
    best_x = np.zeros(n)
    best_norm = r0_norm = float(np.linalg.norm(r))
    best_at = 0
    while iterations < max_iter:
        r_norm = float(np.linalg.norm(r))
        if r_norm < best_norm:
            best_x[:], best_norm, best_at = x, r_norm, iterations
        if r_norm <= tol_abs:
            return x, iterations, "converged"
        if iterations - best_at >= _STAGNATION_WINDOW:
            return best_x, iterations, "stagnated"
        rho_next = float(r0 @ r)
        scale = r0_norm * r_norm
        if abs(rho_next) <= _BREAKDOWN * max(scale, 1.0):
            return best_x, iterations, "breakdown"
        beta = (rho_next / rho) * (alpha / omega)
        # p = r + beta (p - omega v)
        np.subtract(p, np.multiply(omega, v, out=tmp), out=p)
        np.add(r, np.multiply(beta, p, out=p), out=p)
        p_hat = m(p)
        v = a @ p_hat
        r0v = float(r0 @ v)
        if abs(r0v) <= _BREAKDOWN:
            return best_x, iterations, "breakdown"
        alpha = rho_next / r0v
        s = np.subtract(r, np.multiply(alpha, v, out=tmp), out=r)
        # x + alpha p_hat, the half-step iterate whose residual is s
        np.add(x, np.multiply(alpha, p_hat, out=tmp), out=x)
        del p_hat  # dead vectors go before the next preconditioner call
        iterations += 1
        s_norm = float(np.linalg.norm(s))
        if s_norm <= tol_abs:
            return x, iterations, "converged"
        if s_norm < best_norm:
            best_x[:], best_norm, best_at = x, s_norm, iterations
        s_hat = m(s)
        t = a @ s_hat
        tt = float(t @ t)
        if tt <= _BREAKDOWN:
            return best_x, iterations, "breakdown"
        omega = float(t @ s) / tt
        if abs(omega) <= _BREAKDOWN:
            return best_x, iterations, "breakdown"
        np.add(x, np.multiply(omega, s_hat, out=tmp), out=x)
        np.subtract(s, np.multiply(omega, t, out=tmp), out=r)
        del s_hat, t
        rho = rho_next
    return best_x, iterations, "max_iter"


def bicgstab(a: Matrix, b: np.ndarray, precond: Callable[[np.ndarray], np.ndarray],
             x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Right-preconditioned BiCGStab for general square systems.

    ``precond`` applies ``r -> M^-1 r`` for an approximate inverse ``M^-1``
    of ``a`` (the stepper passes the fast-diagonalization solve of the heat
    part: in float64 and block-corrected where the density matrix is not
    diagonally dominant, in float32 otherwise).

    ``_refined``'s rule with ``_bicgstab_sweep`` as the pass.  The recursive
    residual drifts from the true one near the rounding floor, so the
    refinement sweep starts from the true one, with a fresh shadow residual.
    """
    return _refined(a, b, lambda r, tol_abs, left: _bicgstab_sweep(a, r, precond, tol_abs, left),
                    x0)


# An axis is uniform when its cell and dual widths lie within this relative
# distance of (hi - lo) / n: ``build_uniform``'s lie within 5e-13 for n up
# to 2 000.
_UNIFORM_RTOL = 1e-12


def _axis_modes(axis) -> tuple[np.ndarray, np.ndarray]:
    """Generalized eigenpairs ``K V = W V diag(mu)``, ``V^T W V = I``, of one
    axis, ``mu`` ascending.

    ``W = diag(cell_widths)`` and ``K`` is the zero-flux stiffness matrix with
    couplings ``c = 1 / dual_widths``.  A uniform axis of width ``h`` takes
    the closed form, the DCT-II basis (Strang 1999, SIAM Review 41):
    ``V[i, k] ~ cos(pi k (i + 1/2) / n)`` and ``mu_k = (2 / h sin(pi k / 2n))^2``,
    with each cosine's argument reduced exactly, in integers, to ``[0, 2 pi)``.
    Any other axis takes numpy's dense ``eigh`` of the symmetric tridiagonal
    ``W^-1/2 K W^-1/2 = Q diag(mu) Q^T``, and ``V = W^-1/2 Q``.
    """
    w = axis.cell_widths
    n = w.size
    h = (axis.hi - axis.lo) / n
    if all(np.all(np.abs(v - h) <= _UNIFORM_RTOL * h) for v in (w, axis.dual_widths)):
        k = np.arange(n)
        q = np.cos(np.pi / (2 * n) * (np.outer(2 * k + 1, k) % (4 * n)))
        q[:, 0] = np.sqrt(0.5)
        return q * np.sqrt(2.0 / (n * h)), (2.0 / h * np.sin(np.pi / (2 * n) * k)) ** 2
    c = 1.0 / axis.dual_widths
    k_diag = np.zeros(n)
    k_diag[:-1] += c
    k_diag[1:] += c
    r = 1.0 / np.sqrt(w)
    off = np.diag(-c * r[:-1] * r[1:], 1)
    mu, q = np.linalg.eigh(np.diag(k_diag / w) + off + off.T)
    return q * r[:, None], mu


# Relative threshold below which ``TensorHeatSolver.solve_fp32`` zeroes an
# entry.  It keeps the float32 products clear of subnormals (below 2^-126)
# and drops nothing a float32 result could show.
_FLUSH = 2.0**-60


def _flushed(a: np.ndarray) -> np.ndarray:
    """``a`` with every entry below ``_FLUSH`` times its largest magnitude set to zero, in place."""
    mag = np.abs(a)
    a[mag < _FLUSH * mag.max()] = 0.0
    return a


class TensorHeatSolver:
    """Fast-diagonalization solver for the area-weighted heat operator.

    On a tensor-product grid with x axis widths ``Wx = diag(cell_widths)``
    and zero-flux stiffness ``Kx`` (couplings ``1 / dual_widths``), and
    likewise in y, the operator is ``s W + (1/2) (Kx (x) Wy + Wx (x) Ky)``:
    ``W = Wx (x) Wy`` holds the cell areas and the bracket is ``-W L`` for
    the discrete Laplacian ``L``, so it is ``s W - (1/2) W L``, the heat
    part of every system the stepper solves.  Each axis is diagonalized
    once by its generalized eigenpairs (``_axis_modes``), shared when both
    axes have the same widths.  In (nx, ny) array form a solve is then

        X = Vx [(Vx^T B Vy) / (s + (mu_x_i + mu_y_j) / 2)] Vy^T

    (Lynch, Rice & Thomas 1964): four small matrix products and a pointwise
    divide, exact up to rounding for any ``s > 0``.
    """

    def __init__(self, x_axis, y_axis):
        self.shape = (x_axis.n_cells, y_axis.n_cells)
        self._vx, self._mu_x = _axis_modes(x_axis)
        if np.array_equal(x_axis.cell_widths, y_axis.cell_widths):
            self._vy, self._mu_y = self._vx, self._mu_x
        else:
            self._vy, self._mu_y = _axis_modes(y_axis)
        self._vx32 = _flushed(self._vx.astype(np.float32))
        self._vy32 = self._vx32 if self._vy is self._vx else _flushed(self._vy.astype(np.float32))
        self._denominators = {}

    def _denominator(self, s: float, dtype) -> np.ndarray:
        """``s + (mu_x_i + mu_y_j) / 2`` in ``dtype``, transposed (see
        ``solve``); made on the first call with these arguments and kept."""
        key = (s, dtype)
        if key not in self._denominators:
            mu_sum = (self._mu_y[:, None] + self._mu_x[None, :]).astype(dtype)
            self._denominators[key] = dtype(s) + dtype(0.5) * mu_sum
        return self._denominators[key]

    def solve(self, b: np.ndarray, s: float) -> np.ndarray:
        """Solve ``(s W + (1/2) (Kx (x) Wy + Wx (x) Ky)) x = b``.

        Vectors flatten cell (i, j) to ``i + nx j``, so ``b`` in C order is
        the transposed array ``B^T`` of shape (ny, nx), and the solve runs on
        transposes: ``X^T = Vy [(Vy^T B^T Vx) / D^T] Vx^T``.
        """
        nx, ny = self.shape
        bt = np.reshape(b, (ny, nx))
        yt = (self._vy.T @ bt @ self._vx) / self._denominator(s, np.float64)
        return (self._vy @ yt @ self._vx.T).ravel()

    def solve_fp32(self, b: np.ndarray, s: float) -> np.ndarray:
        """``solve`` in single precision, for use as a preconditioner.

        ``b`` is scaled by the power of two ``2^-e`` that puts ``max|b|`` in
        [1/2, 1), which is exact, and the float64 result is scaled back, so
        ``solve_fp32(c b)`` is bit-identical to ``c solve_fp32(b)`` for any
        power of two ``c`` that neither overflows nor underflows.  The scaled
        input, the mode coefficients and (once, in ``__init__``) the float32
        eigenvector matrices are flushed to zero below ``_FLUSH`` times their
        largest magnitude: a tail of tiny entries would otherwise reach the
        matrix products as subnormal float32 values, on which the BLAS runs
        slower than in float64 (late residuals of a blow-up run span 20 and
        more decades).  Each scaling is one pass, casting as it goes.
        """
        nx, ny = self.shape
        peak = max(float(b.max()), -float(b.min()))
        if peak == 0.0:
            return np.zeros(nx * ny)
        e = int(np.frexp(peak)[1])
        if e < -1021:  # 2^-e overflows: scale a subnormal peak up first, which is exact
            return np.ldexp(self.solve_fp32(np.ldexp(b, 200), s), -200)
        bt = _flushed(np.multiply(np.reshape(b, (ny, nx)), 2.0**-e,
                                  out=np.empty((ny, nx), np.float32), casting="unsafe"))
        yt = (self._vy32.T @ bt @ self._vx32) / self._denominator(s, np.float32)
        x = self._vy32 @ _flushed(yt) @ self._vx32.T
        return np.multiply(x, 2.0**e, dtype=np.float64).ravel()


def block_corrected(a: FivePointMatrix, precond: Callable[[np.ndarray], np.ndarray],
                    rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``precond`` followed by an exact solve of ``a`` on the index set ``rows``.

    The returned map is ``x = precond(r); x[S] += A_SS^-1 (r - A x)[S]`` for
    ``S = rows``: one step of a multiplicative Schwarz method (Smith,
    Bjorstad & Gropp 1996) with ``precond`` as the global solve and ``S`` as
    the one subdomain.  Where ``precond`` is exact the correction vanishes;
    where it is not, the residual on ``S`` is removed.  ``S`` is a box of
    ``bx x by`` cells, ascending with x fastest, so ``A_SS`` (``a`` on ``S``
    in rows and columns) is block tridiagonal: ``by`` tridiagonal blocks
    ``D_j`` coupled south and north by ``diag(l_j)`` and ``diag(u_j)``.  It
    is factored here once by block elimination (Golub & Van Loan, *Matrix
    Computations*, sec. 4.5), which keeps the ``by`` inverses of the Schur
    complements ``S_j = D_j - diag(l_j) S_{j-1}^-1 diag(u_{j-1})``, each by
    numpy's pivoted LU.  A correction costs the rows of ``a`` in ``S``, from
    one (neighbour, coefficient) pair per offset, and a forward and a
    backward sweep of ``by`` matrix-vector products.  No pivoting crosses
    block rows: on the stepper's blocks the correction is about as accurate
    as SuperLU's, and a poorer one would cost BiCGStab iterations, not
    accuracy.  ``precond`` must return a new array.  An exactly singular
    ``S_j`` (an exactly singular ``A_SS`` among them) leaves ``precond`` as
    it is.
    """
    nx, n = a.nx, a.shape[0]
    bx, by = rows[-1] % nx - rows[0] % nx + 1, rows[-1] // nx - rows[0] // nx + 1
    if not np.array_equal(rows, (rows[0] + np.arange(bx) + nx * np.arange(by)[:, None]).ravel()):
        raise ValueError("block rows must be a tensor box, ascending with x fastest")
    neighbours = rows + np.array(a.offsets)[:, None]
    inside = (neighbours >= 0) & (neighbours < n)
    neighbours = np.clip(neighbours, 0, n - 1)
    coefficients = np.where(inside, np.take_along_axis(a.data, neighbours, axis=1), 0.0)
    south, west, center, east, north = coefficients.reshape(5, by, bx)
    inverses = np.empty((by, bx, bx))
    for j in range(by):
        s = np.diag(center[j]) + np.diag(west[j, 1:], -1) + np.diag(east[j, :-1], 1)
        if j:
            s -= south[j][:, None] * inverses[j - 1] * north[j - 1]
        try:
            inverses[j] = np.linalg.inv(s)
        except np.linalg.LinAlgError:  # "Singular matrix"
            return precond

    def corrected(r: np.ndarray) -> np.ndarray:
        x = precond(r)
        y = (r[rows] - (coefficients * x[neighbours]).sum(axis=0)).reshape(by, bx)
        for j in range(by):
            if j:
                y[j] -= south[j] * y[j - 1]
            y[j] = inverses[j] @ y[j]
        for j in range(by - 2, -1, -1):
            y[j] -= inverses[j] @ (north[j] * y[j + 1])
        x[rows] += y.ravel()
        return x

    return corrected


def direct_solve(a: Matrix, b: np.ndarray,
                 inverse: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, SolveReport]:
    """Direct solve of ``a x = b`` by ``inverse``, a map ``r -> A^-1 r``.

    ``_refined``'s rule with ``inverse`` as the pass, whose refinement is one
    step of fixed-precision iterative refinement, ``x += A^-1 (b - A x)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 12).  The
    residual is recomputed against ``a`` itself, so an ``inverse`` of another
    operator shows as a large residual and a ``breakdown``.
    """
    return _refined(a, b, lambda r, *_: (inverse(r), 0, "breakdown"))


def sparse_lu_solve(a: Matrix, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    """``direct_solve`` by sparse LU factorization (scipy's SuperLU).

    No run calls it: the stepper's density solves have BiCGStab as their
    one path.  It stays because the benchmark's ``linalg.lu`` span binds
    ``linalg.sparse_lu_solve`` by name.

    Deterministic and single-threaded.  The columns are ordered by minimum
    degree on ``A^T + A`` (Liu 1985), which suits the structurally symmetric
    five-point matrices: on a 400 x 400 density matrix its factors hold
    about half the entries of the default ``COLAMD`` ordering's.  An exactly
    singular factor is reported as ``breakdown`` (with the zero vector and
    residual 1) rather than raised.
    """
    import scipy.sparse.linalg as spla  # SuperLU, loaded on the first call

    _checked_rhs(a, b)
    try:
        lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:  # "Factor is exactly singular"
        return np.zeros(a.shape[0]), SolveReport(False, 0, 1.0, "breakdown")
    return direct_solve(a, b, lu.solve)


def _checked_rhs(a: Matrix, b: np.ndarray) -> tuple[np.ndarray, float]:
    """``b`` as float64 and its 2-norm, once ``a`` is square and ``b`` a
    finite vector of matching length."""
    b = np.asarray(b, dtype=np.float64)
    n_rows, n_cols = a.shape
    if n_rows != n_cols:
        raise ValueError("solver needs a square matrix")
    if b.shape != (n_rows,):
        raise ValueError(f"rhs length {b.shape} does not match {n_rows} rows")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs must be finite")
    return b, float(np.linalg.norm(b))
