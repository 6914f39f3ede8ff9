"""Sparse and tensor-product linear algebra for the per-step systems.

Every solver takes the system as a plain ``scipy.sparse.csr_matrix`` and
leaves its products to scipy.  There are a fast-diagonalization solver for
the area-weighted heat operator of a tensor-product grid, which solves the
concentration system directly and preconditions the density solves;
Conjugate Gradient for symmetric positive definite systems; BiCGStab for
the nonsymmetric density systems, with Jacobi or an operator as right
preconditioner; a block correction that follows such an operator with an
exact sparse LU solve (scipy's SuperLU) on the rows where it is a poor
approximation; a sparse LU solve of a whole system, which the stepper falls
back on when BiCGStab fails on a density system; and a dense partial-pivot
solver used as an independent oracle in the tests.

Every solve returns a ``SolveReport`` whose ``reason`` says why it
stopped: ``converged``, ``max_iter`` (iteration budget spent),
``stagnated`` (BiCGStab went ``_STAGNATION_WINDOW`` iterations without a new
best residual, or a refinement restart made no progress) or ``breakdown``
(a vanishing denominator, an exactly singular LU factor, or a direct
solution that misses the tolerance).

Identical inputs give bit-identical outputs at a fixed BLAS thread count.
numpy's dot products and norms on long vectors, and the matrix products of
the tensor solver, run in the BLAS library, whose threads split the sums;
a different thread count can change the last bits of a result (and with
them a Krylov iteration count).  Reported residuals are always recomputed
from the returned iterate (``|b - A x| / |b|``), never taken from the
recursive residual of the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "SolveReport",
    "SingularMatrixError",
    "TensorHeatSolver",
    "block_corrected",
    "cg",
    "bicgstab",
    "fast_diag_solve",
    "sparse_lu_solve",
    "dense_solve",
]

# Denominators smaller than this (relative to the surrounding scale) count as
# algorithmic breakdown.
_BREAKDOWN = 1e-300


class SingularMatrixError(ValueError):
    """Raised by dense_solve when a pivot falls below the tolerance."""


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    final_relative_residual: float
    reason: str  # converged, max_iter, stagnated or breakdown
    # cells of the preconditioner's exact correction block (``block_corrected``),
    # 0 when the solve had none; the stepper sets it
    block_cells: int = 0


def _jacobi_inverse(a: sp.csr_matrix) -> np.ndarray:
    d = a.diagonal().copy()
    small = np.abs(d) < _BREAKDOWN
    d[small] = 1.0  # fall back to identity on (near-)zero diagonal entries
    return 1.0 / d


def _preconditioner(a: sp.csr_matrix, precond) -> Callable[[np.ndarray], np.ndarray]:
    """The map r -> M^-1 r: ``precond`` itself when it is callable, Jacobi for
    ``"jacobi"``, the identity otherwise."""
    if callable(precond):
        return precond
    if precond == "jacobi":
        m_inv = _jacobi_inverse(a)
        return lambda r: m_inv * r
    return np.copy


def _true_relative_residual(a: sp.csr_matrix, b: np.ndarray, x: np.ndarray, b_norm: float) -> float:
    return float(np.linalg.norm(b - a @ x) / b_norm)


def cg(a: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12, max_iter: int | None = None,
       precond: str = "jacobi", x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned Conjugate Gradient for SPD systems.

    The caller asserts symmetry.  Zero-curvature breakdown is reported as
    non-convergence.  Convergence means the recomputed relative residual
    ``|b - A x|_2 / |b|_2`` is at or below ``tol``.  ``x0`` warm-starts the
    iteration (time steppers pass the previous level).
    """
    b = np.asarray(b, dtype=np.float64)
    _check_square(a, b)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = a.shape[0]
    if max_iter is None:
        max_iter = 10 * n

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, "converged")

    m = _preconditioner(a, precond)

    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - a @ x
    z = m(r)
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * b_norm:
            true_res = _true_relative_residual(a, b, x, b_norm)
            if true_res <= tol:
                return x, SolveReport(True, iterations, true_res, "converged")
            r = b - a @ x  # recursive residual drifted; continue from truth
            z = m(r)
            p = z.copy()
            rz = float(r @ z)
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0 or abs(rz) < _BREAKDOWN:
            return x, SolveReport(False, iterations, _true_relative_residual(a, b, x, b_norm),
                                  "breakdown")
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        z = m(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
        iterations += 1
    true_res = _true_relative_residual(a, b, x, b_norm)
    converged = true_res <= tol
    return x, SolveReport(converged, iterations, true_res, "converged" if converged else "max_iter")


# A BiCGStab sweep that goes this many iterations without a new best
# residual has stagnated and ends the solve.  In the solves of the test suite
# that converge, the longest such run is 73 iterations, so the window never
# cuts a converging solve short; near the singular time of a blow-up run a
# sweep can stall for good, and this exit replaces a spin to ``max_iter``.
_STAGNATION_WINDOW = 500


def _bicgstab_sweep(a: sp.csr_matrix, b: np.ndarray, m: Callable, tol_abs: float,
                    max_iter: int) -> tuple[np.ndarray, int, str]:
    """One BiCGStab pass from a zero initial guess.

    Stops on the recursive residual reaching ``tol_abs``, on breakdown, or
    after ``_STAGNATION_WINDOW`` iterations without a new best residual.
    A rho-breakdown (residual orthogonal to the shadow residual) restarts the
    recursion once with a fresh shadow residual; a second occurrence, or any
    other breakdown, ends the sweep.  Returns (iterate, iterations, reason)
    with a ``SolveReport`` reason.
    """
    n = b.shape[0]
    x = np.zeros(n)
    r = b.copy()
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    restarted = False
    iterations = 0
    # best iterate by recursive residual; returned when the recursion breaks
    # down or wanders off instead of the (possibly worse) final iterate
    best_x = x
    best_norm = float(np.linalg.norm(r))
    best_at = 0
    while iterations < max_iter:
        r_norm = float(np.linalg.norm(r))
        if r_norm < best_norm:
            best_x, best_norm, best_at = x, r_norm, iterations
        if r_norm <= tol_abs:
            return x, iterations, "converged"
        if iterations - best_at >= _STAGNATION_WINDOW:
            return best_x, iterations, "stagnated"
        rho_next = float(r0 @ r)
        scale = float(np.linalg.norm(r0) * r_norm)
        if abs(rho_next) <= _BREAKDOWN * max(scale, 1.0):
            if restarted:
                return best_x, iterations, "breakdown"
            restarted = True
            r0 = r.copy()
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
            rho_next = float(r0 @ r)
            if abs(rho_next) <= _BREAKDOWN:
                return best_x, iterations, "breakdown"
        beta = (rho_next / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = m(p)
        v = a @ p_hat
        r0v = float(r0 @ v)
        if abs(r0v) <= _BREAKDOWN:
            return best_x, iterations, "breakdown"
        alpha = rho_next / r0v
        s = r - alpha * v
        iterations += 1
        s_norm = float(np.linalg.norm(s))
        if s_norm <= tol_abs:
            return x + alpha * p_hat, iterations, "converged"
        if s_norm < best_norm:
            best_x, best_norm, best_at = x + alpha * p_hat, s_norm, iterations
        s_hat = m(s)
        t = a @ s_hat
        tt = float(t @ t)
        if tt <= _BREAKDOWN:
            return best_x, iterations, "breakdown"
        omega = float(t @ s) / tt
        if abs(omega) <= _BREAKDOWN:
            return best_x, iterations, "breakdown"
        x = x + alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho = rho_next
    return best_x, iterations, "max_iter"


# Outer iterative-refinement restarts around the BiCGStab sweep.  A single
# sweep's recursive residual drifts away from the true residual once it
# approaches the rounding floor of the recursion; restarting on the true
# residual lets each sweep work at its own scale, which reaches tight
# tolerances on badly conditioned systems (e.g. near blow-up).
_MAX_REFINEMENTS = 12


def bicgstab(a: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12, max_iter: int | None = None,
             precond="jacobi", x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Right-preconditioned BiCGStab for general square systems.

    ``precond`` is ``"jacobi"`` (the default), a callable ``r -> M^-1 r``
    applying an approximate inverse of ``a`` (the stepper passes the
    fast-diagonalization solve of the heat part, block-corrected where the
    density matrix is not diagonally dominant), or anything else for none.

    Convergence means the recomputed true relative residual is at or below
    ``tol``.  Breakdown inside a sweep restarts once (fresh shadow residual)
    and is otherwise reported as non-convergence, never as a crash.  A sweep
    that goes ``_STAGNATION_WINDOW`` iterations without a new best residual
    ends the solve as ``stagnated`` instead of spending ``max_iter``.
    ``x0`` warm-starts the iteration.
    """
    b = np.asarray(b, dtype=np.float64)
    _check_square(a, b)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = a.shape[0]
    if max_iter is None:
        max_iter = 10 * n

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, "converged")

    m = _preconditioner(a, precond)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    iterations = 0
    best_x = x
    best_norm = np.inf
    reason = "max_iter"
    for refinement in range(_MAX_REFINEMENTS + 1):
        r = b - a @ x
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol * b_norm:
            return x, SolveReport(True, iterations, r_norm / b_norm, "converged")
        if not r_norm < best_norm:
            # no progress beyond the best point; a retry would repeat it
            if reason == "converged":  # only the recursive residual converged
                reason = "stagnated"
            break
        best_x, best_norm = x, r_norm
        if reason == "stagnated":
            break  # the Krylov recursion stalled for a whole window
        if iterations >= max_iter or refinement == _MAX_REFINEMENTS:
            reason = "max_iter"  # iteration or restart budget spent
            break
        dx, sweep_iters, reason = _bicgstab_sweep(a, r, m, tol * b_norm,
                                                  max_iter - iterations)
        iterations += sweep_iters
        x = x + dx
        if reason == "breakdown" and sweep_iters == 0:
            break
    return best_x, SolveReport(False, iterations, _true_relative_residual(a, b, best_x, b_norm),
                               reason)


def _axis_modes(axis) -> tuple[np.ndarray, np.ndarray]:
    """Generalized eigenpairs ``K V = W V diag(mu)``, ``V^T W V = I``, of one axis.

    ``W = diag(cell_widths)`` and ``K`` is the zero-flux stiffness matrix with
    couplings ``c = 1 / dual_widths``.  They come from the symmetric
    tridiagonal ``W^-1/2 K W^-1/2 = Q diag(mu) Q^T`` as ``V = W^-1/2 Q``.
    """
    w = axis.cell_widths
    c = 1.0 / axis.dual_widths
    k_diag = np.zeros(w.size)
    k_diag[:-1] += c
    k_diag[1:] += c
    r = 1.0 / np.sqrt(w)
    mu, q = eigh_tridiagonal(k_diag / w, -c * r[:-1] * r[1:])
    return q * r[:, None], mu


class TensorHeatSolver:
    """Fast-diagonalization solver for the area-weighted heat operator.

    On a tensor-product grid with x axis widths ``Wx = diag(cell_widths)``
    and zero-flux stiffness ``Kx`` (couplings ``1 / dual_widths``), and
    likewise in y, the operator is ``s W + theta (Kx (x) Wy + Wx (x) Ky)``:
    ``W = Wx (x) Wy`` holds the cell areas and the bracket is ``-W L`` for
    the discrete Laplacian ``L``.  Each axis is diagonalized once by its
    generalized eigenpairs (``_axis_modes``), shared when both axes have the
    same widths.  In (nx, ny) array form a solve is then

        X = Vx [(Vx^T B Vy) / (s + theta (mu_x_i + mu_y_j))] Vy^T

    (Lynch, Rice & Thomas 1964): four small matrix products and a pointwise
    divide, exact up to rounding for any ``s > 0`` and ``theta >= 0``.
    """

    def __init__(self, x_axis, y_axis):
        self.shape = (x_axis.n_cells, y_axis.n_cells)
        self._vx, mu_x = _axis_modes(x_axis)
        if np.array_equal(x_axis.cell_widths, y_axis.cell_widths):
            self._vy, mu_y = self._vx, mu_x
        else:
            self._vy, mu_y = _axis_modes(y_axis)
        self._mu_sum = mu_y[:, None] + mu_x[None, :]  # transposed, see solve

    def solve(self, b: np.ndarray, s: float, theta: float) -> np.ndarray:
        """Solve ``(s W + theta (Kx (x) Wy + Wx (x) Ky)) x = b``.

        Vectors flatten cell (i, j) to ``i + nx j``, so ``b`` in C order is
        the transposed array ``B^T`` of shape (ny, nx), and the solve runs on
        transposes: ``X^T = Vy [(Vy^T B^T Vx) / D^T] Vx^T``.
        """
        nx, ny = self.shape
        bt = np.reshape(b, (ny, nx))
        yt = (self._vy.T @ bt @ self._vx) / (s + theta * self._mu_sum)
        return (self._vy @ yt @ self._vx.T).ravel()


def block_corrected(a: sp.csr_matrix, precond: Callable[[np.ndarray], np.ndarray],
                    rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``precond`` followed by an exact solve of ``a`` on the index set ``rows``.

    The returned map is ``x = precond(r); x[S] += A_SS^-1 (r - A x)[S]`` for
    ``S = rows`` (unique indices): one step of a multiplicative Schwarz
    method (Smith, Bjorstad & Gropp 1996) with ``precond`` as the global
    solve and ``S`` as the one subdomain.  Where ``precond`` is exact the
    correction vanishes; where it is not, the residual on ``S`` is removed.
    ``A_SS``, ``a`` restricted to ``S`` in rows and columns, is factored
    here once by SuperLU, and a correction costs the rows of ``a`` in ``S``
    and one triangular solve pair.  ``precond`` must return a new array.
    An exactly singular ``A_SS`` leaves ``precond`` as it is.
    """
    a_rows = a[rows]
    try:
        lu = spla.splu(a_rows[:, rows].tocsc())
    except RuntimeError:  # "Factor is exactly singular"
        return precond

    def corrected(r: np.ndarray) -> np.ndarray:
        x = precond(r)
        x[rows] += lu.solve(r[rows] - a_rows @ x)
        return x

    return corrected


def _direct_report(a: sp.csr_matrix, b: np.ndarray, x: np.ndarray, b_norm: float,
                   tol: float) -> SolveReport:
    """A direct solution's report: ``breakdown`` when it misses ``tol``."""
    res = _true_relative_residual(a, b, x, b_norm)
    converged = res <= tol
    return SolveReport(converged, 0, res, "converged" if converged else "breakdown")


def fast_diag_solve(a: sp.csr_matrix, b: np.ndarray, heat: TensorHeatSolver, s: float,
                    theta: float, tol: float = 1e-12) -> tuple[np.ndarray, SolveReport]:
    """Direct solve of ``a x = b`` where ``a`` is ``heat``'s operator at (s, theta).

    The residual is recomputed against ``a`` itself, so a matrix that is not
    that operator shows as a large residual.  Convergence means it is at or
    below ``tol``; a less accurate solution is reported as ``breakdown``.
    """
    b = np.asarray(b, dtype=np.float64)
    _check_square(a, b)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(a.shape[0]), SolveReport(True, 0, 0.0, "converged")
    x = heat.solve(b, s, theta)
    return x, _direct_report(a, b, x, b_norm, tol)


def sparse_lu_solve(a: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, SolveReport]:
    """Direct solve by sparse LU factorization (scipy's SuperLU).

    Deterministic and single-threaded.  The solution gets one step of
    iterative refinement with the same factors, ``x += LU^-1 (b - A x)``,
    kept when it lowers the residual: on a density system just past the
    singular time of a blow-up run, the plain solve's residual can sit just
    above the solver tolerance and the refined one below it.  Convergence
    means the recomputed relative residual is at or below ``tol``; a less
    accurate solution is reported as ``breakdown``.  An exactly singular
    factor is reported the same way (with the zero vector and residual 1)
    rather than raised.
    """
    b = np.asarray(b, dtype=np.float64)
    _check_square(a, b)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = a.shape[0]
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, "converged")
    try:
        lu = spla.splu(a.tocsc())
    except RuntimeError:  # "Factor is exactly singular"
        return np.zeros(n), SolveReport(False, 0, 1.0, "breakdown")
    x = lu.solve(b)
    r = b - a @ x
    refined = x + lu.solve(r)
    if np.linalg.norm(b - a @ refined) < np.linalg.norm(r):
        x = refined
    return x, _direct_report(a, b, x, b_norm, tol)


def dense_solve(a_dense: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting (test oracle).

    Raises SingularMatrixError if any pivot magnitude drops below 1e-14
    relative to the largest initial entry.
    """
    a = np.array(a_dense, dtype=np.float64)
    x = np.array(b, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or x.shape != (n,):
        raise ValueError("dense_solve needs a square matrix and matching vector")
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) < 1e-14 * scale:
            raise SingularMatrixError(f"pivot {a[piv, k]!r} below tolerance at column {k}")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            x[[k, piv]] = x[[piv, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= factors[:, None] * a[k, k:]
        x[k + 1:] -= factors * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def _check_square(a: sp.csr_matrix, b: np.ndarray) -> None:
    n_rows, n_cols = a.shape
    if n_rows != n_cols:
        raise ValueError("solver needs a square matrix")
    if b.shape != (n_rows,):
        raise ValueError(f"rhs length {b.shape} does not match {n_rows} rows")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs must be finite")
