import numpy as np
import pytest
import scipy.sparse as sp

from ksbcfd.fields import CellField, cell_field, grad
from ksbcfd.grid import build_corner_refined, build_random_perturbed, make_grid
from ksbcfd.linalg import (
    _STAGNATION_WINDOW,
    SingularMatrixError,
    TensorHeatSolver,
    bicgstab,
    block_corrected,
    cg,
    dense_solve,
    fast_diag_solve,
    sparse_lu_solve,
)
from ksbcfd.scheme import assemble_u_system, assemble_z_system


def csr(n, rows, cols, vals):
    """An n x n CSR matrix from (row, col, value) triplets; duplicates sum."""
    return sp.csr_matrix((np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n))


def identity(n):
    return csr(n, np.arange(n), np.arange(n), np.ones(n))


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, n))
    a = q @ q.T + n * np.eye(n)
    return sp.csr_matrix(a), a


def laplacian_1d(n):
    return advection_diffusion(n, 0.0)


def advection_diffusion(n, peclet):
    """Centred 1D advection-diffusion stencil (-1 - Pe/2, 2, -1 + Pe/2).

    At a high cell Peclet number the matrix is well conditioned but far from
    symmetric, and Jacobi-BiCGStab makes no progress from a constant
    right-hand side: without a stagnation exit it spins to ``max_iter``.
    """
    i = np.arange(n)
    rows = np.concatenate([i, i[1:], i[:-1]])
    cols = np.concatenate([i, i[1:] - 1, i[:-1] + 1])
    vals = np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0 - peclet / 2),
                           np.full(n - 1, -1.0 + peclet / 2)])
    return csr(n, rows, cols, vals)


class TestCG:
    def test_identity_single_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        x, rep = cg(identity(3), b)
        assert rep.converged and rep.iterations <= 1
        assert np.allclose(x, b, rtol=0, atol=1e-15)

    def test_zero_rhs(self):
        x, rep = cg(laplacian_1d(4), np.zeros(4))
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(x, np.zeros(4))
        assert rep.final_relative_residual == 0.0

    def test_matches_dense_oracle(self):
        a, ad = random_spd(30, 7)
        b = np.random.default_rng(8).standard_normal(30)
        x, rep = cg(a, b, tol=1e-13)
        assert rep.converged
        assert np.max(np.abs(x - dense_solve(ad, b))) <= 1e-10

    def test_report_matches_recomputed_residual(self):
        a, _ = random_spd(25, 12)
        b = np.random.default_rng(13).standard_normal(25)
        x, rep = cg(a, b)
        recomputed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert rep.converged
        assert abs(recomputed - rep.final_relative_residual) <= 1e-12

    def test_breakdown_reported_not_raised(self):
        # indefinite system: zero curvature direction possible
        a = csr(2, [0, 1], [0, 1], [1.0, -1.0])
        x, rep = cg(a, np.array([0.0, 1.0]), max_iter=50)
        assert not rep.converged
        assert rep.reason == "breakdown"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            cg(identity(3), np.ones(4))

    def test_reasons_converged_and_max_iter(self):
        _, rep = cg(laplacian_1d(50), np.ones(50))
        assert rep.converged and rep.reason == "converged"
        _, rep = cg(laplacian_1d(50), np.ones(50), max_iter=3)
        assert not rep.converged and rep.reason == "max_iter" and rep.iterations == 3


class TestBiCGStab:
    def test_identity(self):
        b = np.array([2.0, 0.5])
        x, rep = bicgstab(identity(2), b)
        assert rep.converged
        assert np.allclose(x, b, rtol=0, atol=1e-14)

    def test_nonsymmetric_vs_dense(self):
        rng = np.random.default_rng(9)
        n = 40
        ad = 5 * np.eye(n) + 0.5 * rng.standard_normal((n, n))
        a = sp.csr_matrix(ad)
        b = rng.standard_normal(n)
        x, rep = bicgstab(a, b, tol=1e-13)
        assert rep.converged
        assert np.max(np.abs(x - dense_solve(ad, b))) <= 1e-10
        recomputed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert abs(recomputed - rep.final_relative_residual) <= 1e-12

    def test_singular_row_reports_failure(self):
        a = csr(3, [0, 1], [0, 1], [1.0, 1.0])  # row 2 all zero
        x, rep = bicgstab(a, np.array([1.0, 1.0, 1.0]), max_iter=100)
        assert not rep.converged
        assert rep.final_relative_residual >= 0.0

    def test_reasons_converged_and_max_iter(self):
        _, rep = bicgstab(laplacian_1d(50), np.ones(50))
        assert rep.converged and rep.reason == "converged"
        _, rep = bicgstab(laplacian_1d(50), np.ones(50), max_iter=3)
        assert not rep.converged and rep.reason == "max_iter" and rep.iterations == 3

    def test_stagnation_exits_within_window(self):
        n = 1000
        a = advection_diffusion(n, 100.0)
        b = np.ones(n)
        x, rep = bicgstab(a, b)
        assert not rep.converged
        assert rep.reason == "stagnated"
        assert rep.iterations <= 2 * _STAGNATION_WINDOW < 10 * n
        recomputed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert rep.final_relative_residual == pytest.approx(recomputed, rel=1e-12)

    def test_zero_rhs(self):
        x, rep = bicgstab(laplacian_1d(6), np.zeros(6))
        assert rep.converged and rep.iterations == 0

    def test_agrees_with_cg_on_spd(self):
        for n, seed in ((50, 1), (200, 2), (400, 3)):
            a, _ = random_spd(n, seed)
            b = np.random.default_rng(seed + 100).standard_normal(n)
            x1, r1 = cg(a, b, tol=1e-12)
            x2, r2 = bicgstab(a, b, tol=1e-12)
            assert r1.converged and r2.converged
            assert np.max(np.abs(x1 - x2)) <= 1e-8

    def test_bit_deterministic(self):
        a, _ = random_spd(60, 21)
        b = np.random.default_rng(22).standard_normal(60)
        x1, _ = bicgstab(a, b)
        x2, _ = bicgstab(a, b)
        assert np.array_equal(x1, x2)
        y1, _ = cg(a, b)
        y2, _ = cg(a, b)
        assert np.array_equal(y1, y2)


class TestSparseLU:
    def test_solves_system_on_which_bicgstab_stagnates(self):
        n = 1000
        a = advection_diffusion(n, 100.0)
        b = np.ones(n)
        x, rep = sparse_lu_solve(a, b, tol=1e-12)
        assert rep.converged and rep.reason == "converged"
        recomputed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert rep.final_relative_residual == recomputed <= 1e-12

    def test_refinement_step_lowers_the_residual(self):
        # the plain SuperLU solve of this system leaves a residual of 3.7e-13
        n = 1000
        a = advection_diffusion(n, 1000.0)
        b = np.ones(n)
        x, rep = sparse_lu_solve(a, b, tol=1e-13)
        assert rep.converged
        assert rep.final_relative_residual == np.linalg.norm(b - a @ x) / np.linalg.norm(b)

    def test_singular_factor_reports_breakdown(self):
        a = csr(3, [0, 1], [0, 1], [1.0, 1.0])  # row 2 all zero
        x, rep = sparse_lu_solve(a, np.array([1.0, 1.0, 1.0]))
        assert not rep.converged
        assert rep.reason == "breakdown"
        assert np.array_equal(x, np.zeros(3))


class TestBlockCorrected:
    def test_residual_vanishes_on_the_block(self):
        # with the identity as the global solve, only the block correction acts
        n = 40
        a = advection_diffusion(n, 100.0)
        rows = np.arange(10, 25)
        r = np.random.default_rng(2).standard_normal(n)
        x = block_corrected(a, np.copy, rows)(r)
        assert np.max(np.abs((r - a @ x)[rows])) <= 1e-13 * np.max(np.abs(r))
        outside = np.setdiff1d(np.arange(n), rows)
        assert np.array_equal(x[outside], r[outside])

    def test_singular_block_keeps_the_preconditioner(self):
        a = csr(3, [0, 1, 1, 2], [1, 0, 1, 2], [1.0, 1.0, 1.0, 1.0])
        assert block_corrected(a, np.copy, np.array([0])) is np.copy  # a_00 = 0


def rectangular_grid():
    """13 x 8 cells on two different non-uniform axes, so an x/y mix-up in
    the flattening of the unknowns cannot cancel out."""
    return make_grid(build_random_perturbed(0, 1, 13, 0.3, 5), build_corner_refined(8))


def relative_residual(a, b, x):
    return np.linalg.norm(b - a @ x) / np.linalg.norm(b)


class TestTensorHeatSolver:
    tau = 0.01

    def test_z_system_matches_dense_oracle(self):
        grid = rectangular_grid()
        a = assemble_z_system(grid, self.tau)
        b = np.random.default_rng(41).standard_normal(grid.nx * grid.ny)
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        x, rep = fast_diag_solve(a, b, heat, 1.0 / self.tau + 0.5, 0.5)
        assert rep.converged and rep.iterations == 0
        assert rep.final_relative_residual == relative_residual(a, b, x) <= 1e-12
        assert np.max(np.abs(x - dense_solve(a.toarray(), b))) <= 1e-10

    @pytest.mark.parametrize("backward_euler", [False, True])
    def test_inverts_heat_part_of_u_system(self, backward_euler):
        grid = rectangular_grid()
        zero_g = grad(cell_field(grid, 0.0))
        a = assemble_u_system(grid, self.tau, 1.0, zero_g, backward_euler=backward_euler)
        theta = 1.0 if backward_euler else 0.5
        b = np.random.default_rng(42).standard_normal(grid.nx * grid.ny)
        x = TensorHeatSolver(grid.x_axis, grid.y_axis).solve(b, 1.0 / self.tau, theta)
        assert relative_residual(a, b, x) <= 1e-12
        assert np.max(np.abs(x - dense_solve(a.toarray(), b))) <= 1e-10

    def test_wrong_operator_reported_as_breakdown(self):
        grid = rectangular_grid()
        a = assemble_z_system(grid, self.tau)
        b = np.ones(grid.nx * grid.ny)
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        _, rep = fast_diag_solve(a, b, heat, 1.0 / self.tau, 0.5)  # s off by 1/2
        assert not rep.converged and rep.reason == "breakdown"

    def test_heat_preconditioned_bicgstab(self):
        # a nonzero gradient makes the density system nonsymmetric; its heat
        # part as right preconditioner leaves few iterations to Krylov
        grid = rectangular_grid()
        xs = grid.x_axis.centers[:, None]
        ys = grid.y_axis.centers[None, :]
        z = CellField(grid, np.cos(3 * xs) * np.sin(2 * ys))
        a = assemble_u_system(grid, self.tau, 1.0, grad(z))
        b = np.random.default_rng(43).standard_normal(grid.nx * grid.ny)
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        x, rep = bicgstab(a, b, precond=lambda r: heat.solve(r, 1.0 / self.tau, 0.5))
        _, jacobi = bicgstab(a, b)
        assert rep.converged and jacobi.converged
        assert rep.iterations < jacobi.iterations
        assert np.max(np.abs(x - dense_solve(a.toarray(), b))) <= 1e-10


class TestDenseSolve:
    def test_identity(self):
        b = np.array([4.0, 5.0])
        assert np.array_equal(dense_solve(np.eye(2), b), b)

    def test_two_by_two_hand_case(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = dense_solve(a, np.array([5.0, 10.0]))
        assert np.allclose(x, [1.0, 3.0], rtol=1e-14)

    def test_cross_check_with_cg(self):
        a, ad = random_spd(20, 31)
        b = np.random.default_rng(32).standard_normal(20)
        x_cg, rep = cg(a, b, tol=1e-13)
        assert rep.converged
        assert np.max(np.abs(dense_solve(ad, b) - x_cg)) <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
