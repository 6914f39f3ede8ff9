import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import ksbcfd.linalg
from ksbcfd.fields import CellField, grad
from ksbcfd.grid import build_corner_refined, build_random_perturbed, build_uniform, make_grid
from ksbcfd.linalg import (
    _STAGNATION_WINDOW,
    FivePointMatrix,
    TensorHeatSolver,
    bicgstab,
    block_corrected,
    cg,
    direct_solve,
    sparse_lu_solve,
)
from ksbcfd.scheme import _CENTER, SchemeConfig, Workspace


def csr(n, rows, cols, vals):
    """An n x n CSR matrix from (row, col, value) triplets; duplicates sum."""
    return sp.csr_matrix((np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n))


def as_csr(a):
    """The CSR form of a ``FivePointMatrix``."""
    return sp.csr_matrix(a.tocsc())


def identity(n):
    return csr(n, np.arange(n), np.arange(n), np.ones(n))


def jacobi(a):
    """The Jacobi preconditioner ``r -> D^-1 r`` of a matrix with no zero on its diagonal."""
    d = a.diagonal()
    return lambda r: r / d


def cap_sweep(monkeypatch, sweep_name, budget):
    """Give each pass of a Krylov solver's sweep at most ``budget`` iterations."""
    sweep = getattr(ksbcfd.linalg, sweep_name)
    monkeypatch.setattr(ksbcfd.linalg, sweep_name,
                        lambda a, b, m, tol_abs, left: sweep(a, b, m, tol_abs, min(left, budget)))


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
        x, rep = cg(identity(3), b, jacobi(identity(3)))
        assert rep.converged and rep.iterations <= 1
        assert np.allclose(x, b, rtol=0, atol=1e-15)

    def test_zero_rhs(self):
        x, rep = cg(laplacian_1d(4), np.zeros(4), jacobi(laplacian_1d(4)))
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(x, np.zeros(4))
        assert rep.final_relative_residual == 0.0

    def test_matches_dense_oracle(self, monkeypatch):
        monkeypatch.setattr(ksbcfd.linalg, "_TOL", 1e-13)
        a, ad = random_spd(30, 7)
        b = np.random.default_rng(8).standard_normal(30)
        x, rep = cg(a, b, jacobi(a))
        assert rep.converged
        assert np.max(np.abs(x - np.linalg.solve(ad, b))) <= 1e-10

    def test_report_matches_recomputed_residual(self):
        a, _ = random_spd(25, 12)
        b = np.random.default_rng(13).standard_normal(25)
        x, rep = cg(a, b, jacobi(a))
        recomputed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert rep.converged
        assert abs(recomputed - rep.final_relative_residual) <= 1e-12

    def test_breakdown_reported_not_raised(self):
        # indefinite system: zero curvature direction possible
        a = csr(2, [0, 1], [0, 1], [1.0, -1.0])
        x, rep = cg(a, np.array([0.0, 1.0]), jacobi(a))
        assert not rep.converged
        assert rep.reason == "breakdown"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            cg(identity(3), np.ones(4), np.copy)

    def test_reasons_converged_and_max_iter(self, monkeypatch):
        _, rep = cg(laplacian_1d(50), np.ones(50), jacobi(laplacian_1d(50)))
        assert rep.converged and rep.reason == "converged"
        cap_sweep(monkeypatch, "_cg_sweep", 3)
        _, rep = cg(laplacian_1d(50), np.ones(50), jacobi(laplacian_1d(50)))
        assert not rep.converged and rep.reason == "max_iter" and rep.iterations == 3


# each Krylov solver with the module name of its sweep, for tests of the
# refinement rule both share
KRYLOV = [(cg, "_cg_sweep"), (bicgstab, "_bicgstab_sweep")]


class TestBiCGStab:
    def test_identity(self):
        b = np.array([2.0, 0.5])
        x, rep = bicgstab(identity(2), b, jacobi(identity(2)))
        assert rep.converged
        assert np.allclose(x, b, rtol=0, atol=1e-14)

    def test_nonsymmetric_vs_dense(self, monkeypatch):
        monkeypatch.setattr(ksbcfd.linalg, "_TOL", 1e-13)
        rng = np.random.default_rng(9)
        n = 40
        ad = 5 * np.eye(n) + 0.5 * rng.standard_normal((n, n))
        a = sp.csr_matrix(ad)
        b = rng.standard_normal(n)
        x, rep = bicgstab(a, b, jacobi(a))
        assert rep.converged
        assert np.max(np.abs(x - np.linalg.solve(ad, b))) <= 1e-10
        recomputed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert abs(recomputed - rep.final_relative_residual) <= 1e-12

    def test_singular_row_reports_failure(self):
        a = csr(3, [0, 1], [0, 1], [1.0, 1.0])  # row 2 all zero
        x, rep = bicgstab(a, np.array([1.0, 1.0, 1.0]), np.copy)
        assert not rep.converged
        assert rep.final_relative_residual >= 0.0

    def test_reasons_converged_and_max_iter(self, monkeypatch):
        _, rep = bicgstab(laplacian_1d(50), np.ones(50), jacobi(laplacian_1d(50)))
        assert rep.converged and rep.reason == "converged"
        cap_sweep(monkeypatch, "_bicgstab_sweep", 3)
        _, rep = bicgstab(laplacian_1d(50), np.ones(50), jacobi(laplacian_1d(50)))
        assert not rep.converged and rep.reason == "max_iter" and rep.iterations == 3

    def test_stagnation_exits_within_window(self):
        n = 1000
        a = advection_diffusion(n, 100.0)
        b = np.ones(n)
        x, rep = bicgstab(a, b, jacobi(a))
        assert not rep.converged
        assert rep.reason == "stagnated"
        assert rep.iterations <= 2 * _STAGNATION_WINDOW < 10 * n
        recomputed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert rep.final_relative_residual == pytest.approx(recomputed, rel=1e-12)

    def test_zero_rhs(self):
        x, rep = bicgstab(laplacian_1d(6), np.zeros(6), jacobi(laplacian_1d(6)))
        assert rep.converged and rep.iterations == 0

    @pytest.mark.parametrize("solver, sweep_name", KRYLOV)
    def test_restart_sweeps_aim_below_the_target(self, monkeypatch, solver, sweep_name):
        # a first sweep stopped 1e6 above the target forces a refinement, which
        # runs on the true residual of the first pass's solution and aims
        # _REFINEMENT below it
        sweep = getattr(ksbcfd.linalg, sweep_name)
        passes = []

        def recorded(a, b, m, tol_abs, max_iter):
            result = sweep(a, b, m, tol_abs * (1e6 if not passes else 1.0), max_iter)
            passes.append((b.copy(), tol_abs, result[0]))
            return result

        monkeypatch.setattr(ksbcfd.linalg, sweep_name, recorded)
        a, _ = random_spd(50, 1)  # CG ends on the 1D Laplacian with an exact 0
        b, tol = np.random.default_rng(2).standard_normal(50), ksbcfd.linalg._TOL
        x, rep = solver(a, b, jacobi(a))
        b_norm = np.linalg.norm(b)
        assert rep.converged and len(passes) == 2
        (rhs, target, dx), (r, refinement_target, _) = passes
        assert np.array_equal(rhs, b) and target == tol * b_norm
        assert np.array_equal(r, b - a @ dx) and np.linalg.norm(r) > tol * b_norm
        assert refinement_target == pytest.approx(
            ksbcfd.linalg._REFINEMENT * np.linalg.norm(r), rel=1e-15)
        assert rep.final_relative_residual == np.linalg.norm(b - a @ x) / b_norm <= tol

    @pytest.mark.parametrize("solver, sweep_name", KRYLOV)
    def test_one_refinement_sweep_at_most(self, monkeypatch, solver, sweep_name):
        # a first sweep stopped 1e6 above its target and a refinement stopped
        # once it has cut its residual a thousandfold leave a residual miss
        sweep = getattr(ksbcfd.linalg, sweep_name)
        iterations = []

        def early(a, b, m, tol_abs, max_iter):
            stop = 1e-3 * np.linalg.norm(b) if iterations else 1e6 * tol_abs
            dx, its, reason = sweep(a, b, m, stop, max_iter)
            iterations.append(its)
            return dx, its, reason

        monkeypatch.setattr(ksbcfd.linalg, sweep_name, early)
        a, _ = random_spd(40, 9)
        b = np.random.default_rng(10).standard_normal(40)
        _, rep = solver(a, b, jacobi(a))
        assert len(iterations) == 2 and min(iterations) > 0
        assert not rep.converged and rep.reason == "stagnated"
        assert rep.iterations == sum(iterations)
        assert rep.final_relative_residual > 1e-12

    def test_rho_breakdown_ends_the_sweep_and_the_refinement_restarts(self, monkeypatch):
        # the first iteration leaves r = (0, 2, -3) / 13, orthogonal to the
        # shadow residual e1: rho vanishes exactly
        sweep = ksbcfd.linalg._bicgstab_sweep
        sweeps, targets = [], []

        def recorded(a, b, m, tol_abs, max_iter):
            dx, iterations, reason = sweep(a, b, m, tol_abs, max_iter)
            sweeps.append((reason, iterations))
            targets.append((tol_abs, np.linalg.norm(b)))
            return dx, iterations, reason

        monkeypatch.setattr(ksbcfd.linalg, "_bicgstab_sweep", recorded)
        ad = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 1.0], [1.0, -1.0, 3.0]])
        b = np.array([1.0, 0.0, 0.0])
        x, rep = bicgstab(sp.csr_matrix(ad), b, np.copy)
        assert sweeps == [("breakdown", 1), ("converged", 2)]
        assert rep.converged and rep.iterations == 3
        # the refinement aims _REFINEMENT below the residual it restarts from
        (_, _), (refinement_target, r_norm) = targets
        assert refinement_target == pytest.approx(ksbcfd.linalg._REFINEMENT * r_norm, rel=1e-15)
        assert np.max(np.abs(x - np.linalg.solve(ad, b))) <= 1e-14

    def test_breakdown_returns_the_best_iterate_untouched_by_later_updates(self):
        # the half step lands on s = (0, -1000), a thousand times |b|, and
        # the second preconditioner output t = (1, 0) is orthogonal to s, so
        # omega vanishes: the sweep hands back its best iterate, the zero
        # start, which the half step's update of x must not have written
        outputs = iter([np.array([1e-3, 1.0]), np.array([1.0, 0.0])])
        x, iterations, reason = ksbcfd.linalg._bicgstab_sweep(
            np.eye(2), np.array([1.0, 0.0]), lambda r: next(outputs), 1e-12, 10)
        assert reason == "breakdown" and iterations == 1
        assert x.tobytes() == np.zeros(2).tobytes()

    def test_agrees_with_cg_on_spd(self):
        for n, seed in ((50, 1), (200, 2), (400, 3)):
            a, _ = random_spd(n, seed)
            b = np.random.default_rng(seed + 100).standard_normal(n)
            x1, r1 = cg(a, b, jacobi(a))
            x2, r2 = bicgstab(a, b, jacobi(a))
            assert r1.converged and r2.converged
            assert np.max(np.abs(x1 - x2)) <= 1e-8

    def test_tol_sets_the_target_and_none_reads_the_module_tolerance(self, monkeypatch):
        # the stepper passes tol for its dominant density solves; without it
        # the solve aims at _TOL as it reads at the call, so patching it works
        sweep = ksbcfd.linalg._bicgstab_sweep
        targets = []

        def recorded(a, b, m, tol_abs, max_iter):
            targets.append(tol_abs)
            return sweep(a, b, m, tol_abs, max_iter)

        monkeypatch.setattr(ksbcfd.linalg, "_bicgstab_sweep", recorded)
        a = laplacian_1d(200)
        b = np.random.default_rng(15).standard_normal(200)
        b_norm = np.linalg.norm(b)
        _, loose = bicgstab(a, b, jacobi(a), tol=1e-6)
        assert targets[0] == 1e-6 * b_norm
        assert loose.converged and 1e-12 < loose.final_relative_residual <= 1e-6
        monkeypatch.setattr(ksbcfd.linalg, "_TOL", 1e-8)
        targets.clear()
        _, default = bicgstab(a, b, jacobi(a))
        assert targets[0] == 1e-8 * b_norm and default.final_relative_residual <= 1e-8

    def test_bit_deterministic(self):
        a, _ = random_spd(60, 21)
        b = np.random.default_rng(22).standard_normal(60)
        x1, _ = bicgstab(a, b, jacobi(a))
        x2, _ = bicgstab(a, b, jacobi(a))
        assert np.array_equal(x1, x2)
        y1, _ = cg(a, b, jacobi(a))
        y2, _ = cg(a, b, jacobi(a))
        assert np.array_equal(y1, y2)


class TestSweepInputs:
    """BiCGStab updates its vectors in place; the caller's ``b`` and ``x0``,
    each sweep's right-hand side (its shadow residual) and every
    preconditioner output stay as they were."""

    def system(self, amp=30.0):
        # a patch this steep leaves rows that are not diagonally dominant;
        # at amp 1 every row is, as on the stepper's uncorrected path.  At
        # 40 cells in x the box the stepper corrects, the weak rows' box
        # grown by its margin, leaves cells west of it, so the correction
        # is not an exact solve
        grid = make_grid(build_random_perturbed(0, 1, 40, 0.3, 5), build_corner_refined(8))
        ws = Workspace(grid, SchemeConfig(tau=0.01, t_final=0.01))
        xs, ys = grid.x_axis.centers[:, None], grid.y_axis.centers[None, :]
        z = CellField(grid, amp * np.exp(-30 * ((xs - 0.9) ** 2 + (ys - 0.6) ** 2)))
        a = ws.u_system(grad(z), 1.0)
        block = a.weak_box()
        assert (block is None) == (amp == 1.0)
        assert block is None or block != (slice(0, 40), slice(0, 8))  # not the whole grid
        return ws, a, block

    def recorded(self, precond, outputs):
        def m(r):
            x = precond(r)
            outputs.append((x, x.copy()))
            return x
        return m

    def solve_and_check(self, a, precond, monkeypatch, early_first_sweep=False):
        sweep = ksbcfd.linalg._bicgstab_sweep
        rhs = []

        def recorded_sweep(a, b, m, tol_abs, max_iter):
            rhs.append((b, b.copy()))
            stop = 1e6 if early_first_sweep and len(rhs) == 1 else 1.0
            return sweep(a, b, m, stop * tol_abs, max_iter)

        monkeypatch.setattr(ksbcfd.linalg, "_bicgstab_sweep", recorded_sweep)
        rng = np.random.default_rng(61)
        b, x0 = rng.standard_normal(a.shape[0]), rng.standard_normal(a.shape[0])
        b_before, x0_before = b.copy(), x0.copy()
        outputs = []
        _, rep = bicgstab(a, b, self.recorded(precond, outputs), x0=x0)
        assert rep.converged and rep.iterations > 1
        assert b.tobytes() == b_before.tobytes() and x0.tobytes() == x0_before.tobytes()
        assert all(v.tobytes() == kept.tobytes() for v, kept in rhs + outputs)
        return len(rhs)

    def test_fp32_preconditioner(self, monkeypatch):
        ws, a, _ = self.system(amp=1.0)
        precond = lambda r: ws.heat.solve_fp32(r, 1.0 / ws.config.tau)
        self.solve_and_check(a, precond, monkeypatch)

    def test_block_corrected_preconditioner(self, monkeypatch):
        ws, a, block = self.system()
        heat = lambda r: ws.heat.solve_fp32(r, 1.0 / ws.config.tau)
        self.solve_and_check(a, block_corrected(a, heat, block), monkeypatch)

    def test_refinement_sweep(self, monkeypatch):
        ws, a, block = self.system()
        heat = lambda r: ws.heat.solve_fp32(r, 1.0 / ws.config.tau)
        sweeps = self.solve_and_check(a, block_corrected(a, heat, block), monkeypatch,
                                      early_first_sweep=True)
        assert sweeps == 2


class TestSparseLU:
    def test_solves_system_on_which_bicgstab_stagnates(self):
        n = 1000
        a = advection_diffusion(n, 100.0)
        b = np.ones(n)
        x, rep = sparse_lu_solve(a, b)
        assert rep.converged and rep.reason == "converged"
        recomputed = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert rep.final_relative_residual == recomputed <= 1e-12

    def test_refinement_step_lowers_the_residual(self, monkeypatch):
        # the plain SuperLU solve of this system leaves a residual of 3.7e-13
        monkeypatch.setattr(ksbcfd.linalg, "_TOL", 1e-13)
        n = 1000
        a = advection_diffusion(n, 1000.0)
        b = np.ones(n)
        x, rep = sparse_lu_solve(a, b)
        assert rep.converged
        assert rep.final_relative_residual == np.linalg.norm(b - a @ x) / np.linalg.norm(b)

    def test_singular_factor_reports_breakdown(self):
        a = csr(3, [0, 1], [0, 1], [1.0, 1.0])  # row 2 all zero
        x, rep = sparse_lu_solve(a, np.array([1.0, 1.0, 1.0]))
        assert not rep.converged
        assert rep.reason == "breakdown"
        assert np.array_equal(x, np.zeros(3))


def backward_error(a, b, x):
    """The componentwise backward error ``max_i |b - A x|_i / (|A| |x| + |b|)_i``."""
    return np.max(np.abs(b - a @ x) / (abs(a) @ np.abs(x) + np.abs(b)))


class TestBackwardErrorAcceptance:
    # the 1D Laplacian of 1000 cells with b = 1 has |A| |x| about 1e6 |b|, so a
    # float64 solution's residual can sit far above a 1e-12 tolerance
    tol = ksbcfd.linalg._TOL

    def system(self):
        return laplacian_1d(1000), np.ones(1000)

    def test_backward_stable_solution_is_accepted(self):
        a, b = self.system()
        x, rep = sparse_lu_solve(a, b)
        assert rep.converged and rep.reason == "converged"
        assert rep.final_relative_residual == relative_residual(a, b, x) > self.tol
        assert backward_error(a, b, x) <= np.finfo(np.float64).eps

    def test_perturbed_solution_is_rejected(self):
        a, b = self.system()
        x = sparse_lu_solve(a, b)[0]
        x *= 1.0 + 1e-10 * (-1.0) ** np.arange(x.size)
        assert backward_error(a, b, x) == pytest.approx(1e-10, rel=1e-3)
        rep = ksbcfd.linalg._verdict(a, b, x, b - a @ x, np.linalg.norm(b), 0, "breakdown",
                                     self.tol)
        assert not rep.converged and rep.reason == "breakdown"
        assert rep.final_relative_residual == relative_residual(a, b, x) > self.tol

    def test_refinement_kept_when_only_it_is_backward_stable(self):
        # x1 leaves a residual of 8.3e-11 relative but a backward error of
        # 22 518 eps in row 1; its refinement x2 leaves 6.6e-10 and 2.1 eps
        eps = np.finfo(np.float64).eps
        a = sp.csr_matrix(np.array([[1e6, -1e6], [0.0, 1.0]]))
        x_star = np.array([1.0 + 1e-6, 1.0])
        b = a @ x_star
        x1, x2 = x_star + 1e-11, x_star + np.array([4 * eps, 0.0])
        assert relative_residual(a, b, x1) < relative_residual(a, b, x2)
        assert backward_error(a, b, x1) > 16 * eps >= backward_error(a, b, x2)
        steps = iter([x1, x2 - x1])
        x, rep = direct_solve(a, b, lambda r: next(steps))
        assert rep.converged and rep.reason == "converged"
        assert np.array_equal(x, x2)
        assert rep.final_relative_residual == relative_residual(a, b, x2)


def random_band(nx, ny, seed):
    """A random five-point band on an nx x ny grid, zero in each slot whose
    neighbour lies outside the grid, with a product operand holding zeros of
    both signs."""
    rng = np.random.default_rng(seed)
    band = rng.standard_normal((5, ny, nx))
    south, west, _, east, north = band  # slot of offset o holds entry (k - o, k)
    south[-1, :] = west[:, -1] = east[:, 0] = north[0, :] = 0.0
    x = rng.standard_normal(nx * ny)
    x[::7], x[3::7] = 0.0, -0.0
    return band.reshape(5, nx * ny), x


def box(i0, i1, j0, j1):
    """The x and y slices of the cells i0..i1 x j0..j1."""
    return slice(i0, i1 + 1), slice(j0, j1 + 1)


def box_rows(nx, i0, i1, j0, j1):
    """The rows k = i + nx j of the cells i0..i1 x j0..j1, ascending."""
    return (np.arange(i0, i1 + 1) + nx * np.arange(j0, j1 + 1)[:, None]).ravel()


# boxes (i0, i1, j0, j1) of a 9 x 7 grid: one on each edge, a full-width
# box, one grid row (by = 1) and one grid column (bx = 1)
_BOXES = {"west": (0, 3, 2, 4), "east": (5, 8, 1, 3), "south": (2, 5, 0, 2),
          "north": (3, 6, 4, 6), "full_width": (0, 8, 2, 4), "one_row": (2, 6, 3, 3),
          "one_column": (4, 4, 1, 5)}


class TestBlockCorrected:
    def test_residual_vanishes_on_the_block(self):
        # with the identity as the global solve, only the block correction acts
        band, _ = random_band(8, 5, 2)
        a = FivePointMatrix(band, 8)
        n = a.shape[0]
        rows = box_rows(8, 2, 6, 1, 3)
        r = np.random.default_rng(2).standard_normal(n)
        x = block_corrected(a, np.copy, box(2, 6, 1, 3))(r)
        assert np.max(np.abs((r - a @ x)[rows])) <= 1e-13 * np.max(np.abs(r))
        outside = np.setdiff1d(np.arange(n), rows)
        assert np.array_equal(x[outside], r[outside])

    @pytest.mark.parametrize("corners", _BOXES.values(), ids=_BOXES.keys())
    def test_block_solve_matches_the_dense_solve(self, corners):
        band, _ = random_band(9, 7, 0)
        a = FivePointMatrix(band, 9)
        rows = box_rows(9, *corners)
        r = np.random.default_rng(1).standard_normal(a.shape[0])
        # with zero as the global solve, the correction is A_SS^-1 r[S]
        x = block_corrected(a, np.zeros_like, box(*corners))(r)
        expected = np.linalg.solve(a.tocsc().toarray()[np.ix_(rows, rows)], r[rows])
        assert np.max(np.abs(x[rows] - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert not np.delete(x, rows).any()
        x = block_corrected(a, np.copy, box(*corners))(r)
        assert np.max(np.abs((r - a @ x)[rows])) <= 1e-13 * np.max(np.abs(r))

    def test_singular_block_keeps_the_preconditioner(self):
        band, _ = random_band(3, 2, 5)
        band[2, 0] = 0.0  # the center slot of cell (0, 0)
        assert block_corrected(FivePointMatrix(band, 3), np.copy, box(0, 0, 0, 0)) is np.copy

    def test_singular_second_pivot_block_keeps_the_preconditioner(self):
        # on a 2 x 2 grid, D_0 = S_0 = 2 I, and D_1 = [[2, 1], [1, 2]] less
        # diag(l_1) S_0^-1 diag(u_0) = I leaves S_1 = [[1, 1], [1, 1]]
        band = np.zeros((5, 2, 2))  # slot, j, i; slot of offset o holds entry (k - o, k)
        south, west, center, east, north = band
        center[:], south[0], north[1] = 2.0, 1.0, 2.0
        west[1, 0] = east[1, 1] = 1.0
        a = FivePointMatrix(band.reshape(5, 4), 2)
        dense = a.tocsc().toarray()
        assert np.linalg.matrix_rank(dense[:2, :2]) == 2 and np.linalg.matrix_rank(dense) == 3
        assert block_corrected(a, np.copy, box(0, 1, 0, 1)) is np.copy


class TestFivePointMatrix:
    @pytest.mark.parametrize("nx, ny", [(7, 4), (4, 7), (40, 30)])
    def test_product_is_bit_equal_to_csr(self, nx, ny):
        band, x = random_band(nx, ny, nx * ny)
        a = FivePointMatrix(band, nx)
        assert a.shape == (nx * ny, nx * ny)
        assert (a @ x).tobytes() == (as_csr(a) @ x).tobytes()
        assert (abs(a) @ x).tobytes() == (abs(as_csr(a)) @ x).tobytes()
        assert np.array_equal(a.tocsc().toarray(), as_csr(a).toarray())

    @pytest.mark.parametrize("nx, ny", [(7, 4), (4, 7), (2, 5), (6, 1)])
    def test_row_sums_are_the_product_with_ones(self, nx, ny):
        band, _ = random_band(nx, ny, 3 * nx + ny)
        a = FivePointMatrix(band, nx)
        ones = np.ones(nx * ny)
        rounding = 4 * np.finfo(np.float64).eps * (abs(a) @ ones)
        assert np.all(np.abs(a.row_sums() - a @ ones) <= rounding)
        assert np.all(np.abs(a.row_sums() - as_csr(a).sum(axis=1).A1) <= rounding)

    def test_a_row_of_negative_zero_terms_sums_to_positive_zero(self):
        # CSR sums a row from +0.0, so a row whose every term is -0.0 sums to
        # +0.0: an interior row, which has all five terms, and a row of the
        # first grid row, which has no south term
        nx, ny = 7, 5
        band, x = random_band(nx, ny, 9)
        x = -np.abs(x)
        zero_rows = [2 + 2 * nx, 3]
        for k in zero_rows:
            for slot, offset in enumerate((-nx, -1, 0, 1, nx)):
                if k + offset >= 0:  # entry (k, k + o) sits at column k + o
                    band[slot, k + offset] = 0.0
        a = FivePointMatrix(band, nx)
        y = a @ x
        assert y.tobytes() == (as_csr(a) @ x).tobytes()
        assert not np.signbit(y[zero_rows]).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        band, _ = random_band(4, 3, 11)
        band[3, 5] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            FivePointMatrix(band, 4)


def stiffness(axis):
    """The zero-flux stiffness matrix K of an axis, dense."""
    c = 1.0 / axis.dual_widths
    k = np.diag(np.r_[c, 0.0] + np.r_[0.0, c])
    return k - np.diag(c, 1) - np.diag(c, -1)


class TestAxisModes:
    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 64), (-0.5, 0.5, 33), (0.0, 2 * np.pi, 160)])
    def test_uniform_closed_form_is_an_eigenbasis(self, lo, hi, n):
        # the widths lie within _UNIFORM_RTOL of (hi - lo) / n, for which the
        # closed form is exact: every check holds to a few times that
        bound = 4 * ksbcfd.linalg._UNIFORM_RTOL
        axis = build_uniform(lo, hi, n)
        v, mu = ksbcfd.linalg._axis_modes(axis)
        w, k = axis.cell_widths, stiffness(axis)
        assert np.max(np.abs(v.T @ (w[:, None] * v) - np.eye(n))) <= bound
        assert np.max(np.abs(k @ v - w[:, None] * v * mu)) <= bound * np.abs(k).max() * np.abs(v).max()
        r = 1.0 / np.sqrt(w)
        reference = np.linalg.eigh(r[:, None] * k * r)[0]
        assert np.max(np.abs(mu - reference)) <= bound * reference.max()

    def test_uniform_axes_take_no_eigensolver(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        TensorHeatSolver(build_uniform(0, 1, 12), build_uniform(-1, 1, 9))
        with pytest.raises(AssertionError, match="eigh called"):  # a non-uniform axis does
            TensorHeatSolver(build_uniform(0, 1, 12), build_corner_refined(9))


def rectangular_grid():
    """13 x 8 cells on two different non-uniform axes, so an x/y mix-up in
    the flattening of the unknowns cannot cancel out."""
    return make_grid(build_random_perturbed(0, 1, 13, 0.3, 5), build_corner_refined(8))


def relative_residual(a, b, x):
    return np.linalg.norm(b - a @ x) / np.linalg.norm(b)


class TestTensorHeatSolver:
    tau = 0.01

    def workspace(self, grid):
        return Workspace(grid, SchemeConfig(tau=self.tau, t_final=self.tau))

    def test_z_system_matches_dense_oracle(self):
        grid = rectangular_grid()
        a = self.workspace(grid).z_system
        b = np.random.default_rng(41).standard_normal(grid.nx * grid.ny)
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        calls = []

        def inverse(r):  # a solution that meets tol is not refined
            calls.append(r)
            return heat.solve(r, 1.0 / self.tau + 0.5)

        x, rep = direct_solve(a, b, inverse)
        assert rep.converged and rep.iterations == 0 and len(calls) == 1
        assert rep.final_relative_residual == relative_residual(a, b, x) <= 1e-12
        assert np.max(np.abs(x - np.linalg.solve(a.tocsc().toarray(), b))) <= 1e-10

    @pytest.mark.parametrize("backward_euler", [False, True])
    def test_inverts_heat_part_of_u_system(self, backward_euler):
        # in a zero gradient: the Crank-Nicolson system, s = 1/tau, and the
        # predictor's, that system with W/(2 tau) off its center, s = 1/(2 tau)
        grid = rectangular_grid()
        zero_g = grad(CellField(grid, np.zeros(grid.shape)))
        ws = self.workspace(grid)
        a = ws.u_system(zero_g, 1.0)
        s = 1.0 / self.tau
        if backward_euler:
            a.data[_CENTER] -= 0.5 * ws.areas / self.tau
            s *= 0.5
        b = np.random.default_rng(42).standard_normal(grid.nx * grid.ny)
        x = TensorHeatSolver(grid.x_axis, grid.y_axis).solve(b, s)
        assert relative_residual(a, b, x) <= 1e-12
        assert np.max(np.abs(x - np.linalg.solve(a.tocsc().toarray(), b))) <= 1e-10

    def test_wrong_operator_reported_as_breakdown(self):
        grid = rectangular_grid()
        a = self.workspace(grid).z_system
        b = np.ones(grid.nx * grid.ny)
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        _, rep = direct_solve(a, b, lambda r: heat.solve(r, 1.0 / self.tau))  # s off by 1/2
        assert not rep.converged and rep.reason == "breakdown"

    @pytest.mark.parametrize("eps, converged", [(1e-6, True), (1e-5, False)])
    def test_refines_once_on_a_miss(self, eps, converged):
        # the heat inverse at s (1 + eps) leaves a plain residual of 4.5 eps
        # on the z system, and one refinement step scales it by about eps again
        grid = rectangular_grid()
        a = self.workspace(grid).z_system
        b = np.random.default_rng(41).standard_normal(grid.nx * grid.ny)
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        calls = []

        def inverse(r):
            calls.append(r)
            return heat.solve(r, (1.0 / self.tau + 0.5) * (1.0 + eps))

        plain = relative_residual(a, b, inverse(b))
        assert plain >= 1e-7
        calls.clear()
        x, rep = direct_solve(a, b, inverse)
        assert len(calls) == 2
        assert rep.final_relative_residual == relative_residual(a, b, x) < 1e-4 * plain
        assert rep.converged is converged
        assert rep.reason == ("converged" if converged else "breakdown")
        assert (rep.final_relative_residual <= 1e-12) is converged

    def heat_rhs(self, grid, seed):
        """A right-hand side whose entries span 30 decades, like a late residual."""
        rng = np.random.default_rng(seed)
        n = grid.nx * grid.ny
        return rng.standard_normal(n) * 10.0 ** rng.integers(-30, 1, n)

    @pytest.mark.parametrize("s_tau", [1.0, 0.5])
    def test_fp32_solve_agrees_with_fp64(self, s_tau):
        # the Crank-Nicolson density system's heat part and the predictor's
        grid = rectangular_grid()
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        for seed in (44, 45):
            b = self.heat_rhs(grid, seed)
            x64 = heat.solve(b, s_tau / self.tau)
            x32 = heat.solve_fp32(b, s_tau / self.tau)
            assert x32.dtype == np.float64
            assert np.linalg.norm(x32 - x64) <= 1e-6 * np.linalg.norm(x64)

    def test_fp32_solve_commutes_with_powers_of_two(self):
        # beyond 2^-130 and 2^100 an unscaled float32 solve would underflow
        # or overflow
        grid = rectangular_grid()
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        b = self.heat_rhs(grid, 46)
        x = heat.solve_fp32(b, 1.0 / self.tau)
        for k in range(-200, 101):
            c = 2.0**k
            assert np.array_equal(heat.solve_fp32(c * b, 1.0 / self.tau), c * x)

    def test_fp32_solve_flushes_its_matrix_product_operands(self, monkeypatch):
        # every operand of the float32 products keeps no entry below 2^-60 of
        # its largest, so none reaches the BLAS as a subnormal; the modes of
        # corner-refined axes have such entries
        grid = make_grid(build_corner_refined(40), build_corner_refined(30))
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        for raw in (np.abs(heat._vx), np.abs(heat._vy)):
            assert np.any(raw < 2.0**-60 * raw.max())
        flushed = ksbcfd.linalg._flushed
        operands = [heat._vx32, heat._vy32]

        def recorded(a):
            operands.append(flushed(a))
            return operands[-1]

        monkeypatch.setattr(ksbcfd.linalg, "_flushed", recorded)
        heat.solve_fp32(1e-9 * self.heat_rhs(grid, 47), 1.0 / self.tau)
        assert len(operands) == 4  # the modes, the scaled input, the mode coefficients
        assert 0.5 <= np.max(np.abs(operands[2])) <= 1.0
        for a in operands:
            assert a.dtype == np.float32
            mag = np.abs(a[a != 0.0])
            assert mag.min() >= 2.0**-60 * mag.max()

    def test_fp32_solve_of_a_subnormal_right_hand_side(self):
        # 2^-e overflows when max|b| < 2^-1022: the solve scales b up first
        grid = rectangular_grid()
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        b = np.random.default_rng(48).standard_normal(grid.nx * grid.ny)
        x = heat.solve_fp32(np.ldexp(b, -1040), 1.0 / self.tau)
        x64 = heat.solve(b, 1.0 / self.tau)
        assert np.linalg.norm(np.ldexp(x, 1040) - x64) <= 1e-5 * np.linalg.norm(x64)

    def test_fp32_solve_of_zero_is_zero(self):
        grid = rectangular_grid()
        x = TensorHeatSolver(grid.x_axis, grid.y_axis).solve_fp32(
            np.zeros(grid.nx * grid.ny), 1.0 / self.tau)
        assert x.dtype == np.float64 and x.shape == (grid.nx * grid.ny,)
        assert np.array_equal(x, np.zeros(grid.nx * grid.ny))

    def test_heat_preconditioned_bicgstab(self):
        # a nonzero gradient makes the density system nonsymmetric; its heat
        # part as right preconditioner leaves few iterations to Krylov
        grid = rectangular_grid()
        xs = grid.x_axis.centers[:, None]
        ys = grid.y_axis.centers[None, :]
        z = CellField(grid, np.cos(3 * xs) * np.sin(2 * ys))
        a = self.workspace(grid).u_system(grad(z), 1.0)
        b = np.random.default_rng(43).standard_normal(grid.nx * grid.ny)
        heat = TensorHeatSolver(grid.x_axis, grid.y_axis)
        x, rep = bicgstab(a, b, lambda r: heat.solve(r, 1.0 / self.tau))
        _, plain = bicgstab(a, b, jacobi(a.tocsc()))
        assert rep.converged and plain.converged
        assert rep.iterations < plain.iterations
        assert np.max(np.abs(x - np.linalg.solve(a.tocsc().toarray(), b))) <= 1e-10


class TestDenseSolve:
    def test_cross_check_with_cg(self, monkeypatch):
        monkeypatch.setattr(ksbcfd.linalg, "_TOL", 1e-13)
        a, ad = random_spd(20, 31)
        b = np.random.default_rng(32).standard_normal(20)
        x_cg, rep = cg(a, b, jacobi(a))
        assert rep.converged
        assert np.max(np.abs(np.linalg.solve(ad, b) - x_cg)) <= 1e-10


@pytest.mark.parametrize("solver", ["cg", "bicgstab", "direct", "lu"])
def test_report_hands_back_the_true_residual(solver):
    # b - A x of the returned solution, as the solve recomputed it; it takes
    # no part in comparing or printing reports
    a, dense = random_spd(12, 81)
    b = np.random.default_rng(82).standard_normal(12)
    solve = {
        "cg": lambda: cg(a, b, jacobi(a)),
        "bicgstab": lambda: bicgstab(a, b, jacobi(a)),
        "direct": lambda: direct_solve(a, b, lambda r: np.linalg.solve(dense, r)),
        "lu": lambda: sparse_lu_solve(a, b),
    }[solver]
    x, report = solve()
    assert report.converged
    assert np.array_equal(report.residual, b - a @ x)
    assert report == dataclasses.replace(report, residual=None)
    assert " residual=" not in repr(report)


@pytest.mark.parametrize("solver", [cg, bicgstab])
def test_start_worse_than_zero_is_dropped(solver):
    # a start whose residual exceeds |b| gives way to zero, with its report
    a, _ = random_spd(12, 83)
    b = np.random.default_rng(84).standard_normal(12)
    x_far, far = solver(a, b, jacobi(a), x0=1e6 * np.ones(12))
    x_zero, zero = solver(a, b, jacobi(a))
    assert far == zero and np.array_equal(far.residual, zero.residual)
    assert np.array_equal(x_far, x_zero)


# imports ksbcfd in a fresh interpreter, runs a uniform sweep, a uniform
# run-mode command whose density rows all stay diagonally dominant, and a
# corner 80^2 run to its threshold halt, whose density matrices stop being
# diagonally dominant and whose last density solves miss the tolerance
# before their refinement, printing the scipy modules loaded after each;
# then prints whether one explicit sparse LU solve loaded SuperLU's package
_SCIPY_ONLY_IN_SPARSE_LU = """
import json, pathlib, sys, tempfile
import numpy as np
import ksbcfd.cli
import ksbcfd.linalg
from ksbcfd.grid import build_corner_refined, make_grid
from ksbcfd.problems import get_problem
from ksbcfd.scheme import SchemeConfig, run

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

seen = {"import": scipy_modules()}
config = ksbcfd.cli.parse_config(
    '{"problem": "mms_accuracy", "mode": "convergence", '
    '"grid": {"family": "uniform", "m_values": [8, 16]}, "t_final": 1.0}')
seen["rows"] = len(ksbcfd.cli.run_convergence(config))
seen["sweep"] = scipy_modules()
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp, "run.json")
    path.write_text('{"problem": "global_existence", "mode": "run", '
                    '"grid": {"family": "uniform", "m": 16}, "tau": 0.001, "t_final": 0.01}')
    seen["exit"] = ksbcfd.cli.main(["run", "--config", str(path),
                                    "--out-dir", str(pathlib.Path(tmp, "out")), "--quiet"])
seen["run"] = scipy_modules()
problem = get_problem("blowup_corner")
grid = make_grid(build_corner_refined(80), build_corner_refined(80))
result = run(problem, grid, SchemeConfig(tau=1e-3, t_final=0.18, blowup_threshold=1e7))
seen["block_steps"] = sum(d.block_cells > 0 for d in result.diagnostics)
seen["halt"] = [result.blew_up, len(result.diagnostics)]
seen["corner"] = scipy_modules()
band = np.zeros((5, 4))
band[2] = 1.0
_, report = ksbcfd.linalg.sparse_lu_solve(ksbcfd.linalg.FivePointMatrix(band, 2), np.ones(4))
seen["lu_converged"] = report.converged
seen["after_lu"] = "scipy.sparse.linalg" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_is_loaded_only_by_an_explicit_sparse_lu_solve():
    # no run loads a scipy module, the corner run's block corrections and its
    # refined last solves included; one explicit sparse LU solve loads SuperLU
    src = str(Path(ksbcfd.linalg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _SCIPY_ONLY_IN_SPARSE_LU], env=env,
                         check=True, capture_output=True, text=True).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["import"] == seen["sweep"] == seen["run"] == seen["corner"] == []
    assert seen["rows"] == 2 and seen["exit"] == 0
    assert seen["block_steps"] > 0 and seen["halt"] == [True, 164]
    assert seen["lu_converged"] and seen["after_lu"]
