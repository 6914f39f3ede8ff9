import dataclasses
import functools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse as sp

import ksbcfd.cli
import ksbcfd.linalg
import ksbcfd.scheme
from ksbcfd.fields import CellField, cell_field_from_function, grad, inner_m
from ksbcfd.grid import build_corner_refined, build_uniform, build_random_perturbed, make_grid
from ksbcfd.linalg import FivePointMatrix, bicgstab, block_corrected
from ksbcfd.problems import ProblemSpec, get_problem
from ksbcfd.scheme import (
    BlowUpDetected,
    DensityHistory,
    SchemeConfig,
    State,
    StepSolveError,
    Workspace,
    _CENTER,
    _check_blowup,
    _concentration_stage,
    _diagnostics,
    _solve_density,
    apply_chemotaxis,
    apply_laplacian,
    error_norms,
    first_step,
    init_state,
    predict_u1,
    run,
    step_cn,
)


# the solver tolerance of every run
TOL = ksbcfd.linalg._TOL


def as_csr(a):
    """The CSR form of a ``FivePointMatrix``."""
    return sp.csr_matrix(a.tocsc())


def unit_grid(n=8):
    return make_grid(build_uniform(0, 1, n), build_uniform(0, 1, n))


def perturbed_grid(n, seed=3):
    return make_grid(
        build_random_perturbed(0, 1, n, 0.3, seed),
        build_random_perturbed(0, 1, n, 0.3, seed + 1),
    )


def constant_problem(value=3.0):
    const = lambda x, y: np.full(np.broadcast(x, y).shape, float(value))
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    return ProblemSpec(name="steady", domain=(0.0, 1.0, 0.0, 1.0), lam=1.0,
                       rho0=const, c0=const, c0_xx=zero, c0_yy=zero)


def mass(f):
    return inner_m(f, CellField(f.grid, np.ones(f.grid.shape)))


def workspace(grid, tau=0.05):
    return Workspace(grid, SchemeConfig(tau=tau, t_final=tau))


def concentration_problem(c0, lam=1.0):
    """A problem of sensitivity ``lam`` with unit density whose initial
    concentration is the samples of ``c0`` as they are (no curvature
    correction)."""
    one = lambda x, y: np.ones(np.broadcast(x, y).shape)
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    return ProblemSpec(name="patch", domain=(0.0, 1.0, 0.0, 1.0), lam=lam,
                       rho0=one, c0=c0, c0_xx=zero, c0_yy=zero)


def predictor_solve(problem, grid, cfg):
    """``predict_u1`` from the initial level of ``problem``, and what it
    hands ``_solve_density``: (workspace, system, rhs, s)."""
    calls = []
    solve = ksbcfd.scheme._solve_density

    def recorded(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ksbcfd.scheme, "_solve_density", recorded)
        predict_u1(init_state(problem, grid), problem, Workspace(grid, cfg))
    (args,) = calls
    return args


class TestConfig:
    def test_integer_step_count_required(self):
        with pytest.raises(ValueError, match="integer step count"):
            SchemeConfig(tau=0.3, t_final=1.0)
        assert SchemeConfig(tau=1.0 / 80.0, t_final=1.0).n_steps == 80

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            SchemeConfig(tau=0.1, t_final=0.0)
        with pytest.raises(ValueError):
            SchemeConfig(tau=-0.1, t_final=1.0)

    def test_no_sensitivity_field_and_keyword_only(self):
        # the sensitivity is the problem's alone
        assert [f.name for f in dataclasses.fields(SchemeConfig)] == [
            "tau", "t_final", "blowup_threshold"]
        with pytest.raises(TypeError):
            SchemeConfig(lam=1.0, tau=1e-3, t_final=0.18)
        with pytest.raises(TypeError):
            SchemeConfig(1e-3, 0.18)

    @pytest.mark.parametrize("name", ["tau", "t_final", "blowup_threshold"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_parameters(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            SchemeConfig(**{"tau": 1e-3, "t_final": 1.0, name: bad})


class TestInitState:
    def test_constant_data(self):
        state = init_state(constant_problem(2.0), perturbed_grid(6))
        assert np.allclose(state.u_curr.values, 2.0, rtol=0, atol=0)
        assert np.allclose(state.z_curr.values, 2.0, rtol=0, atol=0)
        assert state.t == 0.0 and state.n == 0
        # the history's one level, u^0 in the solver's flat order
        (u0,) = state.history.levels
        assert np.array_equal(u0, np.ravel(state.u_curr.values, order="F"))

    def test_mms_starts_from_zero(self):
        state = init_state(get_problem("mms_accuracy"), unit_grid(10))
        assert np.all(state.u_curr.values == 0.0)
        assert np.all(state.z_curr.values == 0.0)

    def test_subcritical_mass_on_fine_grid(self):
        g = make_grid(build_uniform(0, 1, 160), build_uniform(0, 1, 160))
        state = init_state(get_problem("global_existence"), g)
        assert mass(state.u_curr) == pytest.approx(24.67, rel=5e-3)

    def test_missing_second_derivatives_rejected(self):
        const = lambda x, y: np.full(np.broadcast(x, y).shape, 1.0)
        p = ProblemSpec(name="lacking", domain=(0, 1, 0, 1), lam=1.0,
                        rho0=const, c0=const, c0_xx=None, c0_yy=None)
        with pytest.raises(ValueError, match="second derivatives"):
            init_state(p, unit_grid(4))

    def test_concentration_gets_curvature_correction(self):
        g = unit_grid(10)  # h = 0.1
        quad = lambda x, y: x**2 + 0.0 * y
        p = ProblemSpec(name="quad", domain=(0, 1, 0, 1), lam=1.0,
                        rho0=quad, c0=quad,
                        c0_xx=lambda x, y: np.full(np.broadcast(x, y).shape, 2.0),
                        c0_yy=lambda x, y: np.zeros(np.broadcast(x, y).shape))
        state = init_state(p, g)
        sampled = cell_field_from_function(g, quad)
        assert np.allclose(sampled.values - state.z_curr.values, 0.01 / 8.0 * 2.0, rtol=1e-12)


class TestFirstStep:
    def test_constants_are_fixed_point(self):
        problem = constant_problem(3.0)
        grid = perturbed_grid(7)
        cfg = SchemeConfig(tau=0.05, t_final=0.05)
        ws = Workspace(grid, cfg)
        state = init_state(problem, grid)
        u_bar, _, _ = predict_u1(state, problem, ws)
        assert np.max(np.abs(u_bar.values - 3.0)) <= 1e-12
        new_state, _ = first_step(state, problem, ws)
        assert np.max(np.abs(new_state.z_curr.values - 3.0)) <= 1e-12
        assert np.max(np.abs(new_state.u_curr.values - 3.0)) <= 1e-12

    def test_concentration_pure_decay_recurrence(self):
        # zero density: the constant concentration decays by the CN factor
        zbar = 5.0
        zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
        const = lambda x, y: np.full(np.broadcast(x, y).shape, zbar)
        problem = ProblemSpec(name="decay", domain=(0, 1, 0, 1), lam=1.0,
                              rho0=zero, c0=const, c0_xx=zero, c0_yy=zero)
        grid = unit_grid(6)
        tau = 0.02
        cfg = SchemeConfig(tau=tau, t_final=tau)
        state, _ = first_step(init_state(problem, grid), problem, Workspace(grid, cfg))
        assert np.all(state.u_curr.values == 0.0)
        expected = zbar * (1.0 / tau - 0.5) / (1.0 / tau + 0.5)
        assert np.max(np.abs(state.z_curr.values - expected)) <= 1e-12

    def test_predictor_requires_initial_level(self):
        problem = constant_problem()
        grid = unit_grid(4)
        cfg = SchemeConfig(tau=0.1, t_final=0.2)
        ws = Workspace(grid, cfg)
        state, _ = first_step(init_state(problem, grid), problem, ws)
        with pytest.raises(ValueError, match="initial level"):
            predict_u1(state, problem, ws)

    def test_predictor_system_nonsymmetric_with_gradient(self):
        problem = get_problem("global_existence")
        grid = unit_grid(10)
        cfg = SchemeConfig(tau=0.1, t_final=0.1)
        assert grad(init_state(problem, grid).z_curr).inf_norm() > 0.0
        a = predictor_solve(problem, grid, cfg)[1].tocsc().toarray()
        assert not np.array_equal(a, a.T)

    @pytest.mark.parametrize("problem", ["global_existence", "mms_accuracy"])
    def test_predictor_is_the_crank_nicolson_system_less_w_over_2_tau(self, problem):
        # bit for bit: A(grad z^0)'s band with W/(2 tau) taken off its
        # center, whose weak rows the solve reads, half the backward-Euler
        # right-hand side, the heat part's s = 1/(2 tau), and the product
        # A(grad z^0) u^0 the first stage takes, from the same band before
        # it was lowered
        problem = dataclasses.replace(get_problem(problem), lam=1.3)
        grid = perturbed_grid(9)
        cfg = SchemeConfig(tau=0.01, t_final=0.01)
        ws, system, rhs, s = predictor_solve(problem, grid, cfg)
        state = init_state(problem, grid)
        crank_nicolson = ws.u_system(grad(state.z_curr), 1.3)
        u0 = np.ravel(state.u_curr.values, order="F")
        band = crank_nicolson.data.copy()
        band[_CENTER] -= (0.5 * ws.areas) / cfg.tau
        assert bit_equal(system.data, band) and system.nx == grid.nx
        f = ksbcfd.scheme._forcing(problem, "f_rho", grid, cfg.tau)
        assert np.shape(f) in ((), (grid.nx * grid.ny,))
        backward_euler = ws.areas * (np.ravel(state.u_curr.values / cfg.tau, order="F") + f)
        assert bit_equal(rhs, 0.5 * backward_euler)
        assert s == 0.5 / cfg.tau
        _, _, au = predict_u1(state, problem, ws)
        assert bit_equal(au, crank_nicolson @ u0)

    def test_first_step_takes_the_problems_sensitivity(self, monkeypatch):
        # both density bands of the step add (1/2) lam W C(g) at the
        # problem's lam = 1.3, and its solvability flag uses 1.3 too: tau
        # lies between 4 / (1.3^2 (dz + 1)^2) and 4 / (dz + 1)^2, so lam = 1
        # would pass the bound that 1.3 fails
        problem = dataclasses.replace(get_problem("global_existence"), lam=1.3)
        grid = unit_grid(12)
        cfg = SchemeConfig(tau=8e-4, t_final=8e-4)
        scales = []
        add = ksbcfd.scheme._add_chemotaxis
        monkeypatch.setattr(ksbcfd.scheme, "_add_chemotaxis",
                            lambda band, grid, g, s: (scales.append(s), add(band, grid, g, s)))
        _, diag = first_step(init_state(problem, grid), problem, Workspace(grid, cfg))
        assert scales == [0.5 * 1.3] * 2
        bound = 4.0 / (diag.dz_inf + 1.0) ** 2
        assert bound / 1.3**2 <= cfg.tau < bound
        assert not diag.uniqueness_ok

    def test_mass_preserved_through_first_step(self):
        problem = get_problem("global_existence")
        grid = perturbed_grid(12)
        cfg = SchemeConfig(tau=0.01, t_final=0.01)
        state = init_state(problem, grid)
        m0 = mass(state.u_curr)
        new_state, diag = first_step(state, problem, Workspace(grid, cfg))
        scale = 10.0 * TOL * abs(m0)
        assert abs(mass(new_state.u_curr) - m0) <= scale
        assert diag.t == cfg.tau

    def test_predictor_residual_by_stencil_resubstitution(self):
        problem = get_problem("global_existence")
        grid = perturbed_grid(9)
        cfg = SchemeConfig(tau=0.01, t_final=0.01)
        state = init_state(problem, grid)
        u_bar, report, _ = predict_u1(state, problem, Workspace(grid, cfg))
        assert report.converged
        g0 = grad(state.z_curr)
        lhs = (
            u_bar.values / cfg.tau
            - apply_laplacian(u_bar).values
            + problem.lam * apply_chemotaxis(u_bar, g0).values
        )
        rhs = state.u_curr.values / cfg.tau
        num = np.sqrt(np.sum(grid.cell_areas * (lhs - rhs) ** 2))
        den = np.sqrt(np.sum(grid.cell_areas * rhs**2))
        assert num <= 10.0 * TOL * den


class TestSystemStructure:
    def test_z_system_exactly_symmetric(self):
        for grid in (unit_grid(6), perturbed_grid(6)):
            a = workspace(grid).z_system
            dense = a.tocsc().toarray()
            assert np.array_equal(dense, dense.T)

    def test_u_system_symmetric_iff_gradient_vanishes(self):
        grid = perturbed_grid(5)
        zero_g = grad(CellField(grid, np.ones(grid.shape)))
        ws = workspace(grid)
        a0 = ws.u_system(zero_g, 1.0).tocsc().toarray()
        assert np.array_equal(a0, a0.T)
        state = init_state(get_problem("global_existence"), grid)
        a1 = ws.u_system(grad(state.z_curr), 1.0).tocsc().toarray()
        assert not np.array_equal(a1, a1.T)

    def test_zero_sensitivity_matches_loop_assembled_heat_matrix(self):
        grid = perturbed_grid(5, seed=12)
        tau = 0.04
        nx, ny = grid.shape
        dxw, dyw = grid.x_axis.cell_widths, grid.y_axis.cell_widths
        dxd, dyd = grid.x_axis.dual_widths, grid.y_axis.dual_widths
        n = nx * ny
        zero_g = grad(CellField(grid, np.zeros(grid.shape)))
        ws = workspace(grid, tau)
        # the density system's heat part, and the concentration system
        for assembled, weight in ((ws.u_system(zero_g, 1.0), 1.0 / tau),
                                  (ws.z_system, 1.0 / tau + 0.5)):
            heat = np.zeros((n, n))
            for j in range(ny):
                for i in range(nx):
                    row = i + nx * j
                    heat[row, row] += dxw[i] * dyw[j] * weight
                    if i + 1 < nx:
                        c = dyw[j] / dxd[i]
                        heat[row, row] += 0.5 * c
                        heat[row, row + 1] -= 0.5 * c
                    if i > 0:
                        c = dyw[j] / dxd[i - 1]
                        heat[row, row] += 0.5 * c
                        heat[row, row - 1] -= 0.5 * c
                    if j + 1 < ny:
                        c = dxw[i] / dyd[j]
                        heat[row, row] += 0.5 * c
                        heat[row, row + nx] -= 0.5 * c
                    if j > 0:
                        c = dxw[i] / dyd[j - 1]
                        heat[row, row] += 0.5 * c
                        heat[row, row - nx] -= 0.5 * c
            assert np.allclose(assembled.tocsc().toarray(), heat, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("backward_euler", [False, True])
    def test_workspace_u_system_matches_assembly(self, backward_euler):
        # 9 x 6 cells on two different perturbed axes: the band-filled density
        # matrices against the matrix-free stencils, applied column by column;
        # the predictor's is its backward-Euler matrix halved, whose heat
        # part has s = 1/(2 tau)
        grid = make_grid(build_random_perturbed(0, 1, 9, 0.3, 21),
                         build_random_perturbed(0, 1, 6, 0.3, 22))
        cfg, lam = SchemeConfig(tau=0.02, t_final=0.02), 1.7
        s = (0.5 if backward_euler else 1.0) / cfg.tau
        c0 = lambda x, y: np.cos(3 * x) * np.sin(2 * y + x)
        g = grad(cell_field_from_function(grid, c0))
        n = grid.nx * grid.ny
        stencil = np.zeros((n, n))
        for k in range(n):
            v = CellField(grid, np.eye(n)[k].reshape(grid.shape, order="F"))
            column = (s * v.values - 0.5 * apply_laplacian(v).values
                      + 0.5 * lam * apply_chemotaxis(v, g).values)
            stencil[:, k] = np.ravel(grid.cell_areas * column, order="F")
        if backward_euler:
            filled = predictor_solve(concentration_problem(c0, lam), grid, cfg)[1]
        else:
            filled = Workspace(grid, cfg).u_system(g, lam)
        filled = filled.tocsc().toarray()
        assert np.allclose(filled, stencil, rtol=1e-14, atol=0.0)
        assert np.array_equal(filled != 0.0, stencil != 0.0)

    def test_weighted_operators_have_zero_column_sums(self):
        # 1^T W L = 0 and 1^T W C(g) = 0, so the column sums of the systems
        # are their diagonal weights
        grid = perturbed_grid(6, seed=9)
        tau = 0.05
        ws = workspace(grid, tau)
        a_z = ws.z_system
        weight = np.ravel((1.0 / tau + 0.5) * grid.cell_areas, order="F")
        assert np.max(np.abs(a_z.tocsc().sum(axis=0).A1 - weight)) <= 1e-14
        state = init_state(get_problem("global_existence"), grid)
        g = grad(state.z_curr)
        assert g.inf_norm() > 0.0
        a_u = ws.u_system(g, 1.0)
        weight = np.ravel(grid.cell_areas / tau, order="F")
        assert np.max(np.abs(a_u.tocsc().sum(axis=0).A1 - weight)) <= 1e-12 * np.abs(a_u.data).max()

    def test_five_point_matrices_are_dia_with_csr_products(self):
        # ascending offsets, no coupling across the wrap from the east edge
        # of one grid row to the west edge of the next, and products bit-equal
        # to CSR's, on which the byte-identity of a run's outputs rests
        grid = make_grid(build_random_perturbed(0, 1, 7, 0.3, 51),
                         build_random_perturbed(0, 1, 4, 0.3, 52))
        nx, ny = grid.shape
        cfg = SchemeConfig(tau=0.01, t_final=0.01)
        problem = get_problem("global_existence")
        g = grad(init_state(problem, grid).z_curr)
        ws = Workspace(grid, cfg)
        x = np.random.default_rng(53).standard_normal(nx * ny)
        for a in (ws.z_system, ws.u_system(g, problem.lam),
                  predictor_solve(problem, grid, cfg)[1]):
            assert isinstance(a, FivePointMatrix) and a.shape == (28, 28)
            assert a.offsets == (-nx, -1, 0, 1, nx)
            dense = a.tocsc().toarray()
            for j in range(ny - 1):
                east, west = nx - 1 + nx * j, nx * (j + 1)
                assert dense[east, west] == dense[west, east] == 0.0
            assert np.array_equal(a @ x, as_csr(a) @ x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_u_system_rejects_a_non_finite_gradient(self, bad):
        grid = unit_grid(6)
        z = np.random.default_rng(54).standard_normal(grid.shape)
        z[2, 3] = bad
        g = grad(CellField(grid, z))
        assert not np.isfinite(g.gx.values).all()
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            workspace(grid).u_system(g, 1.0)


# The band path the density matrices were assembled on before the heat
# bands were kept as DIA data: a (5, nx, ny) view over (5, ny, nx) memory,
# the chemotaxis term added through strided (nx, ny) slices, and the DIA
# data rolled out of it.  It is the bit-for-bit oracle of ``u_system``.
S, W, C, E, N = range(5)


def reference_heat_band(grid, diagonal):
    nx, ny = grid.shape
    dxw, dyw = grid.x_axis.cell_widths, grid.y_axis.cell_widths
    dxd, dyd = grid.x_axis.dual_widths, grid.y_axis.dual_widths
    band = np.zeros((5, ny, nx)).transpose(0, 2, 1)
    band[E, :-1, :] = band[W, 1:, :] = dyw[None, :] / dxd[:, None]
    band[N, :, :-1] = band[S, :, 1:] = dxw[:, None] / dyd[None, :]
    band[C] = -(band[E] + band[W] + band[N] + band[S])
    band *= -0.5
    band[C] += diagonal
    return band


def reference_add_chemotaxis(band, grid, g, s):
    # s and the interpolation weights folded into one factor per edge, and
    # each cell's coefficients added into its center slot in the order
    # left, right, bottom, top edge
    dxw, dyw = grid.x_axis.cell_widths, grid.y_axis.cell_widths
    dxd, dyd = grid.x_axis.dual_widths, grid.y_axis.dual_widths
    flux_x = dyw[None, :] * g.gx.values[1:-1, :]
    coef_l = flux_x * (s * dxw[1:] / (2.0 * dxd))[:, None]
    coef_r = flux_x * (s * dxw[:-1] / (2.0 * dxd))[:, None]
    flux_y = dxw[:, None] * g.gy.values[:, 1:-1]
    coef_b = flux_y * (s * dyw[1:] / (2.0 * dyd))[None, :]
    coef_t = flux_y * (s * dyw[:-1] / (2.0 * dyd))[None, :]
    band[C, :-1, :] += coef_l
    band[C, 1:, :] -= coef_r
    band[C, :, :-1] += coef_b
    band[C, :, 1:] -= coef_t
    band[E, :-1, :] += coef_r
    band[W, 1:, :] -= coef_l
    band[N, :, :-1] += coef_t
    band[S, :, 1:] -= coef_b


def reference_five_point(band):
    _, nx, ny = band.shape
    rows = band.transpose(0, 2, 1).reshape(5, nx * ny)
    offsets = (-nx, -1, 0, 1, nx)
    data = np.stack([np.roll(diagonal, offset) for diagonal, offset in zip(rows, offsets)])
    return data, offsets


def reference_weak_rows_block(band):
    off = np.abs(band[S]) + np.abs(band[W]) + np.abs(band[E]) + np.abs(band[N])
    weak = np.abs(band[C]) < off
    if not weak.any():
        return None
    flat = np.arange(weak.size).reshape(weak.shape, order="F")
    return flat[grown_box(*np.nonzero(weak), weak.shape)].ravel(order="F")


def rows_of(box, shape):
    """The rows k = i + nx j, ascending, of the cells in a box's x and y
    slices, on a grid of ``shape`` (nx, ny)."""
    flat = np.arange(shape[0] * shape[1]).reshape(shape, order="F")
    return flat[box].ravel(order="F")


def bit_equal(a, b):
    """Equal bit for bit, signed zeros included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAssemblyOracle:
    @pytest.mark.parametrize("s_tau", [1.0, 0.5])
    @pytest.mark.parametrize("weak", [False, True])
    def test_u_system_is_bit_equal_to_the_band_path(self, s_tau, weak):
        # two non-square perturbed grids; the steep patch leaves rows that
        # are not diagonally dominant, the smooth field none.  s tau = 1 is
        # the Crank-Nicolson system and its weak rows, s tau = 1/2 the
        # predictor's, with W/(2 tau) more off its center.  The grid is wide
        # enough that the weak rows' grown box leaves cells west of it
        if weak:
            grid = make_grid(build_random_perturbed(0, 1, 40, 0.3, 31),
                             build_random_perturbed(0, 1, 8, 0.3, 32))
            cfg, lam = SchemeConfig(tau=0.01, t_final=0.01), 1.0
            fn = lambda x, y: 30.0 * np.exp(-30 * ((x - 0.9) ** 2 + (y - 0.6) ** 2))
        else:
            grid = make_grid(build_random_perturbed(0, 1, 9, 0.3, 21),
                             build_random_perturbed(0, 1, 6, 0.3, 22))
            cfg, lam = SchemeConfig(tau=0.02, t_final=0.02), 1.7
            fn = lambda x, y: np.cos(3 * x) * np.sin(2 * y + x)
        g = grad(cell_field_from_function(grid, fn))
        # the concentration matrix's band with its center lowered by W / 2
        band = reference_heat_band(grid, (1.0 / cfg.tau + 0.5) * grid.cell_areas)
        band[C] -= 0.5 * grid.cell_areas
        reference_add_chemotaxis(band, grid, g, 0.5 * lam)
        if s_tau == 0.5:
            band[C] -= (0.5 * grid.cell_areas) / cfg.tau
        data, offsets = reference_five_point(band)
        block = reference_weak_rows_block(band)
        assert (block is not None) == weak
        assert block is None or block.size < band[C].size

        if s_tau == 1.0:
            system = Workspace(grid, cfg).u_system(grad(cell_field_from_function(grid, fn)), lam)
        else:
            system = predictor_solve(concentration_problem(fn, lam), grid, cfg)[1]
        assert bit_equal(system.data, data)
        assert system.offsets == offsets
        box = system.weak_box()
        assert box is None if block is None else np.array_equal(rows_of(box, grid.shape), block)

    def test_z_system_is_bit_equal_to_the_band_path(self):
        grid = make_grid(build_random_perturbed(0, 1, 7, 0.3, 51),
                         build_random_perturbed(0, 1, 4, 0.3, 52))
        cfg = SchemeConfig(tau=0.01, t_final=0.01)
        s = 1.0 / cfg.tau + 0.5
        data, _ = reference_five_point(reference_heat_band(grid, s * grid.cell_areas))
        assert bit_equal(Workspace(grid, cfg).z_system.data, data)

    def test_step_arrays_are_stored_x_fastest(self):
        # the transposes the band is filled from are contiguous, and a
        # right-hand side takes the forcing without a copy
        grid = make_grid(build_random_perturbed(0, 1, 9, 0.3, 21),
                         build_random_perturbed(0, 1, 6, 0.3, 22))
        for z in (cell_field_from_function(grid, lambda x, y: np.cos(3 * x) * y),
                  CellField(grid, np.arange(54.0).reshape(grid.shape, order="F"))):
            g = grad(z)
            assert g.gx.values.T.flags.c_contiguous and g.gy.values.T.flags.c_contiguous
        problem = get_problem("mms_accuracy")
        for name in ("f_rho", "f_c"):
            f = ksbcfd.scheme._forcing(problem, name, grid, 0.25)
            assert f.shape == (grid.nx * grid.ny,) and f.flags.c_contiguous
            fn = getattr(problem.forcing, name)
            sampled = cell_field_from_function(grid, lambda x, y: fn(x, y, 0.25)).values
            assert np.allclose(f, np.ravel(sampled, order="F"), rtol=1e-15, atol=0.0)


class TestMarching:
    def test_constants_persist_100_steps(self):
        problem = constant_problem(3.0)
        grid = unit_grid(6)
        cfg = SchemeConfig(tau=0.05, t_final=5.0)
        result = run(problem, grid, cfg)
        assert len(result.diagnostics) == 100
        assert np.max(np.abs(result.state.u_curr.values - 3.0)) <= 1e-12
        assert np.max(np.abs(result.state.z_curr.values - 3.0)) <= 1e-12

    def test_mass_drift_bounded_per_step(self):
        problem = get_problem("global_existence")
        grid = make_grid(
            build_random_perturbed(0, 1, 16, 0.2, 5),
            build_random_perturbed(0, 1, 16, 0.2, 6),
        )
        cfg = SchemeConfig(tau=0.001, t_final=0.02)
        state = init_state(problem, grid)
        m0 = mass(state.u_curr)
        result = run(problem, grid, cfg)
        assert len(result.diagnostics) == 20
        for d in result.diagnostics:
            assert abs(d.mass - m0) <= 100.0 * np.finfo(np.float64).eps * abs(m0)

    def test_mass_stays_at_rounding_whatever_the_dominant_tolerance(self, monkeypatch):
        # density solves stopped at 1e-6: the uniform shift after each solve
        # takes the residual's sum out, so the mass moves by rounding only;
        # without it this run drifts by 1.8e-11
        monkeypatch.setattr(ksbcfd.scheme, "_DOMINANT_TOL", 1e-6)
        problem = get_problem("global_existence")
        grid = unit_grid(32)
        result = run(problem, grid, SchemeConfig(tau=1e-3, t_final=0.02))
        m0 = result.initial_mass
        assert len(result.diagnostics) == 20
        assert all(d.block_cells == 0 for d in result.diagnostics)
        assert max(d.residual_u for d in result.diagnostics) > 1e-10
        assert max(abs(d.mass - m0) for d in result.diagnostics) <= 1e-12 * abs(m0)

    def test_starts_accepted_with_no_iteration_do_not_drift(self, monkeypatch):
        # at the shipped tolerance 12 fitted starts pass with no iteration,
        # and none at 1e-12; the final u agree to 1.5e-10 of max|u|, where a
        # tolerance of 1e-8 gives 9.5e-8 and one of 1e-6 gives 1.9e-6
        problem = get_problem("global_existence")
        cfg = SchemeConfig(tau=1e-3, t_final=0.4)
        shipped = run(problem, unit_grid(32), cfg)
        assert cfg.n_steps == 400
        assert any(d.iters_u == 0 for d in shipped.diagnostics[1:])
        monkeypatch.setattr(ksbcfd.scheme, "_DOMINANT_TOL", 1e-12)
        tight = run(problem, unit_grid(32), cfg).state.u_curr.values
        drift = np.max(np.abs(shipped.state.u_curr.values - tight))
        assert drift <= 1e-9 * np.max(np.abs(tight))

    def test_cn_needs_two_levels(self):
        problem = constant_problem()
        state = init_state(problem, unit_grid(4))
        cfg = SchemeConfig(tau=0.1, t_final=0.3)
        ws = Workspace(state.u_curr.grid, cfg)
        with pytest.raises(ValueError, match="two density levels"):
            step_cn(state, problem, ws)
        state1, _ = first_step(state, problem, ws)
        for name in ("au_curr", "az_curr"):
            with pytest.raises(ValueError, match="two density levels and the products"):
                step_cn(dataclasses.replace(state1, **{name: None}), problem, ws)

    def test_density_solves_start_from_u_n_then_from_the_fit(self, monkeypatch):
        # u^0 for both solves of the first step, whose Crank-Nicolson stage
        # stores the first difference, then the fit by one difference on the
        # second step and by two on the third
        problem = get_problem("global_existence")
        grid = unit_grid(8)
        ws = Workspace(grid, SchemeConfig(tau=0.01, t_final=0.03))
        solves = []

        def recorded(a, b, precond, x0, tol=None):
            solves.append((b, x0.copy()))
            return bicgstab(a, b, precond, x0=x0, tol=tol)

        monkeypatch.setattr(ksbcfd.linalg, "bicgstab", recorded)
        state0 = init_state(problem, grid)
        state1, _ = first_step(state0, problem, ws)
        # the next step writes its difference into A^n u^n's buffer
        au1 = state1.au_curr.copy()
        state2, _ = step_cn(state1, problem, ws)
        au2 = state2.au_curr.copy()
        step_cn(state2, problem, ws)
        flat = lambda v: np.ravel(v, order="F")
        assert len(solves) == 4
        assert len(state1.history.d_rhs) == 1 and len(state2.history.d_rhs) == 2
        assert np.array_equal(solves[0][1], flat(state0.u_curr.values))
        assert np.array_equal(solves[1][1], flat(state0.u_curr.values))
        for (b, x0), state, au in zip(solves[2:], (state1, state2), (au1, au2)):
            u = flat(state.u_curr.values)
            assert not np.array_equal(x0, u)
            projection = state.history.projection(b, au)
            assert np.array_equal(x0, state.history.start(projection))
        # the newest two levels are the states' own arrays, not copies
        assert np.shares_memory(state2.history.levels[0], state2.u_curr.values)
        assert np.shares_memory(state2.history.levels[1], state1.u_curr.values)

    @staticmethod
    def check_against_dense_oracle(problem, grid):
        """The first step and one full CN step cross-checked against dense
        solves, each with its half-level density u*; the stencil-form
        right-hand sides, forcing at t_{n+1/2} included, check the stepper's
        matrix products."""
        cfg, lam = SchemeConfig(tau=0.01, t_final=0.03), problem.lam
        ws = Workspace(grid, cfg)
        xs, ys = grid.x_axis.centers[:, None], grid.y_axis.centers[None, :]

        def forcing(f, t):
            return 0.0 if problem.forcing is None else getattr(problem.forcing, f)(xs, ys, t)

        def check(prev, new, u_star):
            t_half = (prev.n + 0.5) * cfg.tau
            rhs_vals = ((1.0 / cfg.tau - 0.5) * prev.z_curr.values
                        + 0.5 * apply_laplacian(prev.z_curr).values + u_star
                        + forcing("f_c", t_half))
            z_dense = np.linalg.solve(ws.z_system.tocsc().toarray(),
                                      ws.areas * np.ravel(rhs_vals, order="F"))
            assert np.max(np.abs(np.ravel(new.z_curr.values, order="F") - z_dense)) <= 1e-10
            system = ws.u_system(grad(new.z_curr), lam)
            rhs_vals = (prev.u_curr.values / cfg.tau
                        + 0.5 * apply_laplacian(prev.u_curr).values
                        - 0.5 * lam * apply_chemotaxis(prev.u_curr, grad(prev.z_curr)).values
                        + forcing("f_rho", t_half))
            u_dense = np.linalg.solve(system.tocsc().toarray(),
                                      ws.areas * np.ravel(rhs_vals, order="F"))
            assert np.max(np.abs(np.ravel(new.u_curr.values, order="F") - u_dense)) <= 1e-10

        state0 = init_state(problem, grid)
        u_bar, _, _ = predict_u1(state0, problem, ws)
        state1, _ = first_step(state0, problem, ws)
        check(state0, state1, 0.5 * (u_bar.values + state0.u_curr.values))
        state2, _ = step_cn(state1, problem, ws)
        check(state1, state2, 1.5 * state1.u_curr.values - 0.5 * state0.u_curr.values)

    def test_solutions_match_dense_oracle_on_coarse_grid(self):
        # 8 x 8 cells: unforced on the uniform grid, and forced on a random
        # grid (beta 0.3), which checks the products' forcing and weights
        self.check_against_dense_oracle(get_problem("global_existence"), unit_grid(8))
        self.check_against_dense_oracle(get_problem("mms_accuracy"), perturbed_grid(8))

    def test_each_step_assembles_one_density_matrix(self, monkeypatch):
        # and one gradient: A(grad z^0), whose product the first stage's
        # right-hand side takes before the predictor lowers it, and one per
        # stage, which the next stage's right-hand side reuses
        problem = get_problem("global_existence")
        grid = perturbed_grid(8)
        cfg = SchemeConfig(tau=0.01, t_final=0.05)
        counts = {"u_system": 0, "grad": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Workspace, "u_system", counted("u_system", Workspace.u_system))
        monkeypatch.setattr(ksbcfd.scheme, "grad", counted("grad", ksbcfd.scheme.grad))
        result = run(problem, grid, cfg)
        steps = len(result.diagnostics)
        assert steps == cfg.n_steps == 5
        assert counts["u_system"] == steps + 1
        assert counts["grad"] <= steps + 1

    def test_state_carries_the_products_of_its_matrices(self):
        # b - r of each solve is A x to rounding: within 4 eps (|A| |x|) of
        # the product of a freshly assembled matrix, in every row
        problem = get_problem("global_existence")
        grid = perturbed_grid(8)
        ws = Workspace(grid, SchemeConfig(tau=0.01, t_final=0.02))
        state0 = init_state(problem, grid)
        assert state0.au_curr is None and state0.az_curr is None
        state1, _ = first_step(state0, problem, ws)
        # the next step takes both products' buffers
        products = [(state1.au_curr.copy(), state1.az_curr.copy())]
        state2, _ = step_cn(state1, problem, ws)
        products.append((state2.au_curr, state2.az_curr))
        flat = lambda v: np.ravel(v, order="F")
        for state, (au, az) in zip((state1, state2), products):
            a_u = ws.u_system(grad(state.z_curr), problem.lam)
            for carried, a, x in ((au, a_u, state.u_curr), (az, ws.z_system, state.z_curr)):
                x = flat(x.values)
                bound = 4.0 * np.finfo(np.float64).eps * (abs(a) @ np.abs(x))
                assert np.all(np.abs(carried - a @ x) <= bound)

    def test_a_step_takes_its_states_products_as_buffers(self):
        # A_z z^n's buffer becomes A_z z^{n+1}'s and A^n u^n's the history's
        # newest difference; u^n and z^n are left as they were.  W is the
        # grid's areas seen flat, and after the first step the heat solver
        # keeps one float32 denominator, the corrector's, beside the
        # concentration solve's float64 one
        problem = get_problem("global_existence")
        grid = perturbed_grid(8)
        cfg = SchemeConfig(tau=0.01, t_final=0.02)
        ws = Workspace(grid, cfg)
        assert np.shares_memory(ws.areas, grid.cell_areas)
        state1, _ = first_step(init_state(problem, grid), problem, ws)
        assert set(ws.heat._denominators) == {np.float32, np.float64}
        s, denominator = ws.heat._denominators[np.float32]
        assert s == 1.0 / cfg.tau and denominator.dtype == np.float32
        u1, z1 = state1.u_curr.values.copy(), state1.z_curr.values.copy()
        state2, _ = step_cn(state1, problem, ws)
        assert np.shares_memory(state2.az_curr, state1.az_curr)
        assert np.shares_memory(state2.history.d_rhs[0], state1.au_curr)
        assert not np.shares_memory(state2.au_curr, state1.au_curr)
        assert np.array_equal(state1.u_curr.values, u1)
        assert np.array_equal(state1.z_curr.values, z1)


def history_of(a, xs):
    """The ``DensityHistory`` of the solves ``a x = b`` of each x in ``xs``
    after the first, oldest first, each from the x before it."""
    history = DensityHistory((xs[0],))
    for x_prev, x in zip(xs, xs[1:]):
        projection = history.projection(a @ x, a @ x_prev)
        history = history.pushed(x, projection)
    return history


class TestDensityHistory:
    def test_keeps_the_last_eight_as_differences_with_their_gram(self):
        # 12 solves: the last nine solutions, the arrays themselves, and the
        # eight right-hand-side differences between them
        _, a, _ = steep_patch_system(3.0)
        xs = list(np.random.default_rng(71).standard_normal((13, a.shape[0])))
        history = history_of(a, xs)
        assert len(history.levels) == 9 and all(v is x for v, x in zip(history.levels, xs[::-1]))
        assert len(history.d_rhs) == 8 and history.gram.shape == (8, 8)
        for j in range(8):
            assert np.array_equal(history.d_rhs[j], a @ xs[-1 - j] - a @ xs[-2 - j])
        v = np.array(history.d_rhs)
        gram = v @ v.T
        assert np.allclose(history.gram, gram, rtol=0.0, atol=1e-12 * np.abs(gram).max())
        assert np.array_equal(history.gram, history.gram.T)

    @pytest.mark.parametrize("count", [2, 5, 9])
    def test_fit_is_exact_inside_the_span(self, count):
        # a fixed matrix, ``count`` levels (``count - 1`` differences) and a
        # right-hand side in the affine span of the stored ones: the start
        # solves the system
        _, a, _ = steep_patch_system(3.0)
        rng = np.random.default_rng(72)
        xs = list(rng.standard_normal((count, a.shape[0])))
        history = history_of(a, xs)
        assert len(history.levels) == count and len(history.d_rhs) == count - 1
        weights = rng.standard_normal(count)
        weights[-1] = 1.0 - weights[:-1].sum()
        x = weights @ np.array(xs)
        x0 = history.start(history.projection(a @ x, a @ xs[-1]))
        assert np.linalg.norm(x0 - x) <= 1e-10 * np.linalg.norm(x)

    def test_extrapolation_is_the_fit_of_a_linear_trend(self):
        _, a, _ = steep_patch_system(3.0)
        x1, dx = np.random.default_rng(73).standard_normal((2, a.shape[0]))
        history = history_of(a, [x1, x1 + dx])
        x0 = history.start(history.projection(a @ (x1 + 2.0 * dx), a @ (x1 + dx)))
        assert np.linalg.norm(x0 - (x1 + 2.0 * dx)) <= 1e-10 * np.linalg.norm(x1)

    def test_constant_state_stays_put(self):
        # its right-hand sides repeat up to rounding, which a fit would
        # carry into the solution: u drifts by 1.7e-12 in these 400 steps
        problem = constant_problem(3.0)
        cfg = SchemeConfig(tau=0.05, t_final=20.0)
        result = run(problem, perturbed_grid(12), cfg)
        assert np.max(np.abs(result.state.u_curr.values - 3.0)) <= 1e-13
        assert max(abs(d.mass - 3.0) for d in result.diagnostics) <= 1e-13

    def test_block_corrected_and_heat_only_steps_start_alike(self, monkeypatch):
        problem = get_problem("mms_accuracy")
        grid = unit_grid(8)
        ws = Workspace(grid, SchemeConfig(tau=0.01, t_final=0.05))
        starts = []

        def recorded(a, b, precond, x0, tol=None):
            starts.append(x0.copy())
            return bicgstab(a, b, precond, x0=x0, tol=tol)

        monkeypatch.setattr(ksbcfd.linalg, "bicgstab", recorded)
        state, _ = first_step(init_state(problem, grid), problem, ws)
        for _ in range(2):
            state, _ = step_cn(state, problem, ws)
        assert len(state.history.d_rhs) == 3
        # a step takes its state's products as buffers: each step from
        # ``state`` takes copies of them
        au, az = state.au_curr, state.az_curr
        fresh = lambda: dataclasses.replace(state, au_curr=au.copy(), az_curr=az.copy())
        _, diag = step_cn(fresh(), problem, ws)
        assert diag.block_cells == 0
        heat_only = starts[-1]
        assert not np.array_equal(heat_only, np.ravel(state.u_curr.values, order="F"))
        monkeypatch.setattr(ksbcfd.linalg.FivePointMatrix, "weak_box",
                            lambda self: (slice(0, 3), slice(0, 1)))
        _, diag = step_cn(fresh(), problem, ws)
        assert diag.block_cells == 3
        assert heat_only.tobytes() == starts[-1].tobytes()

    def test_history_starts_empty_in_each_grid_run_of_a_sweep(self, monkeypatch):
        lengths = []

        def recorded(name):
            fn = getattr(ksbcfd.scheme, name)

            def wrapper(state, *args):
                lengths.append((name, len(state.history.d_rhs)))
                return fn(state, *args)
            return wrapper

        for name in ("first_step", "step_cn"):
            monkeypatch.setattr(ksbcfd.scheme, name, recorded(name))
        config = ksbcfd.cli.parse_config(
            '{"problem": "mms_accuracy", "mode": "convergence", '
            '"grid": {"family": "uniform", "m_values": [10, 20]}, "t_final": 1.0}')
        ksbcfd.cli.run_convergence(config)
        assert [k for name, k in lengths if name == "first_step"] == [0, 0]
        assert [name for name, _ in lengths].count("step_cn") == 9 + 19
        assert max(k for _, k in lengths) == 8

    def test_corner_run_takes_fewer_iterations_and_reruns_bit_identically(self):
        # the extrapolation 2 u^n - u^{n-1} alone takes 500 BiCGStab iterations
        grid = make_grid(build_corner_refined(40), build_corner_refined(40))
        cfg = SchemeConfig(tau=1e-3, t_final=0.1)
        first, second = (run(get_problem("blowup_corner"), grid, cfg) for _ in range(2))
        assert sum(d.iters_u for d in first.diagnostics) <= 400
        assert first.diagnostics == second.diagnostics
        stored = [(*h.levels, *h.d_rhs, h.gram)
                  for h in (first.state.history, second.state.history)]
        assert len(stored[0]) == len(stored[1]) == 18
        assert all(v.tobytes() == w.tobytes() for v, w in zip(*stored))


def test_a_corner_run_keeps_at_most_46_full_grid_vectors_live():
    """The traced peak of a run, counted in full-grid vectors.  The
    workspace keeps the concentration band and reads W as a view of the
    grid's areas, a step forms W/2 and (2/tau) W where it uses them, and
    the heat solver keeps one denominator per precision, for the last s.
    A step keeps the history's nine levels and eight differences, the
    density band, z^n and z^{n+1}.  It takes the products its state carries
    as buffers: the concentration solve builds its right-hand side in
    A_z z^n's, and leaves A_z z^{n+1} there, and d = b - A^n u^n, the
    history's next difference, goes into A^n u^n's.  The concentration
    solve's residual, the gradient and u* die before the density solve,
    which takes its start uncopied, and whose BiCGStab sweep holds its best
    iterate by reference.  The run peaks at 45.2 vectors here; at 48.7 with
    A_z z^{n+1} and d in new arrays, a float64 copy of W and the
    predictor's float32 denominator kept; and at 51.7 with W/2 and
    (2/tau) W stored too and the best iterate copied at each improvement."""
    m = 128
    grid = make_grid(build_corner_refined(m), build_corner_refined(m))
    cfg = SchemeConfig(tau=1e-3, t_final=0.02)
    problem = get_problem("blowup_corner")
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run(problem, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(result.diagnostics) == 20
    assert (peak - base) / (8 * m * m) <= 46


class _AtTheSolve(Exception):
    """Raised in place of the predictor's density solve."""


@pytest.mark.parametrize("s_tau", [1.0, 0.5])
def test_the_density_assembly_makes_at_most_5_full_grid_temporaries(s_tau, monkeypatch):
    """The traced peak of a density assembly beyond what it keeps, in
    full-grid vectors, under a steep patch that leaves rows that are not
    diagonally dominant: ``Workspace.u_system`` beyond the band it returns
    (s tau = 1), and the predictor (s tau = 1/2) up to its solve beyond
    what it hands the solve, which also makes the gradient, u^0, the product
    A(grad z^0) u^0, the lowered center and the right-hand side.  The
    chemotaxis term adds one edge flux and one coefficient array at a time
    into the band: ``u_system``'s peak is 3.0 vectors here (8.7 with a
    full-grid center and all four coefficient arrays scaled apart from the
    band), and the predictor's 1.9."""
    m = 128
    grid = make_grid(build_corner_refined(m), build_corner_refined(m))
    cfg = SchemeConfig(tau=1e-3, t_final=1e-3)
    c0 = lambda x, y: 1e3 * np.exp(-100 * ((x - 0.4) ** 2 + (y - 0.4) ** 2))
    ws = Workspace(grid, cfg)
    g = grad(cell_field_from_function(grid, c0))
    problem = concentration_problem(c0)
    state = init_state(problem, grid)
    handed = []

    def at_the_solve(ws, system, rhs, s, **kwargs):
        handed.append((tracemalloc.get_traced_memory(), system))
        raise _AtTheSolve

    monkeypatch.setattr(ksbcfd.scheme, "_solve_density", at_the_solve)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        if s_tau == 1.0:
            system = ws.u_system(g, problem.lam)
            kept, peak = tracemalloc.get_traced_memory()
        else:
            with pytest.raises(_AtTheSolve):
                predict_u1(state, problem, ws)
            ((kept, peak), system), = handed
    finally:
        if not tracing:
            tracemalloc.stop()
    assert system.weak_box() is not None
    assert kept - base >= system.data.nbytes
    assert (peak - kept) / (8 * m * m) <= 5


def test_no_module_binds_a_scipy_blas_or_lapack_routine():
    """The step's vector algebra runs in numpy's BLAS.  scipy bundles a second
    OpenBLAS with its own thread pool: at two threads, each pool's spinning
    workers hold the core that the other pool needs, and one scipy ``daxpy``
    per step made a corner run 3-4 times as slow.  SuperLU
    (``sparse_lu_solve``, which no run calls) calls scipy's BLAS through
    scipy's own modules: with no scipy routine between the step's numpy
    products, a corner run takes as long at two threads as at one.
    """
    fortran = type(scipy.linalg.blas.daxpy)
    found = [f"{name}.{key}" for name, module in sorted(sys.modules.items())
             if name.split(".")[0] == "ksbcfd"
             for key, value in vars(module).items()
             if isinstance(value, fortran) or value is scipy.linalg.blas
             or value is scipy.linalg.lapack]
    assert found == []


def steep_patch_system(amp, tau=0.01, lam=1.0, predictor=False, nx=11):
    """A density system on a rectangular nx x 8 perturbed grid under a steep
    concentration patch near the x = 1 boundary, with its Workspace and the
    block of its weak rows: the Crank-Nicolson system, or the predictor's.
    At nx = 40 and amp = 30 the weak rows' box grown by the margin is cut
    at x = 1, y = 0 and y = 1 and leaves cells west of it; at nx = 11 it
    covers the grid."""
    grid = make_grid(build_random_perturbed(0, 1, nx, 0.3, 31),
                     build_random_perturbed(0, 1, 8, 0.3, 32))
    cfg = SchemeConfig(tau=tau, t_final=tau)
    c0 = lambda x, y: amp * np.exp(-30 * ((x - 0.9) ** 2 + (y - 0.6) ** 2))
    if predictor:
        ws, system = predictor_solve(concentration_problem(c0, lam), grid, cfg)[:2]
    else:
        ws = Workspace(grid, cfg)
        system = ws.u_system(grad(cell_field_from_function(grid, c0)), lam)
    return ws, system, system.weak_box()


def heat_inverse(ws, s_tau=1.0):
    return functools.partial(ws.heat.solve, s=s_tau / ws.config.tau)


def fp32_heat_inverse(ws, s_tau=1.0):
    """The preconditioner of a density solve whose rows are all diagonally dominant."""
    return functools.partial(ws.heat.solve_fp32, s=s_tau / ws.config.tau)


def solve_density(ws, system, rhs, s_tau=1.0, step=1):
    """``_solve_density`` from a zero start, for a heat part at s = s_tau / tau."""
    return _solve_density(ws, system, rhs, s_tau / ws.config.tau, step=step, name="density",
                          x0=np.zeros(system.shape[0]))


def singular_pivot_system(monkeypatch):
    """The steep patch's dominant system with cell (0, 0)'s diagonal moved,
    half each, to the couplings of cells (1, 0) and (0, 1) to it, in the
    same column, so the column sums stay s W, which the shift assumes: row
    (0, 0) is the one weak row, and with the margin patched to 0 its box is
    that cell, whose block A_SS = [0] is exactly singular."""
    monkeypatch.setattr(ksbcfd.linalg, "_BLOCK_MARGIN", 0)
    ws, system, _ = steep_patch_system(0.3)
    center = system.data[C, 0]
    system.data[W, 0] += 0.5 * center
    system.data[S, 0] += 0.5 * center
    system.data[C, 0] = 0.0
    return ws, system


def mass_shifted(ws, b, x, s_tau=1.0):
    """``x`` after the stepper's uniform shift by ``1^T r / (s sum W)``, for
    ``r = b - A x`` and a heat part at s = s_tau / tau, whose column sums
    give ``1^T r = 1^T b - s W^T x``."""
    s = s_tau / ws.config.tau
    return x + (float(b.sum()) / s - float(ws.areas @ x)) / ws.total_area


def stalled_bicgstab(monkeypatch, iterations=3):
    """Cut the stepper's BiCGStab sweeps to ``iterations`` and report each as
    stagnated: a stand-in for a BiCGStab that stalls short of the tolerance."""
    sweep = ksbcfd.linalg._bicgstab_sweep
    monkeypatch.setattr(ksbcfd.linalg, "_bicgstab_sweep", lambda a, b, m, tol_abs, max_iter: (
        *sweep(a, b, m, tol_abs, iterations)[:2], "stagnated"))


def sparse_lu_calls(monkeypatch):
    """The argument tuples of every ``linalg.sparse_lu_solve`` call from here on."""
    calls = []
    monkeypatch.setattr(ksbcfd.linalg, "sparse_lu_solve", lambda *args: calls.append(args))
    return calls


class TestSolveFailure:
    """BiCGStab is the density solve's one path: a miss raises."""

    def test_stagnating_density_solve_raises_bicgstab_report(self, monkeypatch):
        ws, system, block = steep_patch_system(0.3)
        assert block is None
        b = np.random.default_rng(3).standard_normal(system.shape[0])
        stalled_bicgstab(monkeypatch)
        _, krylov = bicgstab(system, b, fp32_heat_inverse(ws), tol=ksbcfd.scheme._DOMINANT_TOL)
        assert not krylov.converged and krylov.reason == "stagnated" and krylov.iterations == 3
        calls = sparse_lu_calls(monkeypatch)
        with pytest.raises(StepSolveError) as info:
            solve_density(ws, system, b, step=7)
        assert str(info.value) == (
            "density solve failed at step 7: stagnated after 3 iterations, relative residual "
            f"{krylov.final_relative_residual:.3e}")
        assert info.value.report == krylov
        assert calls == []

    def test_singular_density_system_raises_without_sparse_lu(self, monkeypatch):
        # an all-zero row, which counts as diagonally dominant, as every
        # other row is: no solution meets either test, whatever BiCGStab does
        ws, system, _ = steep_patch_system(0.3)
        for slot, column in enumerate(5 + np.array(system.offsets)):
            if 0 <= column < system.shape[0]:
                system.data[slot, column] = 0.0  # row 5's entry in that column
        assert not as_csr(system)[5].count_nonzero()
        assert system.weak_box() is None
        b = np.ones(system.shape[0])
        _, krylov = bicgstab(system, b, fp32_heat_inverse(ws), tol=ksbcfd.scheme._DOMINANT_TOL)
        calls = sparse_lu_calls(monkeypatch)
        with pytest.raises(StepSolveError, match=f"^density solve failed at step 3: {krylov.reason} "
                           f"after {krylov.iterations} iterations, relative residual "
                           f"{krylov.final_relative_residual:.3e}$") as info:
            solve_density(ws, system, b, step=3)
        assert not krylov.converged and info.value.report == krylov
        assert krylov.final_relative_residual > ksbcfd.scheme._DOMINANT_TOL
        assert calls == [] and not hasattr(info.value, "fallback")

    def test_concentration_residual_miss_raises(self):
        # the heat inverse at s off by 1/2 misses the tolerance even after
        # refinement: the stage of step 2, from level 1, raises
        cfg = SchemeConfig(tau=0.01, t_final=0.02)
        grid = perturbed_grid(6)
        ws = Workspace(grid, cfg)
        ws.z_inverse = functools.partial(ws.heat.solve, s=1.0 / cfg.tau)
        rng = np.random.default_rng(4)
        z = CellField(grid, rng.standard_normal(grid.shape))
        state = State(t=cfg.tau, n=1, u_curr=z, z_curr=z, au_curr=np.zeros(36),
                      az_curr=rng.standard_normal(36))
        u_star = rng.standard_normal(36)
        with pytest.raises(StepSolveError, match="^concentration solve failed at step 2: "
                           "breakdown after 0 iterations, relative residual") as info:
            _concentration_stage(ws, state, lambda: u_star, constant_problem(), 1.5 * cfg.tau)
        assert info.value.report.reason == "breakdown"
        assert info.value.report.final_relative_residual > TOL


def weak_rows(a, shape):
    """Rows of a dense matrix that are not diagonally dominant, as an (nx, ny) mask."""
    diag = np.abs(np.diag(a))
    off = np.abs(a - np.diag(np.diag(a))).sum(axis=1)
    return (diag < off).reshape(shape, order="F")


def grown_box(i, j, shape):
    """The (x, y) slices of the box bounding cells (i, j), grown by the
    stepper's margin on every side and cut at the grid's edges."""
    m = ksbcfd.linalg._BLOCK_MARGIN
    return (slice(max(i.min() - m, 0), min(i.max() + m + 1, shape[0])),
            slice(max(j.min() - m, 0), min(j.max() + m + 1, shape[1])))


class TestBlockCorrection:
    @pytest.mark.parametrize("s_tau", [1.0, 0.5])
    def test_dominant_system_gets_the_heat_inverse(self, s_tau):
        # the Crank-Nicolson system (s tau = 1) and the predictor's (1/2),
        # solved as the stepper solves a band with no weak row: BiCGStab on
        # the fp32 heat inverse to the dominant tolerance, then the shift,
        # which puts the mass W^T x on 1^T b / s, the column sums' s W, to
        # rounding, where BiCGStab's own x misses it by its residual's sum
        ws, system, block = steep_patch_system(0.3, predictor=s_tau == 0.5)
        assert block is None
        assert not weak_rows(system.tocsc().toarray(), ws.grid.shape).any()
        b = np.random.default_rng(5).standard_normal(system.shape[0])
        x, report = solve_density(ws, system, b, s_tau=s_tau)
        plain, plain_report = bicgstab(system, b, fp32_heat_inverse(ws, s_tau),
                                       tol=ksbcfd.scheme._DOMINANT_TOL)
        assert np.array_equal(x, mass_shifted(ws, b, plain, s_tau))
        assert report.iterations == plain_report.iterations
        tight = bicgstab(system, b, fp32_heat_inverse(ws, s_tau))
        assert not np.array_equal(x, mass_shifted(ws, b, tight[0], s_tau))
        assert report.block_cells == 0
        r = b - system @ x
        assert np.max(np.abs(report.residual - r)) <= 1e-14 * np.max(np.abs(b))
        assert report.final_relative_residual == pytest.approx(
            np.linalg.norm(r) / np.linalg.norm(b), rel=1e-6)
        assert report.final_relative_residual <= ksbcfd.scheme._DOMINANT_TOL
        s, rounding = s_tau / ws.config.tau, 4 * np.finfo(np.float64).eps * np.abs(b).sum()
        assert abs(ws.areas @ x - b.sum() / s) <= rounding / s < abs(ws.areas @ plain - b.sum() / s)

    def test_block_step_corrects_the_fp32_heat_inverse(self):
        ws, system, block = steep_patch_system(30.0, nx=40)
        b = np.random.default_rng(6).standard_normal(system.shape[0])
        x, report = solve_density(ws, system, b)
        precond = block_corrected(system, fp32_heat_inverse(ws), block)
        assert np.array_equal(x, mass_shifted(ws, b, bicgstab(system, b, precond)[0]))
        fp64 = block_corrected(system, heat_inverse(ws), block)
        assert not np.array_equal(x, mass_shifted(ws, b, bicgstab(system, b, fp64)[0]))
        assert report.converged and report.final_relative_residual <= TOL

    def test_weak_row_system_on_the_heat_inverse_alone_meets_the_tolerance(self, monkeypatch):
        # the heat inverse alone on a band with weak rows, as the stepper
        # runs it when their box meets an exactly singular pivot block: the
        # band keys the tolerance, so the solve still meets 1e-12
        ws, system, block = steep_patch_system(30.0, nx=40)
        assert block is not None and weak_rows(system.tocsc().toarray(), ws.grid.shape).any()
        monkeypatch.setattr(ksbcfd.linalg, "block_corrected", lambda a, precond, box: precond)
        b = np.random.default_rng(10).standard_normal(system.shape[0])
        x, report = solve_density(ws, system, b)
        assert report.converged and report.block_cells == 0
        assert report.final_relative_residual <= TOL
        assert np.linalg.norm(b - system @ x) <= 1.01 * TOL * np.linalg.norm(b)

    @pytest.mark.parametrize("case", ["dominant", "weak_rows", "singular_pivot"])
    def test_the_band_alone_picks_the_preconditioner_and_the_tolerance(self, case, monkeypatch):
        # the one entry point's three outcomes: a band with no weak row takes
        # the heat inverse to the dominant tolerance; weak rows take the
        # correction on their grown box to 1e-12; a box whose pivot block is
        # exactly singular leaves the heat inverse alone, still to 1e-12,
        # because the band has weak rows whatever the correction gives
        if case == "singular_pivot":
            ws, system = singular_pivot_system(monkeypatch)
        elif case == "weak_rows":
            ws, system, _ = steep_patch_system(30.0, nx=40)
        else:
            ws, system, _ = steep_patch_system(0.3)
        box = system.weak_box()
        corrections, solves = [], []
        correct, solve = ksbcfd.linalg.block_corrected, ksbcfd.linalg.bicgstab

        def recorded_correction(a, precond, handed):
            m = correct(a, precond, handed)
            corrections.append((handed, m is precond))
            return m

        def recorded_solve(a, b, precond, x0=None, tol=None):
            solves.append((precond, TOL if tol is None else tol))
            return solve(a, b, precond, x0=x0, tol=tol)

        monkeypatch.setattr(ksbcfd.linalg, "block_corrected", recorded_correction)
        monkeypatch.setattr(ksbcfd.linalg, "bicgstab", recorded_solve)
        b = np.random.default_rng(11).standard_normal(system.shape[0])
        _, report = solve_density(ws, system, b)
        ((precond, tol),) = solves
        heat_alone = (isinstance(precond, functools.partial)
                      and precond.func == ws.heat.solve_fp32
                      and precond.keywords == {"s": 1.0 / ws.config.tau})
        assert report.converged
        if case == "dominant":
            assert box is None and corrections == [] and heat_alone
            assert tol == ksbcfd.scheme._DOMINANT_TOL and report.block_cells == 0
        else:
            ((handed, bare),) = corrections
            assert handed == box
            assert bare == heat_alone == (case == "singular_pivot")
            assert tol == TOL
            assert report.block_cells == (0 if bare else rows_of(box, ws.grid.shape).size)

    def test_singular_block_reports_no_block_cells(self, monkeypatch):
        # the one-cell block A_SS = [0] is exactly singular, so the solve
        # runs on the heat inverse alone
        ws, system = singular_pivot_system(monkeypatch)
        assert system.weak_box() == (slice(0, 1), slice(0, 1))
        b = np.random.default_rng(9).standard_normal(system.shape[0])
        x, report = solve_density(ws, system, b)
        assert report.converged and report.block_cells == 0
        assert np.max(np.abs(x - np.linalg.solve(system.tocsc().toarray(), b))) <= 1e-10

    def test_block_bounds_weak_rows_and_speeds_up_bicgstab(self):
        ws, system, block = steep_patch_system(30.0, nx=40)
        a = system.tocsc().toarray()
        weak = weak_rows(a, ws.grid.shape)
        i, j = np.nonzero(weak)
        box = grown_box(i, j, weak.shape)
        assert block == box
        assert box[0].stop == ws.grid.nx  # the box reaches the boundary, cut there
        assert box[0].start > 0  # and leaves cells west of it
        assert weak[box].sum() == weak.sum() < weak[box].size < weak.size

        b = np.random.default_rng(6).standard_normal(system.shape[0])
        _, plain = bicgstab(system, b, fp32_heat_inverse(ws))
        x, corrected = solve_density(ws, system, b)
        assert plain.converged and corrected.converged
        assert corrected.iterations < plain.iterations
        assert np.max(np.abs(x - np.linalg.solve(a, b))) <= 1e-10

    def test_every_row_weak_solves(self):
        # a steep bowl and a long time step: no row is diagonally dominant
        grid = make_grid(build_random_perturbed(0, 1, 7, 0.3, 41),
                         build_random_perturbed(0, 1, 5, 0.3, 42))
        ws = Workspace(grid, SchemeConfig(tau=1.0, t_final=1.0))
        z = cell_field_from_function(grid, lambda x, y: 400.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
        system = ws.u_system(grad(z), 1.0)
        a = system.tocsc().toarray()
        assert weak_rows(a, grid.shape).all()
        box = system.weak_box()
        assert box == (slice(0, 7), slice(0, 5))
        assert np.array_equal(rows_of(box, grid.shape), np.arange(35))
        b = np.random.default_rng(7).standard_normal(system.shape[0])
        x, report = solve_density(ws, system, b)
        assert report.converged
        assert np.max(np.abs(x - np.linalg.solve(a, b))) <= 1e-10

    def test_step_reports_block_cells(self):
        # the weak rows span x cells 28..38 and y cells 3..6 of 40 x 8; the
        # box grown by the margin, 24 cells, is x 4..39 and y 0..7
        ws, system, block = steep_patch_system(30.0, nx=40)
        rhs = np.random.default_rng(8).standard_normal(system.shape[0])
        _, report = solve_density(ws, system, rhs)
        assert block == (slice(4, 40), slice(0, 8))
        assert report.converged and rows_of(block, ws.grid.shape).size == report.block_cells == 36 * 8
        assert type(report.block_cells) is int

    def test_block_is_the_weak_rows_box_grown_by_the_margin(self):
        # a 70 x 60 band whose rows are all diagonally dominant but those of
        # the given cells; their bounding box grows by the margin on every
        # side, inside the grid and cut at its edges
        nx, ny, m = 70, 60, ksbcfd.linalg._BLOCK_MARGIN
        assert 0 < m < 30  # so the first box lies inside the grid
        for cells, box in [
            ([(35, 30)], (slice(35 - m, 36 + m), slice(30 - m, 31 + m))),
            ([(0, 59)], (slice(0, 1 + m), slice(59 - m, 60))),
            ([(69, 2), (60, 0)], (slice(60 - m, 70), slice(0, 3 + m))),
        ]:
            band = np.full((5, nx * ny), 0.25)
            band[_CENTER] = 2.0
            for i, j in cells:
                band[_CENTER, i + nx * j] = 0.0
            assert FivePointMatrix(band, nx).weak_box() == box


class TestRun:
    def test_grid_off_the_problem_domain_is_rejected(self):
        # a uniform 8^2 grid over [0, 2]^2 for a problem on the unit square
        problem = get_problem("mms_accuracy")
        grid = make_grid(build_uniform(0, 2, 8), build_uniform(0, 2, 8))
        cfg = SchemeConfig(tau=0.25, t_final=1.0)
        with pytest.raises(ValueError, match=r"^grid extent \(0\.0, 2\.0, 0\.0, 2\.0\) is not "
                           r"the domain \(0\.0, 1\.0, 0\.0, 1\.0\) of problem 'mms_accuracy'$"):
            run(problem, grid, cfg)
        assert len(run(problem, unit_grid(8), cfg).diagnostics) == 4

    def test_single_step_run_has_one_record(self):
        problem = constant_problem()
        cfg = SchemeConfig(tau=0.1, t_final=0.1)
        result = run(problem, unit_grid(5), cfg)
        assert len(result.diagnostics) == 1
        assert result.state.n == 1 and not result.blew_up

    def test_deterministic_diagnostics(self):
        problem = get_problem("global_existence")
        grid = perturbed_grid(10, seed=77)
        cfg = SchemeConfig(tau=0.01, t_final=0.05)
        r1 = run(problem, grid, cfg)
        r2 = run(problem, grid, cfg)
        assert r1.diagnostics == r2.diagnostics
        assert np.array_equal(r1.state.u_curr.values, r2.state.u_curr.values)

    def test_blowup_halts_cleanly_with_diagnostics(self):
        problem = get_problem("blowup_center")
        grid = unit_grid(16)
        cfg = SchemeConfig(tau=1e-5, t_final=1e-3, blowup_threshold=900.0)
        result = run(problem, grid, cfg)
        assert result.blew_up
        u = result.state.u_curr.values
        assert result.diagnostics[-1].u_max > 900.0 or not np.isfinite(u).all()

    def test_bound_violations_are_recorded_without_a_warning(self):
        # the time step breaks the advisory solvability bound at several
        # steps; the records say so, and the run emits no warning
        problem = get_problem("blowup_center")
        grid = unit_grid(12)
        cfg = SchemeConfig(tau=1e-3, t_final=5e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(problem, grid, cfg)
        assert result.state.n == cfg.n_steps
        assert sum(not d.uniqueness_ok for d in result.diagnostics) > 1

    def test_one_step_call_per_record(self, monkeypatch):
        # the halting step included: a benchmark counts steps by wrapping
        # the two step functions, which run looks up at every step
        calls = {"first_step": 0, "step_cn": 0}

        def counted(name):
            fn = getattr(ksbcfd.scheme, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ksbcfd.scheme, name, counted(name))
        cfg = SchemeConfig(tau=1e-5, t_final=1e-3, blowup_threshold=900.0)
        result = run(get_problem("blowup_center"), unit_grid(16), cfg)
        assert result.blew_up and len(result.diagnostics) < cfg.n_steps
        assert calls == {"first_step": 1, "step_cn": len(result.diagnostics) - 1}


class TestBlowUpCheck:
    @pytest.mark.parametrize("field, value", [("u", np.nan), ("u", np.inf), ("u", -np.inf),
                                              ("z", -np.inf), ("u", -2e12)])
    def test_non_finite_or_large_values_halt_as_blow_up(self, field, value):
        # -inf in z leaves z_max finite; -2e12 in u crosses the threshold
        # through u_min
        grid = unit_grid(6)
        cfg = SchemeConfig(tau=0.01, t_final=0.01)
        values = {"u": np.ones(grid.shape), "z": np.ones(grid.shape)}
        values[field][2, 3] = value
        state = State(t=0.01, n=1, u_curr=CellField(grid, values["u"]),
                      z_curr=CellField(grid, values["z"]))
        report = ksbcfd.linalg.SolveReport(True, 1, 0.0, "converged")
        with np.errstate(invalid="ignore"):
            diag = _diagnostics(state, grad(state.z_curr).inf_norm(), cfg, 1.0, report, (report,))
        with pytest.raises(BlowUpDetected):
            _check_blowup(state, diag, cfg)


class TestErrorNorms:
    def test_zero_for_exact_samples(self):
        problem = get_problem("mms_accuracy")
        grid = unit_grid(9)
        t = 0.5
        u = cell_field_from_function(grid, lambda x, y: problem.exact.rho(x, y, t))
        z = cell_field_from_function(grid, lambda x, y: problem.exact.c(x, y, t))
        state = State(t=t, n=5, u_curr=u, z_curr=z)
        e_rho, e_c, e_gradc = error_norms(state, problem)
        assert e_rho == 0.0 and e_c == 0.0
        assert e_gradc > 0.0  # discrete gradient of samples is not exact

    def test_requires_exact_solution(self):
        problem = get_problem("global_existence")
        state = init_state(problem, unit_grid(4))
        with pytest.raises(ValueError, match="no exact solution"):
            error_norms(state, problem)
