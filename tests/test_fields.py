import math

import numpy as np
import pytest

from ksbcfd.fields import (
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
    inner_m,
    inner_x,
    inner_y,
    interp_x,
    interp_y,
    norm_m,
    norm_tm,
)
from ksbcfd.grid import build_random_perturbed, build_uniform, make_grid


def uniform_grid(n=8, lo=0.0, hi=1.0):
    return make_grid(build_uniform(lo, hi, n), build_uniform(lo, hi, n))


def constant(g, value):
    return CellField(g, np.full(g.shape, value))


def random_grid(n, beta, seed):
    return make_grid(
        build_random_perturbed(0, 1, n, beta, seed),
        build_random_perturbed(0, 1, n, beta, seed + 1),
    )


class TestDifferenceOperators:
    def test_dx_constant_is_zero(self):
        g = random_grid(9, 0.3, 5)
        assert np.array_equal(dx(constant(g, 7.0)).values, np.zeros((10, 9)))

    def test_dx_linear_exact(self):
        g = random_grid(11, 0.4, 2)
        p = cell_field_from_function(g, lambda x, y: x + 0 * y)
        v = dx(p).values
        assert np.allclose(v[1:-1, :], 1.0, rtol=0, atol=1e-13)
        assert np.all(v[0, :] == 0) and np.all(v[-1, :] == 0)

    def test_dx_quadratic_hand_value(self):
        g = uniform_grid(4)
        p = cell_field_from_function(g, lambda x, y: x**2 + 0 * y)
        # edge at x = 0.25 between centers 0.125 and 0.375
        assert dx(p).values[1, 0] == pytest.approx((0.375**2 - 0.125**2) / 0.25, rel=1e-15)

    def test_Dx_of_constant_edges(self):
        g = uniform_grid(5)
        v = EdgeFieldX(g, np.full((6, 5), 4.2))
        assert np.allclose(Dx(v).values, 0.0, atol=1e-13)

    def test_Dx_dx_linear_interior(self):
        g = random_grid(10, 0.2, 11)
        p = cell_field_from_function(g, lambda x, y: 3.0 * x + 0 * y)
        lap = Dx(dx(p)).values
        # interior columns annihilated; boundary columns see the zero edge
        assert np.allclose(lap[1:-1, :], 0.0, atol=1e-11)
        assert np.all(lap[0, :] != 0.0) and np.all(lap[-1, :] != 0.0)

    def test_dy_mirrors_dx(self):
        ax = build_random_perturbed(0, 1, 7, 0.3, 21)
        g = make_grid(ax, ax)  # identical axes so the transpose argument holds
        p = cell_field_from_function(g, lambda x, y: y**2 + x)
        pt = CellField(g, np.ascontiguousarray(p.values.T))
        assert np.array_equal(dy(p).values, dx(pt).values.T)


class TestSummationByParts:
    def test_identity_on_random_fields(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        for trial in range(20):
            n = int(rng.integers(3, 12))
            beta = float(rng.uniform(0, 0.45))
            g = random_grid(n, beta, int(rng.integers(0, 2**31)))
            q = CellField(g, rng.standard_normal(g.shape))
            vv = rng.standard_normal((g.nx + 1, g.ny))
            vv[0, :] = vv[-1, :] = 0.0
            v = EdgeFieldX(g, vv)
            lhs = inner_m(q, Dx(v))
            rhs = -inner_x(dx(q), v)
            assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs) + abs(rhs))
            ww = rng.standard_normal((g.nx, g.ny + 1))
            ww[:, 0] = ww[:, -1] = 0.0
            w = EdgeFieldY(g, ww)
            assert abs(inner_m(q, Dy(w)) + inner_y(dy(q), w)) <= 1e-13 * (
                1.0 + norm_m(q) * np.sqrt(inner_x(v, v))
            )


class TestInterpolation:
    def test_reproduces_constants(self):
        g = random_grid(6, 0.35, 8)
        v = interp_x(constant(g, 3.0)).values
        assert np.allclose(v[1:-1, :], 3.0, rtol=1e-15)
        assert np.all(v[0, :] == 0.0) and np.all(v[-1, :] == 0.0)

    def test_exact_on_bilinear(self):
        g = random_grid(9, 0.4, 17)
        f = lambda x, y: 1.5 - 2.0 * x + 0.75 * y + 3.25 * x * y
        p = cell_field_from_function(g, f)
        xs = g.x_axis.primal[1:-1, None]
        ys = g.y_axis.centers[None, :]
        assert np.allclose(interp_x(p).values[1:-1, :], f(xs, ys), rtol=1e-13)
        xs2 = g.x_axis.centers[:, None]
        ys2 = g.y_axis.primal[None, 1:-1]
        assert np.allclose(interp_y(p).values[:, 1:-1], f(xs2, ys2), rtol=1e-13)

    def test_uniform_grid_average(self):
        g = uniform_grid(5)
        p = CellField(g, np.random.default_rng(1).standard_normal(g.shape))
        expected = 0.5 * (p.values[:-1, :] + p.values[1:, :])
        assert np.allclose(interp_x(p).values[1:-1, :], expected, rtol=1e-15)


class TestDeltaCorrection:
    def test_zero_for_linear(self):
        g = random_grid(7, 0.2, 4)
        zero = constant(g, 0.0)
        assert np.array_equal(delta_correction(zero, zero).values, np.zeros(g.shape))

    def test_quadratic_uniform_value(self):
        g = uniform_grid(10)  # h = 0.1
        pxx = constant(g, 2.0)  # (x^2)'' = 2
        pyy = constant(g, 0.0)
        assert np.allclose(delta_correction(pxx, pyy).values, 0.01 / 8.0 * 2.0, rtol=1e-14)

    def test_second_order_decay_under_refinement(self):
        pxx = lambda x, y: -np.pi**2 * np.sin(np.pi * x) * np.cos(np.pi * y)
        norms = []
        for n in (16, 32, 64):
            g = uniform_grid(n)
            d = delta_correction(
                cell_field_from_function(g, pxx), cell_field_from_function(g, pxx)
            )
            norms.append(norm_m(d))
        orders = [math.log(norms[k - 1] / norms[k]) / math.log(2) for k in (1, 2)]
        assert min(orders) >= 1.95

    def test_corrected_gradient_second_order_on_random_grids(self):
        # edge-gradient accuracy restored by the correction on beta=0.3 grids
        p = lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y)
        p_x = lambda x, y: np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)
        p_dd = lambda x, y: -np.pi**2 * np.sin(np.pi * x) * np.cos(np.pi * y)
        errs = []
        for n in (16, 32, 64):
            g = random_grid(n, 0.3, 77)
            pf = cell_field_from_function(g, p)
            corr = delta_correction(
                cell_field_from_function(g, p_dd), cell_field_from_function(g, p_dd)
            )
            corrected = CellField(g, pf.values - corr.values)
            diff = EdgeFieldX(g, edge_x_from_function(g, p_x).values - dx(corrected).values)
            errs.append(np.sqrt(inner_x(diff, diff)))
        orders = [math.log(errs[k - 1] / errs[k]) / math.log(2) for k in (1, 2)]
        assert min(orders) >= 1.8


class TestInnerProducts:
    def test_unit_square_area(self):
        g = random_grid(12, 0.3, 9)
        one = constant(g, 1.0)
        assert inner_m(one, one) == pytest.approx(1.0, rel=1e-13)

    def test_mass_functional(self):
        g = uniform_grid(6)
        f = CellField(g, np.random.default_rng(3).standard_normal(g.shape))
        one = constant(g, 1.0)
        assert inner_m(one, f) == pytest.approx(float(np.sum(g.cell_areas * f.values)), rel=1e-14)

    def test_symmetry(self):
        g = random_grid(8, 0.25, 31)
        rng = np.random.default_rng(5)
        f = CellField(g, rng.standard_normal(g.shape))
        h = CellField(g, rng.standard_normal(g.shape))
        assert inner_m(f, h) == inner_m(h, f)

    def test_grid_mismatch_rejected(self):
        f = constant(uniform_grid(4), 1.0)
        h = constant(uniform_grid(4), 1.0)
        with pytest.raises(ValueError):
            inner_m(f, h)

    def test_interior_edge_weight_total(self):
        n = 10
        g = uniform_grid(n)
        one = EdgeFieldX(g, np.ones((n + 1, n)))
        # interior dual widths sum to 1 - h on the unit square
        assert inner_x(one, one) == pytest.approx(1.0 - 1.0 / n, rel=1e-13)

    def test_norm_tm_zero_cases(self):
        g = uniform_grid(5)
        zx = EdgeFieldX(g, np.zeros((6, 5)))
        zy = EdgeFieldY(g, np.zeros((5, 6)))
        assert norm_tm(GradientPair(zx, zy)) == 0.0
        const = constant(g, 2.5)
        assert norm_tm(GradientPair(dx(const), dy(const))) == 0.0

    def test_bit_deterministic(self):
        g = random_grid(15, 0.4, 101)
        rng = np.random.default_rng(8)
        f = CellField(g, rng.standard_normal(g.shape))
        h = CellField(g, rng.standard_normal(g.shape))
        assert inner_m(f, h) == inner_m(CellField(g, f.values.copy()), CellField(g, h.values.copy()))


class TestExtrema:
    def test_constant_field(self):
        f = constant(uniform_grid(4), -2.5)
        assert f.max() == f.min() == -2.5
        assert f.max_abs() == 2.5

    def test_spike_argmax(self):
        g = uniform_grid(8)
        vals = np.zeros(g.shape)
        vals[3, 5] = 9.0
        assert CellField(g, vals).argmax() == (3, 5)

    def test_tie_breaks_to_lowest_j_then_i(self):
        g = uniform_grid(6)
        vals = np.zeros(g.shape)
        vals[1, 1] = vals[2, 2] = 7.0
        assert CellField(g, vals).argmax() == (1, 1)

    def test_shape_validation(self):
        g = uniform_grid(4)
        with pytest.raises(ValueError):
            CellField(g, np.zeros((5, 4)))
        with pytest.raises(ValueError):
            EdgeFieldX(g, np.zeros((4, 4)))
