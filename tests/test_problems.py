import numpy as np
import pytest
from scipy.integrate import dblquad

from ksbcfd.problems import (
    ExactSolution,
    ProblemSpec,
    blowup_center,
    blowup_corner,
    blowup_supercritical,
    get_problem,
    global_existence,
    mms_accuracy,
)

# central-difference step for the forcing residual oracle; 1e-4 balances
# truncation against double-precision cancellation in second differences
H = 1e-4


def fd_residuals(problem, x, y, t):
    """Continuous-operator residuals by finite differences (oracle)."""
    ex = problem.exact
    rho, c, lam = ex.rho, ex.c, problem.lam

    def dt(f):
        return (f(x, y, t + H) - f(x, y, t - H)) / (2 * H)

    def lap(f):
        return (
            (f(x + H, y, t) - 2 * f(x, y, t) + f(x - H, y, t))
            + (f(x, y + H, t) - 2 * f(x, y, t) + f(x, y - H, t))
        ) / H**2

    def gx(f):
        return (f(x + H, y, t) - f(x - H, y, t)) / (2 * H)

    def gy(f):
        return (f(x, y + H, t) - f(x, y - H, t)) / (2 * H)

    # div(rho grad c) = grad(rho) . grad(c) + rho * Lap(c)
    div_cross = gx(rho) * gx(c) + gy(rho) * gy(c) + rho(x, y, t) * lap(c)
    res_rho = dt(rho) - lap(rho) + lam * div_cross
    res_c = dt(c) - lap(c) + c(x, y, t) - rho(x, y, t)
    return res_rho, res_c


class TestManufactured:
    def test_initially_zero_with_zero_neumann_data(self):
        p = mms_accuracy()
        assert p.exact.rho(0.3, 0.7, 0.0) == 0.0
        # d/dx (x^2-x)^2 = 2(x^2-x)(2x-1) vanishes at x in {0, 1}
        for x in (0.0, 1.0):
            assert p.exact.c_x(x, 0.33, 1.0) == 0.0
        for y in (0.0, 1.0):
            assert p.exact.c_y(0.71, y, 1.0) == 0.0

    def test_forcing_at_center_against_fd_oracle(self):
        p = mms_accuracy()
        res_rho, res_c = fd_residuals(p, 0.5, 0.5, 1.0)
        f_c = p.forcing.f_c(0.5, 0.5, 1.0)
        f_rho = p.forcing.f_rho(0.5, 0.5, 1.0)
        assert abs(res_c - f_c) <= 1e-7 * abs(f_c)
        assert abs(res_rho - f_rho) <= 1e-7 * abs(f_rho)

    def test_forcing_residual_at_random_interior_points(self):
        p = mms_accuracy()
        rng = np.random.default_rng(424242)
        for _ in range(20):
            x, y = rng.uniform(0.2, 0.8, size=2)
            t = rng.uniform(0.25, 1.0)
            res_rho, res_c = fd_residuals(p, x, y, t)
            f_rho = p.forcing.f_rho(x, y, t)
            f_c = p.forcing.f_c(x, y, t)
            assert abs(res_rho - f_rho) <= 1e-6 * abs(f_rho)
            assert abs(res_c - f_c) <= 1e-6 * abs(f_c)


class TestGaussianData:
    def test_subcritical_mass_by_quadrature(self):
        p = global_existence()
        mass, _ = dblquad(lambda y, x: p.rho0(x, y), 0, 1, 0, 1, epsabs=1e-10)
        assert abs(mass - 24.67) <= 0.005
        assert mass < 8 * np.pi

    def test_subcritical_peaks(self):
        p = global_existence()
        assert p.rho0(0.5, 0.5) == 50.0
        assert p.c0(0.5, 0.5) == 25.0

    def test_supercritical_mass_by_quadrature(self):
        p = blowup_supercritical()
        mass, _ = dblquad(lambda y, x: p.rho0(x, y), -1, 1, -1, 1, epsabs=1e-10)
        assert abs(mass - 27.23) <= 0.005
        assert mass > 8 * np.pi

    def test_supercritical_peaks(self):
        p = blowup_supercritical()
        assert p.rho0(0.0, 0.0) == 130.0
        assert p.c0(0.0, 0.0) == 13.0

    def test_center_peaks(self):
        p = blowup_center()
        assert p.rho0(0.5, 0.5) == 1000.0
        assert p.c0(0.5, 0.5) == 500.0

    def test_corner_initial_concentration_vanishes(self):
        p = blowup_corner()
        assert p.rho0(0.15, 0.15) == 1000.0
        xs = np.linspace(-0.5, 0.5, 7)
        assert np.all(p.c0(xs[:, None], xs[None, :]) == 0.0)
        assert np.all(p.c0_xx(xs[:, None], xs[None, :]) == 0.0)

    def test_second_derivatives_match_fd(self):
        p = global_existence()
        for x, y in ((0.3, 0.6), (0.5, 0.5), (0.9, 0.1)):
            fd_xx = (p.c0(x + H, y) - 2 * p.c0(x, y) + p.c0(x - H, y)) / H**2
            fd_yy = (p.c0(x, y + H) - 2 * p.c0(x, y) + p.c0(x, y - H)) / H**2
            assert abs(p.c0_xx(x, y) - fd_xx) <= 1e-6 * max(1.0, abs(fd_xx))
            assert abs(p.c0_yy(x, y) - fd_yy) <= 1e-6 * max(1.0, abs(fd_yy))


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("nope")

    def test_all_builtins_resolve(self):
        for name in ("mms_accuracy", "global_existence", "blowup_supercritical",
                     "blowup_center", "blowup_corner"):
            assert get_problem(name).name == name

    def test_exact_requires_forcing(self):
        zero = lambda x, y: 0.0 * x * y
        ex = ExactSolution(rho=lambda x, y, t: 0.0, c=lambda x, y, t: 0.0,
                           c_x=lambda x, y, t: 0.0, c_y=lambda x, y, t: 0.0)
        with pytest.raises(ValueError, match="forcing"):
            ProblemSpec(name="bad", domain=(0, 1, 0, 1), lam=1.0, rho0=zero, c0=zero,
                        c0_xx=zero, c0_yy=zero, exact=ex, forcing=None)

    def test_positive_sensitivity_required(self):
        # and finite: the problem is the one owner of lam
        zero = lambda x, y: 0.0 * x * y
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^chemotactic sensitivity lam must be "
                               "positive and finite$"):
                ProblemSpec(name="bad", domain=(0, 1, 0, 1), lam=lam, rho0=zero, c0=zero,
                            c0_xx=zero, c0_yy=zero)
