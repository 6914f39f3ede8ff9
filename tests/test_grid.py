import numpy as np
import pytest

from ksbcfd.grid import (
    axis_from_primal,
    axis_subseeds,
    build_corner_refined,
    build_middle_refined,
    build_random_perturbed,
    build_uniform,
    make_grid,
    remap_axis,
)


def check_axis_invariants(axis):
    assert np.all(np.diff(axis.primal) > 0)
    assert axis.primal[0] == axis.lo and axis.primal[-1] == axis.hi
    # derived arrays recomputed from primal points match bit-for-bit
    assert np.array_equal(axis.centers, (axis.primal[:-1] + axis.primal[1:]) / 2.0)
    assert np.array_equal(axis.cell_widths, np.diff(axis.primal))
    assert np.array_equal(axis.dual_widths, (axis.cell_widths[:-1] + axis.cell_widths[1:]) / 2.0)
    assert abs(axis.cell_widths.sum() - (axis.hi - axis.lo)) <= 1e-13 * (axis.hi - axis.lo)


class TestUniform:
    def test_quarter_partition(self):
        ax = build_uniform(0.0, 1.0, 4)
        assert np.array_equal(ax.primal, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(ax.centers, [0.125, 0.375, 0.625, 0.875])
        check_axis_invariants(ax)

    def test_tenth_widths(self):
        ax = build_uniform(0.0, 1.0, 10)
        assert np.allclose(ax.cell_widths, 0.1, rtol=1e-15, atol=0.0)

    def test_two_cells_symmetric(self):
        ax = build_uniform(-1.0, 1.0, 2)
        assert np.array_equal(ax.centers, [-0.5, 0.5])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_uniform(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            build_uniform(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            build_uniform(2.0, 1.0, 4)


class TestRandomPerturbed:
    def test_zero_beta_matches_uniform(self):
        for seed in (0, 1, 99):
            ax = build_random_perturbed(0.0, 1.0, 12, 0.0, seed)
            assert np.array_equal(ax.primal, build_uniform(0.0, 1.0, 12).primal)

    def test_perturbation_bound(self):
        ax = build_random_perturbed(0.0, 1.0, 20, 0.2, 42)
        uniform = build_uniform(0.0, 1.0, 20)
        assert np.all(np.abs(ax.primal[1:-1] - uniform.primal[1:-1]) <= 0.2 * 0.05)
        assert ax.primal[0] == 0.0 and ax.primal[-1] == 1.0
        check_axis_invariants(ax)

    def test_invariants_near_limit_beta_over_seeds(self):
        # exhaustive invariant check just below the monotonicity bound
        for seed in range(100):
            check_axis_invariants(build_random_perturbed(0.0, 1.0, 40, 0.5 - 1e-9, seed))

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            build_random_perturbed(0, 1, 10, 0.5, 0)
        with pytest.raises(ValueError):
            build_random_perturbed(0, 1, 10, -0.01, 0)

    def test_bit_reproducible(self):
        a = build_random_perturbed(0.0, 2.0, 33, 0.3, 123456789)
        b = build_random_perturbed(0.0, 2.0, 33, 0.3, 123456789)
        assert np.array_equal(a.primal, b.primal)

    def test_subseeds_deterministic_and_distinct(self):
        assert axis_subseeds(7) == axis_subseeds(7)
        sx, sy = axis_subseeds(7)
        assert sx != sy


class TestMiddleRefined:
    def test_small_case(self):
        ax = build_middle_refined(4)
        assert 0.5 in ax.primal
        k = int(np.where(ax.primal == 0.5)[0][0])
        # smallest spacings sit on either side of 0.5
        w = ax.cell_widths
        assert w[k - 1] == w.min() and w[k] == w.min()
        assert ax.n_cells == 6  # nominal n plus the two formula endpoints
        check_axis_invariants(ax)

    def test_symmetry(self):
        ax = build_middle_refined(8)
        p = ax.primal
        assert np.all(np.abs(p + p[::-1] - 1.0) <= 1e-15)

    def test_exact_endpoints_and_clustering(self):
        ax = build_middle_refined(40)
        assert ax.primal[0] == 0.0 and ax.primal[-1] == 1.0
        w = ax.cell_widths
        mid = ax.n_cells // 2
        # widths grow monotonically away from the center
        assert np.all(np.diff(w[mid:]) >= 0)
        assert np.all(np.diff(w[:mid]) <= 0)
        check_axis_invariants(ax)

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            build_middle_refined(7)
        with pytest.raises(ValueError):
            build_middle_refined(2)


class TestCornerRefined:
    def test_two_cells_exact(self):
        ax = build_corner_refined(2)
        expected = [-0.5, 0.5 - 0.5**1.5, 0.5]
        assert np.allclose(ax.primal, expected, rtol=0, atol=1e-16)

    def test_exact_endpoints(self):
        for n in (2, 5, 17, 40):
            ax = build_corner_refined(n)
            assert ax.primal[0] == -0.5 and ax.primal[-1] == 0.5
            check_axis_invariants(ax)

    def test_clustered_toward_upper_end(self):
        ax = build_corner_refined(40)
        w = ax.cell_widths
        assert np.all(np.diff(w) < 0)  # monotone shrinking toward +0.5
        assert w[-1] == w.min()


def test_remap_axis_affine():
    ax = remap_axis(build_corner_refined(10), 0.0, 2.0)
    assert ax.lo == 0.0 and ax.hi == 2.0
    check_axis_invariants(ax)


def test_axes_are_immutable():
    ax = build_uniform(0, 1, 4)
    with pytest.raises(ValueError):
        ax.primal[0] = 5.0


def test_axis_from_primal_rejects_nonmonotone():
    with pytest.raises(ValueError, match="strictly increasing"):
        axis_from_primal([0.0, 0.5, 0.5, 1.0], 0.0, 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        axis_from_primal([0.0, 0.7, 0.4, 1.0], 0.0, 1.0)


def test_geometry_that_overflows_is_rejected():
    # finite points whose length, cell centers or cell areas exceed float64
    with pytest.raises(ValueError, match="axis length must be finite"):
        axis_from_primal([-1e308, 0.0, 1e308], -1e308, 1e308)
    with pytest.raises(ValueError, match="cell centers and dual widths must be finite"):
        axis_from_primal([1e308, 1.5e308, 1.7e308], 1e308, 1.7e308)
    wide = axis_from_primal([0.0, 1e200, 2e200], 0.0, 2e200)
    with pytest.raises(ValueError, match="cell areas must be finite"):
        make_grid(wide, wide)
