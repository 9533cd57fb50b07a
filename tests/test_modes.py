"""Mode grids, cell-integrated couplings, tail integral, self-energy sums."""

import itertools
import math

import numpy as np
import pytest

from polaronlab import (
    CapacityError,
    CutoffSchedule,
    ModeGrid,
    build_grid,
    form_factor,
    riemann_selfenergy_sum,
    tail_integral,
)
from polaronlab.modes import _axis_map, _cell_couplings
from naive_ref import naive_cell_couplings, naive_couplings

# Coupling of the six nearest modes on the (delta=1, Lambda=1) grid, frozen
# from brute-force quadrature of the cell mass plus the origin-cell share.
NEAREST_COUPLING_11 = 0.12143436769756921

# Discrete self-energy sums, frozen from the same quadrature route.
SELF_ENERGY_11 = 0.044238916974325325
SELF_ENERGY_QUARTER_8 = 0.11390922529976795


def test_form_factor_values():
    assert form_factor([1.0, 0.0, 0.0]) == 1.0 / (4.0 * math.pi)
    assert form_factor([0.0, 3.0, 4.0]) == 1.0 / (20.0 * math.pi)


def test_form_factor_rotation_and_scaling():
    # permuting components preserves the norm exactly
    assert form_factor([3.0, 4.0, 0.0]) == form_factor([0.0, 4.0, 3.0])
    # halving under k -> 2k is exact in floating point
    assert form_factor([2.0, 0.0, 0.0]) == form_factor([1.0, 0.0, 0.0]) / 2.0


def test_form_factor_singular_at_origin():
    with pytest.raises(ValueError):
        form_factor([0.0, 0.0, 0.0])


def test_unit_ball_grid():
    grid = build_grid(1.0, 1.0)
    assert len(grid) == 6
    expected = {
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0),
    }
    assert {tuple(u) for u in grid.units} == expected
    vals = np.unique(grid.couplings)
    assert vals.shape == (1,)
    assert vals[0] == pytest.approx(NEAREST_COUPLING_11, rel=1e-13)
    np.testing.assert_array_equal(grid.modes, grid.units.astype(float))


def test_eighteen_mode_grid():
    grid = build_grid(1.0, 1.5)
    assert len(grid) == 18
    n2 = (grid.units * grid.units).sum(axis=1)
    assert sorted(np.unique(n2)) == [1, 2]
    assert int((n2 == 1).sum()) == 6
    assert int((n2 == 2).sum()) == 12
    # couplings are exactly constant on each orbit
    for shell in (1, 2):
        assert np.unique(grid.couplings[n2 == shell]).shape == (1,)
    # the nearest-shell coupling differs from its Lambda=1 value only through
    # the cutoff, not through the cell masses, so it is bit-identical
    assert np.unique(grid.couplings[n2 == 1])[0] == pytest.approx(
        NEAREST_COUPLING_11, rel=1e-13
    )


def test_empty_grid_is_legal():
    grid = build_grid(0.5, 0.4)
    assert grid.is_empty
    assert len(grid) == 0
    with pytest.raises(ValueError):
        riemann_selfenergy_sum(grid)


def test_lexicographic_mode_order():
    for delta, lam in ((1.0, 1.0), (1.0, 1.5), (0.75, 3.0), (0.4, 8.0)):
        units = [tuple(u) for u in build_grid(delta, lam).units]
        assert all(a < b for a, b in zip(units, units[1:]))


@pytest.mark.parametrize(
    "delta,units",
    [(1.0, build_grid(1.0, 1.5).units),
     (0.75, build_grid(0.75, 3.0).units),
     (0.4, build_grid(0.4, 8.0).units),
     # asymmetric, unsorted, orbits split across signs and permutations
     (0.5, np.array([[0, 0, 1], [2, -1, 0], [0, 1, 2], [-3, 1, 1], [1, 1, 1],
                     [0, 0, -2], [1, -2, 0], [5, 0, 0]], dtype=np.int64)),
     (1.0, np.zeros((0, 3), dtype=np.int64))],
)
def test_cell_couplings_match_row_unique_reference(delta, units):
    np.testing.assert_array_equal(
        _cell_couplings(units, delta), naive_cell_couplings(units, delta)
    )


def test_full_octahedral_orbit_has_equal_couplings():
    grid = build_grid(0.5, 1.9)
    key = np.sort(np.abs(grid.units), axis=1)
    orbit = (key == np.array([1, 2, 3])).all(axis=1)
    assert int(orbit.sum()) == 48
    assert np.unique(grid.couplings[orbit]).shape == (1,)
    # every orbit, not just the generic one, is exactly degenerate
    for rep in np.unique(key, axis=0):
        sel = (key == rep).all(axis=1)
        assert np.unique(grid.couplings[sel]).shape == (1,)


def test_couplings_stable_under_cutoff_growth():
    small = build_grid(1.0, 1.0)
    big = build_grid(1.0, 2.0)
    table = {tuple(u): g for u, g in zip(big.units, big.couplings)}
    for u, g in zip(small.units, small.couplings):
        assert table[tuple(u)] == g  # bit-identical, not merely close


def test_boundary_modes_included_exactly():
    # (Lambda/delta)^2 = 25 exactly; |k| = Lambda modes must survive rounding
    grid = build_grid(0.4, 2.0)
    units = {tuple(u) for u in grid.units}
    assert (0, 0, 5) in units
    assert (3, 4, 0) in units
    n2 = (grid.units * grid.units).sum(axis=1)
    assert int((n2 == 25).sum()) == 30
    k2max = grid.k_squared().max()
    # the float product overshoots Lambda^2, which is why membership is
    # decided on integers; the constructor's tolerance absorbs the overshoot
    assert k2max > grid.cutoff**2
    assert k2max <= grid.cutoff**2 * (1.0 + 1e-12)


def test_tail_integral_closed_forms():
    assert tail_integral(0.0) == 2.0 * math.pi**2
    assert tail_integral(1.0) == math.pi**2
    assert tail_integral(1e8) < 2e-7


def test_tail_integral_decreasing_and_bounded():
    lams = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    vals = [tail_integral(x) for x in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    for lam in lams[2:]:
        assert tail_integral(lam) <= 4.0 * math.pi / lam
    with pytest.raises(ValueError):
        tail_integral(-0.5)


def test_selfenergy_sum_frozen_values():
    s = riemann_selfenergy_sum(build_grid(1.0, 1.0))
    assert s == pytest.approx(SELF_ENERGY_11, rel=1e-13)
    # six modes at |k| = 1 with one shared coupling: the sum collapses
    assert s == pytest.approx(3.0 * NEAREST_COUPLING_11**2, rel=1e-13)

    fine = riemann_selfenergy_sum(build_grid(0.25, 8.0))
    assert fine == pytest.approx(SELF_ENERGY_QUARTER_8, rel=1e-12)
    # within 10% of the continuum limit 1/8
    assert abs(fine - 0.125) <= 0.1 * 0.125


def test_selfenergy_sum_manual_grid():
    grid = ModeGrid.manual(1.0, 1.0, [[0, 0, 1]], [1.0 / (4.0 * math.pi)])
    assert riemann_selfenergy_sum(grid) == (1.0 / (4.0 * math.pi)) ** 2 / 2.0


@pytest.mark.parametrize("delta,lam", [(1.0, 1.0), (1.0, 1.5), (0.5, 2.0)])
def test_couplings_match_brute_quadrature(delta, lam):
    grid = build_grid(delta, lam)
    units, gs = naive_couplings(delta, lam)
    assert [tuple(u) for u in grid.units] == units
    np.testing.assert_allclose(grid.couplings, gs, rtol=1e-10)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(1.0, -2.0)


def test_build_grid_capacity():
    with pytest.raises(CapacityError):
        build_grid(0.01, 1.0, capacity=100)
    with pytest.raises(CapacityError):
        build_grid(1.0, 3.0, capacity=30)  # 122 modes


def test_manual_grid_validation():
    with pytest.raises(ValueError):
        ModeGrid.manual(1.0, 1.0, [[0, 0, 0]], [1.0])
    with pytest.raises(ValueError):
        ModeGrid.manual(1.0, 1.0, [[0, 0, 1]], [0.0])
    with pytest.raises(ValueError):
        ModeGrid.manual(1.0, 1.0, [[0, 0, 2]], [1.0])
    with pytest.raises(ValueError):
        ModeGrid.manual(1.0, 1.0, [[0, 0, 1], [0, 1, 0]], [1.0])
    with pytest.raises(ValueError):
        ModeGrid.manual(-1.0, 1.0, [[0, 0, 1]], [1.0])
    with pytest.raises(ValueError):
        ModeGrid.manual(1.0, 0.0, [[0, 0, 1]], [1.0])


def test_cutoff_schedule_validation():
    sched = CutoffSchedule(lambdas=(4, 6, 8), delta=0.5, n_max=2)
    assert sched.lambdas == (4.0, 6.0, 8.0)
    with pytest.raises(ValueError):
        CutoffSchedule(lambdas=(4, 4, 8), delta=0.5, n_max=2)
    with pytest.raises(ValueError):
        CutoffSchedule(lambdas=(), delta=0.5, n_max=2)
    with pytest.raises(ValueError):
        CutoffSchedule(lambdas=(4, 6), delta=0.0, n_max=2)
    with pytest.raises(ValueError):
        CutoffSchedule(lambdas=(4, 6), delta=0.5, n_max=-1)
    with pytest.raises(ValueError):
        CutoffSchedule(lambdas=(-1, 6), delta=0.5, n_max=2)


def test_axis_map_is_the_signed_permutation_on_every_mode():
    grid = build_grid(1.0, 2.0)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            idx = _axis_map(grid.units, perm, signs)
            assert np.array_equal(np.sort(idx), np.arange(len(grid)))
            assert np.array_equal(grid.units[idx], np.multiply(signs, grid.units[:, list(perm)]))
            assert np.array_equal(grid.couplings[idx], grid.couplings)


def test_axis_map_refuses_missing_images_and_repeated_modes():
    swap_xz = ((2, 1, 0), (1, 1, 1))
    assert _axis_map(np.array([[0, 0, 1], [0, 1, 0]]), *swap_xz) is None
    assert _axis_map(np.array([[0, 0, 1], [0, 0, 1], [1, 0, 0]]), *swap_xz) is None
    assert _axis_map(np.zeros((0, 3), dtype=np.int64), *swap_xz).size == 0


@pytest.mark.parametrize("delta,lambdas", [
    (0.4, (4.0, 6.0, 8.0)),  # the quick.cfg extrapolation schedule
    (0.4, (4.0, 8.0, 12.0, 16.0)),  # the desk.cfg one
    (0.5, (1.0, 2.0, 3.0)),
    (1.0, (1.0, 1.5, 2.5)),
])
def test_within_is_bitwise_the_smaller_grid(delta, lambdas):
    largest = build_grid(delta, lambdas[-1])
    for lam in lambdas:
        got, want = largest.within(lam), build_grid(delta, lam)
        assert (got.spacing, got.cutoff) == (want.spacing, want.cutoff)
        for name in ("units", "modes", "couplings"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


def test_within_rejects_cutoffs_outside_the_grid():
    grid = build_grid(1.0, 2.0)
    assert grid.within(0.5).is_empty
    for lam in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            grid.within(lam)
