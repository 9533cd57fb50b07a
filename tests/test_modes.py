"""Mode grids, cell-integrated couplings, self-energy sums."""

import itertools
import math

import numpy as np
import pytest

from polaronlab import (
    CapacityError,
    CutoffSchedule,
    ModeGrid,
    build_grid,
)
from polaronlab import modes
from polaronlab.modes import _cell_couplings, _norm2
from naive_ref import (
    naive_cell_couplings,
    naive_couplings,
    naive_grid_arrays,
    naive_within_mask,
    riemann_selfenergy_sum,
)

# Coupling of the six nearest modes on the (delta=1, Lambda=1) grid, frozen
# from brute-force quadrature of the cell mass plus the origin-cell share.
NEAREST_COUPLING_11 = 0.12143436769756921

# Discrete self-energy sums, frozen from the same quadrature route.
SELF_ENERGY_11 = 0.044238916974325325
SELF_ENERGY_QUARTER_8 = 0.11390922529976795


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


def _assert_same_bits(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert np.array_equal(got, want), name


# the plain row-wise expressions of naive_ref, on any numpy: no version skip
@pytest.mark.parametrize("delta,lam", [(0.4, 8.0), (0.4, 16.0), (0.75, 3.0), (1.0, 2.5)])
def test_grid_kernels_match_plain_expressions(delta, lam):
    grid = build_grid(delta, lam)
    units, modes, couplings, k2 = naive_grid_arrays(delta, lam)
    _assert_same_bits(grid.units, units, "units")
    _assert_same_bits(grid.modes, modes, "modes")
    _assert_same_bits(grid.couplings, couplings, "couplings")
    _assert_same_bits(_norm2(grid.modes), k2, "_norm2")
    for cut in (0.5 * lam, 0.7 * lam, 0.9 * lam):
        keep = naive_within_mask(grid, cut)
        sub = grid.within(cut)
        assert keep.any() and not keep.all()
        _assert_same_bits(sub.units, grid.units[keep], "within units")
        _assert_same_bits(sub.couplings, grid.couplings[keep], "within couplings")


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
    k2max = _norm2(grid.modes).max()
    # the float product overshoots Lambda^2, which is why membership is
    # decided on integers; ModeGrid.manual's tolerance absorbs the overshoot
    assert k2max > grid.cutoff**2
    assert k2max <= grid.cutoff**2 * (1.0 + 1e-12)


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


NON_FINITE = [math.nan, math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["delta", "Lambda"])
def test_build_grid_rejects_non_finite(name, bad):
    args = {"delta": 1.0, "Lambda": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        build_grid(args["delta"], args["Lambda"])


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["spacing", "cutoff", "coupling"])
def test_manual_grid_rejects_non_finite(name, bad):
    args = {"spacing": 1.0, "cutoff": 1.0, "coupling": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"{name}.* must be .*finite"):
        ModeGrid.manual(args["spacing"], args["cutoff"], [[0, 0, 1]], [args["coupling"]])


def test_build_grid_capacity(monkeypatch):
    monkeypatch.setattr(modes, "GRID_CAPACITY", 100)
    with pytest.raises(CapacityError, match="mode lattice span 201"):
        build_grid(0.01, 1.0)
    with pytest.raises(CapacityError, match="mode count 122"):
        build_grid(1.0, 3.0)
    # the threshold is the mode count exactly, the origin not counted
    monkeypatch.setattr(modes, "GRID_CAPACITY", 122)
    assert len(build_grid(1.0, 3.0)) == 122
    monkeypatch.setattr(modes, "GRID_CAPACITY", 121)
    with pytest.raises(CapacityError):
        build_grid(1.0, 3.0)


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


@pytest.mark.parametrize("delta,lam,cuts", [
    (1.0, 1.5, (1.0,)),
    (0.4, 2.0, (1.0, 1.6)),  # |k| = Lambda boundary modes, whose k^2 overshoots
    (0.75, 3.0, (1.5, 2.25)),
    (0.4, 8.0, (4.0, 6.0)),
    (0.5, 0.4, ()),  # empty
])
def test_manual_accepts_every_built_grid_bitwise(delta, lam, cuts):
    # build_grid and within skip manual's per-mode checks; their grids pass them
    built = build_grid(delta, lam)
    for g in [built] + [built.within(c) for c in cuts]:
        m = ModeGrid.manual(g.spacing, g.cutoff, g.units, g.couplings)
        assert (m.spacing, m.cutoff) == (g.spacing, g.cutoff)
        for name in ("units", "modes", "couplings"):
            x, y = getattr(m, name), getattr(g, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


def test_cutoff_schedule_validation():
    sched = CutoffSchedule(lambdas=(4, 6, 8), delta=0.5, n_max=2)
    assert sched.lambdas == (4.0, 6.0, 8.0)
    with pytest.raises(ValueError):
        CutoffSchedule(lambdas=(4, 4, 8), delta=0.5, n_max=2)
    with pytest.raises(ValueError):
        CutoffSchedule(lambdas=(), delta=0.5, n_max=2)
    # the inverse-cutoff fit has two parameters
    with pytest.raises(ValueError, match="at least three cutoffs"):
        CutoffSchedule(lambdas=(4, 6), delta=0.5, n_max=2)
    with pytest.raises(ValueError, match="delta"):
        CutoffSchedule(lambdas=(4, 6, 8), delta=0.0, n_max=2)
    with pytest.raises(ValueError, match="N_max"):
        CutoffSchedule(lambdas=(4, 6, 8), delta=0.5, n_max=-1)
    with pytest.raises(ValueError, match="positive"):
        CutoffSchedule(lambdas=(-1, 6, 8), delta=0.5, n_max=2)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["delta", "cutoffs"])
def test_cutoff_schedule_rejects_non_finite(name, bad):
    lambdas, delta = ((4, bad, 8), 0.5) if name == "cutoffs" else ((4, 6, 8), bad)
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        CutoffSchedule(lambdas=lambdas, delta=delta, n_max=2)


def _axis_map(units, perm, signs):
    """The _UnitLookup map of the one signed axis permutation x -> signs * x[perm], or None."""
    which = (modes._PERMS == perm).all(axis=1) & (modes._SIGNS == signs).all(axis=1)
    assert which.sum() == 1
    idx, ok = modes._UnitLookup(np.asarray(units, dtype=np.int64).reshape(-1, 3)).maps(which)
    return idx[0] if ok[0] else None


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
    assert _axis_map([[0, 0, 1], [0, 1, 0]], *swap_xz) is None
    assert _axis_map([[0, 0, 1], [0, 0, 1], [1, 0, 0]], *swap_xz) is None
    assert _axis_map(np.zeros((0, 3)), *swap_xz).size == 0


def test_stabilizer_orbits_of_the_wedge_corners_on_the_desk_grid():
    # C4v, C2v and C3v at the corners e_z, (0,1,1) and (1,1,1), O_h at 0
    grid = build_grid(0.75, 3.0)
    for p, order, k in (((0, 0, 0), 48, 15), ((0, 0, 1), 8, 55), ((0, 1, 1), 4, 85),
                        ((1, 1, 1), 6, 60), ((0, 0, -2.5), 8, 55)):
        stabilizer = modes._elements_taking(p, p)
        assert len(stabilizer) == order
        labels = modes._stabilizer_orbits(grid, p)
        assert len(np.unique(labels)) == k
        for label in np.unique(labels):
            orbit = np.flatnonzero(labels == label)
            assert orbit[0] == label  # each orbit is named by its least mode
            assert np.array_equal(grid.couplings[orbit], np.full(len(orbit), grid.couplings[label]))
            # the orbit is the set of images of its least mode
            images = {tuple(s * grid.units[label][list(q)])
                      for q, s in zip(modes._PERMS[stabilizer], modes._SIGNS[stabilizer])}
            assert images == set(map(tuple, grid.units[orbit]))
    assert modes._stabilizer_orbits(grid, (0.3, 0.7, 1.1)) is None


def test_stabilizer_orbits_need_a_closed_grid_with_equal_couplings():
    grid = build_grid(1.0, 2.0)
    assert modes._stabilizer_orbits(grid, (0, 0, 1)) is not None
    # one mode dropped: the grid is not closed under C4v
    keep = np.arange(1, len(grid))
    assert modes._stabilizer_orbits(
        ModeGrid.manual(1.0, 2.0, grid.units[keep], grid.couplings[keep]), (0, 0, 1)) is None
    # one coupling an ulp off
    g = grid.couplings.copy()
    g[0] = np.nextafter(g[0], 1.0)
    assert modes._stabilizer_orbits(ModeGrid.manual(1.0, 2.0, grid.units, g), (0, 0, 1)) is None
    # modes on the z axis only: every orbit is one mode, so the action is trivial
    axis = ModeGrid.manual(1.0, 2.0, [[0, 0, 1], [0, 0, 2]], [0.1, 0.2])
    assert modes._stabilizer_orbits(axis, (0, 0, 1)) is None
    assert modes._stabilizer_orbits(build_grid(1.0, 0.5), (0, 0, 0)) is None  # no modes


def test_symmetry_maps_share_one_sorted_code_table(monkeypatch):
    made = []
    lookup = modes._UnitLookup

    def counted(units):
        made.append(len(units))
        return lookup(units)

    monkeypatch.setattr(modes, "_UnitLookup", counted)
    grid = build_grid(1.0, 2.0)
    for p in ((0, 0, 0), (0, 0, 1), (1, 1, 1)):
        modes._stabilizer_orbits(grid, p)
    idx, ok = modes._symmetry_maps(grid, np.arange(48))
    assert made == [len(grid)] and ok.all()
    for e, row in enumerate(idx):
        assert np.array_equal(grid.units[row], modes._SIGNS[e] * grid.units[:, modes._PERMS[e]])


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
