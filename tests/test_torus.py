"""Momentum-block torus model, degeneracy dichotomy, periodized kernel."""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg

import polaronlab.torus
from polaronlab import (
    CapacityError,
    ConvergenceError,
    FiberFamily,
    ModeGrid,
    TorusConfig,
    TorusModel,
    TorusReport,
    assemble_torus,
    build_grid,
    contradiction_check,
    degeneracy_analysis,
    lattice_fibers,
    lowest_eigenpairs,
    modes,
    periodized_yukawa,
    yukawa_converged,
)
from polaronlab import operators, solve
from polaronlab.operators import _certified_ground, _pair_count
from polaronlab.solve import count_below
from polaronlab.torus import _orbit_sources
from naive_ref import conjugate_csr, state_map

TWO_PI = 2.0 * math.pi

# quick coupled instance (ell = 2 pi, alpha = 1, delta = 1, Lambda = 2,
# N_max = 2, fiber cutoff 1): frozen ground and first-excited-fiber energies
QUICK_GROUND = -0.06400812614047786
QUICK_E_UNIT = 0.8134782090472137


def _quick_config(**kw):
    base = dict(
        ell=TWO_PI, alpha=1.0, delta=1.0, cutoff=2.0, n_max=2, fiber_cutoff=1.0
    )
    base.update(kw)
    return TorusConfig(**base)


def test_lattice_fibers_unit_ball():
    fibers = lattice_fibers(_quick_config())
    assert fibers.shape == (7, 3)
    as_tuples = [tuple(f) for f in fibers]
    assert (0.0, 0.0, 0.0) in as_tuples
    assert as_tuples == sorted(as_tuples)
    norms = sorted(float(np.linalg.norm(f)) for f in fibers)
    assert norms == pytest.approx([0.0] + [1.0] * 6)


def test_lattice_fibers_boundary_is_integer_exact():
    # |n|^2 = 2 points sit exactly on the cutoff sqrt(2) and must be kept
    fibers = lattice_fibers(_quick_config(fiber_cutoff=math.sqrt(2.0)))
    assert fibers.shape == (19, 3)
    # just below the boundary the shell drops out
    assert lattice_fibers(_quick_config(fiber_cutoff=1.41)).shape == (7, 3)


@pytest.mark.parametrize("fiber_cutoff", [1.0, math.sqrt(2.0)])
def test_lattice_fibers_strictly_lexicographic(fiber_cutoff):
    fibers = [tuple(f) for f in lattice_fibers(_quick_config(fiber_cutoff=fiber_cutoff))]
    assert all(a < b for a, b in zip(fibers, fibers[1:]))


def test_lattice_fibers_singleton():
    # dual spacing 2 pi exceeds the cutoff: only the zero fiber remains
    fibers = lattice_fibers(TorusConfig(ell=1.0, alpha=0.0, delta=1.0, cutoff=1.0, n_max=1, fiber_cutoff=3.0))
    np.testing.assert_array_equal(fibers, np.zeros((1, 3)))


def test_explicit_fibers_sorted_and_validated():
    cfg = _quick_config(fibers=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)))
    np.testing.assert_array_equal(
        lattice_fibers(cfg), [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]
    )
    with pytest.raises(ValueError):
        _quick_config(fibers=((0.0, 0.0, 1.0),))  # not closed under P -> -P
    with pytest.raises(ValueError):
        _quick_config(fibers=())
    with pytest.raises(ValueError):
        _quick_config(fibers=((0.0, 1.0),))
    # a repeated block would count twice toward the multiplicity; -0.0 == 0.0
    for fibers in (((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)),
                   ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0))):
        with pytest.raises(ValueError, match=r"repeats momentum \(0\.0, 0\.0, "):
            _quick_config(fibers=fibers)


def test_config_validation():
    with pytest.raises(ValueError):
        _quick_config(ell=0.0)
    with pytest.raises(ValueError):
        _quick_config(alpha=-0.5)
    with pytest.raises(ValueError):
        _quick_config(fiber_cutoff=0.0)
    with pytest.raises(ValueError):
        _quick_config(degeneracy_tol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["ell", "alpha", "delta", "cutoff", "fiber_cutoff",
                                  "degeneracy_tol"])
def test_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        _quick_config(**{name: bad})


def test_lattice_budget_is_checked_before_the_meshgrid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a lattice above the budget was allocated")

    # a budget of 100 points allows a span of max(8 * 100, 1000) = 1000
    monkeypatch.setattr(modes, "GRID_CAPACITY", 100)
    monkeypatch.setattr(np, "meshgrid", forbidden)
    with pytest.raises(CapacityError, match=r"mode lattice span 11\^3"):
        build_grid(1.0, 5.0)
    with pytest.raises(CapacityError, match=r"fiber lattice span 27\^3"):
        lattice_fibers(_quick_config(fiber_cutoff=13.0))
    with pytest.raises(CapacityError, match=r"image lattice span 13\^3"):
        periodized_yukawa((0.3, 0.0, 0.0), (0.0, 0.0, 0.0), ell=2.0, image_cut=6)


def test_fiber_count_is_held_to_the_lattice_budget(monkeypatch):
    cfg = _quick_config(fiber_cutoff=math.sqrt(2.0))  # 19 fibers
    monkeypatch.setattr(modes, "GRID_CAPACITY", 19)
    assert lattice_fibers(cfg).shape == (19, 3)
    monkeypatch.setattr(modes, "GRID_CAPACITY", 18)
    with pytest.raises(CapacityError, match="fiber count 19"):
        lattice_fibers(cfg)


def test_assemble_torus_has_no_fibers_times_dimension_cap(monkeypatch):
    # 9,171 fibers x 561 states is about 5.14M states, yet at most one
    # family of 561 states is ever built, on first use; no block is solved
    families = []
    family = polaronlab.torus.FiberFamily

    def counted(*args):
        families.append(args)
        return family(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("assemble_torus solved a block")

    monkeypatch.setattr(polaronlab.torus, "FiberFamily", counted)
    for name in ("lowest_eigenpairs", "count_below", "_pair_count", "_window_count",
                 "_certified_ground"):
        monkeypatch.setattr(polaronlab.torus, name, forbidden)
    model = assemble_torus(_quick_config(fiber_cutoff=13.0))
    assert model.fibers.shape == (9171, 3)
    assert families == []
    assert model.basis.dimension == 561
    assert len(model.fibers) * model.basis.dimension > 5_000_000
    assert model.family is model.family
    assert len(families) == 1


def test_block_spectra_union():
    # the torus operator is the direct sum of its momentum blocks, so its
    # spectrum is the sorted union of the block spectra
    model = assemble_torus(_quick_config(cutoff=1.5, n_max=1))
    dense_blocks = [model.family.fiber(p).to_dense() for p in model.fibers]
    union = np.sort(np.concatenate([np.linalg.eigvalsh(d) for d in dense_blocks]))
    full = np.linalg.eigvalsh(scipy.linalg.block_diag(*dense_blocks))
    np.testing.assert_allclose(union, full, atol=1e-10)
    rep = degeneracy_analysis(model)
    assert rep.ground_energy == pytest.approx(float(union[0]), abs=1e-8)


def test_decoupled_torus_minimum_is_simple():
    model = assemble_torus(_quick_config(alpha=0.0, cutoff=1.5, n_max=2))
    rep = degeneracy_analysis(model)
    assert rep.ground_energy == pytest.approx(0.0, abs=1e-9)
    assert rep.argmin == ((0.0, 0.0, 0.0),)
    assert rep.multiplicity == 1
    branch, consistent = contradiction_check(rep)
    assert branch == "simple-zero-minimum"
    assert consistent


def test_coupled_quick_report_frozen():
    model = assemble_torus(_quick_config())
    rep = degeneracy_analysis(model)
    assert rep.ground_energy == pytest.approx(QUICK_GROUND, rel=1e-9)
    assert rep.argmin == ((0.0, 0.0, 0.0),)
    assert rep.multiplicity == 1
    by_p = dict(rep.fiber_energies)
    assert by_p[(0.0, 0.0, 1.0)] == pytest.approx(QUICK_E_UNIT, rel=1e-9)
    assert len(rep.fiber_energies) == 7
    branch, consistent = contradiction_check(rep)
    assert branch == "simple-zero-minimum"
    assert consistent


def test_restricted_sector_is_exactly_degenerate():
    cfg = _quick_config(fibers=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)))
    rep = degeneracy_analysis(assemble_torus(cfg))
    energies = [e for _, e in rep.fiber_energies]
    assert abs(energies[0] - energies[1]) <= 1e-10
    assert energies[0] == pytest.approx(QUICK_E_UNIT, rel=1e-9)
    assert rep.multiplicity >= 2
    assert len(rep.argmin) == 2
    branch, consistent = contradiction_check(rep)
    assert branch == "degenerate-minimum"
    assert consistent


def test_degeneracy_analysis_threads_deterministic():
    # the restricted +-q pair sends both fibers through the second-level pool
    for cfg in (_quick_config(cutoff=1.5, n_max=1),
                _quick_config(cutoff=1.5, n_max=1,
                              fibers=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)))):
        model = assemble_torus(cfg)
        a = degeneracy_analysis(model, threads=1)
        for threads in (2, 4):
            b = degeneracy_analysis(model, threads=threads)
            assert a.fiber_energies == b.fiber_energies
            assert a.ground_energy == b.ground_energy
            assert a.multiplicity == b.multiplicity


def test_n_max_2_report_depends_on_neither_seed_nor_threads():
    # 19 fibers in three O_h orbits, every ground level from the pair route
    model = assemble_torus(_quick_config(fiber_cutoff=math.sqrt(2.0)))
    ref = degeneracy_analysis(model, seed=42, threads=1)
    for seed, threads in ((1, 1), (7, 2), (42, 4), (123, 2)):
        assert degeneracy_analysis(model, seed=seed, threads=threads) == ref
    assert "basis" not in vars(model)


def test_n_max_0_torus_is_the_free_vacuum():
    fibers = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, -0.5), (0.0, 0.0, 1.5),
              (0.0, 0.0, -1.5))
    rep = degeneracy_analysis(assemble_torus(_quick_config(n_max=0, fibers=fibers)))
    assert sorted(e for _, e in rep.fiber_energies) == [0.0, 0.25, 0.25, 2.25, 2.25]
    assert rep.argmin == ((0.0, 0.0, 0.0),) and rep.multiplicity == 1


def test_n_max_1_family_is_built_once_on_the_calling_thread(monkeypatch):
    # the secular root needs no family, the window count does: the count's
    # pool threads must find it built
    built = []
    family = polaronlab.torus.FiberFamily

    def recording(*args):
        built.append(threading.current_thread())
        return family(*args)

    monkeypatch.setattr(polaronlab.torus, "FiberFamily", recording)
    model = assemble_torus(_quick_config(n_max=1, fibers=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))))
    assert degeneracy_analysis(model, threads=2).multiplicity == 2
    assert built == [threading.current_thread()]


@pytest.mark.parametrize("config, builds, multiplicity", [
    # the desk torus: two orbits solved, the window fiber P = 0 counted from
    # the certificate its own solve wrote, with no blocks of its own
    (dict(delta=0.75, cutoff=3.0), 2, 1),
    # a restricted sector whose two fibers are both in the window
    (dict(fibers=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))), 2, 2),
    # the unit ball as an explicit list: seven solves, seven certificates
    (dict(fibers=tuple(map(tuple, lattice_fibers(_quick_config())))), 7, 1),
])
def test_pair_blocks_built_once_per_solved_fiber(monkeypatch, config, builds, multiplicity):
    model = assemble_torus(_quick_config(**config))
    ref = degeneracy_analysis(model, threads=1)
    assert ref.multiplicity == multiplicity
    pair_blocks = polaronlab.operators._pair_blocks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # pool threads switch often while writing their certificates
    try:
        for threads in (1, 2, 4):
            calls = []

            def counted(alpha, grid, p):
                calls.append(tuple(map(float, p)))
                return pair_blocks(alpha, grid, p)

            monkeypatch.setattr(polaronlab.operators, "_pair_blocks", counted)
            assert degeneracy_analysis(model, threads=threads) == ref
            monkeypatch.undo()
            assert len(calls) == len(set(calls)) == builds, threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2])
def test_each_window_is_certified_and_dropped_inside_its_solve(monkeypatch, threads):
    # desk torus to fiber cutoff 2: five orbits pair-solved, each window
    # certified by one _window_count inside the pool task of its solve, so
    # no S(E) outlives that task: a solve starts beside at most the
    # threads - 1 tasks still running, and none is alive when a later pool
    # (phase 2 and the fallbacks) starts
    model = assemble_torus(_quick_config(delta=0.75, cutoff=3.0, fiber_cutoff=2.0))
    torus = polaronlab.torus
    ground, window_count, parallel_map = (torus._certified_ground, torus._window_count,
                                          torus._parallel_map)
    windows_made, events = [], []

    def held():
        gc.collect()
        return sum(ref() is not None for ref in windows_made)

    def tracked(alpha, grid, n_max, p, tol):
        events.append(("solve", held()))
        result, window = ground(alpha, grid, n_max, p, tol)
        windows_made.append(weakref.ref(window.complement))
        return result, window

    def counting(window, e):
        events.append(("count", None))
        return window_count(window, e)

    def pool(fn, items, threads):
        events.append(("pool", held()))
        return parallel_map(fn, items, threads)

    monkeypatch.setattr(torus, "_certified_ground", tracked)
    monkeypatch.setattr(torus, "_window_count", counting)
    monkeypatch.setattr(torus, "_parallel_map", pool)
    rep = degeneracy_analysis(model, threads=threads)
    assert rep.argmin == ((0.0, 0.0, 0.0),) and rep.multiplicity == 1
    assert len(windows_made) == 5 and held() == 0
    pools = [i for i, (what, _) in enumerate(events) if what == "pool"]
    assert len(pools) == 4 and pools[0] == 0  # phase 1, declined, phase 2, fallbacks
    phase_1 = [what for what, _ in events[:pools[1]]]
    assert phase_1.count("solve") == phase_1.count("count") == 5
    assert "count" not in [what for what, _ in events[pools[1]:]]
    assert all(n == 0 for what, n in events if what == "pool")
    solves = [n for what, n in events if what == "solve"]
    assert max(solves) <= threads - 1, solves


def test_desk_torus_window_count_forms_no_second_complement(monkeypatch):
    # the window fiber P = 0 is counted on the S(E) its solve formed: no LDL^T
    # runs, and the full (M + 1)-row complement is formed once per solved
    # fiber, for its bracket (two orbits: P = 0 and the unit momenta)
    model = assemble_torus(_quick_config(delta=0.75, cutoff=3.0))
    formed = []
    schur = operators._pair_schur

    def recording(x, s, d_top, labels=None):
        complement, lift = schur(x, s, d_top, labels)
        if labels is not None:
            return complement, lift
        return (lambda level: formed.append(level) or complement(level)), lift

    def forbidden(*args):
        raise AssertionError("dsytrf called")

    monkeypatch.setattr(operators, "_pair_schur", recording)
    monkeypatch.setattr(solve, "_DSYTRF", forbidden)
    for threads in (1, 2):
        formed.clear()
        rep = degeneracy_analysis(model, threads=threads)
        assert rep.argmin == ((0.0, 0.0, 0.0),) and rep.multiplicity == 1
        assert len(formed) == 2


@pytest.mark.parametrize("n_max", [2.0, -1, True, "2"])
def test_torus_config_rejects_a_bad_n_max_before_any_grid(monkeypatch, n_max):
    def forbidden(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(polaronlab.torus, "build_grid", forbidden)
    with pytest.raises(ValueError, match="n_max must be an int of at least 0"):
        assemble_torus(_quick_config(n_max=n_max))


@pytest.mark.parametrize("threads", [0, -5, 2.0, True])
def test_degeneracy_analysis_rejects_bad_threads_before_solving(monkeypatch, threads):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fiber was solved")

    model = assemble_torus(_quick_config())
    monkeypatch.setattr(polaronlab.torus, "_certified_ground", forbidden)
    with pytest.raises(ValueError, match="threads must be an int of at least 1"):
        degeneracy_analysis(model, threads=threads)


def _record_fibers(monkeypatch):
    """Record every block a FiberFamily makes, as (momentum, block) pairs, and
    every basis the torus module enumerates, without building either."""
    made, bases = [], []
    fiber, enumerate_basis = FiberFamily.fiber, polaronlab.torus.enumerate_basis

    def recording(family, p):
        made.append((tuple(map(float, p)), fiber(family, p)))
        return made[-1][1]

    def enumerating(*args):
        bases.append(args)
        return enumerate_basis(*args)

    monkeypatch.setattr(FiberFamily, "fiber", recording)
    monkeypatch.setattr(polaronlab.torus, "enumerate_basis", enumerating)
    return made, bases


def _requested_levels(monkeypatch, model, count=None, declined=()):
    """Run degeneracy_analysis and return its report and the k asked per fiber.

    A ground level the certified route (_certified_ground) solves counts as
    k = 1, as a LOBPCG solve does.  `count(alpha, grid, p, e)`, when given,
    replaces the N_max = 2 Schur-complement count: the window certificate
    of each pair solve declines and `count` stands for _pair_count.  The route declines the
    momenta in `declined`.  A run that sends no block to LOBPCG enumerates
    no basis.
    """
    calls = []
    made, bases = _record_fibers(monkeypatch)

    def recording(op, k=1, **kw):
        calls.append((next(p for p, b in made if b is op), k))
        return lowest_eigenpairs(op, k=k, **kw)

    def route_recording(alpha, grid, n_max, p, tol):
        p = tuple(map(float, p))
        result, blocks = ((None, None) if p in declined
                          else _certified_ground(alpha, grid, n_max, p, tol))
        if result is not None:
            calls.append((p, 1))
        return result, blocks

    monkeypatch.setattr(polaronlab.torus, "lowest_eigenpairs", recording)
    monkeypatch.setattr(polaronlab.torus, "_certified_ground", route_recording)
    if count is not None:
        monkeypatch.setattr(polaronlab.torus, "_window_count", lambda window, e: None)
        monkeypatch.setattr(polaronlab.torus, "_pair_count", count)
    report = degeneracy_analysis(model)
    monkeypatch.undo()
    if len(made) == 0:
        assert bases == []
    asked = {}
    for p, k in calls:
        asked.setdefault(p, []).append(k)
    return report, asked


def _exhaustive_report(model):
    """Two levels on every fiber, counted the way degeneracy_analysis counts."""
    tol_deg = model.config.degeneracy_tol
    per_fiber = [[r.energy for r in lowest_eigenpairs(model.family.fiber(p), k=2)]
                 for p in model.fibers]
    ground = min(es[0] for es in per_fiber)
    fibers = [tuple(map(float, p)) for p in model.fibers]
    return TorusReport(
        ground_energy=ground,
        argmin=tuple(p for p, es in zip(fibers, per_fiber) if es[0] <= ground + tol_deg),
        multiplicity=sum(e <= ground + tol_deg for es in per_fiber for e in es),
        fiber_energies=tuple((p, es[0]) for p, es in zip(fibers, per_fiber)),
        degeneracy_tol=tol_deg,
    )


def _assert_same_report(rep, ref):
    # a counted fiber keeps its one-level energy, a few 1e-15 from two levels
    assert abs(rep.ground_energy - ref.ground_energy) <= 1e-12
    assert rep.argmin == ref.argmin
    assert rep.multiplicity == ref.multiplicity
    assert [p for p, _ in rep.fiber_energies] == [p for p, _ in ref.fiber_energies]
    for (_, e), (_, e_ref) in zip(rep.fiber_energies, ref.fiber_energies):
        assert abs(e - e_ref) <= 1e-12


def test_second_level_only_inside_minimum_window(monkeypatch):
    # one ground solve per O_h orbit, the first fiber of each in lattice
    # order; the window fiber P = 0 is counted, not solved a second time
    model = assemble_torus(_quick_config())
    rep, asked = _requested_levels(monkeypatch, model)
    assert asked == {(-1.0, 0.0, 0.0): [1], (0.0, 0.0, 0.0): [1]}
    _assert_same_report(rep, _exhaustive_report(model))


def _hand_built_model(couplings):
    """Quick torus over a hand-built grid of the six nearest modes (one mode orbit)."""
    cfg = _quick_config(cutoff=1.0)
    units = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
    grid = ModeGrid.manual(1.0, 1.0, units, couplings)
    return TorusModel(config=cfg, fibers=lattice_fibers(cfg), grid=grid)


def test_equal_couplings_on_a_hand_built_grid_reduce_to_orbits(monkeypatch):
    rep, asked = _requested_levels(monkeypatch, _hand_built_model([0.15] * 6))
    assert asked == {(-1.0, 0.0, 0.0): [1], (0.0, 0.0, 0.0): [1]}


def test_broken_coupling_symmetry_solves_every_fiber(monkeypatch):
    # couplings one ulp apart: no signed axis permutation but the identity
    # keeps them bitwise, so no energy may be copied
    g = [0.15]
    for _ in range(5):
        g.append(float(np.nextafter(g[-1], 1.0)))
    model = _hand_built_model(g)
    assert _orbit_sources(model) == list(range(7))
    rep, asked = _requested_levels(monkeypatch, model)
    assert asked == {p: [1] for p in map(tuple, model.fibers.tolist())}
    _assert_same_report(rep, _exhaustive_report(model))


@pytest.fixture(scope="module")
def desk_torus():
    # 33 fibers x 33,153 states in five O_h orbits
    return assemble_torus(_quick_config(delta=0.75, cutoff=3.0, fiber_cutoff=2.0))


def test_orbit_maps_conjugate_the_desk_fibers_exactly(desk_torus):
    # U_R H(P) U_R^T == H(RP) bit for bit, for every map the sweep uses on
    # the (0,0,1) and (1,1,0) orbits; ell = 2 pi and delta = 3/4 make every
    # kinetic square and its sum exact, so the diagonals agree too
    model = desk_torus
    assert model.basis.dimension == 33153
    checked = set()
    for i, rep in enumerate(_orbit_sources(model)):
        orbit = tuple(np.sort(np.abs(model.fibers[i])))
        if rep == i or orbit not in ((0.0, 0.0, 1.0), (0.0, 1.0, 1.0)):
            continue
        which = modes._elements_taking(model.fibers[rep], model.fibers[i])[:1]
        (mode_map,), (ok,) = modes._symmetry_maps(model.grid, which)
        assert ok
        sigma = state_map(model.basis, mode_map)
        assert np.array_equal(np.sort(sigma), np.arange(model.basis.dimension))
        fiber = model.family.fiber
        got, want = conjugate_csr(fiber(model.fibers[rep]).csr, sigma), fiber(model.fibers[i]).csr
        assert want.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        checked.add(i)
    assert len(checked) == 5 + 11


def test_orbit_maps_and_pair_sectors_sort_the_grid_codes_once(monkeypatch):
    # the quick torus: _orbit_sources maps six fibers onto two, and each
    # pair solve finds its stabilizer's orbits, all on one code table
    made = []
    lookup = modes._UnitLookup
    monkeypatch.setattr(modes, "_UnitLookup", lambda units: made.append(len(units)) or lookup(units))
    model = assemble_torus(_quick_config())
    rep = degeneracy_analysis(model)
    assert rep.argmin == ((0.0, 0.0, 0.0),) and rep.multiplicity == 1
    assert _orbit_sources(model) == [0, 0, 0, 3, 0, 0, 0]
    assert made == [len(model.grid)]


def test_copied_desk_energies_match_independent_solves(monkeypatch, desk_torus):
    model = desk_torus
    sources = _orbit_sources(model)
    rep, asked = _requested_levels(monkeypatch, model)
    assert len(asked) == 5 and all(ks == [1] for ks in asked.values())
    assert rep.argmin == ((0.0, 0.0, 0.0),) and rep.multiplicity == 1
    energies = [e for _, e in rep.fiber_energies]
    # the last member of each orbit, solved on its own
    last = {r: i for i, r in enumerate(sources)}
    for r, i in last.items():
        assert energies[i] == energies[r]
        if i != r:
            e = lowest_eigenpairs(model.family.fiber(model.fibers[i]))[0].energy
            assert abs(e - energies[i]) <= 1e-12


def test_second_level_on_both_restricted_fibers(monkeypatch):
    model = assemble_torus(_quick_config(fibers=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))))
    rep, asked = _requested_levels(monkeypatch, model)
    assert asked == {(0.0, 0.0, -1.0): [1], (0.0, 0.0, 1.0): [1]}
    assert rep.multiplicity == 2
    _assert_same_report(rep, _exhaustive_report(model))


@pytest.mark.parametrize("fibers, expected_window", [
    (None, [(0.0, 0.0, 0.0)]),
    (((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]),
])
def test_uncertified_count_falls_back_to_second_level(monkeypatch, fibers, expected_window):
    model = assemble_torus(_quick_config(fibers=fibers))
    window = []

    def uncertified(alpha, grid, p, e):
        window.append(tuple(map(float, p)))
        return None

    rep, asked = _requested_levels(monkeypatch, model, count=uncertified)
    assert sorted(window) == expected_window
    for p, ks in asked.items():
        assert ks == ([1, 2] if p in window else [1])
    _assert_same_report(rep, _exhaustive_report(model))


def test_blocks_made_only_for_fallbacks(monkeypatch):
    # at N_max = 2 the ground levels and the window count come from the
    # grid: the quick torus makes a block, and enumerates the one basis,
    # only for a fiber whose pair solve or count falls back
    def declining(alpha, grid, n_max, p, tol):
        return ((None, None) if tuple(p) == (-1.0, 0.0, 0.0)
                else _certified_ground(alpha, grid, n_max, p, tol))

    for fibers, solve, count, fallbacks in [
        (None, None, None, []),
        (None, None, lambda *a: None, [(0.0, 0.0, 0.0)]),
        (None, declining, None, [(-1.0, 0.0, 0.0)]),
        (((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), None, None, []),
    ]:
        model = assemble_torus(_quick_config(fibers=fibers))
        made, bases = _record_fibers(monkeypatch)
        if solve is not None:
            monkeypatch.setattr(polaronlab.torus, "_certified_ground", solve)
        if count is not None:
            monkeypatch.setattr(polaronlab.torus, "_window_count", count)
            monkeypatch.setattr(polaronlab.torus, "_pair_count", count)
        degeneracy_analysis(model, threads=2)
        monkeypatch.undo()
        assert [p for p, _ in made] == fallbacks
        assert len(bases) == len(fallbacks)


def test_declined_pair_solve_falls_back_to_lobpcg(monkeypatch):
    # the orbit of (1, 0, 0) declined: its representative gets one LOBPCG
    # level, the copies follow it, and the report is the exhaustive one
    model = assemble_torus(_quick_config())
    rep, asked = _requested_levels(monkeypatch, model, declined={(-1.0, 0.0, 0.0)})
    assert asked == {(-1.0, 0.0, 0.0): [1], (0.0, 0.0, 0.0): [1]}
    assert "basis" in vars(model) and "family" in vars(model)
    _assert_same_report(rep, _exhaustive_report(model))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_degeneracy_analysis_rejects_a_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        degeneracy_analysis(assemble_torus(_quick_config()), tol=tol)


@pytest.mark.parametrize("delta, cutoff", [(1.0, 2.0), (0.75, 3.0)])
def test_pair_count_matches_count_below(delta, cutoff):
    # the quick and desk torus fibers: the closed-form count on blocks 0 and 1
    # and the count from the CSR agree, None included, across the lowest
    # levels, midway between them, within 1e-11 of each, and at and above
    # min D_top, where both must decline
    model = assemble_torus(_quick_config(delta=delta, cutoff=cutoff))
    split = model.basis.block_offset(2)
    certified = 0
    for p in model.fibers:
        block = model.family.fiber(p)
        e0, e1 = (r.energy for r in lowest_eigenpairs(block, k=2))
        top_min = block.diagonal()[split:].min()
        probes = [e0 - 1e-3, 0.5 * (e0 + e1), e1 + 1e-3, top_min, top_min + 0.5]
        probes += [e + d for e in (e0, e1) for d in (-1e-11, -1e-12, 1e-12, 1e-11)]
        for e in probes:
            want = count_below(block, e, split)
            assert _pair_count(1.0, model.grid, p, e) == want, (p, e)
            certified += want is not None
    assert certified >= 5 * len(model.fibers)


def test_count_certifies_desk_ground_and_doublet():
    # beyond the dense cap: the desk-torus P = 0 fiber has 33,153 states, far
    # above the 2000 of the dense oracles, and a Schur complement of 257
    model = assemble_torus(_quick_config(delta=0.75, cutoff=3.0, fibers=((0.0, 0.0, 0.0),)))
    block, split = model.family.fiber(model.fibers[0]), model.basis.block_offset(2)
    assert block.dimension == 33153 and split == 257
    e0, lam2 = (r.energy for r in lowest_eigenpairs(block, k=2))
    assert [count_below(block, e, split) for e in (e0 - 1e-8, e0 + 1e-8)] == [0, 1]
    # the count above the second level includes the ground state: 1 -> 3
    # makes lambda_2 an octahedral doublet
    assert [count_below(block, e, split) for e in (lam2 - 1e-8, lam2 + 1e-8)] == [1, 3]
    assert [_pair_count(1.0, model.grid, np.zeros(3), e)
            for e in (e0 - 1e-8, e0 + 1e-8, lam2 - 1e-8, lam2 + 1e-8)] == [0, 1, 1, 3]


def test_contradiction_check_flags_inconsistency():
    # a simple zero minimum must come with multiplicity one ...
    rep = TorusReport(
        ground_energy=-1.0, argmin=((0.0, 0.0, 0.0),), multiplicity=2,
        fiber_energies=(((0.0, 0.0, 0.0), -1.0),), degeneracy_tol=1e-7,
    )
    assert contradiction_check(rep) == ("simple-zero-minimum", False)
    # ... and an off-zero minimum must be (at least) twofold
    rep = TorusReport(
        ground_energy=-1.0, argmin=((0.0, 0.0, 1.0),), multiplicity=1,
        fiber_energies=(((0.0, 0.0, 1.0), -1.0),), degeneracy_tol=1e-7,
    )
    assert contradiction_check(rep) == ("degenerate-minimum", False)


def test_yukawa_large_torus_matches_free_kernel():
    val = periodized_yukawa((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), ell=50.0)
    assert abs(val - math.exp(-1.0) / (4.0 * math.pi)) <= 1e-10


def test_yukawa_symmetric_and_mass_monotone():
    x, xp = (0.3, 0.1, -0.2), (-0.1, 0.4, 0.2)
    a = periodized_yukawa(x, xp, ell=2.0, image_cut=3)
    b = periodized_yukawa(xp, x, ell=2.0, image_cut=3)
    assert a == pytest.approx(b, rel=1e-14)
    heavier = periodized_yukawa(x, xp, ell=2.0, mass=2.0, image_cut=3)
    assert heavier < a


def test_yukawa_grows_with_image_box():
    x, xp = (0.3, 0.0, 0.0), (0.0, 0.0, 0.0)
    v1 = periodized_yukawa(x, xp, ell=1.0, image_cut=1)
    v2 = periodized_yukawa(x, xp, ell=1.0, image_cut=2)
    assert v2 > v1  # every added image contributes a positive term


def test_yukawa_singularities_are_errors():
    with pytest.raises(ValueError):
        periodized_yukawa((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), ell=2.0)
    with pytest.raises(ValueError):
        periodized_yukawa((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), ell=2.0)  # image hit


def test_yukawa_preconditions():
    x, xp = (0.3, 0.0, 0.0), (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        periodized_yukawa(x, xp, ell=0.0)
    with pytest.raises(ValueError):
        periodized_yukawa(x, xp, ell=2.0, mass=0.5)
    with pytest.raises(ValueError):
        periodized_yukawa(x, xp, ell=2.0, image_cut=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["ell", "mass"])
def test_yukawa_rejects_non_finite(name, bad):
    args = {"ell": 2.0, "mass": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        periodized_yukawa((0.3, 0.0, 0.0), (0.0, 0.0, 0.0), **args)


def test_yukawa_converged_certifies_its_cut():
    x, xp = (0.3, 0.1, -0.2), (0.0, 0.0, 0.0)
    val, cut = yukawa_converged(x, xp, ell=2.0)
    assert cut >= 2
    assert val == periodized_yukawa(x, xp, ell=2.0, image_cut=cut)
    assert val > periodized_yukawa(x, xp, ell=2.0, image_cut=1)
    with pytest.raises(ValueError):
        yukawa_converged(x, xp, ell=2.0, start_cut=0)


@pytest.mark.parametrize("cut", [1.5, 2.0, True, "2", 0])
def test_yukawa_image_cuts_must_be_ints_before_any_lattice(monkeypatch, cut):
    # a cut of 1.5 used to sum the images offset by half a period, and True
    # ran as 1
    def forbidden(*args, **kwargs):
        raise AssertionError("a lattice was made")

    monkeypatch.setattr(polaronlab.torus, "_lattice_axis", forbidden)
    x, xp = (0.3, 0.1, -0.2), (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="image_cut must be an int of at least 1"):
        periodized_yukawa(x, xp, ell=2.0, image_cut=cut)
    with pytest.raises(ValueError, match="start_cut must be an int of at least 1"):
        yukawa_converged(x, xp, ell=2.0, start_cut=cut)


def test_yukawa_converged_stops_at_the_lattice_budget(monkeypatch):
    # the smallest budget spans 1000 images: cuts up to 4 (9^3 images)
    monkeypatch.setattr(modes, "GRID_CAPACITY", 1)
    with pytest.raises(ConvergenceError, match="by image_cut = 4$"):
        yukawa_converged((0.2, 0.0, 0.0), (0.0, 0.0, 0.0), ell=0.5)


def test_yukawa_converged_tries_the_shell_past_64(monkeypatch):
    # a budget that admits cut 65 (131^3 images) and refuses 66
    monkeypatch.setattr(modes, "GRID_CAPACITY", 131**3 // 8 + 1)
    x, xp = (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    val, cut = yukawa_converged(x, xp, ell=TWO_PI, start_cut=64)
    assert cut == 65
    assert val == periodized_yukawa(x, xp, ell=TWO_PI, image_cut=65)
    with pytest.raises(ConvergenceError, match="by image_cut = 65$"):
        yukawa_converged((0.1, 0.0, 0.0), xp, ell=0.2, start_cut=64)
