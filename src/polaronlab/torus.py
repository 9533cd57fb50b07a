"""Finite-volume model: a block per dual-lattice momentum, plus Yukawa kernels.

The torus operator is block diagonal over total momenta P in (2 pi / ell) Z^3
up to a fiber cutoff; every block is a fiber of one FiberFamily (one phonon
grid, one basis, one P-independent coupling), so blocks differ only on the
diagonal, and the model keeps the grid rather than the blocks, building the
basis and family only when a block must be made.  The
degeneracy analysis feeds the either-or argument: a translation-invariant
ground state forces the global minimum to sit at P = 0 and be simple, so a
non-simple minimum (or one away from 0) certifies symmetry breaking.  Only
the fibers that reach the global minimum can change that verdict, so the
analysis solves the ground level of every block first and then, on the
blocks inside the minimum window only, counts the eigenvalues in the window
exactly by the inertia of a Schur complement on the top phonon block; a
block whose count is not certified gets its two lowest levels solved
instead.  The ground levels come from operators._certified_ground, which
says which route runs at which N_max, and LOBPCG only where it declines; at
N_max = 2 the count also comes from the grid, so no block is made: each
pair solve certifies its own window on the Schur complement it already
formed (operators._window_count) before its task returns, else the
complement is formed afresh (operators._pair_count).

The lattice scan is closed under the octahedral group O_h (the 48 signed
axis permutations R), and so are the grids build_grid makes, couplings
included.  Then H(RP) = U_R H(P) U_R^T with U_R a permutation of the basis
states, and the blocks of one O_h orbit of momenta are copies of each other:
the ground-level sweep solves one block per orbit and copies its energy to
the others, each copy certified by an exact check on the grid (_orbit_sources).

periodized_yukawa sums the massive kernel over lattice images; its shell
convergence is the quantitative input for the fixed-point comparison.

The fiber ball and the image box are held to the lattice budget
(modes.GRID_CAPACITY) before they are made.  Nothing caps fibers x
dimension: the model keeps at most one family, and degeneracy_analysis
holds at most `threads` blocks, or at N_max = 2 `threads` (M + 1)-row Schur
complements, at a time, each inside the pool task that made it; what
outlives a task is a few scalars per fiber.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .errors import CapacityError, ConvergenceError, _check_int
from .fock import BasisIndex, basis_dimension, enumerate_basis
from .modes import (ModeGrid, _elements_taking, _lattice_axis, _lattice_ball,
                    _symmetry_maps, build_grid)
from .operators import FiberFamily, _certified_ground, _pair_count, _window_count
from .solve import DEFAULT_SEED, DEFAULT_TOL, _parallel_map, count_below, lowest_eigenpairs

DEFAULT_DEGENERACY_TOL = 1e-7
YUKAWA_REL_TOL = 1e-12  # the image sum has settled once a shell adds less, relative


@dataclass(frozen=True)
class TorusConfig:
    """Side length, coupling, phonon discretization, and the fiber selection.

    By default the momentum blocks run over the full dual lattice inside
    fiber_cutoff, which always contains P = 0.  An explicit `fibers` tuple
    overrides the lattice scan (for restricted-sector studies); it must be
    closed under P -> -P, the symmetry every analysis below relies on, and
    name each momentum once, since every listed block counts toward the
    ground-state multiplicity.  n_max must be a non-negative int (not a
    bool), checked here, before any grid or basis is built.
    """

    ell: float
    alpha: float
    delta: float
    cutoff: float
    n_max: int
    fiber_cutoff: float
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
    fibers: Optional[Tuple[Tuple[float, float, float], ...]] = None

    def __post_init__(self):
        for name in ("ell", "delta", "cutoff", "fiber_cutoff", "degeneracy_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be non-negative and finite")
        _check_int("n_max", self.n_max, 0)
        if self.fibers is not None:
            fibers = tuple(tuple(float(x) for x in f) for f in self.fibers)
            if not fibers:
                raise ValueError("explicit fiber list must not be empty")
            if any(len(f) != 3 for f in fibers):
                raise ValueError("fibers must be 3-vectors")
            have = set(fibers)
            for i, f in enumerate(fibers):
                first = fibers.index(f)  # == compares, so -0.0 repeats 0.0
                if first < i:
                    raise ValueError(f"fiber list repeats momentum {fibers[first]}")
                if tuple(-x for x in f) not in have:
                    raise ValueError(f"fiber list not closed under P -> -P: missing {tuple(-x for x in f)}")
            object.__setattr__(self, "fibers", fibers)


def lattice_fibers(cfg: TorusConfig) -> np.ndarray:
    """Momenta of the blocks, shape (F, 3), in lexicographic order.

    Dual-lattice points (2 pi / ell) n with |n| within the fiber cutoff; the
    membership test is on integers so boundary points never flicker.  With an
    explicit cfg.fibers the given momenta are returned sorted.  CapacityError
    when the lattice exceeds the budget of modes._lattice_ball.
    """
    if cfg.fibers is not None:
        return np.asarray(sorted(cfg.fibers), dtype=np.float64)
    spacing = 2.0 * math.pi / cfg.ell
    r2max = int((cfg.fiber_cutoff / spacing) ** 2 + 1e-9)
    return spacing * _lattice_ball(r2max, "fiber", origin=True).astype(np.float64)


@dataclass
class TorusModel:
    """The block momenta and the grid that every block is a fiber over.

    The blocks share one grid, basis and coupling.  The basis and the
    FiberFamily that makes the blocks, family.fiber(p), are built on first
    use and kept: at N_max = 2 degeneracy_analysis solves and counts from the
    grid alone and needs them only for a block the pair route declines.
    """

    config: TorusConfig
    fibers: np.ndarray
    grid: ModeGrid

    @cached_property
    def basis(self) -> BasisIndex:
        grid = self.grid
        return enumerate_basis(len(grid), self.config.n_max, grid.units, grid.spacing)

    @cached_property
    def family(self) -> FiberFamily:
        return FiberFamily(self.config.alpha, self.grid, self.basis)


@dataclass(frozen=True)
class TorusReport:
    """Ground energy, its fiber location(s), and the near-degeneracy count."""

    ground_energy: float
    argmin: Tuple[Tuple[float, float, float], ...]
    multiplicity: int
    fiber_energies: Tuple[Tuple[Tuple[float, float, float], float], ...]
    degeneracy_tol: float


def assemble_torus(cfg: TorusConfig) -> TorusModel:
    """The lattice momenta and the grid every block is a fiber over.

    The grid and the fiber lattice are each checked against their own budget
    (CapacityError), and the basis against its own when it is first built;
    the number of fibers does not multiply the memory, since no block is
    made here.
    """
    grid = build_grid(cfg.delta, cfg.cutoff)
    return TorusModel(config=cfg, fibers=lattice_fibers(cfg), grid=grid)


def _orbit_sources(model: TorusModel) -> List[int]:
    """Per block, the index of the block whose ground level it takes.

    Blocks of the lattice scan group into O_h orbits by their sorted |P|; the
    first block of an orbit (in model.fibers order) is its representative and
    is solved, entry i.  Another member P' = R P takes the representative's
    levels, entry rep, once the exact check of modes._symmetry_maps holds:
    its mode map sends grid mode i to the grid mode at R k_i, for every
    mode, and the couplings satisfy g[map] == g bitwise.  Over the basis of
    every multiset up to N_max this makes U_R V U_R^T = V exactly (V the
    coupling part), and the
    kinetic diagonals D(RP)[sigma s] and D(P)[s] are the same three squares
    summed in another order, so ||H(RP) - U_R H(P) U_R^T|| <= gamma_3 max D,
    a few ulps.  A member that fails the check is solved itself.  Explicit
    fiber lists are never reduced: the restricted sector's +-q mismatch is an
    audit of P -> -P and must stay two independent solves.
    """
    fibers = model.fibers
    sources = list(range(len(fibers)))
    if model.config.fibers is not None:
        return sources
    reps = {}
    members = [(i, reps.setdefault(tuple(np.sort(np.abs(p))), i)) for i, p in enumerate(fibers)]
    members = [(i, rep) for i, rep in members if rep != i]
    which = [_elements_taking(fibers[rep], fibers[i])[0] for i, rep in members]
    for (i, rep), ok in zip(members, _symmetry_maps(model.grid, which)[1]):
        if ok:
            sources[i] = rep
    return sources


def degeneracy_analysis(
    model: TorusModel,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
) -> TorusReport:
    """Global minimum over blocks and how many levels sit within degeneracy_tol of it.

    Ground first: phase 1 solves the lowest eigenvalue of one block per O_h
    orbit of the lattice scan and copies it to the orbit's other blocks, each
    copy certified by the exact grid check of _orbit_sources (a block that
    fails it, and every block of an explicit fiber list, is solved itself).
    The solve is the certified route of operators._certified_ground, from
    (alpha, grid, P) alone; a block it leaves gets LOBPCG on family.fiber(p).
    Phase 2 visits only the blocks, copied or not, whose phase-1 energy lies
    within degeneracy_tol + tol of the smallest, `ground` (the extra tol
    covers the spread between two solves of one level), and counts their
    eigenvalues below ground + degeneracy_tol exactly, by the inertia of a
    Schur complement on the top phonon block, over the pool; these blocks
    keep their phase-1 energy.  At N_max = 2 the count comes from (alpha,
    grid, P) alone, so no block is made for it.  A block pair-solved in
    phase 1 is certified inside its own pool task, while the S(E) of its
    bracket is at hand: the task keeps the bracket (lo, hi) and whether
    operators._window_count proves at most one level below E +
    degeneracy_tol (one Cholesky), and S(E) dies with the task.  Counts are
    monotone in the level and ground <= E, so phase 2 reads the count below
    ground + degeneracy_tol off these three scalars: 0 at or below lo, 1
    above hi once the window count held (at the minimum block E = ground,
    the same level); any other block, copied or with no certificate, is
    counted by operators._pair_count, whose complement on blocks 0 and 1 is
    closed form.  At other N_max the count comes from the block's CSR,
    solve.count_below.
    A block whose count cannot be certified (the Schur complement above the
    dense cap, or the level within rounding of the window edge) falls back to
    a two-level solve, which replaces its phase-1 energy and contributes the
    levels within degeneracy_tol of the minimum.  Skipped blocks have no
    level in the window.  The multiplicity is the total count, so a simple
    global minimum reads 1 and a degenerate one at least 2.
    Blocks are made from model.family as they are solved or counted and
    dropped after; the family is built once, in the calling thread, before
    the first pool that needs it: at N_max = 2 only for a block that falls
    back, so a run where nothing falls back enumerates no basis.  At most
    `threads` blocks or complements are alive at a time, each inside the
    pool task that made it.  ValueError unless threads is an int (a bool is
    not) of at least 1, from the first pool, before any solve.
    """
    cfg, fibers = model.config, model.fibers
    tol_deg = cfg.degeneracy_tol

    def levels(idx, k):
        """The k lowest levels of each block in idx by LOBPCG, over the pool."""
        family = model.family if idx else None

        def solve(i):
            block = family.fiber(fibers[i])
            return [r.energy for r in lowest_eigenpairs(block, k=k, tol=tol, seed=seed)]

        return _parallel_map(solve, idx, threads)

    certs = {}  # pair-solved block -> (lo, hi, one); each task writes its own key

    def ground_level(i):
        r, window = _certified_ground(cfg.alpha, model.grid, cfg.n_max, fibers[i], tol)
        if window is not None:  # certified here, so its S(E) dies with this task
            certs[i] = (*window.bracket, _window_count(window, window.level + tol_deg) == 1)
        return None if r is None else [r.energy]

    def count(i):
        level = ground + tol_deg
        if cfg.n_max != 2:
            return count_below(family.fiber(fibers[i]), level, split)
        lo, hi, one = certs.get(i, (-math.inf, math.inf, False))
        if level <= lo:
            return 0
        if hi < level and one:
            return 1
        return _pair_count(cfg.alpha, model.grid, fibers[i], level)

    sources = _orbit_sources(model)
    solved = sorted(set(sources))
    ground_levels = dict(zip(solved, _parallel_map(ground_level, solved, threads)))
    declined = [i for i in solved if ground_levels[i] is None]
    ground_levels.update(zip(declined, levels(declined, 1)))
    per_fiber = [ground_levels[rep] for rep in sources]
    counts = [None] * len(fibers)
    if basis_dimension(len(model.grid), cfg.n_max) > 1:
        ground = min(es[0] for es in per_fiber)
        near = [i for i, es in enumerate(per_fiber) if es[0] <= ground + tol_deg + tol]
        if cfg.n_max != 2:  # built here, before the pool, so its threads share one family
            family, split = model.family, model.basis.block_offset(cfg.n_max)
        for i, n_below in zip(near, _parallel_map(count, near, threads)):
            counts[i] = n_below
        fallback = [i for i in near if counts[i] is None]
        for i, es in zip(fallback, levels(fallback, 2)):
            per_fiber[i] = es

    ground = min(min(es) for es in per_fiber)
    argmin = []
    multiplicity = 0
    fiber_energies = []
    for p, es, n_below in zip(fibers, per_fiber, counts):
        pt = tuple(map(float, p))
        fiber_energies.append((pt, float(es[0])))
        if es[0] <= ground + tol_deg:
            argmin.append(pt)
        multiplicity += sum(1 for e in es if e <= ground + tol_deg) if n_below is None else n_below
    return TorusReport(
        ground_energy=float(ground),
        argmin=tuple(argmin),
        multiplicity=multiplicity,
        fiber_energies=tuple(fiber_energies),
        degeneracy_tol=tol_deg,
    )


def contradiction_check(report: TorusReport) -> Tuple[str, bool]:
    """Classify the report against the either-or dichotomy.

    Either the minimum sits at P = 0 alone and is simple, or the ground level
    is degenerate (equivalently, attained away from 0, which the P -> -P
    symmetry doubles).  Returns (branch, consistent).
    """
    zero_hit = any(all(x == 0.0 for x in p) for p in report.argmin)
    if zero_hit and len(report.argmin) == 1:
        return "simple-zero-minimum", report.multiplicity == 1
    return "degenerate-minimum", report.multiplicity >= 2


def periodized_yukawa(
    x, xp, ell: float, mass: float = 1.0, image_cut: int = 1
) -> float:
    """Sum of exp(-mass r)/(4 pi r) over lattice images r = |x - xp - ell n|.

    Evaluating at a lattice image of the singularity (r = 0) is an error, not
    an infinity.  image_cut bounds the image box |n|_inf <= image_cut, whose
    (2 image_cut + 1)^3 images are held under the lattice budget
    (CapacityError above image_cut = 99 at the default modes.GRID_CAPACITY);
    ValueError unless image_cut is an int (not a bool) of at least 1.
    The terms are made one x-slab of images at a time, then summed by one np.sum.
    """
    if not 0 < ell < math.inf:
        raise ValueError("ell must be positive and finite")
    if not 1.0 <= mass < math.inf:
        raise ValueError("mass must be finite and at least 1 (kernel masses are sqrt(n+1))")
    _check_int("image_cut", image_cut, 1)
    diff = np.asarray(x, dtype=np.float64).reshape(3) - np.asarray(xp, dtype=np.float64).reshape(3)
    x2, y2, z2 = np.square(diff[:, None] - ell * _lattice_axis(image_cut, "image"))
    # rounding is monotone, so this is the smallest r over every image, bitwise
    if math.sqrt(x2.min() + y2.min() + z2.min()) < 1e-12 * max(1.0, ell):
        raise ValueError("kernel evaluated at (an image of) the singularity x = xp")
    terms = np.empty((x2.size, x2.size * x2.size))
    for x2_slab, out in zip(x2, terms):  # r^2 summed in the order of modes._norm2
        r = np.sqrt((x2_slab + y2)[:, None] + z2[None, :]).ravel()
        out[:] = np.exp(-mass * r) / (4.0 * math.pi * r)
    return float(np.sum(terms.ravel()))


def yukawa_converged(
    x,
    xp,
    ell: float,
    mass: float = 1.0,
    start_cut: int = 1,
) -> Tuple[float, int]:
    """Grow the image box until the added shell is below YUKAWA_REL_TOL (relative).

    Returns (value, cut used).  The terms are positive, so the partial sums
    increase and the first quiet shell certifies convergence.  The box grows
    until the lattice budget refuses the next cut; then ConvergenceError
    names the last cut summed.  ValueError unless start_cut is an int (not
    a bool) of at least 1.
    """
    _check_int("start_cut", start_cut, 1)
    return _yukawa_settle(x, xp, ell, mass, start_cut,
                          periodized_yukawa(x, xp, ell, mass=mass, image_cut=start_cut))


def _yukawa_settle(x, xp, ell: float, mass: float, start_cut: int, prev: float
                   ) -> Tuple[float, int]:
    """yukawa_converged from `prev`, the image sum at image_cut = start_cut."""
    for cut in itertools.count(start_cut + 1):
        try:
            val = periodized_yukawa(x, xp, ell, mass=mass, image_cut=cut)
        except CapacityError:
            raise ConvergenceError(f"image sum did not settle by image_cut = {cut - 1}") from None
        if val - prev <= YUKAWA_REL_TOL * abs(val):
            return val, cut
        prev = val
