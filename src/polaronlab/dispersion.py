"""Energy-momentum analysis of the fiber family.

Scans E(P) over momentum samples, checks that P = 0 is a strict minimum,
compares E at large momentum against the essential-spectrum edge E(0) + 1, and
extrapolates the ground energy in the inverse cutoff.  dispersion_curve is the
one solve of a scan: effective_mass (a central second difference) and
minimum_check are read off its samples, and mass_momenta and
check_minimum_samples state their sample rules so a caller can check them
before solving.

dispersion_curve and cutoff_extrapolate take each ground state from the
certified route of operators._certified_ground, whose docstring says which
route runs at which N_max, and run LOBPCG on a fiber of one FiberFamily only
at a momentum that route leaves; hvz_edge_check assembles its two fibers at
every N_max.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, NumericalError, _check_int
from .fock import enumerate_basis
from .modes import CutoffSchedule, build_grid
from .operators import FiberConfig, FiberFamily, _certified_ground, assemble_fiber
from .solve import DEFAULT_SEED, DEFAULT_TOL, _parallel_map, ground_state

DEFAULT_MASS_STEP = 0.1
DEFAULT_EDGE_TOL = 0.1
DEFAULT_MARGIN = 1e-4
ARGMIN_TIE_TOL = 1e-12


@dataclass(frozen=True)
class DispersionSample:
    """One solved momentum point."""

    p: Tuple[float, float, float]
    pnorm: float
    energy: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class DispersionCurve:
    alpha: float
    delta: float
    cutoff: float
    n_max: int
    samples: Tuple[DispersionSample, ...]

    def at_zero(self) -> DispersionSample:
        for s in self.samples:
            if s.pnorm == 0.0:
                return s
        raise ValueError("curve has no P = 0 sample")


@dataclass(frozen=True)
class MassReport:
    m_eff: float
    h: float
    e_zero: float
    e_plus: float
    e_minus: float
    curvature: float
    degenerate: bool


@dataclass(frozen=True)
class MinimumVerdict:
    passed: bool
    margin: float
    worst_margin: float
    argmin: Tuple[Tuple[float, float, float], ...]
    argmin_unique: bool


@dataclass(frozen=True)
class HvzReport:
    e_zero: float
    e_far: float
    d: float
    edge_tol: float
    passed: bool
    p_far: Tuple[float, float, float]


@dataclass(frozen=True)
class ExtrapolationReport:
    lambdas: Tuple[float, ...]
    energies: Tuple[float, ...]
    e_inf: float
    slope: float
    fit_residual: float
    solver_residuals: Tuple[float, ...]
    solver_iterations: Tuple[int, ...]


def _ground(op, p, tol, seed):
    try:
        return ground_state(op, tol=tol, seed=seed)
    except ConvergenceError as exc:
        raise ConvergenceError(f"solver failed at P = {tuple(map(float, p))}: {exc}") from exc


def _ground_states(alpha, grid, n_max, ps, tol, seed, threads=1):
    """Ground states at the momenta ps over one grid, mapped over `threads`:
    operators._certified_ground's where it gives one, and LOBPCG on fibers of
    one FiberFamily, built once, at each momentum it leaves."""
    results = _parallel_map(lambda p: _certified_ground(alpha, grid, n_max, p, tol)[0],
                            ps, threads)
    rest = [i for i, r in enumerate(results) if r is None]
    if rest:
        family = FiberFamily(alpha, grid,
                             enumerate_basis(len(grid), n_max, grid.units, grid.spacing))
        solved = _parallel_map(lambda i: _ground(family.fiber(ps[i]), ps[i], tol, seed),
                               rest, threads)
        for i, r in zip(rest, solved):
            results[i] = r
    return results


def dispersion_curve(
    alpha: float,
    p_samples: Sequence,
    delta: float,
    cutoff: float,
    n_max: int,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
) -> DispersionCurve:
    """Ground energy at each momentum sample over one shared grid (and basis).

    Samples come back sorted by |P| (ties keep input order).  Solver failures
    surface as ConvergenceError naming the offending momentum.  n_max must
    be a non-negative int (not a bool), checked before the grid is built;
    threads an int (not a bool) of at least 1, checked by the pool
    (solve._parallel_map) before any solve.
    """
    _check_int("n_max", n_max, 0)
    ps = [np.asarray(p, dtype=np.float64).reshape(3) for p in p_samples]
    if not ps:
        raise ValueError("p_samples must not be empty")
    results = _ground_states(alpha, build_grid(delta, cutoff), n_max, ps, tol, seed, threads)

    norms = [float(np.linalg.norm(p)) for p in ps]
    order = sorted(range(len(ps)), key=lambda i: (norms[i], i))
    samples = tuple(
        DispersionSample(
            p=tuple(map(float, ps[i])),
            pnorm=norms[i],
            energy=results[i].energy,
            residual=results[i].residual,
            iterations=results[i].iterations,
        )
        for i in order
    )
    return DispersionCurve(
        alpha=float(alpha), delta=float(delta), cutoff=float(cutoff),
        n_max=int(n_max), samples=samples,
    )


def mass_momenta(h: float = DEFAULT_MASS_STEP):
    """The three momenta of effective_mass's second difference, 0 and +-h e_z,
    once h meets its rule 0 < h < 1."""
    if not 0.0 < h < 1.0:
        raise ValueError("mass step h must lie in (0, 1)")
    return [(0.0, 0.0, 0.0), (0.0, 0.0, float(h)), (0.0, 0.0, -float(h))]


def effective_mass(curve: DispersionCurve, h: float = DEFAULT_MASS_STEP) -> MassReport:
    """Inverse curvature of E along the z axis from a central second difference
    over the curve's samples at mass_momenta(h); ValueError if one is missing.

    Non-positive curvature marks a flat or inverted dispersion; the mass is
    then reported as infinite with the degenerate flag set.
    """
    energies = {s.p: s.energy for s in curve.samples}
    for p in mass_momenta(h):
        if p not in energies:
            raise ValueError(f"curve has no sample at P = {p} for the mass step {h}")
    e0, ep, em = (energies[p] for p in mass_momenta(h))
    curvature = (ep + em - 2.0 * e0) / h**2
    degenerate = not curvature > 0.0
    m_eff = math.inf if degenerate else 1.0 / curvature
    return MassReport(
        m_eff=m_eff, h=float(h), e_zero=e0, e_plus=ep, e_minus=em,
        curvature=curvature, degenerate=degenerate,
    )


def check_minimum_samples(p_samples) -> None:
    """minimum_check's two sample rules, on the momenta alone: a P = 0 sample
    to compare against, and at least one nonzero sample to compare."""
    norms = [float(np.linalg.norm(p)) for p in p_samples]
    if 0.0 not in norms:
        raise ValueError("curve has no P = 0 sample")
    if not any(norms):
        raise ValueError("minimum check needs at least one nonzero sample")


def minimum_check(curve: DispersionCurve, margin: float = DEFAULT_MARGIN) -> MinimumVerdict:
    """Is P = 0 a strict minimum of the sampled curve with the given margin?"""
    check_minimum_samples([s.p for s in curve.samples])
    zero = curve.at_zero()
    worst = min(s.energy - zero.energy for s in curve.samples if s.pnorm > 0.0)
    e_min = min(s.energy for s in curve.samples)
    argmin = tuple(s.p for s in curve.samples if s.energy <= e_min + ARGMIN_TIE_TOL)
    return MinimumVerdict(
        passed=bool(worst > margin),
        margin=float(margin),
        worst_margin=float(worst),
        argmin=argmin,
        argmin_unique=len(argmin) == 1,
    )


def far_momentum(p_far, cutoff: float) -> np.ndarray:
    """P_far as a 3-vector, once it meets hvz_edge_check's two rules: |P_far| >= 2
    so the free dispersion has already flattened, and a cutoff at least |P_far|
    so the grid can deposit a phonon near P_far."""
    p_far = np.asarray(p_far, dtype=np.float64).reshape(3)
    if not np.isfinite(p_far).all():
        raise ValueError(f"P_far = {tuple(map(float, p_far))} must be finite")
    pf_norm = float(np.linalg.norm(p_far))
    if pf_norm < 2.0:
        raise ValueError(f"|P_far| = {pf_norm} too small; the edge check needs |P_far| >= 2")
    if pf_norm > cutoff * (1.0 + 1e-12):
        raise ValueError(
            f"cutoff {cutoff} is below |P_far| = {pf_norm}; no mode can absorb P_far"
        )
    return p_far


def hvz_edge_check(
    alpha: float,
    delta: float,
    cutoff: float,
    n_max: int,
    p_far,
    edge_tol: float = DEFAULT_EDGE_TOL,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> HvzReport:
    """Distance d = E(P_far) - E(0) - 1 to the essential-spectrum edge.

    At large momentum the ground energy must sit just below the edge
    E(0) + 1, so the check passes iff 0 <= d <= edge_tol (with 1e-12 slack on
    the lower side for solver roundoff).  P_far must pass far_momentum, and
    n_max must be a non-negative int (not a bool).
    """
    _check_int("n_max", n_max, 0)
    p_far = far_momentum(p_far, cutoff)
    grid = build_grid(delta, cutoff)
    # assembled at every N_max: bench/test_bench.py traces its N_max = 1 assembly
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)

    def energy(p):
        cfg = FiberConfig(alpha=alpha, p=p, grid=grid, n_max=n_max)
        return _ground(assemble_fiber(cfg, basis), p, tol, seed).energy

    e_zero, e_far = energy(np.zeros(3)), energy(p_far)
    d = e_far - e_zero - 1.0
    passed = bool(-1e-12 <= d <= edge_tol)
    return HvzReport(
        e_zero=e_zero, e_far=e_far, d=float(d), edge_tol=float(edge_tol),
        passed=passed, p_far=tuple(map(float, p_far)),
    )


def fit_inverse_cutoff(lambdas, energies) -> Tuple[float, float, float]:
    """Least-squares fit E(L) = e_inf + slope / L; returns (e_inf, slope, max |misfit|)."""
    lams = np.asarray(lambdas, dtype=np.float64)
    es = np.asarray(energies, dtype=np.float64)
    if lams.shape != es.shape or lams.size < 3:
        raise ValueError("need at least three (cutoff, energy) pairs")
    design = np.column_stack([np.ones_like(lams), 1.0 / lams])
    coef, *_ = np.linalg.lstsq(design, es, rcond=None)
    fit = design @ coef
    return float(coef[0]), float(coef[1]), float(np.max(np.abs(fit - es)))


def cutoff_extrapolate(
    alpha: float,
    schedule: CutoffSchedule,
    p=(0.0, 0.0, 0.0),
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
) -> ExtrapolationReport:
    """Ground energy along a cutoff schedule plus the inverse-cutoff fit.

    One grid is built, at the largest cutoff; each smaller cutoff takes its
    modes with ModeGrid.within, bitwise the grid build_grid would give.
    Energies must be non-increasing in the cutoff (the variational spaces are
    nested); any increase beyond 1e-10 aborts with NumericalError rather than
    feeding a corrupted sequence to the fit.  ValueError unless threads is
    an int (not a bool) of at least 1, from the pool, before any solve.
    """
    lams = schedule.lambdas
    p = np.asarray(p, dtype=np.float64).reshape(3)
    largest = build_grid(schedule.delta, lams[-1])

    results = _parallel_map(
        lambda lam: _ground_states(alpha, largest.within(lam), schedule.n_max, [p], tol, seed)[0],
        lams, threads)

    energies = [r.energy for r in results]
    for i in range(len(lams) - 1):
        if energies[i + 1] > energies[i] + 1e-10:
            raise NumericalError(
                f"ground energy increased from E({lams[i]}) = {energies[i]!r} "
                f"to E({lams[i + 1]}) = {energies[i + 1]!r}; refusing to extrapolate"
            )
    e_inf, slope, fit_residual = fit_inverse_cutoff(lams, energies)
    return ExtrapolationReport(
        lambdas=tuple(map(float, lams)),
        energies=tuple(energies),
        e_inf=e_inf,
        slope=slope,
        fit_residual=fit_residual,
        solver_residuals=tuple(r.residual for r in results),
        solver_iterations=tuple(r.iterations for r in results),
    )
