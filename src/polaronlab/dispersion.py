"""Energy-momentum analysis of the fiber family.

Scans E(P) over momentum samples, extracts the effective mass from a central
second difference, checks that P = 0 is a strict minimum, compares E at large
momentum against the essential-spectrum edge E(0) + 1, and extrapolates the
ground energy in the inverse cutoff.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, NumericalError
from .fock import enumerate_basis
from .modes import CutoffSchedule, build_grid
from .operators import FiberConfig, FiberFamily, assemble_fiber
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


def _solve_point(alpha, p, grid, basis, tol, seed):
    cfg = FiberConfig(alpha=alpha, p=np.asarray(p, dtype=np.float64), grid=grid, n_max=basis.n_max)
    return _ground(assemble_fiber(cfg, basis), cfg.p, tol, seed)


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
    """Ground energy at each momentum sample over one shared grid and basis.

    Samples come back sorted by |P| (ties keep input order).  Solver failures
    surface as ConvergenceError naming the offending momentum.
    """
    ps = [np.asarray(p, dtype=np.float64).reshape(3) for p in p_samples]
    if not ps:
        raise ValueError("p_samples must not be empty")
    grid = build_grid(delta, cutoff)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    family = FiberFamily(alpha, grid, basis)
    results = _parallel_map(lambda p: _ground(family.fiber(p), p, tol, seed), ps, threads)

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


def effective_mass(
    alpha: float,
    delta: float,
    cutoff: float,
    n_max: int,
    h: float = DEFAULT_MASS_STEP,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> MassReport:
    """Inverse curvature of E along the z axis from a central second difference.

    Non-positive curvature marks a flat or inverted dispersion; the mass is
    then reported as infinite with the degenerate flag set.
    """
    if not 0.0 < h < 1.0:
        raise ValueError("mass step h must lie in (0, 1)")
    grid = build_grid(delta, cutoff)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    e0 = _solve_point(alpha, (0.0, 0.0, 0.0), grid, basis, tol, seed).energy
    ep = _solve_point(alpha, (0.0, 0.0, h), grid, basis, tol, seed).energy
    em = _solve_point(alpha, (0.0, 0.0, -h), grid, basis, tol, seed).energy
    curvature = (ep + em - 2.0 * e0) / h**2
    degenerate = not curvature > 0.0
    m_eff = math.inf if degenerate else 1.0 / curvature
    return MassReport(
        m_eff=m_eff, h=float(h), e_zero=e0, e_plus=ep, e_minus=em,
        curvature=curvature, degenerate=degenerate,
    )


def minimum_check(curve: DispersionCurve, margin: float = DEFAULT_MARGIN) -> MinimumVerdict:
    """Is P = 0 a strict minimum of the sampled curve with the given margin?"""
    zero = curve.at_zero()
    others = [s for s in curve.samples if s.pnorm > 0.0]
    if not others:
        raise ValueError("minimum check needs at least one nonzero sample")
    worst = min(s.energy - zero.energy for s in others)
    e_min = min(s.energy for s in curve.samples)
    argmin = tuple(s.p for s in curve.samples if s.energy <= e_min + ARGMIN_TIE_TOL)
    return MinimumVerdict(
        passed=bool(worst > margin),
        margin=float(margin),
        worst_margin=float(worst),
        argmin=argmin,
        argmin_unique=len(argmin) == 1,
    )


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
    the lower side for solver roundoff).  Requires |P_far| >= 2 so the free
    dispersion has already flattened, and a cutoff at least |P_far| so the
    grid can deposit a phonon near P_far.
    """
    p_far = np.asarray(p_far, dtype=np.float64).reshape(3)
    pf_norm = float(np.linalg.norm(p_far))
    if pf_norm < 2.0:
        raise ValueError(f"|P_far| = {pf_norm} too small; the edge check needs |P_far| >= 2")
    if pf_norm > cutoff * (1.0 + 1e-12):
        raise ValueError(
            f"cutoff {cutoff} is below |P_far| = {pf_norm}; no mode can absorb P_far"
        )
    grid = build_grid(delta, cutoff)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    e_zero = _solve_point(alpha, (0.0, 0.0, 0.0), grid, basis, tol, seed).energy
    e_far = _solve_point(alpha, p_far, grid, basis, tol, seed).energy
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
    feeding a corrupted sequence to the fit.
    """
    lams = schedule.lambdas
    if len(lams) < 3:
        raise ValueError("cutoff schedule must contain at least three cutoffs")
    p = np.asarray(p, dtype=np.float64).reshape(3)
    largest = build_grid(schedule.delta, lams[-1])

    def work(lam):
        grid = largest.within(lam)
        basis = enumerate_basis(len(grid), schedule.n_max, grid.units, grid.spacing)
        return _solve_point(alpha, p, grid, basis, tol, seed)

    results = _parallel_map(work, lams, threads)

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
