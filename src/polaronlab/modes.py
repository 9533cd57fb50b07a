"""Phonon momentum grids inside a UV ball, coupling amplitudes, cutoff tail.

Modes live on the unshifted lattice delta*Z^3 with the origin excluded and
|k| <= Lambda.  The per-mode coupling squared is the exact mass of
|v(k)|^2 = (4 pi |k|)^{-2} over the delta-cube centered at the mode, computed
by per-cell Gauss-Legendre quadrature; the origin cube's mass (which the mode
set omits) is split equally over the six nearest modes.  Exact cell masses
remove the midpoint bias a pointwise sampling of the |k|^{-2} singularity
introduces, so grid sums converge to the continuum integrals they discretize
at the rate the cutoff tail predicts.

Cell integrals are evaluated once per octahedral orbit and mirrored, making
the equal-coupling symmetry exact in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CapacityError

DEFAULT_GRID_CAPACITY = 1_000_000


def form_factor(k) -> float:
    """Momentum-space amplitude 1/(4 pi |k|); singular at the origin."""
    norm = float(np.linalg.norm(np.asarray(k, dtype=np.float64)))
    if norm <= 0.0:
        raise ValueError("form factor is singular at k = 0")
    return 1.0 / (4.0 * math.pi * norm)


def tail_integral(lam: float) -> float:
    """Closed form of the cutoff tail: int_{|k|>Lambda} dk / (k^2 (k^2+1)).

    Radial reduction gives 4 pi (pi/2 - arctan Lambda); strictly decreasing,
    bounded by 4 pi / Lambda for Lambda >= 1.
    """
    if lam < 0:
        raise ValueError("cutoff must be non-negative")
    return 4.0 * math.pi * (math.pi / 2.0 - math.atan(lam))


@lru_cache(maxsize=1)
def _origin_cell_unit() -> float:
    """Integral of 1/|k|^2 over the unit cube centered at the origin.

    Exact 1D reduction (split into six pyramids, scale out the radius):
    3 * int_{-1}^{1} (2/sqrt(1+u^2)) arctan(1/sqrt(1+u^2)) du.
    Gauss-Legendre 96 resolves the smooth integrand to machine precision.
    """
    x, w = leggauss(96)
    s = np.sqrt(1.0 + x * x)
    return 3.0 * float(np.sum(w * (2.0 / s) * np.arctan(1.0 / s)))


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once, read-only."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _cell_integrals(centers: np.ndarray, delta: float, order: int) -> np.ndarray:
    """Gauss-Legendre product-rule integrals of 1/|k|^2 over delta-cubes."""
    x, w = _gauss_legendre(order)
    x = x * (delta / 2.0)
    w = w * (delta / 2.0)
    gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    k = centers[:, None, :] + pts[None, :, :]
    return (weights[None, :] / (k * k).sum(axis=2)).sum(axis=1)


def _quadrature_order(shell: int) -> int:
    # higher order near the singularity; converged to <=1e-12 relative
    if shell <= 1:
        return 24
    if shell <= 2:
        return 12
    if shell <= 4:
        return 8
    return 5


def _cell_couplings(units: np.ndarray, delta: float) -> np.ndarray:
    """Per-mode couplings g_i > 0 from exact cell masses of |v|^2."""
    if len(units) == 0:
        return np.zeros(0, dtype=np.float64)
    # one orbit per sorted |unit|; its base-B code orders like the row itself
    # (entries are non-negative and below B), so reps come out lexicographic
    key = np.sort(np.abs(units), axis=1)
    base = int(key.max()) + 1
    codes, inverse = np.unique(
        (key[:, 0] * base + key[:, 1]) * base + key[:, 2], return_inverse=True
    )
    reps = np.stack([codes // base**2, codes // base % base, codes % base], axis=1)
    shells = reps.max(axis=1)
    cell = np.zeros(len(reps), dtype=np.float64)
    orders = np.array([_quadrature_order(int(s)) for s in shells])
    for order in np.unique(orders):
        sel = orders == order
        cell[sel] = _cell_integrals(reps[sel] * delta, delta, int(order))
    g2 = cell[inverse] / (16.0 * math.pi**2)
    nearest = (units * units).sum(axis=1) == 1
    g2 = g2 + np.where(
        nearest, delta * _origin_cell_unit() / (16.0 * math.pi**2) / 6.0, 0.0
    )
    return np.sqrt(g2)


@dataclass(frozen=True)
class ModeGrid:
    """Finite mode set: spacing, cutoff, momenta, and positive couplings.

    `units` are the exact integer lattice coordinates; `modes` = spacing *
    units.  Grids from build_grid carry full octahedral symmetry with exactly
    equal couplings across each orbit; hand-built grids (ModeGrid.manual) are
    test scaffolding and may break the symmetry deliberately.
    """

    spacing: float
    cutoff: float
    units: np.ndarray
    modes: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing delta must be positive")
        if self.cutoff <= 0:
            raise ValueError("cutoff Lambda must be positive")
        if self.units.shape != self.modes.shape or self.units.shape[1:] != (3,):
            raise ValueError("modes and units must be (M, 3) arrays")
        if self.couplings.shape != (len(self.units),):
            raise ValueError("couplings must be one per mode")
        if len(self.units):
            n2 = (self.units * self.units).sum(axis=1)
            if (n2 == 0).any():
                raise ValueError("the origin is not a mode")
            k2 = (self.modes * self.modes).sum(axis=1)
            if (k2 > self.cutoff**2 * (1.0 + 1e-12)).any():
                raise ValueError("a mode lies outside the cutoff ball")
            if (self.couplings <= 0).any():
                raise ValueError("couplings must be strictly positive")

    def __len__(self) -> int:
        return len(self.units)

    @property
    def is_empty(self) -> bool:
        return len(self.units) == 0

    def k_squared(self) -> np.ndarray:
        return (self.modes * self.modes).sum(axis=1)

    def within(self, lam: float) -> "ModeGrid":
        """The modes with |k| <= lam, selected by build_grid's integer ball test.

        Couplings are computed per octahedral orbit, independently of the
        cutoff, and selection keeps the lexicographic order, so for a grid
        from build_grid the result is bitwise build_grid(spacing, lam).
        """
        if not 0 < lam <= self.cutoff:
            raise ValueError(f"cutoff {lam} must lie in (0, {self.cutoff}]")
        keep = (self.units * self.units).sum(axis=1) <= _ball_r2(self.spacing, lam)
        return ModeGrid(self.spacing, float(lam), self.units[keep], self.modes[keep],
                        self.couplings[keep])

    @classmethod
    def manual(cls, spacing: float, cutoff: float, units, couplings) -> "ModeGrid":
        """Hand-built grid with explicitly supplied couplings."""
        units = np.asarray(units, dtype=np.int64).reshape(-1, 3)
        couplings = np.asarray(couplings, dtype=np.float64).reshape(-1)
        modes = float(spacing) * units.astype(np.float64)
        return cls(float(spacing), float(cutoff), units, modes, couplings)


def _ball_r2(delta: float, lam: float) -> int:
    """floor((Lambda/delta)^2): unit n lies in the ball iff n^2 <= this integer."""
    return int((lam / delta) ** 2 + 1e-9)


def build_grid(
    delta: float, lam: float, capacity: int = DEFAULT_GRID_CAPACITY
) -> ModeGrid:
    """Standard grid {k in delta*Z^3 : 0 < |k| <= Lambda}, lexicographic order.

    The ball membership test is resolved in exact integer arithmetic
    (n^2 <= floor((Lambda/delta)^2)), so boundary modes at |k| = Lambda are
    included regardless of rounding.  Lambda < delta yields a legal empty grid
    (the free theory).
    """
    if delta <= 0:
        raise ValueError("spacing delta must be positive")
    if lam <= 0:
        raise ValueError("cutoff Lambda must be positive")
    r2max = _ball_r2(delta, lam)
    r = math.isqrt(r2max)
    if (2 * r + 1) ** 3 > max(8 * capacity, 1000):
        raise CapacityError(
            f"mode lattice span {(2 * r + 1)}^3 exceeds capacity {capacity}"
        )
    ax = np.arange(-r, r + 1, dtype=np.int64)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    units = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    n2 = (units * units).sum(axis=1)
    units = units[(n2 > 0) & (n2 <= r2max)]  # the ij ravel is lexicographic
    if len(units) > capacity:
        raise CapacityError(f"mode count {len(units)} exceeds capacity {capacity}")
    couplings = _cell_couplings(units, delta)
    modes = delta * units.astype(np.float64)
    return ModeGrid(float(delta), float(lam), units, modes, couplings)


def _axis_map(units: np.ndarray, perm, signs) -> Optional[np.ndarray]:
    """Mode map of the signed axis permutation x -> signs * x[perm].

    Returns idx with units[idx[i]] == signs * units[i, perm] for every mode
    i, found by exact integer lookup, or None when an image is not a mode or
    the units repeat (then the map would not be one to one).
    """
    if len(units) == 0:
        return np.zeros(0, dtype=np.int64)
    image = np.asarray(signs, dtype=np.int64) * units[:, list(perm)]
    # the image keeps every |entry|, so one code range serves both
    r = int(np.abs(units).max())
    base = 2 * r + 1

    def code(u):
        return ((u[:, 0] + r) * base + (u[:, 1] + r)) * base + (u[:, 2] + r)

    keys = code(units)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    if (np.diff(ranked) == 0).any():
        return None
    wanted = code(image)
    pos = np.minimum(np.searchsorted(ranked, wanted), len(ranked) - 1)
    if not np.array_equal(ranked[pos], wanted):
        return None
    return order[pos]


def riemann_selfenergy_sum(grid: ModeGrid) -> float:
    """Discrete self-energy sum over the grid, sum_i g_i^2 / (k_i^2 + 1).

    Converges to (4 pi)^{-2} * 2 pi^2 = 1/8 as delta -> 0, Lambda -> infinity.
    """
    if grid.is_empty:
        raise ValueError("self-energy sum needs a non-empty grid")
    return float((grid.couplings**2 / (grid.k_squared() + 1.0)).sum())


@dataclass(frozen=True)
class CutoffSchedule:
    """Strictly increasing cutoff values with shared spacing and truncation."""

    lambdas: tuple
    delta: float
    n_max: int

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if len(lams) == 0:
            raise ValueError("schedule must contain at least one cutoff")
        if any(x <= 0 for x in lams):
            raise ValueError("cutoffs must be positive")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("cutoffs must be strictly increasing")
        if self.delta <= 0:
            raise ValueError("spacing delta must be positive")
        if self.n_max < 0:
            raise ValueError("N_max must be non-negative")
