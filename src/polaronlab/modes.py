"""Phonon momentum grids inside a UV ball and their coupling amplitudes.

Modes live on the unshifted lattice delta*Z^3 with the origin excluded and
|k| <= Lambda.  The per-mode coupling squared is the exact mass of
|v(k)|^2 = (4 pi |k|)^{-2} over the delta-cube centered at the mode, computed
by per-cell Gauss-Legendre quadrature; the origin cube's mass (which the mode
set omits) is split equally over the six nearest modes.  Exact cell masses
remove the midpoint bias a pointwise sampling of the |k|^{-2} singularity
introduces, so grid sums converge to the continuum integrals they discretize
at the rate the cutoff tail predicts.

Cell integrals are evaluated once per octahedral orbit and mirrored, making
the equal-coupling symmetry exact in floating point.  Kernels are elementwise:
_norm2 keeps the bits of (v * v).sum(axis=1); a cell squares each axis once
on its nodes, broadcasts |k|^2 = (x^2 + y^2) + z^2 over its points in that
order, and sums them by a row-wise .sum(axis=1).  Floating-point addition
is not associative, so any other summation order moves the last bits of
couplings and output bytes.

Every integer lattice (the mode ball, the torus's fiber ball and its cube of
kernel images) is held to one budget, GRID_CAPACITY, read at call time: a
cube of at most max(8 GRID_CAPACITY, 1000) points, checked by _lattice_axis
before it is made, and a ball of at most GRID_CAPACITY points (CapacityError).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CapacityError, _check_int

GRID_CAPACITY = 1_000_000
CELL_CHUNK = 8192  # quadrature points held at a time by _cell_integrals


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


def _norm2(v: np.ndarray) -> np.ndarray:
    """Row-wise squared norms of an (M, 3) array, bitwise (v * v).sum(axis=1).

    NumPy reduces a length-3 axis left to right, so x*x, then + y*y, then
    + z*z keeps every bit (integer sums are exact in any order).
    """
    out = v[:, 0] * v[:, 0]
    out += v[:, 1] * v[:, 1]
    out += v[:, 2] * v[:, 2]
    return out


def _cell_integrals(centers: np.ndarray, delta: float, order: int) -> np.ndarray:
    """Gauss-Legendre product-rule integrals of 1/|k|^2 over delta-cubes.

    Each axis is squared once per cell, on its `order` nodes, and |k|^2 of
    the order^3 points is (x^2 + y^2) + z^2 by broadcasting, the order of
    _norm2; a cell's points are summed by .sum(axis=1) over its whole row
    of a C-contiguous (R, order^3) array (its pairwise order).  Cells go in
    chunks of rows, no temporary past about CELL_CHUNK points.
    """
    x, w = _gauss_legendre(order)
    x = x * (delta / 2.0)
    w = w * (delta / 2.0)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    out = np.empty(len(centers))
    step = max(1, CELL_CHUNK // weights.size)
    for start in range(0, len(centers), step):
        sx, sy, sz = np.square(centers[start:start + step, :, None] + x).transpose(1, 0, 2)
        k2 = (sx[:, :, None, None] + sy[:, None, :, None]) + sz[:, None, None, :]
        k2 = k2.reshape(len(sx), -1)
        out[start:start + step] = np.divide(weights, k2, out=k2).sum(axis=1)
    return out


def _quadrature_order(shells: np.ndarray) -> np.ndarray:
    # higher order near the singularity; converged to <=1e-12 relative
    return np.select([shells <= 1, shells <= 2, shells <= 4], [24, 12, 8], 5)


def _cell_couplings(units: np.ndarray, delta: float) -> np.ndarray:
    """Per-mode couplings g_i > 0 from exact cell masses of |v|^2."""
    if len(units) == 0:
        return np.zeros(0, dtype=np.float64)
    # one orbit per |unit| sorted by a min/max network into (lo, mid, hi); its
    # base-B code orders like that row (entries are non-negative and below B),
    # so reps come out lexicographic, and hi is the shell
    a, b, c = np.abs(units).T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    lo, mid, hi = np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c)), np.maximum(hi, c)
    base = int(hi.max()) + 1
    codes, inverse = np.unique((lo * base + mid) * base + hi, return_inverse=True)
    reps = np.stack([codes // base**2, codes // base % base, codes % base], axis=1)
    cell = np.zeros(len(reps), dtype=np.float64)
    orders = _quadrature_order(reps[:, 2])
    for order in np.unique(orders):
        sel = orders == order
        cell[sel] = _cell_integrals(reps[sel] * delta, delta, int(order))
    g2 = cell[inverse] / (16.0 * math.pi**2)
    g2[_norm2(units) == 1] += delta * _origin_cell_unit() / (16.0 * math.pi**2) / 6.0
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

    def __len__(self) -> int:
        return len(self.units)

    @property
    def is_empty(self) -> bool:
        return len(self.units) == 0

    @cached_property
    def _lookup(self) -> "_UnitLookup":
        """The grid's code-to-mode table, made once, for every map made on it."""
        return _UnitLookup(self.units)

    def within(self, lam: float) -> "ModeGrid":
        """The modes with |k| <= lam, selected by build_grid's integer ball test.

        Couplings are computed per octahedral orbit, independently of the
        cutoff, and selection keeps the lexicographic order, so for a grid
        from build_grid the result is bitwise build_grid(spacing, lam).
        """
        if not 0 < lam <= self.cutoff:
            raise ValueError(f"cutoff {lam} must lie in (0, {self.cutoff}]")
        keep = _norm2(self.units) <= _ball_r2(self.spacing, lam)
        return ModeGrid(self.spacing, float(lam), self.units[keep], self.modes[keep],
                        self.couplings[keep])

    @classmethod
    def manual(cls, spacing: float, cutoff: float, units, couplings) -> "ModeGrid":
        """Hand-built grid with explicitly supplied couplings, checked mode by
        mode: build_grid and within select their modes by the integer ball
        test and compute positive couplings, so they need no such checks."""
        units = np.asarray(units, dtype=np.int64).reshape(-1, 3)
        couplings = np.asarray(couplings, dtype=np.float64).reshape(-1)
        if not 0 < spacing < math.inf:
            raise ValueError("spacing delta must be positive and finite")
        if not 0 < cutoff < math.inf:
            raise ValueError("cutoff Lambda must be positive and finite")
        modes = float(spacing) * units.astype(np.float64)
        if couplings.shape != (len(units),):
            raise ValueError("couplings must be one per mode")
        if (_norm2(units) == 0).any():
            raise ValueError("the origin is not a mode")
        if (_norm2(modes) > cutoff**2 * (1.0 + 1e-12)).any():
            raise ValueError("a mode lies outside the cutoff ball")
        if not ((0 < couplings) & (couplings < math.inf)).all():
            raise ValueError("couplings must be strictly positive and finite")
        return cls(float(spacing), float(cutoff), units, modes, couplings)


def _ball_r2(delta: float, lam: float) -> int:
    """floor((Lambda/delta)^2): unit n lies in the ball iff n^2 <= this integer."""
    return int((lam / delta) ** 2 + 1e-9)


def _lattice_axis(r: int, what: str) -> np.ndarray:
    """The integers -r, ..., r, once the cube [-r, r]^3 fits the lattice budget
    (module docstring); `what` names the lattice."""
    if (2 * r + 1) ** 3 > max(8 * GRID_CAPACITY, 1000):
        raise CapacityError(f"{what} lattice span {2 * r + 1}^3 exceeds capacity {GRID_CAPACITY}")
    return np.arange(-r, r + 1, dtype=np.int64)


def _lattice_cube(r: int, what: str) -> np.ndarray:
    """The integer points of [-r, r]^3 as a ((2r + 1)^3, 3) array, lexicographic,
    under the lattice budget (_lattice_axis)."""
    ax = _lattice_axis(r, what)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def _lattice_ball(r2max: int, what: str, origin: bool) -> np.ndarray:
    """The points n of _lattice_cube with n^2 <= r2max (and n != 0 unless
    `origin`), lexicographic; CapacityError above GRID_CAPACITY points."""
    units = _lattice_cube(math.isqrt(r2max), what)
    n2 = _norm2(units)
    keep = n2 <= r2max
    if not origin:
        keep &= n2 > 0
    units = units[keep]
    if len(units) > GRID_CAPACITY:
        raise CapacityError(f"{what} count {len(units)} exceeds capacity {GRID_CAPACITY}")
    return units


def build_grid(delta: float, lam: float) -> ModeGrid:
    """Standard grid {k in delta*Z^3 : 0 < |k| <= Lambda}, lexicographic order.

    The ball membership test is resolved in exact integer arithmetic
    (n^2 <= floor((Lambda/delta)^2)), so boundary modes at |k| = Lambda are
    included regardless of rounding.  Lambda < delta yields a legal empty grid
    (the free theory).  At most GRID_CAPACITY modes (module docstring).
    """
    if not 0 < delta < math.inf:
        raise ValueError("spacing delta must be positive and finite")
    if not 0 < lam < math.inf:
        raise ValueError("cutoff Lambda must be positive and finite")
    units = _lattice_ball(_ball_r2(delta, lam), "mode", origin=False)
    couplings = _cell_couplings(units, delta)
    modes = delta * units.astype(np.float64)
    return ModeGrid(float(delta), float(lam), units, modes, couplings)


# the group O_h as 48 signed axis permutations R, row by row: R x = signs * x[perm]
_PERMS, _SIGNS = (np.array(rows, dtype=np.int64) for rows in zip(*(
    (perm, signs) for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3))))


def _elements_taking(p, q) -> np.ndarray:
    """Indices of the elements R of O_h (rows of _PERMS, _SIGNS) with R p == q
    exactly; at q = p, the stabilizer of p."""
    p, q = (np.asarray(v, dtype=np.float64).reshape(3) for v in (p, q))
    return np.flatnonzero((_SIGNS * p[_PERMS] == q).all(axis=1))


class _UnitLookup:
    """Exact lookup of integer unit vectors among `units` by one table from
    unit code to mode over [-r, r]^3, r the largest |unit entry|, under the
    lattice budget; a ModeGrid keeps one (_lookup) for every map made on it."""

    def __init__(self, units: np.ndarray):
        self.units = units
        self.r = int(np.abs(units).max(initial=0))
        _lattice_axis(self.r, "unit")
        codes, m = self._code(units), np.arange(len(units))
        self.table = np.full((2 * self.r + 1) ** 3, -1, dtype=np.int64)
        self.table[codes] = m
        self.distinct = bool((self.table[codes] == m).all())

    def _code(self, u: np.ndarray) -> np.ndarray:
        # a signed permutation keeps every |entry|, so one code range serves both
        r, base = self.r, 2 * self.r + 1
        return ((u[..., 0] + r) * base + (u[..., 1] + r)) * base + (u[..., 2] + r)

    def maps(self, which):
        """(idx, ok) for the elements R of O_h in `which`: row e of idx has
        units[idx[e, i]] == R units[i] for every mode i where ok[e]; ok[e] is
        False when an image is not a mode (idx -1 there) or the units repeat
        (then the map would not be one to one)."""
        perms, signs = _PERMS[which], _SIGNS[which]
        idx = self.table[self._code(signs[:, None, :] * self.units[:, perms].transpose(1, 0, 2))]
        return idx, (idx >= 0).all(axis=1) & self.distinct


def _symmetry_maps(grid: ModeGrid, which):
    """(idx, ok) of _UnitLookup.maps on the grid's own lookup, with the exact
    check completed: ok[e] also needs the couplings to satisfy g[idx[e]] == g
    bitwise, so where it holds, idx[e] maps the grid onto itself, idx[e, i]
    the mode at R k_i."""
    idx, ok = grid._lookup.maps(which)
    g = grid.couplings
    return idx, ok & (g[idx] == g).all(axis=1)


def _stabilizer_orbits(grid: ModeGrid, p) -> Optional[np.ndarray]:
    """Per mode, the least mode index of its orbit under the stabilizer of p
    in O_h, or None when that stabilizer acts trivially on the grid.

    It is taken as trivial when it is the identity alone, when a map of it
    fails the exact check of _symmetry_maps (the grid is not closed under it,
    or an orbit has unequal couplings: hand-built grids may break the
    symmetry), or when every orbit is a single mode.
    """
    stabilizer = _elements_taking(p, p)
    if len(stabilizer) == 1:
        return None
    idx, ok = _symmetry_maps(grid, stabilizer)
    if not ok.all():
        return None
    labels = idx.min(axis=0)  # the orbit of i is {R i}, R in the stabilizer
    return None if np.array_equal(labels, np.arange(len(grid))) else labels


@dataclass(frozen=True)
class CutoffSchedule:
    """Three or more strictly increasing cutoffs with shared spacing and truncation."""

    lambdas: tuple
    delta: float
    n_max: int

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if len(lams) < 3:
            raise ValueError("cutoff schedule must contain at least three cutoffs")
        if not all(0 < x < math.inf for x in lams):
            raise ValueError("cutoffs must be positive and finite")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("cutoffs must be strictly increasing")
        if not 0 < self.delta < math.inf:
            raise ValueError("spacing delta must be positive and finite")
        _check_int("N_max", self.n_max, 0)
