"""Occupation-number basis of a truncated bosonic Fock space.

States are labeled by per-mode phonon counts over a finite set of M modes,
restricted to total number n <= N_max.  The basis is ordered by
(total number, lexicographic dense occupation vector), vacuum first, so every
operator assembled over it is block structured by phonon number.  Within a
block of fixed n this ordering equals the *reverse* of lexicographic order on
ascending mode multisets, which is what the closed-form ranking below uses.

All indexing is exact integer arithmetic; no floats enter the bookkeeping.
Phonon momenta are tracked as integer lattice vectors (mode momenta are exact
multiples of the grid spacing) and converted to physical units by a single
multiplication, so momentum additivity holds exactly at the integer level.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import CapacityError

DEFAULT_BASIS_CAPACITY = 5_000_000

def block_dimension(m_modes: int, n: int) -> int:
    """Number of occupation states with exactly n phonons over m_modes modes."""
    if m_modes == 0:
        # empty mode set: only the vacuum exists
        return 1 if n == 0 else 0
    return math.comb(m_modes + n - 1, n)


def basis_dimension(m_modes: int, n_max: int) -> int:
    """Stars-and-bars total, sum of block dimensions for n = 0..n_max."""
    return sum(block_dimension(m_modes, n) for n in range(n_max + 1))


def _ascending_tuples(m_modes: int, n: int) -> np.ndarray:
    """All weakly ascending index tuples of length n from range(m_modes).

    Returned in lexicographic order as an (count, n) int32 array.
    """
    if n == 0:
        return np.zeros((1, 0), dtype=np.int32)
    if m_modes == 0:
        return np.zeros((0, n), dtype=np.int32)
    t = np.arange(m_modes, dtype=np.int32)[:, None]
    for _ in range(n - 1):
        last = t[:, -1].astype(np.int64)
        reps = m_modes - last
        rows = np.repeat(np.arange(len(t)), reps)
        total = int(reps.sum())
        # per-row extension values run from `last` to m_modes-1
        cum0 = np.concatenate([[0], np.cumsum(reps)[:-1]])
        pos = np.arange(total, dtype=np.int64) - np.repeat(cum0, reps)
        new_vals = (last[rows] + pos).astype(np.int32)
        t = np.concatenate([t[rows], new_vals[:, None]], axis=1)
    return t


def _comb_i64(x: np.ndarray, r: int) -> np.ndarray:
    """Vectorized binomial C(x, r) for non-negative int64 x and small fixed r.

    Incremental products keep every intermediate an exact integer; safe from
    overflow for the sizes the basis capacity admits.
    """
    out = np.ones_like(x)
    for i in range(r):
        out = out * (x - i) // (i + 1)
    return np.where(x >= r, out, 0)


def rank_rows(tuples: np.ndarray, m_modes: int) -> np.ndarray:
    """Within-block ordinals (state order) for ascending mode tuples.

    `tuples` is an (N, n) integer array of weakly ascending rows.  Ranks are
    computed against the reverse-lexicographic block order via hockey-stick
    binomial sums, fully vectorized.
    """
    n = tuples.shape[1]
    count = block_dimension(m_modes, n)
    if n == 0:
        return np.zeros(len(tuples), dtype=np.int64)
    lex = np.zeros(len(tuples), dtype=np.int64)
    prev = np.zeros(len(tuples), dtype=np.int64)
    for j in range(n):
        left = n - 1 - j
        a = tuples[:, j].astype(np.int64)
        lex += _comb_i64(m_modes - prev + left, left + 1)
        lex -= _comb_i64(m_modes - a + left, left + 1)
        prev = a
    return count - 1 - lex


class BasisIndex:
    """Complete truncated basis: per-block mode tuples, block offsets, dimension.

    Immutable after construction; safe for concurrent reads.  Per-block mode
    tuples are stored as integer arrays in state order; rank_rows maps tuples
    back to their ordinals.
    """

    def __init__(
        self,
        m_modes: int,
        n_max: int,
        mode_units: Optional[np.ndarray] = None,
        spacing: float = 1.0,
        capacity: int = DEFAULT_BASIS_CAPACITY,
    ):
        if m_modes < 0 or n_max < 0:
            raise ValueError("m_modes and n_max must be non-negative")
        dim = basis_dimension(m_modes, n_max)
        if dim > capacity:
            raise CapacityError(
                f"basis dimension {dim} exceeds capacity {capacity} "
                f"(M={m_modes}, N_max={n_max})"
            )
        self.m_modes = int(m_modes)
        self.n_max = int(n_max)
        self.dimension = dim
        self.spacing = float(spacing)
        if mode_units is not None:
            mode_units = np.asarray(mode_units, dtype=np.int64)
            if mode_units.shape != (m_modes, 3):
                raise ValueError("mode_units must have shape (M, 3)")
        self.mode_units = mode_units
        # block n stored in state order: reverse of lexicographic multiset order
        self._blocks = [
            _ascending_tuples(m_modes, n)[::-1].copy() for n in range(n_max + 1)
        ]
        offs = np.cumsum([0] + [len(b) for b in self._blocks])
        self._offsets = offs
        self._pf_cache: dict = {}
        self._raise_cache: dict = {}

    # -- block access used by assembly ------------------------------------

    def block(self, n: int) -> np.ndarray:
        """(count, n) array of ascending mode tuples, rows in state order."""
        return self._blocks[n]

    def block_offset(self, n: int) -> int:
        return int(self._offsets[n])

    def block_count(self, n: int) -> int:
        return len(self._blocks[n])

    def pf_units(self, n: int) -> np.ndarray:
        """Integer phonon-momentum vectors for block n, shape (count, 3)."""
        if n not in self._pf_cache:
            if self.mode_units is None or n == 0:
                pf = np.zeros((self.block_count(n), 3), dtype=np.int64)
            else:
                pf = self.mode_units[self._blocks[n].astype(np.int64)].sum(axis=1)
            self._pf_cache[n] = pf
        return self._pf_cache[n]

    def total_numbers(self) -> np.ndarray:
        """Per-state total phonon number, in basis order."""
        return np.concatenate(
            [np.full(self.block_count(n), n, dtype=np.int64) for n in range(self.n_max + 1)]
        )

    def raise_map(self, n: int):
        """Raise transitions from block n to block n+1, fully vectorized.

        Returns (src_local, mode, counts, tgt_local) int64 arrays with one
        entry per (state, mode) pair, source states in order (src_local is
        sorted); `counts` is the occupancy of the raised mode in the source
        state, so the matrix element carries sqrt(counts + 1).  Cached: every
        operator over the basis shares it.
        """
        if not 0 <= n < self.n_max:
            raise ValueError(f"no raise block above n = {n} (N_max = {self.n_max})")
        if n in self._raise_cache:
            return self._raise_cache[n]
        a = self._blocks[n]
        c, m_modes = len(a), self.m_modes
        if c == 0 or m_modes == 0:
            empty = np.zeros(0, dtype=np.int64)
            out = (empty, empty, empty, empty)
        else:
            src = np.repeat(np.arange(c, dtype=np.int64), m_modes)
            mode = np.tile(np.arange(m_modes, dtype=np.int64), c)
            col = mode[:, None].astype(np.int32)
            if n:
                counts = (a[src] == col).sum(axis=1).astype(np.int64)
                new_rows = np.sort(np.concatenate([a[src], col], axis=1), axis=1)
            else:
                counts = np.zeros(c * m_modes, dtype=np.int64)
                new_rows = col
            tgt = rank_rows(new_rows, m_modes)
            out = (src, mode, counts, tgt)
        self._raise_cache[n] = out
        return out


def enumerate_basis(
    m_modes: int,
    n_max: int,
    mode_units: Optional[np.ndarray] = None,
    spacing: float = 1.0,
    capacity: int = DEFAULT_BASIS_CAPACITY,
) -> BasisIndex:
    """Enumerate the complete truncated basis over m_modes modes.

    Deterministic ordering across runs and platforms.  Raises CapacityError if
    the stars-and-bars dimension exceeds `capacity` (checked before any
    enumeration work).  The optional mode table attaches exact momenta to the
    states; without it all states carry zero momentum.
    """
    return BasisIndex(m_modes, n_max, mode_units, spacing, capacity)
