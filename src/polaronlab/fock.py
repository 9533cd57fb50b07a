"""Occupation-number basis of a truncated bosonic Fock space.

States are labeled by per-mode phonon counts over a finite set of M modes,
restricted to total number n <= N_max.  The basis is ordered by
(total number, lexicographic dense occupation vector), vacuum first, so every
operator assembled over it is block structured by phonon number.  Within a
block of fixed n this ordering equals the *reverse* of lexicographic order on
ascending mode multisets.  In that lex order the tuples extending one shorter
tuple form a contiguous run, so a tuple is ranked by its prefixes: the run of
prefix r_0..r_{j-1} starts at the exclusive cumulative sum of (M - last
entry) over the length-j tuples before it, and r_j - r_{j-1} is the offset
within the run.  Ranks never exceed the block size.

All indexing is exact integer arithmetic; no floats enter the bookkeeping,
so raise maps (min/max insertion) and momenta (column sums) are order-free.
Phonon momenta are tracked as integer lattice vectors (mode momenta are exact
multiples of the grid spacing) and converted to physical units by a single
multiplication, so momentum additivity holds exactly at the integer level.

Block sizes and offsets are closed form (stars and bars), and a block's
tuples are enumerated only when first read, so a basis that is only sized or
validated costs nothing.  A basis holds at most BASIS_CAPACITY states, read
at call time and checked on the closed-form dimension before anything is
allocated (CapacityError).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import CapacityError, _check_int

BASIS_CAPACITY = 5_000_000


def basis_dimension(m_modes: int, n_max: int) -> int:
    """States with at most n_max phonons over m_modes modes: the hockey-stick
    sum of the stars-and-bars block sizes C(M + n - 1, n), n = 0..n_max, or 1
    (the vacuum) when there are no modes."""
    return math.comb(m_modes + n_max, n_max)


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


class BasisIndex:
    """Complete truncated basis: block sizes and offsets, per-block mode tuples.

    Sizes, offsets and the dimension are closed form.  Each block's tuples
    (integer arrays in state order), its P_f units and the raise maps are
    computed on first read and cached; raise_map ranks the raised tuples by
    the prefix rule of the module docstring.  The caches are filled without
    a lock: FiberFamily reads every table on the calling thread before any
    fiber is made from a pool, so they are full before threads read them,
    and threads racing on an empty cache would only build the same table
    twice and keep one.
    """

    def __init__(
        self,
        m_modes: int,
        n_max: int,
        mode_units: Optional[np.ndarray] = None,
        spacing: float = 1.0,
    ):
        _check_int("m_modes", m_modes, 0)
        _check_int("n_max", n_max, 0)
        dim = basis_dimension(m_modes, n_max)
        if dim > BASIS_CAPACITY:
            raise CapacityError(
                f"basis dimension {dim} exceeds capacity {BASIS_CAPACITY} "
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
        self._block_cache: dict = {}
        self._pf_cache: dict = {}
        self._raise_cache: dict = {}

    # -- block access used by assembly ------------------------------------

    def _check_block(self, n: int, top: int) -> None:
        if not 0 <= n <= top:
            raise IndexError(f"block n = {n} outside 0..{top} (N_max = {self.n_max})")

    def block(self, n: int) -> np.ndarray:
        """(count, n) array of ascending mode tuples, rows in state order
        (the reverse of lexicographic multiset order), enumerated on first read."""
        self._check_block(n, self.n_max)
        if n not in self._block_cache:
            self._block_cache[n] = _ascending_tuples(self.m_modes, n)[::-1].copy()
        return self._block_cache[n]

    def block_offset(self, n: int) -> int:
        """Index of block n's first state, the states with fewer than n phonons;
        n = N_max + 1 gives the dimension."""
        self._check_block(n, self.n_max + 1)
        return basis_dimension(self.m_modes, n - 1) if n else 0

    def block_count(self, n: int) -> int:
        """States with exactly n phonons: C(M + n - 1, n)."""
        self._check_block(n, self.n_max)
        return math.comb(self.m_modes + n - 1, n) if n else 1

    def pf_units(self, n: int) -> np.ndarray:
        """Integer phonon-momentum vectors for block n, shape (count, 3)."""
        if n not in self._pf_cache:
            if self.mode_units is None or n == 0:
                pf = np.zeros((self.block_count(n), 3), dtype=np.int64)
            else:
                block = self.block(n)  # integer sums: exact in any order
                pf = self.mode_units[block[:, 0]]
                for j in range(1, n):
                    pf += self.mode_units[block[:, j]]
            self._pf_cache[n] = pf
        return self._pf_cache[n]

    def total_numbers(self) -> np.ndarray:
        """Per-state total phonon number, in basis order."""
        return np.concatenate(
            [np.full(self.block_count(n), n, dtype=np.int64) for n in range(self.n_max + 1)]
        )

    def raise_map(self, n: int):
        """Raise transitions from block n to block n+1, fully vectorized.

        Returns (counts, tgt_local) int64 arrays with one entry per (state,
        mode) pair, in the order of np.repeat(arange(count), M) for the
        source state and np.tile(arange(M), count) for the mode, which
        callers derive rather than store; `counts` is the occupancy of the
        raised mode in the source state, so the matrix element carries
        sqrt(counts + 1).  Cached: every operator over the basis shares it.
        """
        if not 0 <= n < self.n_max:
            raise ValueError(f"no raise block above n = {n} (N_max = {self.n_max})")
        if n in self._raise_cache:
            return self._raise_cache[n]
        a = self.block(n)
        c, m_modes = len(a), self.m_modes
        if c == 0 or m_modes == 0:
            empty = np.zeros(0, dtype=np.int64)
            out = (empty, empty)
        else:
            # insert the raised mode into each ascending row by min/max and
            # rank the raised row by the prefix rule as each column is emitted
            modes = np.arange(m_modes, dtype=np.int32)
            counts = np.zeros((c, m_modes), dtype=np.int64)
            lex = np.zeros((c, m_modes), dtype=np.int64)  # lex rank of the prefix so far
            carry = np.tile(modes, (c, 1))  # the mode until placed, then the row's largest
            prev = 0
            for j in range(n + 1):
                if j < n:
                    src = a[:, j, None]
                    counts += src == modes
                    col = np.minimum(src, carry)
                    np.maximum(src, carry, out=carry)
                else:
                    col = carry
                if j:  # jump to the start of the run that extends the length-j prefix
                    runs = m_modes - self.block(j)[::-1, -1].astype(np.int64)
                    lex = (np.cumsum(runs) - runs)[lex]
                lex += col
                lex -= prev
                prev = col
            np.subtract(self.block_count(n + 1) - 1, lex, out=lex)
            out = (counts.ravel(), lex.ravel())
        self._raise_cache[n] = out
        return out


def enumerate_basis(
    m_modes: int,
    n_max: int,
    mode_units: Optional[np.ndarray] = None,
    spacing: float = 1.0,
) -> BasisIndex:
    """Enumerate the complete truncated basis over m_modes modes.

    Deterministic ordering across runs and platforms.  Raises CapacityError if
    the stars-and-bars dimension exceeds BASIS_CAPACITY (checked before any
    enumeration work), and ValueError before that unless m_modes and n_max
    are ints (not bools) of at least 0.  The optional mode table attaches
    exact momenta to the states; without it all states carry zero momentum.
    """
    return BasisIndex(m_modes, n_max, mode_units, spacing)
