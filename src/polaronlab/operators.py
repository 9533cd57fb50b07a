"""Sparse assembly of fiber Hamiltonians and their factorization diagnostics.

The fiber operator at conserved momentum P acts on the truncated phonon space:
its diagonal is the kinetic term (P - P_f)^2 + N and its off-diagonal part
couples adjacent number blocks through the mode couplings g_i.  Everything is
assembled block-at-a-time from integer occupation tables, so matrix elements
are exact where the inputs are exact (alpha = 0 stays strictly diagonal).
An operator is stored once, as a symmetric CSR matrix (SparseOperator.csr)
that serves matvec, diagonal, to_dense, sign_flip and solve.count_below.
The coupling part does not depend on P, so a FiberFamily builds its CSR
structure, with a slot for every diagonal entry, and the per-state P_f and N
once per grid and basis; each fiber copies the values and fills in its
diagonal.

The norm certificates (weighted_annihilation_norm, neumann_norms,
neumann_constant) are operator norms of B = sqrt(alpha) A diag(w), the
annihilation part under a diagonal weight, and of its powers.  B lowers N by
one, so B B^T is block diagonal in N and ||B||^2 = max_n ||B_n B_n^T||, solved
per number block: B_n, the |block n| x |block n+1| piece of B, comes straight
from basis.raise_map(n), and the row-side Gram of each block (and of each
block product B_n ... B_{n+j-1} for B^j) goes to solve.lowest_eigenpairs, the
same certified solver that serves the fibers.  No dim x dim matrix is formed.
The dense assemble_KT and the Neumann diagnostics refuse to run above a
dimension cap instead of silently thrashing memory.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Tuple

import numpy as np
import scipy.sparse

from .fock import BasisIndex
from .modes import ModeGrid
from .solve import (
    DEFAULT_DENSE_CAP, DEFAULT_SEED, DEFAULT_TOL, _check_dense_cap, lowest_eigenpairs,
)


class SparseOperator:
    """Symmetric sparse matrix held as one symmetric CSR matrix, `csr`.

    The constructor takes the upper triangle (row <= col) as triplets, drops
    exact zeros, rejects duplicates and builds `csr` in canonical form, so two
    assemblies of the same operator compare equal entry by entry.  rows,
    cols, vals and nnz read the upper triangle back, in (row, col) order and
    as read-only arrays.
    """

    def __init__(self, dimension: int, rows, cols, vals):
        dimension = int(dimension)
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size:
            if rows.min() < 0 or cols.max() >= dimension:
                raise ValueError("entry indices out of range")
            if (rows > cols).any():
                raise ValueError("entries must satisfy row <= col (upper triangle)")
        keep = vals != 0.0
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate entry at (row, col) = ({rows[k]}, {cols[k]})")
        off = rows != cols
        self.dimension = dimension
        self.csr = scipy.sparse.csr_matrix(
            (np.concatenate([vals, vals[off]]),
             (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
            shape=(dimension, dimension),
        )

    @classmethod
    def _from_csr(cls, csr: scipy.sparse.csr_matrix) -> "SparseOperator":
        """Wrap a symmetric CSR matrix already in canonical form, without copying."""
        op = cls.__new__(cls)
        op.dimension, op.csr = csr.shape[0], csr
        return op

    def _upper(self, name: str) -> np.ndarray:
        """One read-only array (row, col or data) of the upper triangle."""
        a = getattr(scipy.sparse.triu(self.csr, format="coo"), name)
        a.flags.writeable = False
        return a

    @property
    def rows(self) -> np.ndarray:
        return self._upper("row")

    @property
    def cols(self) -> np.ndarray:
        return self._upper("col")

    @property
    def vals(self) -> np.ndarray:
        return self._upper("data")

    @property
    def nnz(self) -> int:
        """Stored entries of the upper triangle."""
        return int(self.vals.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise ValueError(f"vector of length {self.dimension} expected")
        return self.csr @ x

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


@dataclass(frozen=True)
class FiberConfig:
    """Parameters of one fiber operator: coupling, momentum, grid, truncation."""

    alpha: float
    p: np.ndarray
    grid: ModeGrid
    n_max: int

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        p = np.asarray(self.p, dtype=np.float64).reshape(3)
        object.__setattr__(self, "p", p)
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")


def _check_basis(cfg: FiberConfig, basis: BasisIndex) -> None:
    grid = cfg.grid
    if basis.m_modes != len(grid):
        raise ValueError(
            f"basis has {basis.m_modes} modes but the grid has {len(grid)}"
        )
    if basis.n_max != cfg.n_max:
        raise ValueError(
            f"basis truncation N_max = {basis.n_max} does not match cfg.n_max = {cfg.n_max}"
        )
    if len(grid):
        if basis.mode_units is None:
            raise ValueError("basis carries no mode-momentum table; rebuild it from the grid")
        if basis.spacing != grid.spacing or not np.array_equal(basis.mode_units, grid.units):
            raise ValueError("basis momentum table does not match the grid")


def _state_momenta(basis: BasisIndex) -> Tuple[np.ndarray, np.ndarray]:
    """Per-state phonon momentum P_f as a (3, dim) array, and number N, as floats."""
    units = np.concatenate([basis.pf_units(n) for n in range(basis.n_max + 1)])
    return basis.spacing * units.T.astype(np.float64), basis.total_numbers().astype(np.float64)


def _kinetic(p: np.ndarray, pf: np.ndarray, nums: np.ndarray) -> np.ndarray:
    d = (p[0] - pf[0]) ** 2
    d += (p[1] - pf[1]) ** 2
    d += (p[2] - pf[2]) ** 2
    d += nums
    return d


def kinetic_diagonal(cfg: FiberConfig, basis: BasisIndex) -> np.ndarray:
    """(P - P_f)^2 + N per state.  P_f comes from exact integer mode sums."""
    _check_basis(cfg, basis)
    return _kinetic(cfg.p, *_state_momenta(basis))


class FiberFamily:
    """Fiber operators H(P) = D(P) + sqrt(alpha) V over one grid and basis.

    The coupling V = A + A^T (A the annihilation part) does not depend on P,
    so the CSR of sqrt(alpha) V + 1, whose unit diagonal reserves a slot per
    state, the position of each slot and the per-state P_f and N are built
    once.  fiber(p) copies the values and fills the slots with the kinetic
    diagonal D(P) = (P - P_f)^2 + N; the result is entry for entry what the
    triplet constructor gives, including the exact-zero vacuum diagonal
    dropped at P = 0.  Fibers share the (read-only) index arrays and own their values,
    and building the family fills the basis caches, so fibers can be made
    and solved from several threads.
    """

    def __init__(self, alpha: float, grid: ModeGrid, basis: BasisIndex):
        cfg = FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=basis.n_max)
        n = self.dimension = basis.dimension
        a = annihilation_csr(cfg, basis)
        csr = a + a.T + scipy.sparse.identity(n, format="csr")
        # P_f and N after the CSR, whose build is the peak of a family of one
        del a
        self._pf, self._nums = _state_momenta(basis)
        self._indptr, self._indices, self._data = csr.indptr, csr.indices, csr.data
        self._diag = np.flatnonzero(
            self._indices == np.repeat(np.arange(n), np.diff(self._indptr)))
        self._indices.flags.writeable = False
        self._indptr.flags.writeable = False

    def fiber(self, p) -> SparseOperator:
        """The fiber operator at momentum p."""
        d = _kinetic(np.asarray(p, dtype=np.float64).reshape(3), self._pf, self._nums)
        n = self.dimension
        indices, indptr = self._indices, self._indptr
        data = self._data.copy()
        data[self._diag] = d
        if d[0] == 0.0:
            # the vacuum at P = 0: the only state with N = 0 leads the CSR,
            # and its exact zero is dropped as the triplet constructor drops
            # zeros (every other diagonal entry is >= 1)
            indices, data = indices[1:], data[1:]
            indptr = indptr - 1
            indptr[0] = 0
        return SparseOperator._from_csr(
            scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n)))


def assemble_fiber(cfg: FiberConfig, basis: BasisIndex) -> SparseOperator:
    """Fiber operator (P - P_f)^2 + N + sqrt(alpha) * (a(v) + a*(v)): a family of one."""
    _check_basis(cfg, basis)  # also checks cfg.n_max, which the family takes from the basis
    return FiberFamily(cfg.alpha, cfg.grid, basis).fiber(cfg.p)


def annihilation_csr(
    cfg: FiberConfig, basis: BasisIndex, include_alpha: bool = True
) -> scipy.sparse.csr_matrix:
    """The (non-symmetric) coupled annihilation part as a square CSR matrix.

    Row s, column t carries [sqrt(alpha)] g_i sqrt(n_i(s) + 1) whenever t is s
    with one extra phonon in mode i, i.e. the matrix maps block n+1 down to n.
    """
    _check_basis(cfg, basis)
    scale = float(np.sqrt(cfg.alpha)) if include_alpha else 1.0
    empty = np.zeros(0, dtype=np.int64)
    rr, cc, vv = [empty], [empty], [np.zeros(0)]
    if scale != 0.0 and len(cfg.grid):
        for n in range(basis.n_max):
            src, tgt, vals = _annihilation_block(cfg.grid, basis, n, scale)
            rr.append(basis.block_offset(n) + src)
            cc.append(basis.block_offset(n + 1) + tgt)
            vv.append(vals)
    return scipy.sparse.csr_matrix(
        (np.concatenate(vv), (np.concatenate(rr), np.concatenate(cc))),
        shape=(basis.dimension, basis.dimension),
    )


def _annihilation_block(grid: ModeGrid, basis: BasisIndex, n: int, scale: float):
    """(src, tgt, vals): scale * A from block n+1 down to block n, block-local indices."""
    src, mode, counts, tgt = basis.raise_map(n)
    return src, tgt, scale * grid.couplings[mode] * np.sqrt(counts + 1.0)


def assemble_KT(
    cfg: FiberConfig, basis: BasisIndex, dense_cap: int = DEFAULT_DENSE_CAP
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense factor pair (K, T) with K + T = fiber + 1 as an exact identity.

    K = (1 + sqrt(alpha) A d^{-1}) d (1 + sqrt(alpha) A d^{-1})^T with d the
    free diagonal and A the bare annihilation part; T = -alpha (A d^{-1}) A^T.
    K is symmetric positive definite; T is symmetric negative semidefinite.
    """
    _check_dense_cap(basis.dimension, dense_cap)
    d = kinetic_diagonal(cfg, basis) + 1.0
    a = annihilation_csr(cfg, basis, include_alpha=False).toarray()
    ad = a / d[None, :]
    sqrt_alpha = float(np.sqrt(cfg.alpha))
    ell = np.eye(basis.dimension) + sqrt_alpha * ad
    k = (ell * d[None, :]) @ ell.T
    t = -cfg.alpha * (ad @ a.T)
    k = 0.5 * (k + k.T)
    t = 0.5 * (t + t.T)
    return k, t


def sign_flip(op: SparseOperator, basis: BasisIndex) -> SparseOperator:
    """Conjugate by (-1)^N: entries between blocks of opposite parity flip sign.

    The result shares op's index arrays and owns its values.
    """
    if op.dimension != basis.dimension:
        raise ValueError("operator and basis dimensions differ")
    csr = op.csr
    nums = basis.total_numbers()
    odd = (np.repeat(nums, np.diff(csr.indptr)) + nums[csr.indices]) % 2 == 1
    data = np.where(odd, -csr.data, csr.data)
    return SparseOperator._from_csr(
        scipy.sparse.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape))


def _operator_norm(gram: Callable[[np.ndarray], np.ndarray], n: int, seed: int) -> float:
    """||F|| from the matvec x -> F F^T x of its row-side Gram, of dimension n.

    The norm certificates pass one number block's Gram here, B_n B_n^T or
    that of a block product, so ||B||^2 = max_n ||B_n B_n^T|| is solved per
    number block.  ||F|| = sqrt(-theta) for theta the lowest eigenvalue of
    -F F^T, which the eigensolver sees with a zero diagonal, so its
    preconditioner is the identity.  The residual tolerance is taken relative
    to ||F F^T x0|| for a random unit x0, a lower bound on ||F||^2, so norms
    far below the solver's absolute tolerance keep their relative accuracy.
    A Gram that annihilates x0 is zero (with probability one), and its norm
    is +0.0.
    """
    x0 = np.random.default_rng(seed).standard_normal(n)
    scale = float(np.linalg.norm(gram(x0 / np.linalg.norm(x0))))
    if scale == 0.0:
        return 0.0
    op = SimpleNamespace(dimension=n, matvec=lambda x: -gram(x), diagonal=lambda: np.zeros(n))
    theta = lowest_eigenpairs(op, tol=DEFAULT_TOL * scale, seed=seed)[0].energy
    return math.sqrt(max(0.0, -theta))


def _block_factors(cfg: FiberConfig, basis: BasisIndex, h0_power: float,
                   number_power: float) -> list:
    """[B_0, ..., B_{N_max - 1}] for B = sqrt(alpha) A diag(w) at cfg.p.

    w = h0^h0_power (N + 1)^number_power.  B lowers N by one, so it is zero
    outside its pieces B_n, the |block n| x |block n+1| CSR matrices that
    carry annihilation_csr's entries of that block times w on block n+1.
    """
    _check_basis(cfg, basis)
    scale = float(np.sqrt(cfg.alpha))
    factors = []
    for n in range(basis.n_max):
        src, tgt, vals = _annihilation_block(cfg.grid, basis, n, scale)
        pf = basis.spacing * basis.pf_units(n + 1).T.astype(np.float64)
        w = (_kinetic(cfg.p, pf, n + 1.0) + 1.0) ** h0_power * (n + 2.0) ** number_power
        rows = basis.block_count(n)
        # raise-map entries run over the source states in order
        indptr = np.searchsorted(src, np.arange(rows + 1))
        factors.append(scipy.sparse.csr_matrix(
            (vals * w[tgt], tgt, indptr), shape=(rows, basis.block_count(n + 1))))
    return factors


def _power_norm(factors: list, j: int, seed: int) -> float:
    """||B^j|| for B with number-block pieces `factors`, +0.0 when j > N_max.

    B^j maps block n + j to block n through F = B_n B_{n+1} ... B_{n+j-1},
    and these pieces share no row or column, so ||B^j|| is the largest
    ||F||, each from its row-side Gram F F^T on block n.
    """
    def chain_norm(chain):
        def gram(x):
            for f in chain:
                x = f.T @ x
            for f in reversed(chain):
                x = f @ x
            return x
        return _operator_norm(gram, chain[0].shape[0], seed)

    return max((chain_norm(factors[n:n + j]) for n in range(len(factors) - j + 1)),
               default=0.0)


def neumann_norms(
    cfg: FiberConfig,
    basis: BasisIndex,
    j_max: int,
    dense_cap: int = DEFAULT_DENSE_CAP,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Operator norms s_j = || (sqrt(alpha) A h0^{-1})^j || for j = 1..j_max.

    h0 is the free diagonal at cfg.p.  The truncation makes the chain
    nilpotent, so s_j vanishes identically once j exceeds N_max.
    """
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    _check_dense_cap(basis.dimension, dense_cap)
    factors = _block_factors(cfg, basis, -1.0, 0.0)
    return np.array([_power_norm(factors, j, seed) for j in range(1, j_max + 1)])


def weighted_annihilation_norm(
    cfg: FiberConfig, basis: BasisIndex, seed: int = DEFAULT_SEED
) -> float:
    """|| sqrt(alpha) A h0^{-1/2} (N + 1)^{-1/4} || at cfg.p, fully sparse.

    This is the uniform-in-cutoff bound certificate: the weight combines the
    inverse square root of the free diagonal with the number damping.
    """
    return _power_norm(_block_factors(cfg, basis, -0.5, -0.25), 1, seed)


def neumann_constant(
    cfg: FiberConfig,
    basis: BasisIndex,
    dense_cap: int = DEFAULT_DENSE_CAP,
    seed: int = DEFAULT_SEED,
) -> float:
    """Constant C = || sqrt(alpha) A h0^{-1} (N + 1)^{1/4} || controlling s_j decay.

    Blockwise, || sqrt(alpha) A h0^{-1} restricted to block n || <= C (n+1)^{-1/4},
    which chains to s_j <= C^j / (j!)^{1/4} on the truncated space.
    """
    _check_dense_cap(basis.dimension, dense_cap)
    return _power_norm(_block_factors(cfg, basis, -1.0, 0.25), 1, seed)
