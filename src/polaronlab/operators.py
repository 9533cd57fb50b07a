"""Sparse assembly of fiber Hamiltonians and their factorization diagnostics.

The fiber operator at conserved momentum P acts on the truncated phonon space:
its diagonal is the kinetic term (P - P_f)^2 + N and its off-diagonal part
couples adjacent number blocks through the mode couplings g_i.  Everything is
assembled block-at-a-time from integer occupation tables, so matrix elements
are exact where the inputs are exact (alpha = 0 stays strictly diagonal).
An operator is stored once, as a symmetric CSR matrix (SparseOperator.csr)
that serves matvec, diagonal, to_dense, sign_flip and solve.count_below.
Assembly hands SparseOperator a canonical CSR (sorted indices, no duplicates,
no stored zeros), so two assemblies of one operator compare equal entry by
entry.
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
block product B_n ... B_{n+j-1} for B^j) goes, as a matvec, to the core of
solve.lowest_eigenpairs, the same certified solver that serves the fibers.  No dim x dim matrix is formed.
At N_max = 2 no two-phonon state is ranked at all: B_0 is the row
s w_1 (s = sqrt(alpha) g, w_1 the weight on the one-phonon states), and
B_1 B_1^T is the M x M pair sum G(R) of pair_gram with R_ik = w_ik^2, the
squared weight of the two-phonon state {i, k}.  So ||B_1||^2 = ||G(w^2)|| is
solved on G by the same eigensolver, ||B_0|| is the norm of one vector, and
the Neumann product ||B_0 B_1|| is sqrt(b0^T G b0).  N_max >= 3 keeps the
raise-map route.
The same sum with R_ik = 1/(D_ik - e), D_ik the kinetic diagonal of {i, k},
is the coupling term of the Schur complement S(e) onto blocks 0 and 1 that
solve.count_below forms from a fiber's CSR, so _pair_count counts the
eigenvalues of an N_max = 2 fiber below e from the grid alone.
_certified_ground is the one place that says which ground route runs at
which N_max, and how each is certified; a count, and the pair route's
bracket, each read one computed S(e), at the level e itself.  The bracket
hands its S(E) on in a PairWindow, and _window_count reads a count at a
level just above E off it, with one Cholesky and no second complement; the
torus certifies each window this way inside the solve that made it and
keeps none.  One builder,
_pair_schur, forms S(e) on the one-phonon sector fixed by a group of mode
permutations, from one row of G per orbit; with one mode per orbit it is
the full S(e), which the counts and the certificate read.  The pair route's
Newton steps run on the sector of the stabilizer of P in O_h.
The dense assemble_KT checks the dimension cap, solve.DENSE_CAP, and the
pair routes decline above it (M + 1 > DENSE_CAP, read at call time); G is
checked against the basis capacity, fock.BASIS_CAPACITY, before it is
allocated.
scipy.sparse is imported where a CSR is built or sliced (FiberFamily,
annihilation_csr, sign_flip, _block_factors and SparseOperator's
triangle), on first use: the secular and pair routes and the pair-sum
norms build none, so the pipelines that run only those never pay its
import of about 0.1 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .errors import CapacityError, NumericalError, _check_int
from . import fock, solve
from .fock import BasisIndex, basis_dimension
from .modes import ModeGrid, _lattice_cube, _stabilizer_orbits
from .solve import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    SCHUR_MARGIN,
    SpectralResult,
    _certified_count,
    _check_dense_cap,
    _cholesky,
    _dense_lowest,
    _eigenpairs,
    _one_blas_thread,
    _schur_margin,
)

PAIR_CHUNK = 256  # rows of G(R) built at a time
NEWTON_STEPS = 200  # Newton steps at most, secular or pair; they settle in far fewer


class SparseOperator:
    """Symmetric sparse matrix held as one symmetric CSR matrix, `csr`.

    The constructor wraps `csr` without copying.  rows, cols, vals and nnz
    read the upper triangle back, in (row, col) order and as read-only arrays.
    """

    def __init__(self, csr: scipy.sparse.csr_matrix):
        self.dimension, self.csr = csr.shape[0], csr

    def _upper(self, name: str) -> np.ndarray:
        """One read-only array (row, col or data) of the upper triangle."""
        import scipy.sparse
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
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be non-negative and finite")
        p = np.asarray(self.p, dtype=np.float64).reshape(3)
        if not np.isfinite(p).all():
            raise ValueError("momentum p must be finite")
        object.__setattr__(self, "p", p)
        _check_int("n_max", self.n_max, 0)


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


def _pair_table(grid: ModeGrid, p: np.ndarray):
    """(table, codes) with table[codes[i] + codes[k]] = |P - delta (n_i + n_k)|^2
    + 2 for modes i and k of unit vectors n_i and n_k.

    The table runs over the (4r + 1)^3 cube of integer unit sums, r the
    largest |unit entry|, and is computed by _kinetic in its x, y, z order,
    so each entry has the bits of the fiber's diagonal entry of the
    two-phonon state {i, k}.  codes[i] = ((n_x + r) b + n_y + r) b + n_z + r,
    b = 4r + 1, so a sum of two codes is the lexicographic index of the sum
    of the units in the cube.  CapacityError when the cube exceeds the
    lattice budget (modes._lattice_cube), which no grid within the pair
    routes' caps reaches.
    """
    r = int(np.abs(grid.units).max(initial=0))
    sums = _lattice_cube(2 * r, "unit sum")
    table = _kinetic(p, grid.spacing * sums.T.astype(np.float64), 2.0)
    b, u = 4 * r + 1, grid.units + r
    return table, (u[:, 0] * b + u[:, 1]) * b + u[:, 2]


def pair_diagonal(grid: ModeGrid, p, rows: slice = slice(None)) -> np.ndarray:
    """D_ik = |P - k_i - k_k|^2 + 2, the kinetic diagonal of the two-phonon
    state {i, k}, for the modes i in `rows` and every mode k.

    P_f comes from the integer unit sums, as in the fiber, so every entry has
    the bits of the fiber's diagonal entry of that state (_pair_table).
    """
    table, codes = _pair_table(grid, np.asarray(p, dtype=np.float64).reshape(3))
    return table[codes[rows, None] + codes[None, :]]


def _pairwise_sum(t: np.ndarray) -> float:
    """Sum of t, zero-padded to a power of two and halved, so that each term
    meets at most ceil(log2 len(t)) roundings, whatever numpy's sum does."""
    t = np.concatenate([t, np.zeros((1 << (len(t) - 1).bit_length()) - len(t))])
    while len(t) > 1:
        t = t[: len(t) // 2] + t[len(t) // 2 :]
    return float(t[0])


def _secular_ground(alpha, p, grid, tol=DEFAULT_TOL) -> SpectralResult:
    """Certified N_max = 1 ground state: the root below d_min = min D of
    f(E) = E - P^2 + alpha sum_k t_k, t_k = g_k^2 / (D_k - E), on the fiber's
    own diagonal, reached by Newton's method from the right (f is increasing
    and convex there).  [E - w, E + w] holds the root once each side's sign
    exceeds the rounding bound c u (|E| + P^2 + alpha sum t_k), c =
    ceil(log2 M) + 8, or the side is at or above d_min; w doubles from
    4 u max(1, |E|) while the bracket is at most tol wide, and NumericalError
    when none is proven within tol, or on non-finite input.  `iterations`
    counts evaluations of f; `residual` is ||H x - E x|| / ||x||, x_0 = 1,
    x_k = -sqrt(alpha) g_k / (D_k - E), row by row; `vector` is x / ||x|| in
    basis order (modes last to first).  With alpha = 0 or no modes the fiber
    is diagonal: E = min(P^2, d_min) exactly.
    """
    p = np.asarray(p, dtype=np.float64).reshape(3)
    g = grid.couplings
    d = _kinetic(p, grid.spacing * grid.units.T.astype(np.float64), 1.0)
    if not (math.isfinite(alpha) and np.isfinite(p).all() and np.isfinite(g).all()
            and np.isfinite(d).all()):
        raise NumericalError(f"non-finite secular equation at P = {tuple(map(float, p))}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    p2 = float(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    if alpha == 0.0 or grid.is_empty:
        diag = np.concatenate([[p2], d[::-1]])
        e, x = float(diag.min()), 1.0 * (np.arange(len(diag)) == diag.argmin())
        return SpectralResult(e, x, 0.0, 0, (e, e))

    g2, j = g * g, int(np.argmin(d))
    d_min = float(d[j])
    # f > 0 at P^2 < d_min, and at d_min - s for s = r/2, r the root of
    # r^2 + (P^2 - d_min) r = alpha g_j^2 (f keeps only its term j), taken stably
    a, c = p2 - d_min, alpha * float(g2[j])
    s = c / (math.sqrt(a * a + 4 * c) + a) if a >= 0 else (math.sqrt(a * a + 4 * c) - a) / 4
    e = min(p2, d_min - s, math.nextafter(d_min, -math.inf))
    cu = (math.ceil(math.log2(len(d))) + 8) * 2.0**-53
    evals = 0

    def f(x):
        """f(x), the bound on its rounding, and the terms t_k."""
        nonlocal evals
        evals += 1
        t = g2 / (d - x)
        at = alpha * _pairwise_sum(t)
        return x - p2 + at, cu * (abs(x) + p2 + at), t

    for _ in range(NEWTON_STEPS):  # the bracket below certifies wherever it stops
        fe, _, t = f(e)
        nxt = e - fe / (1.0 + alpha * float(np.sum(t / (d - e))))
        if not nxt < e:
            break
        e = nxt

    def proven(x, sign):
        v, bound, _ = f(x)
        return sign * v > bound

    w = 4.0 * 2.0**-53 * max(1.0, abs(e))
    while 2.0 * w <= tol and not (proven(e - w, -1.0) and (e + w >= d_min or proven(e + w, 1.0))):
        w *= 2.0
    if not 2.0 * w <= tol:
        raise NumericalError(f"no secular bracket within {tol} at P = {tuple(map(float, p))}")

    sa = math.sqrt(alpha)
    x = -sa * g / (d - e)
    r = np.concatenate([[p2 - e + sa * np.sum(g * x)], sa * g + (d - e) * x])
    norm = math.sqrt(1.0 + np.sum(x * x))
    return SpectralResult(e, np.concatenate([[1.0], x[::-1]]) / norm,
                          math.sqrt(np.sum(r * r)) / norm, evals, (e - w, e + w))


def pair_gram(s: np.ndarray, r_rows: Callable[[slice], np.ndarray]) -> np.ndarray:
    """The M x M pair sum G(R): G_ik = s_i s_k R_ik, G_ii = (R s^2)_i + s_i^2 R_ii.

    R_ik is a symmetric function of the two-phonon state {i, k}, read in row
    chunks: r_rows(rows) returns rows `rows` of R.  With s = sqrt(alpha) g,
    G(R) = B_1 diag(R) B_1^T for B_1 the coupling from the two-phonon block
    down to the one-phonon block (a double occupancy carries sqrt 2, hence
    the second diagonal term).  The product s_i s_k is formed first, so G is
    symmetric bit for bit, and each row sum is a NumPy pairwise sum over its
    own row, so no bit depends on the chunking.  CapacityError, before any
    M x M array exists, when the two-phonon basis would exceed
    fock.BASIS_CAPACITY, read at call time (M up to about 3,160, G up to
    about 80 MB).
    """
    m = s.size
    if basis_dimension(m, 2) > fock.BASIS_CAPACITY:
        raise CapacityError(
            f"pair sum over {m} modes: basis dimension {basis_dimension(m, 2)} "
            f"exceeds capacity {fock.BASIS_CAPACITY}"
        )
    s2 = s * s
    gram = np.empty((m, m))
    for start in range(0, m, PAIR_CHUNK):
        rows = slice(start, min(start + PAIR_CHUNK, m))
        r = r_rows(rows)
        out = gram[rows]
        np.multiply(s[rows, None], s[None, :], out=out)
        out *= r
        i = np.arange(out.shape[0])
        out[i, start + i] = (r * s2).sum(axis=1) + s2[rows] * r[i, start + i]
    return gram


def _pair_blocks(alpha: float, grid: ModeGrid, p: np.ndarray):
    """(x, s, D_top) of the N_max = 2 fiber at p, for a non-empty grid.

    The fiber's leading block X on blocks 0 and 1 (M + 1 rows, the vacuum
    first, then the one-phonon state j on mode M - 1 - j) is x on its
    diagonal, bit for bit, and s = sqrt(alpha) g on the vacuum row and
    column, zero elsewhere; D_top = pair_diagonal in that state order,
    gathered from _pair_table by codes taken in that order.
    """
    table, codes = _pair_table(grid, p)
    codes = codes[::-1]  # state order of block 1
    d_top = table[codes[:, None] + codes[None, :]]
    s = float(np.sqrt(alpha)) * grid.couplings[::-1]
    units = np.concatenate([np.zeros((1, 3), dtype=np.int64), grid.units[::-1]])
    x = _kinetic(p, grid.spacing * units.T.astype(np.float64), np.r_[0.0, np.ones(len(grid))])
    return x, s, d_top


def _pair_schur(x, s, d_top, labels=None):
    """(complement, lift) of the Schur complement onto blocks 0 and 1, on the
    sector fixed by a group of mode permutations with `labels` its orbits
    (modes._stabilizer_orbits: per mode, its orbit's least mode), or on the
    whole of blocks 0 and 1 for labels = None, one mode per orbit; x, s and
    d_top as _pair_blocks returns them.

    The sector is spanned by the vacuum and the orbit sums q_a = n_a^-1/2
    sum_{i in O_a} e_i of the one-phonon states, k + 1 columns Q for k
    orbits of sizes n_a.  The stabilizer permutes the modes, keeping their
    couplings exactly and X and D_top to the rounding of their three squares,
    so S(E) commutes with it and Q^T S(E) Q reads one representative row i_a
    per orbit: with R = 1/(D_top - E) and W_ab = (n_a / n_b)^1/2 sum_{k in
    O_b} R_{i_a k}, Q^T G(R) Q = (s_a s_b W_ab) + diag((R s^2)_{i_a}), and
    X's vacuum row becomes n_a^1/2 s_a.  complement(E) returns that (k +
    1)-row matrix, its own margin (solve._schur_margin) and the slope form
    u -> u^T Q^T C'(E) Q u (the s_i^2 R_ii terms of pair_gram cancel from
    it), which forms R^2 only when called; lift(v) is Q v / ||Q v||, in fiber
    order, a unit vector whatever Q, for the bracket's Rayleigh quotient.
    Each is O(k M).  With labels = None, Q = I and lift is None: W = R with
    nothing copied or summed, and G has the bits of pair_gram(s, R).
    complement writes its matrix once: G goes straight into the lower-right
    block and is negated there in place, under the diagonal of X - E.  G is
    entrywise positive below min D_top, so its column sums are those of |G|;
    ||X - E||_1 reads the diagonal and the vacuum row, with column 0 summed
    in order, as NumPy sums a column of the dense matrix.  The sector's
    margin counts its k + 1 rows, not the M terms in each entry, so it is
    the stopping rule of the Newton steps, not a rounding bound; the bracket
    reads the full S(E), whose margin is one.
    """
    m = len(s)
    if labels is None:
        reps = cols = slice(None)
        x_sec, vac, lift = x, s, None

        def reduce(r):
            return r
    else:
        ids = labels[::-1]  # state order of block 1
        cols = np.argsort(ids, kind="stable")  # block-1 states grouped by orbit
        starts = np.flatnonzero(np.r_[True, ids[cols][1:] != ids[cols][:-1]])
        reps, sizes = cols[starts], np.diff(np.r_[starts, m])
        root = np.sqrt(sizes)
        weight = root[:, None] / root[None, :]
        x_sec, vac = np.r_[x[0], x[1:][reps]], root * s[reps]

        def reduce(r):
            """W: the orbit sums of the representative rows r, weighted."""
            return np.add.reduceat(r, starts, axis=1) * weight

        def lift(v):
            y = np.empty(m + 1)
            y[0] = v[0]
            y[1 + cols] = np.repeat(v[1:] / root, sizes)
            return y / np.linalg.norm(y)

    d_rows = d_top[reps][:, cols]  # the sector's rows are column-major
    s_rep, s2_cols = s[reps], (s * s)[cols]
    n = len(x_sec)
    diag = np.diag_indices(n - 1)

    def complement(level):
        r = d_rows - level
        np.divide(1.0, r, out=r)
        w = reduce(r)
        out = np.empty((n, n))
        gram = out[1:, 1:]
        np.multiply(s_rep[:, None], s_rep[None, :], out=gram)
        gram *= w
        # (R s^2)_i sums row i of r: pairwise on the full block's C-ordered
        # rows, in order on the sector's column-major ones
        g_diag = np.concatenate([(r[i:i + PAIR_CHUNK] * s2_cols).sum(axis=1)
                                 for i in range(0, len(r), PAIR_CHUNK)])
        g_diag += s_rep * s_rep * w[diag]
        gram[diag] = g_diag
        xe = x_sec - level
        out[0, 0] = xe[0]
        out[0, 1:] = out[1:, 0] = vac
        a = np.abs(out[0])  # row 0 and, by symmetry, column 0 of |X - E|
        x_norm = np.maximum(np.add.accumulate(a)[-1], (a[1:] + np.abs(xe[1:])).max())
        delta = _schur_margin((x_norm, gram.sum(axis=0).max()), n)
        np.subtract(0.0, gram, out=gram)
        gram[diag] = xe[1:] - g_diag

        def slope(u):
            r2, su = r * r, s_rep * u
            return float(su @ (reduce(r2) @ su) + (u * u) @ (r2 @ s2_cols))

        return out, delta, slope

    return complement, lift


class PairWindow(NamedTuple):
    """What the pair bracket of _certified_ground computed at its final E:
    E, the bracket (E - w, E + w), the full (M + 1)-row S(E), its margin
    delta, the unit lifted eigenvector v and d_min = min D_top."""

    level: float
    bracket: Tuple[float, float]
    complement: np.ndarray
    margin: float
    vector: np.ndarray
    d_min: float


@_one_blas_thread()
def _pair_count(alpha: float, grid: ModeGrid, p, e: float):
    """solve.count_below of the N_max = 2 fiber at p, from the grid alone.

    S(e) = X - e - [[0, 0], [0, G(R)]], R_ik = 1/(D_ik - e), is the Schur
    complement onto blocks 0 and 1 (_pair_schur, one mode per orbit, on the
    (x, s, D_top) of _pair_blocks), X bit for bit the fiber's.  Formed once,
    it is certified as in count_below (solve._certified_count), so the two
    routes return the same count, or None to fall back.  Any level e; where
    a pair solve's window is at hand, _window_count is cheaper near its level.
    ValueError on an empty grid or a non-finite e.
    """
    if not math.isfinite(e):
        raise ValueError(f"level e must be finite, got {e}")
    m = len(grid)
    if m == 0:
        raise ValueError("an empty grid has no two-phonon block")
    if m + 1 > solve.DENSE_CAP:
        return None
    x, s, d_top = _pair_blocks(alpha, grid, np.asarray(p, dtype=np.float64).reshape(3))
    if e >= d_top.min():
        return None
    return _certified_count(*_pair_schur(x, s, d_top)[0](e)[:2])


@_one_blas_thread()
def _certified_ground(alpha: float, grid: ModeGrid, n_max: int, p, tol: float = DEFAULT_TOL):
    """(result, window): the certified ground state of the fiber at p under
    truncation n_max, from the grid alone, or None for LOBPCG on a fiber.
    The one place that picks a ground route by N_max:
    - 1: the secular root (_secular_ground), which raises, never declines;
      window None;
    - 2: the pair route below, with the PairWindow its bracket computed,
      for _window_count, or None where it proved no bracket on S(E);
    - any other: (None, None), nothing solved.

    The pair route: with S(E) = X - E - [[0, 0], [0, G(1/(D_top - E))]] the
    Schur complement onto blocks 0 and 1 and mu(E) its lowest eigenvalue,
    the ground level E0 is the root of mu below min D_top (Haynsworth).
    There S(E) is concave in E with derivative -1 - C'(E), C'(E) = [[0, 0],
    [0, G(1/(D_top - E)^2)]] >= 0, so mu is concave and falls with slope at
    most -1, and Newton's method from the right, E <- E + mu(E) / (1 +
    v^T C'(E) v) with v the unit eigenvector of mu, decreases monotonically
    to E0.  The ground state is simple, so the stabilizer of P in O_h fixes
    it, and the steps run on the sector that stabilizer fixes: mu is the
    lowest eigenvalue of Q^T S(E) Q (_pair_schur, one eigh of k + 1 rows
    per step for k mode orbits of modes._stabilizer_orbits), which keeps
    the concavity and the slope, since Q^T C'(E) Q >= 0.  Where that
    stabilizer acts trivially on the grid, Q = I and the steps are on the
    full S(E).  The steps start at the upper end of the N_max = 1 bracket,
    the lowest eigenvalue of X and of Q^T X Q, hence at or above the
    sector's root, and stop when a step no longer decreases E or, taken,
    falls within the margin of the matrix it was taken on (the next step
    would be of the order of its square).
    The certificate is in the full space: the bracket reads the full S(E)
    (_pair_schur with one mode per orbit), formed once at the final E (the
    last step's, where Q = I and the step was not taken), its margin delta
    (solve._schur_margin) and the unit lift v = Q v / ||Q v|| of the last
    eigenvector.  As dS/dE <= -I, [E - w, E + w] holds E0 once a Cholesky
    of S(E) + (w - delta) I <= S(E - w) succeeds (no level at or below
    E - w) and v^T S(E) v - w < -delta, an upper bound on v^T S(E + w) v,
    or E + w reaches min D_top (a level below E + w); w doubles from
    2 delta while the bracket is at most tol wide.  A ground level below
    the sector's root fails that Cholesky for every w that leaves it out,
    so the route declines rather than certify the sector's level.
    The lifted vector y = (v, -(D_top - E)^-1 B^T v) has (H - E) y = (S(E) v,
    0) and ||y||^2 = 1 + v^T C'(E) v, so `residual` = ||S(E) v|| / ||y|| is
    the fiber residual of y; `vector` is y / ||y|| on blocks 0 and 1 only, in
    fiber order, vacuum entry >= 0; `iterations` counts the Newton steps.
    The window keeps that S(E), delta, v, the bracket and min D_top, so a
    count at a level just above E costs one Cholesky (_window_count).
    With alpha = 0 or an empty grid the N_max = 1 result is exact and is
    returned, window None.  The route declines when that start is not below
    min D_top, when M + 1 exceeds solve.DENSE_CAP (read at call time), or
    when no bracket within tol is proven.  ValueError unless 0 < tol < inf.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if n_max == 1:
        return _secular_ground(alpha, p, grid, tol), None
    if n_max != 2:
        return None, None
    p = np.asarray(p, dtype=np.float64).reshape(3)
    start = _secular_ground(alpha, p, grid, tol)
    m = len(grid)
    if m == 0:
        return start, None
    if m + 1 > solve.DENSE_CAP:
        return None, None
    x, s, d_top = _pair_blocks(alpha, grid, p)
    d_min = float(d_top.min())
    e = start.bracket[1]
    if not e < d_min:
        return None, None
    if alpha == 0.0:
        return start, None
    complement, lift = _pair_schur(x, s, d_top, _stabilizer_orbits(grid, p))
    for steps in range(1, NEWTON_STEPS + 1):
        s_e, delta, slope = complement(e)
        formed = e
        (mu,), (v,) = _dense_lowest(s_e)
        step = float(mu) / (1.0 + slope(v[1:]))  # -mu'(e) = 1 + v^T C'(e) v
        if not e + step < e or steps == NEWTON_STEPS:
            break
        e += step
        if -step <= delta:  # within the margin: the next step would be far below it
            break
    if lift is not None:  # the certificate reads the full S(E) at the final E
        v, complement = lift(v), _pair_schur(x, s, d_top)[0]
    if lift is not None or formed != e:
        s_e, delta, slope = complement(e)
    norm = math.sqrt(1.0 + slope(v[1:]))  # ||y||, v lifted at e
    sv = s_e @ v
    form = float(v @ sv)

    w = 2.0 * delta
    while 2.0 * w <= tol:
        if (e + w >= d_min or form - w < -delta) and _cholesky(s_e, w - delta) is not None:
            y = (v if v[0] >= 0.0 else -v) / norm
            bracket = (e - w, e + w)
            return (SpectralResult(e, y, float(np.linalg.norm(sv)) / norm, steps, bracket),
                    PairWindow(e, bracket, s_e, delta, v, d_min))
        w *= 2.0
    return None, None


@_one_blas_thread()
def _window_count(window: PairWindow, e: float):
    """The number of levels below e of the N_max = 2 fiber whose pair solve
    computed `window` (_certified_ground), 0 or 1, or None to fall back.

    With E the window's level, [lo, hi] its bracket, S = S(E) its
    complement, delta its margin, v its vector, n = M + 1 rows and
    k = SCHUR_MARGIN n u (so delta = k c, c = ||X - E||_1 + ||G||_1, the
    norm of solve._schur_margin, and c >= ||C(E)|| but for the rounding of
    G, a relative n u that eps covers):
    - e <= lo: 0, as the bracket proves no level at or below lo;
    - hi < e < d_min: 1 once a Cholesky of S + u u^T - (delta + eta + eps) I
      runs to the end, u = sqrt(c) v, eta = (e - E)(1 + c / (d_min - e)),
      eps = k (c + delta + eta) / (1 - k);
    - otherwise None.
    Proof of the second case.  G(R) = B_1 diag(R) B_1^T is monotone in R,
    and 0 <= R(e) - R(E) = (e - E) R(E) / (D_top - e) <= (e - E) R(E) /
    (d_min - e) entrywise, so C(e) - C(E) <= (e - E) ||C(E)|| / (d_min - e)
    and S(e) = S(E) - (e - E) - (C(e) - C(E)) >= S(E) - eta I.  The computed
    S is within delta of S(E), covering its rounding and the Cholesky's
    backward error on its norm, as in the bracket; forming the outer product
    u u^T (norm c) and adding it and the shift to S round, and the Cholesky's
    backward error grows with the norm they add, by at most k (c + delta +
    eta + eps) = eps under the same bound (Higham ch. 10).  So the Cholesky
    proves S(E) + u u^T - eta I > 0, hence S(e) + u u^T > 0, and by Weyl's
    interlacing for the rank-one u u^T >= 0, lambda_2(S(e)) >= lambda_1(S(e)
    + u u^T) > 0: S(e) has at most one negative eigenvalue, so (Haynsworth,
    e < d_min) the fiber has at most one level below e, and the bracket puts
    one below hi.  Any u keeps the proof; v, the lowest eigenvector of S(E),
    makes the Cholesky succeed whenever lambda_2(S(E)) exceeds the shift.
    """
    level, (lo, hi), s_e, delta, v, d_min = window
    if e <= lo:
        return 0
    if not hi < e < d_min:
        return None
    k = SCHUR_MARGIN * len(s_e) * np.finfo(np.float64).eps
    c = delta / k
    eta = (e - level) * (1.0 + c / (d_min - e))
    eps = k * (c + delta + eta) / (1.0 - k)
    u = math.sqrt(c) * v
    a = np.outer(u, u)
    a += s_e  # exactly symmetric, so a.T, column-major, is the same matrix
    return 1 if _cholesky(a.T, -(delta + eta + eps), overwrite=True) is not None else None


class FiberFamily:
    """Fiber operators H(P) = D(P) + sqrt(alpha) V over one grid and basis.

    The coupling V = A + A^T (A the annihilation part) does not depend on P,
    so the CSR of sqrt(alpha) V + 1, whose unit diagonal reserves a slot per
    state, the position of each slot and the per-state P_f and N are built
    once.  fiber(p) copies the values and fills the slots with the kinetic
    diagonal D(P) = (P - P_f)^2 + N, dropping the exact-zero vacuum diagonal
    at P = 0 so the CSR stays canonical.  Fibers share the (read-only) index
    arrays and own their values,
    and building the family fills the basis caches, so fibers can be made
    and solved from several threads.
    """

    def __init__(self, alpha: float, grid: ModeGrid, basis: BasisIndex):
        import scipy.sparse
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
        import scipy.sparse
        d = _kinetic(np.asarray(p, dtype=np.float64).reshape(3), self._pf, self._nums)
        n = self.dimension
        indices, indptr = self._indices, self._indptr
        data = self._data.copy()
        data[self._diag] = d
        if d[0] == 0.0:
            # the vacuum at P = 0: the only state with N = 0 leads the CSR,
            # and its exact zero is dropped (every other diagonal entry is >= 1)
            indices, data = indices[1:], data[1:]
            indptr = indptr - 1
            indptr[0] = 0
        return SparseOperator(scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n)))


def assemble_fiber(cfg: FiberConfig, basis: BasisIndex) -> SparseOperator:
    """Fiber operator (P - P_f)^2 + N + sqrt(alpha) * (a(v) + a*(v)): a family of one."""
    _check_basis(cfg, basis)  # also checks cfg.n_max, which the family takes from the basis
    return FiberFamily(cfg.alpha, cfg.grid, basis).fiber(cfg.p)


def annihilation_csr(cfg: FiberConfig, basis: BasisIndex) -> scipy.sparse.csr_matrix:
    """The (non-symmetric) coupled annihilation part as a square CSR matrix.

    Row s, column t carries sqrt(alpha) g_i sqrt(n_i(s) + 1) whenever t is s
    with one extra phonon in mode i, i.e. the matrix maps block n+1 down to n.
    """
    import scipy.sparse
    _check_basis(cfg, basis)
    scale = float(np.sqrt(cfg.alpha))
    empty = np.zeros(0, dtype=np.int64)
    rr, cc, vv = [empty], [empty], [np.zeros(0)]
    if scale != 0.0 and len(cfg.grid):
        for n in range(basis.n_max):
            tgt, vals = _annihilation_block(cfg.grid, basis, n, scale)
            start = basis.block_offset(n)
            rr.append(np.repeat(np.arange(start, start + basis.block_count(n)), basis.m_modes))
            cc.append(basis.block_offset(n + 1) + tgt)
            vv.append(vals)
    return scipy.sparse.csr_matrix(
        (np.concatenate(vv), (np.concatenate(rr), np.concatenate(cc))),
        shape=(basis.dimension, basis.dimension),
    )


def _annihilation_block(grid: ModeGrid, basis: BasisIndex, n: int, scale: float):
    """(tgt, vals): scale * A from block n+1 down to block n, block-local targets,
    M entries (one per mode) per block-n state in order, as raise_map lists them."""
    counts, tgt = basis.raise_map(n)
    c = basis.block_count(n)
    return tgt, scale * np.tile(grid.couplings, c) * np.sqrt(counts + 1.0)


def assemble_KT(cfg: FiberConfig, basis: BasisIndex) -> Tuple[np.ndarray, np.ndarray]:
    """Dense factor pair (K, T) with K + T = fiber + 1 as an exact identity.

    K = (1 + sqrt(alpha) A d^{-1}) d (1 + sqrt(alpha) A d^{-1})^T with d the
    free diagonal and A the bare annihilation part; T = -alpha (A d^{-1}) A^T.
    K is symmetric positive definite; T is symmetric negative semidefinite.
    """
    _check_dense_cap(basis.dimension)
    d = kinetic_diagonal(cfg, basis) + 1.0
    a = annihilation_csr(replace(cfg, alpha=1.0), basis).toarray()  # bare A
    ad = a / d[None, :]
    sqrt_alpha = float(np.sqrt(cfg.alpha))
    ell = np.eye(basis.dimension) + sqrt_alpha * ad
    k = (ell * d[None, :]) @ ell.T
    t = -cfg.alpha * (ad @ a.T)
    k = 0.5 * (k + k.T)
    t = 0.5 * (t + t.T)
    return k, t


def sign_flip(op: SparseOperator) -> SparseOperator:
    """Conjugate a fiber by (-1)^N, which negates every off-diagonal entry.

    Each off-diagonal entry of a fiber joins number blocks N and N +- 1, of
    opposite parity.  The result shares op's index arrays and owns its values.
    """
    import scipy.sparse
    csr = op.csr
    on_diagonal = csr.indices == np.repeat(np.arange(op.dimension), np.diff(csr.indptr))
    data = np.where(on_diagonal, csr.data, -csr.data)
    return SparseOperator(scipy.sparse.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape))


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
    theta = _eigenpairs(lambda x: -gram(x), np.zeros(n), 1, DEFAULT_TOL * scale, seed)[0].energy
    return math.sqrt(max(0.0, -theta))


def _block_factors(cfg: FiberConfig, basis: BasisIndex, h0_power: float,
                   number_power: float) -> list:
    """[B_0, ..., B_{N_max - 1}] for B = sqrt(alpha) A diag(w) at cfg.p.

    w = h0^h0_power (N + 1)^number_power.  B lowers N by one, so it is zero
    outside its pieces B_n, the |block n| x |block n+1| CSR matrices that
    carry annihilation_csr's entries of that block times w on block n+1.
    """
    import scipy.sparse
    scale = float(np.sqrt(cfg.alpha))
    factors = []
    for n in range(basis.n_max):
        tgt, vals = _annihilation_block(cfg.grid, basis, n, scale)
        pf = basis.spacing * basis.pf_units(n + 1).T.astype(np.float64)
        w = (_kinetic(cfg.p, pf, n + 1.0) + 1.0) ** h0_power * (n + 2.0) ** number_power
        rows = basis.block_count(n)
        indptr = basis.m_modes * np.arange(rows + 1)
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
        transposed = [f.T for f in chain]

        def gram(x):
            for ft in transposed:
                x = ft @ x
            for f in reversed(chain):
                x = f @ x
            return x
        return _operator_norm(gram, chain[0].shape[0], seed)

    return max((chain_norm(factors[n:n + j]) for n in range(len(factors) - j + 1)),
               default=0.0)


def _pair_factors(cfg: FiberConfig, h0_power: float, number_power: float):
    """(b0, G) for B = sqrt(alpha) A diag(w) at N_max = 2, in mode order.

    w = h0^h0_power (N + 1)^number_power as in _block_factors: B_0 is the row
    b0 = s w_1 (s = sqrt(alpha) g, w_1 on the one-phonon states) and
    B_1 B_1^T = G(w^2), w_ik the weight on the two-phonon state {i, k}.
    """
    grid, p = cfg.grid, cfg.p
    s = float(np.sqrt(cfg.alpha)) * grid.couplings
    pf = grid.spacing * grid.units.T.astype(np.float64)
    b0 = s * ((_kinetic(p, pf, 1.0) + 1.0) ** h0_power * 2.0 ** number_power)
    top = 3.0 ** number_power
    gram = pair_gram(s, lambda rows: ((pair_diagonal(grid, p, rows) + 1.0) ** h0_power
                                      * top) ** 2)
    return b0, gram


def _norms(cfg: FiberConfig, basis: BasisIndex, h0_power: float, number_power: float,
           j_max: int, seed: int) -> list:
    """[||B||, ..., ||B^j_max||] for B = sqrt(alpha) A h0^h0_power (N + 1)^number_power.

    At N_max = 2 from the pair sum (_pair_factors): ||B|| = max(||b0||,
    ||B_1||) with ||B_1|| from the eigensolver on G, ||B^2|| = sqrt(b0^T G b0);
    otherwise from the raise-map blocks (_block_factors, _power_norm).  The
    chain is nilpotent: ||B^j|| = +0.0 once j exceeds N_max.
    """
    _check_basis(cfg, basis)
    if basis.n_max != 2:
        factors = _block_factors(cfg, basis, h0_power, number_power)
        return [_power_norm(factors, j, seed) for j in range(1, j_max + 1)]
    with _one_blas_thread():
        b0, gram = _pair_factors(cfg, h0_power, number_power)
        norms = [max(float(np.linalg.norm(b0)), _operator_norm(gram.dot, b0.size, seed))]
        if j_max >= 2:
            norms.append(math.sqrt(max(0.0, float(b0 @ gram.dot(b0)))))
    return (norms + [0.0] * j_max)[:j_max]


def neumann_norms(
    cfg: FiberConfig, basis: BasisIndex, j_max: int, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Operator norms s_j = || (sqrt(alpha) A h0^{-1})^j || for j = 1..j_max.

    h0 is the free diagonal at cfg.p.  The truncation makes the chain
    nilpotent, so s_j vanishes identically once j exceeds N_max.  At
    N_max = 2, s_2 = sqrt(b0^T G b0) in closed form (module docstring).
    ValueError unless j_max is an int (a bool is not) of at least 1.
    """
    _check_int("j_max", j_max, 1)
    return np.array(_norms(cfg, basis, -1.0, 0.0, j_max, seed))


def weighted_annihilation_norm(
    cfg: FiberConfig, basis: BasisIndex, seed: int = DEFAULT_SEED
) -> float:
    """|| sqrt(alpha) A h0^{-1/2} (N + 1)^{-1/4} || at cfg.p, fully sparse.

    This is the uniform-in-cutoff bound certificate: the weight combines the
    inverse square root of the free diagonal with the number damping.  At
    N_max = 2 it is read off the M x M pair sum (module docstring).
    """
    return _norms(cfg, basis, -0.5, -0.25, 1, seed)[0]


def neumann_constant(cfg: FiberConfig, basis: BasisIndex, seed: int = DEFAULT_SEED) -> float:
    """Constant C = || sqrt(alpha) A h0^{-1} (N + 1)^{1/4} || controlling s_j decay.

    Blockwise, || sqrt(alpha) A h0^{-1} restricted to block n || <= C (n+1)^{-1/4},
    which chains to s_j <= C^j / (j!)^{1/4} on the truncated space.
    """
    return _norms(cfg, basis, -1.0, 0.25, 1, seed)[0]
