"""Independent dense reference implementations for cross-checking assembly.

Everything here is written the slow, obvious way (itertools enumeration,
dictionaries, per-entry Python loops) precisely so it shares no code or
vectorization tricks with the package.  Tests compare the two routes exactly.
"""

import functools
import itertools
import math
from collections import Counter

import numpy as np
import scipy.linalg
import scipy.sparse


def naive_states(m_modes, n_max):
    """All occupation tuples (ascending mode multisets) in package order.

    Order: by total number, then by occupation vector lexicographically
    ascending, where the occupation vector is the dense (n_0, ..., n_{M-1})
    tuple.  Returned as sorted mode-index multisets.
    """
    out = []
    for n in range(n_max + 1):
        block = []
        for combo in itertools.combinations_with_replacement(range(m_modes), n):
            occ = [0] * m_modes
            for i in combo:
                occ[i] += 1
            block.append((tuple(occ), combo))
        block.sort(key=lambda pair: pair[0])
        out.extend(multiset for _, multiset in block)
    return out


def naive_ladder(m_modes, n_max, mode):
    """Dense (lower, raise) matrices of one mode, built state by state from dicts.

    raise maps |.., n_i, ..> to sqrt(n_i + 1) |.., n_i + 1, ..> and is absent on
    states holding N_max phonons; lower maps it to sqrt(n_i) |.., n_i - 1, ..>
    and is absent when n_i = 0.  Columns are source states, in package order.
    """
    occs = [dict(Counter(s)) for s in naive_states(m_modes, n_max)]
    index = {tuple(sorted(occ.items())): i for i, occ in enumerate(occs)}
    dim = len(occs)
    lower, raise_ = np.zeros((dim, dim)), np.zeros((dim, dim))
    for i, occ in enumerate(occs):
        n_i = occ.get(mode, 0)
        if sum(occ.values()) < n_max:
            up = dict(occ)
            up[mode] = n_i + 1
            raise_[index[tuple(sorted(up.items()))], i] = math.sqrt(n_i + 1)
        if n_i:
            down = dict(occ)
            down[mode] = n_i - 1
            if down[mode] == 0:
                del down[mode]
            lower[index[tuple(sorted(down.items()))], i] = math.sqrt(n_i)
    return lower, raise_


def naive_fiber_dense(alpha, p, k_vectors, couplings, n_max):
    """Dense fiber matrix built entry-by-entry from ladder rules."""
    m_modes = len(k_vectors)
    states = naive_states(m_modes, n_max)
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    mat = np.zeros((dim, dim))
    p = np.asarray(p, dtype=np.float64)
    for i, s in enumerate(states):
        pf = np.zeros(3)
        for mode in s:
            pf += np.asarray(k_vectors[mode], dtype=np.float64)
        mat[i, i] = float(((p - pf) ** 2).sum() + len(s))
        if len(s) < n_max:
            counts = Counter(s)
            for mode in range(m_modes):
                target = tuple(sorted(s + (mode,)))
                j = index[target]
                amp = math.sqrt(alpha) * couplings[mode] * math.sqrt(counts[mode] + 1)
                mat[i, j] += amp
                mat[j, i] += amp
    return mat, states


def naive_pair_gram(alpha, p, k_vectors, couplings, weight):
    """Dense B_1 diag(weight(D)) B_1^T from naive states, rows in mode order.

    B_1 is the coupling from the two-phonon states down to the one-phonon
    states, entry by entry from the ladder rule: mode k raised on {i} gives
    {i, k} with amplitude sqrt(alpha) g_k sqrt(n_k + 1).  D is each
    two-phonon state's kinetic diagonal |P - P_f|^2 + 2, and weight maps it
    to the entry of R on that state.
    """
    m_modes = len(k_vectors)
    pairs = [s for s in naive_states(m_modes, 2) if len(s) == 2]
    column = {s: j for j, s in enumerate(pairs)}
    p = np.asarray(p, dtype=np.float64)
    b1 = np.zeros((m_modes, len(pairs)))
    r = np.zeros(len(pairs))
    for i in range(m_modes):
        for k in range(m_modes):
            amp = math.sqrt(alpha) * couplings[k] * math.sqrt(2 if k == i else 1)
            b1[i, column[tuple(sorted((i, k)))]] = amp
    for j, s in enumerate(pairs):
        pf = np.asarray(k_vectors[s[0]], dtype=np.float64) + np.asarray(k_vectors[s[1]])
        r[j] = weight(float(((p - pf) ** 2).sum() + 2))
    return (b1 * r[None, :]) @ b1.T


def naive_pair_x(alpha, p, grid):
    """Dense X, the N_max = 2 fiber's block on the vacuum and the one-phonon
    states (row 1 + j the state on mode M - 1 - j), entry by entry:
    |P - P_f|^2 + N on the diagonal, sqrt(alpha) g_i on the vacuum row and
    column."""
    m = len(grid.units)
    p = np.asarray(p, dtype=np.float64)
    x = np.zeros((m + 1, m + 1))
    x[0, 0] = float((p * p).sum())
    for j in range(m):
        i = m - 1 - j
        x[1 + j, 1 + j] = float(((p - grid.spacing * grid.units[i].astype(np.float64)) ** 2).sum()
                                + 1.0)
        x[0, 1 + j] = x[1 + j, 0] = math.sqrt(alpha) * grid.couplings[i]
    return x


def naive_pair_schur(x, s, d_top, labels=None):
    """The Schur complement builder of operators._pair_schur as first
    written: dense X and Q^T X Q, a separate G array summed in row chunks
    of 256, and the margin from np.linalg.norm(., 1) of X - E and of G.
    Returns complement(level) -> (S, delta, slope), as the package's."""
    from polaronlab.solve import SCHUR_MARGIN

    m = len(s)
    if labels is None:
        reps = cols = slice(None)
        x_sec = x

        def reduce(r):
            return r
    else:
        ids = labels[::-1]
        cols = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.r_[True, ids[cols][1:] != ids[cols][:-1]])
        reps, sizes = cols[starts], np.diff(np.r_[starts, m])
        root = np.sqrt(sizes)
        weight = root[:, None] / root[None, :]
        x_sec = np.diag(np.r_[x[0, 0], x.diagonal()[1:][reps]])
        x_sec[0, 1:] = x_sec[1:, 0] = root * s[reps]

        def reduce(r):
            return np.add.reduceat(r, starts, axis=1) * weight

    d_rows = d_top[reps][:, cols]
    s_rep, s2_cols = s[reps], (s * s)[cols]
    diag = np.diag_indices(len(x_sec) - 1)

    def complement(level):
        r = 1.0 / (d_rows - level)
        w = reduce(r)
        gram = np.multiply(s_rep[:, None], s_rep[None, :])
        gram *= w
        sums = np.concatenate([(r[i:i + 256] * s2_cols).sum(axis=1)
                               for i in range(0, len(r), 256)])
        gram[diag] = sums + s_rep * s_rep * w[diag]
        out = x_sec.copy()
        out[np.diag_indices(len(out))] -= level
        s_norm = sum(np.linalg.norm(t, 1) for t in (out, gram))
        delta = SCHUR_MARGIN * len(out) * np.finfo(np.float64).eps * s_norm
        out[1:, 1:] -= gram

        def slope(u):
            r2, su = r * r, s_rep * u
            return float(su @ (reduce(r2) @ su) + (u * u) @ (r2 @ s2_cols))

        return out, delta, slope

    return complement


def naive_couplings(delta, lam):
    """Cell-integrated couplings by brute scipy quadrature, orbit by orbit.

    g_i^2 = (16 pi^2)^{-1} [ integral over the mode's cell of dk/|k|^2
            + (origin-cell integral)/6 if the mode is a nearest neighbor ].
    """
    from scipy import integrate

    r2max = int((lam / delta) ** 2 + 1e-9)
    r = math.isqrt(r2max)
    units = []
    for nx in range(-r, r + 1):
        for ny in range(-r, r + 1):
            for nz in range(-r, r + 1):
                n2 = nx * nx + ny * ny + nz * nz
                if 0 < n2 <= r2max:
                    units.append((nx, ny, nz))
    units.sort()

    def cell_integral(center):
        cx, cy, cz = (delta * c for c in center)
        h = delta / 2.0
        val, _ = integrate.tplquad(
            lambda z, y, x: 1.0 / (x * x + y * y + z * z),
            cx - h, cx + h,
            lambda x: cy - h, lambda x: cy + h,
            lambda x, y: cz - h, lambda x, y: cz + h,
            epsabs=1e-13, epsrel=1e-13,
        )
        return val

    # the origin cell integral reduces exactly to a 1D profile; do it by quad
    def origin_integral():
        def profile(u):
            s = math.sqrt(1.0 + u * u)
            return (2.0 / s) * math.atan(1.0 / s)

        val, _ = integrate.quad(profile, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        return 3.0 * val * delta  # scale: integral over (-d/2,d/2)^3 of 1/|k|^2

    cache = {}
    gs = []
    origin = origin_integral()
    for n in units:
        key = tuple(sorted(abs(c) for c in n))
        if key not in cache:
            cache[key] = cell_integral(n)
        val = cache[key]
        if sum(c * c for c in n) == 1:
            val += origin / 6.0
        gs.append(math.sqrt(val / (16.0 * math.pi**2)))
    return units, gs


def naive_cell_integrals(centers, delta, order):
    """Product-rule cell integrals of 1/|k|^2 with |k|^2 as (k * k).sum(axis=2)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = x * (delta / 2.0)
    w = w * (delta / 2.0)
    gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    k = centers[:, None, :] + pts[None, :, :]
    return (weights[None, :] / (k * k).sum(axis=2)).sum(axis=1)


def naive_quadrature_order(shell):
    """Gauss-Legendre order per cell shell, one branch per range."""
    if shell <= 1:
        return 24
    if shell <= 2:
        return 12
    if shell <= 4:
        return 8
    return 5


def naive_origin_cell_unit():
    """Integral of 1/|k|^2 over the unit cube at the origin, by its 1D reduction."""
    x, w = np.polynomial.legendre.leggauss(96)
    s = np.sqrt(1.0 + x * x)
    return 3.0 * float(np.sum(w * (2.0 / s) * np.arctan(1.0 / s)))


def naive_cell_couplings(units, delta):
    """modes._cell_couplings written with plain row-wise NumPy expressions.

    Orbits come from np.sort(axis=1) and np.unique(axis=0) over rows, squared
    norms from (v * v).sum(axis=1): the package must reproduce these bit for
    bit, and shares none of their code.
    """
    if len(units) == 0:
        return np.zeros(0, dtype=np.float64)
    key = np.sort(np.abs(units), axis=1)
    reps, inverse = np.unique(key, axis=0, return_inverse=True)
    orders = np.array([naive_quadrature_order(int(s)) for s in reps.max(axis=1)])
    cell = np.zeros(len(reps), dtype=np.float64)
    for order in np.unique(orders):
        sel = orders == order
        cell[sel] = naive_cell_integrals(reps[sel] * delta, delta, int(order))
    g2 = cell[inverse] / (16.0 * math.pi**2)
    nearest = (units * units).sum(axis=1) == 1
    g2 = g2 + np.where(
        nearest, delta * naive_origin_cell_unit() / (16.0 * math.pi**2) / 6.0, 0.0
    )
    return np.sqrt(g2)


def naive_grid_arrays(delta, lam):
    """(units, modes, couplings, k^2) of build_grid(delta, lam), row-wise sums."""
    r2max = int((lam / delta) ** 2 + 1e-9)
    r = math.isqrt(r2max)
    ax = np.arange(-r, r + 1, dtype=np.int64)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    units = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    n2 = (units * units).sum(axis=1)
    units = units[(n2 > 0) & (n2 <= r2max)]
    modes = delta * units.astype(np.float64)
    return units, modes, naive_cell_couplings(units, delta), (modes * modes).sum(axis=1)


def riemann_selfenergy_sum(grid):
    """Discrete self-energy sum over the grid, sum_i g_i^2 / (k_i^2 + 1).

    Converges to (4 pi)^{-2} * 2 pi^2 = 1/8 as delta -> 0, Lambda -> infinity.
    """
    if grid.is_empty:
        raise ValueError("self-energy sum needs a non-empty grid")
    k2 = (grid.modes * grid.modes).sum(axis=1)
    return float((grid.couplings**2 / (k2 + 1.0)).sum())


def naive_within_mask(grid, lam):
    """Modes of grid with |k| <= lam, by the row-wise integer ball test."""
    return (grid.units * grid.units).sum(axis=1) <= int((lam / grid.spacing) ** 2 + 1e-9)


def naive_pf_units(basis, n):
    """Integer momenta of block n as one gathered (count, n, 3) .sum(axis=1)."""
    if basis.mode_units is None or n == 0:
        return np.zeros((basis.block_count(n), 3), dtype=np.int64)
    return basis.mode_units[basis.block(n).astype(np.int64)].sum(axis=1)


@functools.lru_cache(maxsize=None)
def naive_block_ranks(m_modes, n_max):
    """Per-block {mode multiset: within-block ordinal} dicts, in naive_states
    order; built once per (m_modes, n_max), so callers must not modify them."""
    ranks = [{} for _ in range(n_max + 1)]
    for s in naive_states(m_modes, n_max):
        block = ranks[len(s)]
        block[s] = len(block)
    return ranks


def naive_rank(ranks, rows):
    """int64 within-block ordinals of ascending mode rows, by dict lookup."""
    return np.array([ranks[tuple(row)] for row in rows.tolist()], dtype=np.int64)


def naive_raise_map(basis, n):
    """(counts, tgt_local) of basis.raise_map(n) by repeat, compare, np.sort rows
    and a dict rank over naive_states."""
    a, m_modes = basis.block(n), basis.m_modes
    if len(a) == 0 or m_modes == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    col = np.tile(np.arange(m_modes, dtype=np.int32), len(a))[:, None]
    src = np.repeat(a, m_modes, axis=0)
    counts = (src == col).sum(axis=1).astype(np.int64)
    new_rows = np.sort(np.concatenate([src, col], axis=1), axis=1)
    return counts, naive_rank(naive_block_ranks(m_modes, basis.n_max)[n + 1], new_rows)


def ldl_negative_inertia(s):
    """Negative eigenvalues of symmetric s from the block-diagonal D that
    scipy.linalg.ldl returns: a 1x1 pivot counts by its sign, a 2x2 pivot
    (a nonzero subdiagonal entry of D) by the signs of its two eigenvalues."""
    d = scipy.linalg.ldl(s, lower=True, check_finite=False)[1]
    diag, off = np.diag(d), np.diag(d, -1)
    pair = np.flatnonzero(off)  # 2x2 pivot on rows i, i + 1
    single = np.ones(diag.size, dtype=bool)
    single[pair] = single[pair + 1] = False
    mid = 0.5 * (diag[pair] + diag[pair + 1])
    rad = np.hypot(0.5 * (diag[pair] - diag[pair + 1]), off[pair])
    return int((diag[single] < 0).sum() + (mid - rad < 0).sum() + (mid + rad < 0).sum())


def dense_spectrum_ref(op, k=6):
    """The k smallest eigenvalues of op by scipy.linalg.eigh (dsyevr, no
    vectors), the route dense_spectrum ran before its LAPACK calls went
    through cython_lapack."""
    dense = op.to_dense()
    k = min(int(k), len(dense))
    return scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=[0, k - 1])


def positivity_audit_ref(op, lam):
    """The fields of resolvent_positivity_audit by scipy.linalg: the inverse
    of op + lam from cho_factor (upper) and cho_solve, the two lowest
    eigenpairs from eigh.  A shift that leaves op + lam indefinite raises
    the audit's ValueError."""
    dense = op.to_dense()
    n = len(dense)
    try:
        chol = scipy.linalg.cho_factor(dense + float(lam) * np.eye(n), check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(
            f"shift lam = {lam} does not make the operator positive definite; "
            "pick lam > -E0"
        ) from exc
    inv = scipy.linalg.cho_solve(chol, np.eye(n), check_finite=False)
    inv = 0.5 * (inv + inv.T)
    min_entry, max_entry = float(inv.min()), float(inv.max())
    vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[0, min(1, n - 1)])
    psi = vecs[:, 0]
    if psi[int(np.argmax(np.abs(psi)))] < 0:
        psi = -psi
    return {"lam": float(lam), "min_entry": min_entry,
            "strictly_positive": bool(min_entry > 1e-14 * max(max_entry, 0.0)),
            "ground_vector_min": float(psi.min()),
            "gap": float(vals[1] - vals[0]) if n > 1 else math.inf}


def from_triplets(dim, rows, cols, vals):
    """SparseOperator from upper-triangle (row <= col) triplets.

    Exact zeros are dropped and the strict upper triangle is mirrored, so the
    CSR is symmetric and canonical, as the package's assemblies are.
    """
    from polaronlab import SparseOperator

    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    assert (rows <= cols).all()
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    off = rows != cols
    return SparseOperator(scipy.sparse.csr_matrix(
        (np.concatenate([vals, vals[off]]),
         (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
        shape=(dim, dim)))


def assemble_free(cfg, basis):
    """Diagonal comparison operator (P - P_f)^2 + N + 1; every entry is >= 1.

    Built from the package's kinetic diagonal: it serves as an extra,
    strictly diagonal instance for the solver oracles, not as a reference.
    """
    from polaronlab import kinetic_diagonal

    diag = kinetic_diagonal(cfg, basis) + 1.0
    idx = np.arange(basis.dimension, dtype=np.int64)
    return from_triplets(basis.dimension, idx, idx, diag)


def upper_to_dense(op):
    """Dense matrix from the upper-triangle triplets: a + a^T - diag(a)."""
    a = np.zeros((op.dimension, op.dimension))
    a[op.rows, op.cols] = op.vals
    return a + a.T - np.diag(np.diag(a))


def upper_diagonal(op):
    """Diagonal scattered from the upper-triangle triplets on row == col."""
    d = np.zeros(op.dimension)
    on = op.rows == op.cols
    d[op.rows[on]] = op.vals[on]
    return d


def upper_sign_flip(op, basis):
    """(-1)^N conjugation as a parity flip over the upper-triangle triplets."""
    nums = basis.total_numbers()
    odd = (nums[op.rows] + nums[op.cols]) % 2 == 1
    return from_triplets(op.dimension, op.rows, op.cols, np.where(odd, -op.vals, op.vals))


def state_map(basis, modes):
    """Basis permutation sigma_R of a mode map: state s -> the state on modes[s].

    Each block's mode tuples are mapped, sorted back into ascending multisets
    and ranked by dict lookup over naive_states; sigma[s] is the image of state s.
    """
    modes = np.asarray(modes, dtype=np.int64)
    ranks = naive_block_ranks(basis.m_modes, basis.n_max)
    return np.concatenate([
        basis.block_offset(n) + naive_rank(ranks[n], np.sort(modes[basis.block(n)], axis=1))
        for n in range(basis.n_max + 1)
    ])


def conjugate_csr(csr, sigma):
    """U H U^T in canonical CSR, for U the basis permutation s -> sigma[s]."""
    inv = np.argsort(sigma)
    out = csr[inv][:, inv].tocsr()
    out.sort_indices()
    return out
