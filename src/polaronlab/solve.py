"""Lowest eigenpairs of sparse symmetric operators, plus dense oracles.

The iterative route is single-vector LOBPCG (Knyazev 2001) preconditioned by
the inverse shifted diagonal, for a fiber at P = 0 exactly h0^{-1} with
h0 = (P - P_f)^2 + N + 1.  The paper's uniform bound makes h0 spectrally
equivalent to H + 1 for every cutoff, so the iteration count does not grow
with Lambda.  Convergence is certified by recomputing true residual norms
||A y - theta y|| before returning; estimates alone never declare success.
Runs are deterministic: the start vector comes from a seeded generator.

A single-vector run carries at most one direction per eigenspace, so it is
structurally blind to multiplicity.  Multiple eigenpairs are therefore
extracted one at a time, each run deflated against the vectors already
certified; a fresh random start inside the orthogonal complement recovers the
remaining copies of a degenerate level.

A step allocates no n-length temporaries: the residual, the preconditioned
direction and the products go through preallocated scratch vectors, and the
2x2 or 3x3 Rayleigh-Ritz pencil goes straight to LAPACK dsygvd, the routine
scipy.linalg.eigh(a, b) runs by default.  The floating-point operations and
their order are those of the plain expressions, so the iterates are the same
bits; at small sizes the saving is per-call overhead, not matvecs.

The same solver serves the norm certificates in operators: B lowers the
phonon number by one, so ||B||^2 = max_n ||B_n B_n^T||, solved per number
block, each ||B_n|| being sqrt(-theta) for theta the lowest eigenvalue of
-B_n B_n^T, passed in as a matvec with a zero diagonal (so the
preconditioner is the identity).  Any object with `dimension`, `matvec` and
`diagonal` can be solved.

The dense route (LAPACK eigh on the materialized matrix) exists so iterative
results can always be cross-checked on small instances, and it powers the
resolvent positivity audit.  Dense routines refuse to run above a dimension
cap (_check_dense_cap) instead of silently thrashing memory.

count_below counts the eigenvalues below a level exactly, without solving
for them, when the operator ends in a diagonal block (a fiber's top phonon
number block): the count is the inertia of a dense Schur complement of the
size of the leading blocks, read off an LDL^T factorization, and it is
returned only when certified against the factorization's rounding.  Its
blocks are sliced straight from the operator's symmetric CSR, op.csr.

Threading model: the only parallelism is the pool of _parallel_map (the
`threads` setting).  BLAS and LAPACK run on one thread inside the public
numerical entry points (lowest_eigenpairs, dense_spectrum, count_below,
resolvent_positivity_audit) and inside cli.main: _one_blas_thread sets the
bundled OpenBLAS copies of numpy and scipy to one thread and the last scope
to exit restores the count it found.  A threaded BLAS splits sums across
threads, so its thread count would change low-order bits; under the scope
the outputs do not depend on OPENBLAS_NUM_THREADS.  With another BLAS the
scope does nothing.
"""

import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse

from .errors import CapacityError, ConvergenceError, NumericalError

DEFAULT_SEED = 42
DEFAULT_TOL = 1e-9
DEFAULT_DENSE_CAP = 2000
DEFAULT_MAX_STEPS = 20000
REFRESH_STEPS = 20
SCHUR_MARGIN = 10.0  # c in the count's margin c m u ||S||


@dataclass
class SpectralResult:
    """One converged eigenpair with its certified residual.

    `iterations` counts the matvecs spent on this pair.
    """

    energy: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool


@dataclass
class PositivityReport:
    """Entrywise audit of a shifted resolvent and the ground eigenvector."""

    lam: float
    min_entry: float
    strictly_positive: bool
    ground_vector_min: float
    gap: float


# (package, library glob beside it, get-threads symbol, set-threads symbol) of
# the OpenBLAS copies that the numpy and scipy wheels bundle
_OPENBLAS = (
    (np, "numpy.libs/libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy.libs/libscipy_openblas*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)
_blas_lock = threading.Lock()
_blas_depth = 0  # open _one_blas_thread scopes, over all threads
_blas_found: list = []  # (set call, thread count read) at the outermost entry
_blas_handles = None  # resolved on first use


def _openblas_handles() -> list:
    """(get, set) thread-count calls of the loaded OpenBLAS copies; [] if none.

    Only libraries already in the process are opened (RTLD_NOLOAD).
    """
    handles = []
    for pkg, pattern, get_name, set_name in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        for path in sorted(glob.glob(os.path.join(site, pattern))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                get, put = getattr(lib, get_name), getattr(lib, set_name)
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            handles.append((get, put))
    return handles


@contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS copy on one thread.

    Scopes nest and may be entered from several threads at once: a counter
    under a lock makes the outermost entry read the thread counts and set
    them to 1, and the last exit, on whichever thread, restore them.  Also
    usable as a decorator.  A no-op when no OpenBLAS copy is found.
    """
    global _blas_depth, _blas_found, _blas_handles
    with _blas_lock:
        if _blas_depth == 0:
            if _blas_handles is None:
                _blas_handles = _openblas_handles()
            _blas_found = [(put, get()) for get, put in _blas_handles]
            for put, _ in _blas_found:
                put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for put, count in _blas_found:
                    put(count)


def _orthogonalize(v: np.ndarray, rows: np.ndarray, tmp: np.ndarray) -> None:
    """In place: v minus its components along the orthonormal rows, two passes."""
    for _ in range(2):
        for q in rows:
            np.multiply(q, q @ v, out=tmp)
            np.subtract(v, tmp, out=v)


def _fresh_direction(rng, rows: np.ndarray, n: int, tmp: np.ndarray) -> np.ndarray:
    """Random unit vector orthogonalized twice against the given rows."""
    for _ in range(5):
        v = rng.standard_normal(n)
        _orthogonalize(v, rows, tmp)
        nv = math.sqrt(v @ v)
        if nv > 1e-8:
            return v / nv
    raise ConvergenceError("could not generate a direction outside the current subspace")


# LAPACK's generalized symmetric-definite solver, the one scipy.linalg.eigh(a, b)
# runs by default; calling it directly skips eigh's per-call validation.
_SYGVD = scipy.linalg.get_lapack_funcs("sygvd", dtype=np.float64)


def _lowest_ritz(work: np.ndarray, rows: int):
    """Lowest Ritz coefficients of the pencil (S A S^T, S S^T), S = work[:rows].

    The images A S sit in work[3 : 3 + rows].  None when S S^T is singular
    (LAPACK reports a failure); NumericalError on a non-finite Gram matrix.
    """
    gram = work[:rows] @ work.T
    stiff = gram[:, 3 : 3 + rows]
    stiff = 0.5 * (stiff + stiff.T)
    mass = gram[:, :rows]
    if not (np.isfinite(stiff).all() and np.isfinite(mass).all()):
        raise NumericalError("Rayleigh-Ritz Gram matrix is not finite")
    _, vecs, info = _SYGVD(stiff, mass, itype=1, jobz="V", uplo="L")
    return None if info else vecs[:, 0]


def _deflated_lowest(
    op,
    est_tol: float,
    cert_tol: float,
    seed: int,
    max_steps: int,
    locked: np.ndarray,
) -> SpectralResult:
    """Lowest eigenpair of a symmetric operator on the complement of `locked`.

    Each step moves x to the Rayleigh-Ritz minimizer over span[x, T r, p]
    (r the residual, p the previous step, T = 1/(d - min d + 1) for the
    diagonal d).  A x and A p follow the recurrences of x and p, so a step
    costs one matvec; an explicit product replaces A x every REFRESH_STEPS
    steps and before certification.  `locked` rows are certified
    eigenvectors that the start vector and every search direction are
    orthogonalized against.  Certification recomputes the residual on the
    full operator and accepts at `cert_tol`, once the deflated residual has
    reached the tighter `est_tol`.
    """
    n = op.dimension
    rng = np.random.default_rng(seed)
    d = op.diagonal()
    precond = 1.0 / (d - d.min() + 1.0)

    # rows 0-2: iterate x, search direction w, previous step p; rows 3-5:
    # their images, so work[i::3] pairs a vector with its image
    work = np.zeros((6, n))
    x, w, _, ax, aw, _ = work
    r, t, tmp = np.empty((3, n))  # per-step scratch: residual, T r, products
    x[:] = rng.standard_normal(n)
    _orthogonalize(x, locked, tmp)
    rows = 2  # 3 once a previous step exists
    steps = 0
    stale = REFRESH_STEPS  # recurrence steps since the last explicit A x
    best_est = math.inf

    while True:
        if stale >= REFRESH_STEPS:
            if steps >= max_steps:
                break
            x /= math.sqrt(x @ x)
            ax[:] = op.matvec(x)
            steps += 1
            stale = 0
        theta = float(x @ ax)
        np.multiply(x, theta, out=tmp)
        np.subtract(ax, tmp, out=r)
        _orthogonalize(r, locked, tmp)
        est = math.sqrt(r @ r)
        best_est = min(best_est, est)
        if est <= est_tol:
            if stale:  # certify on an explicit product only
                stale = REFRESH_STEPS
                continue
            np.multiply(x, theta, out=tmp)
            np.subtract(ax, tmp, out=tmp)
            res = math.sqrt(tmp @ tmp)
            if res <= cert_tol:
                return SpectralResult(theta, x.copy(), res, steps, True)
        if steps >= max_steps:
            break

        np.multiply(precond, r, out=t)
        np.multiply(x, x @ t, out=tmp)
        np.subtract(t, tmp, out=t)
        _orthogonalize(t, locked, tmp)
        nt = math.sqrt(t @ t)
        fresh = nt <= 1e-12 * est  # breakdown: T r lies in span[x, locked]
        while True:
            if fresh:
                w[:] = _fresh_direction(rng, np.vstack([x, locked]), n, tmp)
            else:
                np.divide(t, nt, out=w)
            aw[:] = op.matvec(w)
            steps += 1
            coef = _lowest_ritz(work, rows)
            if coef is None:  # singular Gram matrix: drop p, then replace w
                rows = 2
                coef = _lowest_ritz(work, rows)
            if coef is not None:
                break
            if fresh:
                raise ConvergenceError("Rayleigh-Ritz Gram matrix is singular")
            fresh = True

        step = coef[1:] @ work.reshape(2, 3, n)[:, 1:rows]  # rows: new p, A p
        work[0::3] *= coef[0]
        work[0::3] += step
        pn = math.sqrt(step[0] @ step[0])
        if pn > 0.0:
            np.divide(step, pn, out=work[2::3])
            rows = 3
        stale += 1

    raise ConvergenceError(
        f"no certified eigenpair after {max_steps} matvecs "
        f"(best residual estimate {best_est:.3e}, tol {cert_tol})"
    )


@_one_blas_thread()
def lowest_eigenpairs(
    op,
    k: int = 1,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[SpectralResult]:
    """k smallest eigenpairs of a symmetric operator, counted with multiplicity.

    Pairs are extracted one at a time, each run deflated against the vectors
    already found, so repeated eigenvalues come back as distinct orthogonal
    copies.  Stage estimates are tightened by a factor 4k below tol to keep
    deflation leakage under the certification threshold; every returned
    residual is recomputed on the full operator.  Exact breakdown injects a
    fresh random direction, so invariant subspaces (diagonal operators
    included) are handled without special cases.  Raises ConvergenceError
    with the best residual if max_steps matvecs pass without certification.
    """
    n = op.dimension
    if n < 1:
        raise ValueError("operator dimension must be positive")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    est_tol = tol if k == 1 else tol / (4.0 * k)
    locked = np.zeros((0, n))
    results: List[SpectralResult] = []
    for i in range(k):
        res = _deflated_lowest(op, est_tol, tol, seed + i, max_steps, locked)
        results.append(res)
        locked = np.vstack([locked, res.vector[None, :]])
    results.sort(key=lambda r: r.energy)
    return results


def ground_state(
    op,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SpectralResult:
    """Certified lowest eigenpair; thin wrapper over lowest_eigenpairs."""
    return lowest_eigenpairs(op, k=1, tol=tol, seed=seed, max_steps=max_steps)[0]


def _check_dense_cap(n: int, dense_cap: int) -> None:
    """CapacityError unless an n x n dense matrix fits under the cap."""
    if n > dense_cap:
        raise CapacityError(f"dimension {n} exceeds the dense cap {dense_cap}")


def _parallel_map(fn: Callable, items: Sequence, threads: int) -> list:
    """[fn(x) for x in items], spread over a pool of `threads` threads.

    Serial when threads <= 1 or there is at most one item.  Results keep the
    input order and the first exception raised by fn propagates.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


@_one_blas_thread()
def dense_spectrum(op, k: int = 6, dense_cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """k smallest eigenvalues by dense LAPACK; the oracle for the iterative route.

    A non-finite operator raises NumericalError.
    """
    n = op.dimension
    _check_dense_cap(n, dense_cap)
    k = min(int(k), n)
    if k < 1:
        raise ValueError("k must be positive")
    dense = op.to_dense()
    if not np.isfinite(dense).all():
        raise NumericalError("operator is not finite; no dense spectrum")
    vals = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=[0, k - 1])
    return np.asarray(vals, dtype=np.float64)


def _negative_inertia(s: np.ndarray) -> int:
    """Number of negative eigenvalues of symmetric s, read off its LDL^T.

    By Sylvester's law s has the inertia of the block-diagonal D, whose
    pivots are 1x1 or 2x2 (Bunch-Kaufman); a 2x2 pivot sits where D has a
    nonzero subdiagonal entry.
    """
    d = scipy.linalg.ldl(s, lower=True, check_finite=False)[1]
    diag, off = np.diag(d), np.diag(d, -1)
    pair = np.flatnonzero(off)  # 2x2 pivot on rows i, i + 1
    single = np.ones(diag.size, dtype=bool)
    single[pair] = single[pair + 1] = False
    mid = 0.5 * (diag[pair] + diag[pair + 1])
    rad = np.hypot(0.5 * (diag[pair] - diag[pair + 1]), off[pair])
    return int((diag[single] < 0).sum() + (mid - rad < 0).sum() + (mid + rad < 0).sum())


@_one_blas_thread()
def count_below(op, e: float, split: int, dense_cap: int = DEFAULT_DENSE_CAP):
    """Number of eigenvalues of a SparseOperator below e, or None to fall back.

    `split` is where a diagonal trailing block D_top starts (for a fiber,
    basis.block_offset(N_max)).  Writing op - e = [[X - e, B], [B^T, D_top - e]]
    with e < min D_top, op - e has the inertia of D_top - e (all positive)
    plus that of the Schur complement S(e) = X - e - B (D_top - e)^{-1} B^T
    (Haynsworth), so the count is the number of negative pivots of an LDL^T
    of the dense split x split matrix S(e).  S(e) decreases in e by at least
    the identity, so counts of S(e -+ delta) + E with ||E|| <= delta bound the
    count at e from below and above; they are taken at delta = c m u ||S||
    (Bunch-Kaufman backward error, Higham ch. 11; ||S|| is bounded by the
    norms of its two terms so the rounding of forming S is covered too) and
    accepted only if they agree.  None when e >= min D_top, when split
    exceeds dense_cap, or when the two counts differ.  ValueError if the
    trailing block is not diagonal.  X, B and D_top are sliced from op.csr.
    """
    n = op.dimension
    if not 0 <= split < n:
        raise ValueError(f"split must lie in [0, {n})")
    csr = op.csr
    start = csr.indptr[split]
    rows = np.repeat(np.arange(split, n), np.diff(csr.indptr[split:]))
    cols = csr.indices[start:]
    if ((cols >= split) & (cols != rows) & (csr.data[start:] != 0.0)).any():
        raise ValueError(f"the trailing block from {split} on is not diagonal")
    d_top = csr.diagonal()[split:]
    d_min = d_top.min()
    if e >= d_min or split > dense_cap:
        return None
    x = csr[:split, :split].toarray()
    bt = csr[split:, :split]
    b = bt.T.tocsr()

    def terms(shift):
        """X - shift and B (D_top - shift)^{-1} B^T, whose difference is S(shift)."""
        coupling = b @ bt.multiply(1.0 / (d_top - shift)[:, None])
        return x - shift * np.eye(split), coupling.toarray()

    s_norm = sum(np.linalg.norm(t, 1) for t in terms(e))
    if not math.isfinite(s_norm):
        raise NumericalError("Schur complement is not finite")
    delta = SCHUR_MARGIN * split * np.finfo(np.float64).eps * s_norm
    if e + delta >= d_min:
        return None
    lo, hi = (_negative_inertia(np.subtract(*terms(shift))) for shift in (e - delta, e + delta))
    return lo if lo == hi else None


@_one_blas_thread()
def resolvent_positivity_audit(
    op, lam: float, dense_cap: int = DEFAULT_DENSE_CAP
) -> PositivityReport:
    """Entrywise positivity of (op + lam)^{-1} plus ground-vector sign data.

    The caller passes the operator in the basis where positivity is expected
    (for fiber operators: after the sign flip).  lam must shift the spectrum
    strictly above zero; a non-positive-definite shift is a precondition
    violation, reported as ValueError; a non-finite operator raises
    NumericalError.
    """
    n = op.dimension
    _check_dense_cap(n, dense_cap)
    dense = op.to_dense()
    if not np.isfinite(dense).all():
        raise NumericalError("operator is not finite")
    shifted = dense + float(lam) * np.eye(n)
    try:
        chol = scipy.linalg.cho_factor(shifted, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(
            f"shift lam = {lam} does not make the operator positive definite; "
            "pick lam > -E0"
        ) from exc
    inv = scipy.linalg.cho_solve(chol, np.eye(n), check_finite=False)
    inv = 0.5 * (inv + inv.T)
    min_entry = float(inv.min())
    max_entry = float(inv.max())
    strictly_positive = bool(min_entry > 1e-14 * max(max_entry, 0.0))

    upper = min(1, n - 1)
    vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[0, upper])
    psi = vecs[:, 0]
    i = int(np.argmax(np.abs(psi)))
    if psi[i] < 0:
        psi = -psi
    ground_vector_min = float(psi.min())
    gap = float(vals[1] - vals[0]) if n > 1 else math.inf
    return PositivityReport(
        lam=float(lam),
        min_entry=min_entry,
        strictly_positive=strictly_positive,
        ground_vector_min=ground_vector_min,
        gap=gap,
    )
