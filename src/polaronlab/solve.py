"""Lowest eigenpairs of sparse symmetric operators, plus dense oracles.

dispersion_curve, cutoff_extrapolate and the torus degeneracy analysis send
a fiber here only where operators._certified_ground, which says which
certified route runs at which N_max, gives no ground state.  hvz_edge_check
assembles its two fibers and sends them here at every N_max.

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
preconditioner is the identity).  lowest_eigenpairs solves any object with
`dimension`, `matvec` and `diagonal`; the norm certificates hand the matvec
and the diagonal to its core, _eigenpairs, directly.

The dense route (dsyevr on the materialized matrix, _dense_lowest) exists
so iterative results can always be cross-checked on small instances, and it
powers the resolvent positivity audit, whose inverse is dpotrs on the
dpotrf factor (_cholesky_inverse).  Dense routines refuse to run above the
dimension cap DENSE_CAP, read at call time (_check_dense_cap), instead of
silently thrashing memory.  The iterative route likewise gives up, with a
ConvergenceError, after MAX_STEPS matvecs per eigenpair, read at call time.

count_below counts the eigenvalues below a level exactly, without solving
for them, when the operator ends in a diagonal block (a fiber's top phonon
number block): the count is the inertia of a dense Schur complement S(e) of
the size of the leading blocks, formed once at the level e.  _certified_count
reads it off LDL^T's of S(e) +- delta I, delta the rounding margin
(_schur_margin), and returns it only when the two agree.  The blocks are
sliced straight from the operator's symmetric CSR, op.csr, and the LDL^T is
LAPACK's dsytrf, called directly.  At N_max = 2, operators._pair_count forms
the same complement in closed form from the grid and shares the margin and
the certificate; the pair route of operators._certified_ground brackets its
ground level from one S(E) with the same margin, and operators._window_count
reads a count just above that level off the same S(E) with one Cholesky.
The shifted copies go to LAPACK with the shift added to their diagonal in
place (_shifted), so no identity or shifted sum is formed.

Threading model: the only parallelism is the pool of _parallel_map (the
`threads` setting).  BLAS and LAPACK run on one thread inside the public
numerical entry points (lowest_eigenpairs, dense_spectrum, count_below,
resolvent_positivity_audit) and inside cli.main: _one_blas_thread sets the
bundled OpenBLAS copies of numpy and scipy to one thread and the last scope
to exit restores the count it found.  A threaded BLAS splits sums across
threads, so its thread count would change low-order bits; under the scope
the outputs do not depend on OPENBLAS_NUM_THREADS.  With another BLAS the
scope does nothing.  Every LAPACK call of the package that goes through
scipy (dsyevr, dpotrf, dpotrs, dsytrf, dsygvd) goes through one table of
bindings to the capsules of scipy.linalg.cython_lapack, which this module
loads from its file at import (_cython_lapack).  The bindings release the
GIL, so the pool threads run the dense LAPACK of the pair route, of
count_below and of the Rayleigh-Ritz step at once.  Loading the capsules
also loads scipy's OpenBLAS, so both copies are in the process when
_one_blas_thread first looks for them.  The rest of a pair solve holds the
GIL, so two pool threads contend for it: on the 256-mode desk torus a
pooled pair solve burns 35-50% more thread CPU than alone and waits
1.2-2 ms off-CPU, and _secular_ground runs at 0.56-0.94x on two threads,
so threads = 2 is slower there; the pool pays from about M = 900 modes.

Imports: no module of the package imports scipy.linalg, whose start-up
costs about 0.1 s.  This module does not load scipy.sparse either:
count_below runs on the CSR its operator already holds.
"""

import ctypes
import glob
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from .errors import CapacityError, ConvergenceError, NumericalError, _check_int

DEFAULT_SEED = 42
DEFAULT_TOL = 1e-9
DENSE_CAP = 2000
MAX_STEPS = 20000
REFRESH_STEPS = 20
SCHUR_MARGIN = 10.0  # c in the count's margin c m u ||S||


@dataclass
class SpectralResult:
    """One converged eigenpair with its certified residual.

    `iterations` counts the matvecs spent on this pair (on the secular and
    pair routes of operators, the evaluations of f and the Newton steps).
    `bracket`, where the route proves one, is an interval (lower, upper)
    holding the eigenvalue.  `vector` is the unit eigenvector in basis order,
    except on the N_max = 2 pair route (operators._certified_ground), where it
    holds only that vector's blocks 0 and 1, the vacuum and the M one-phonon
    states in fiber order.
    """

    energy: float
    vector: np.ndarray
    residual: float
    iterations: int
    bracket: Optional[Tuple[float, float]] = None


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


# LAPACK is called through the C entry points that scipy.linalg.cython_lapack
# exports as capsules: the routines of the same OpenBLAS that scipy.linalg's
# f2py wrappers run, so the same arguments give the same bits.  The f2py
# wrappers hold the GIL for the whole call, so two pool threads running them
# took as long as one thread running both; a ctypes foreign call releases the
# GIL, and the factorizations and eigensolves of the pool threads overlap.
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _cython_lapack():
    """The extension module scipy.linalg.cython_lapack, loaded from its file.

    This runs no scipy/linalg/__init__, whose imports (through scipy._lib,
    numpy.f2py and numpy.testing) cost about 0.1 s of start-up; the module
    links scipy's OpenBLAS, which loading it brings into the process.
    Cython keeps one module object per process, so a later import of
    scipy.linalg gets this same module.  The loader registers it under its
    full name; unless it was there already, that entry is dropped, so that
    the later import binds it on scipy.linalg too.
    """
    name = "scipy.linalg.cython_lapack"
    loaded = sys.modules.get(name)
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if loaded is None:
        sys.modules.pop(name, None)
    return module


def _lapack(name: str):
    """The cython_lapack routine `name` as a ctypes call that takes one pointer
    per Fortran argument: scalars by reference, arrays in column-major order."""
    capsule = _CAPI[name]
    signature = _capsule_name(capsule)
    proto = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(b",") + 1))
    return proto(_capsule_pointer(capsule, signature))


_CAPI = _cython_lapack().__pyx_capi__
_DSYEVR, _DPOTRF, _DPOTRS, _DSYTRF, _DSYGVD = map(
    _lapack, ("dsyevr", "dpotrf", "dpotrs", "dsytrf", "dsygvd"))


def _int(value: int):
    """A by-reference LAPACK integer argument."""
    return ctypes.byref(ctypes.c_int(value))


def _ptr(a: np.ndarray):
    """A LAPACK array argument: a pointer to the data of `a`, a writable 1-D or
    column-major array, that holds a reference to `a` for the call (NULL
    when `a` is empty)."""
    return ctypes.byref(ctypes.c_char.from_buffer(a.T)) if a.size else None


def _square(s: np.ndarray) -> np.ndarray:
    """A column-major float64 copy of s for LAPACK to read and overwrite;
    ValueError unless s is a square matrix, since LAPACK reads n x n."""
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    return np.array(s, dtype=np.float64, order="F")


def _info(routine: str, info: ctypes.c_int) -> int:
    """LAPACK's info; ValueError when the routine rejected an argument."""
    if info.value < 0:
        raise ValueError(f"{routine} rejected argument {-info.value}")
    return info.value


_ritz_calls = threading.local()  # per thread: rows -> _ritz_call(rows)


def _ritz_call(rows: int):
    """This thread's column-major stiff and mass buffers of size rows, the
    info of their dsygvd call and its argument list, with the workspace
    scipy.linalg.eigh(a, b) gives dsygvd; made once, so a Rayleigh-Ritz
    step pays for one foreign call and no argument conversion."""
    calls = vars(_ritz_calls)
    if rows not in calls:
        stiff, mass = np.zeros((2, rows, rows)).transpose(0, 2, 1)
        lwork, liwork = 1 + 6 * rows + 2 * rows * rows, 5 * rows + 3
        info = ctypes.c_int()
        calls[rows] = stiff, mass, info, (
            _int(1), b"V", b"L", _int(rows), _ptr(stiff), _int(rows), _ptr(mass), _int(rows),
            _ptr(np.empty(rows)), _ptr(np.empty(lwork)), _int(lwork),
            _ptr(np.empty(liwork, dtype=np.intc)), _int(liwork), ctypes.byref(info))
    return calls[rows]


def _lowest_ritz(work: np.ndarray, rows: int):
    """Lowest Ritz coefficients of the pencil (S A S^T, S S^T), S = work[:rows].

    The images A S sit in work[3 : 3 + rows].  The pencil goes to dsygvd
    (itype 1, lower triangles), the routine scipy.linalg.eigh(a, b) runs by
    default.  None when S S^T is singular (LAPACK reports a failure);
    NumericalError on a non-finite Gram matrix.
    """
    gram = work[:rows] @ work.T
    stiff, mass, info, args = _ritz_call(rows)
    cross = gram[:, 3 : 3 + rows]
    np.multiply(0.5, cross + cross.T, out=stiff)
    mass[:] = gram[:, :rows]
    if not (np.isfinite(stiff).all() and np.isfinite(mass).all()):
        raise NumericalError("Rayleigh-Ritz Gram matrix is not finite")
    _DSYGVD(*args)
    return None if _info("dsygvd", info) else stiff[:, 0].copy()


def _deflated_lowest(
    matvec: Callable[[np.ndarray], np.ndarray],
    precond: np.ndarray,
    est_tol: float,
    cert_tol: float,
    seed: int,
    locked: np.ndarray,
) -> SpectralResult:
    """Lowest eigenpair of a symmetric operator on the complement of `locked`.

    Each step moves x to the Rayleigh-Ritz minimizer over span[x, T r, p]
    (r the residual, p the previous step, T = diag(precond)).  A x and A p
    follow the recurrences of x and p, so a step costs one matvec of
    `matvec`; an explicit product replaces A x every REFRESH_STEPS
    steps and before certification.  `locked` rows are certified
    eigenvectors that the start vector and every search direction are
    orthogonalized against.  Certification recomputes the residual on the
    full operator and accepts at `cert_tol`, once the deflated residual has
    reached the tighter `est_tol`.
    """
    n = precond.size
    rng = np.random.default_rng(seed)

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
            if steps >= MAX_STEPS:
                break
            x /= math.sqrt(x @ x)
            ax[:] = matvec(x)
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
                return SpectralResult(theta, x.copy(), res, steps)
        if steps >= MAX_STEPS:
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
            aw[:] = matvec(w)
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
        f"no certified eigenpair after {MAX_STEPS} matvecs "
        f"(best residual estimate {best_est:.3e}, tol {cert_tol})"
    )


def lowest_eigenpairs(
    op,
    k: int = 1,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> List[SpectralResult]:
    """k smallest eigenpairs of a symmetric operator, counted with multiplicity.

    Pairs are extracted one at a time, each run deflated against the vectors
    already found, so repeated eigenvalues come back as distinct orthogonal
    copies.  Stage estimates are tightened by a factor 4k below tol to keep
    deflation leakage under the certification threshold; every returned
    residual is recomputed on the full operator.  Exact breakdown injects a
    fresh random direction, so invariant subspaces (diagonal operators
    included) are handled without special cases.  Raises ConvergenceError
    with the best residual if MAX_STEPS matvecs pass without certification;
    ValueError unless k is an int (a bool is not) in [1, dimension].
    """
    n = op.dimension
    if n < 1:
        raise ValueError("operator dimension must be positive")
    _check_int("k", k, 1)
    if k > n:
        raise ValueError(f"k must lie in [1, {n}]")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return _eigenpairs(op.matvec, op.diagonal(), k, tol, seed)


@_one_blas_thread()
def _eigenpairs(matvec: Callable[[np.ndarray], np.ndarray], diagonal: np.ndarray,
                k: int, tol: float, seed: int) -> List[SpectralResult]:
    """lowest_eigenpairs of the operator x -> matvec(x) with the given diagonal,
    its arguments already checked; the preconditioner is 1/(d - min d + 1)."""
    precond = 1.0 / (diagonal - diagonal.min() + 1.0)
    est_tol = tol if k == 1 else tol / (4.0 * k)
    locked = np.zeros((0, precond.size))
    results: List[SpectralResult] = []
    for i in range(k):
        res = _deflated_lowest(matvec, precond, est_tol, tol, seed + i, locked)
        results.append(res)
        locked = np.vstack([locked, res.vector[None, :]])
    results.sort(key=lambda r: r.energy)
    return results


def ground_state(
    op,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> SpectralResult:
    """Certified lowest eigenpair; thin wrapper over lowest_eigenpairs."""
    return lowest_eigenpairs(op, k=1, tol=tol, seed=seed)[0]


def _check_dense_cap(n: int) -> None:
    """CapacityError unless an n x n dense matrix fits under DENSE_CAP."""
    if n > DENSE_CAP:
        raise CapacityError(f"dimension {n} exceeds the dense cap {DENSE_CAP}")


def _parallel_map(fn: Callable, items: Sequence, threads: int) -> list:
    """[fn(x) for x in items], spread over a pool of `threads` threads.

    Serial when threads is 1 or there is at most one item.  Results keep the
    input order and the first exception raised by fn propagates.  ValueError
    unless threads is an int (a bool is not) of at least 1, before any call.
    """
    _check_int("threads", threads, 1)
    items = list(items)
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _finite_dense(op, message: str) -> np.ndarray:
    """op.to_dense() once its dimension passes the dense cap (CapacityError);
    NumericalError(message) if it is not finite."""
    _check_dense_cap(op.dimension)
    dense = op.to_dense()
    if not np.isfinite(dense).all():
        raise NumericalError(message)
    return dense


@_one_blas_thread()
def dense_spectrum(op, k: int = 6) -> np.ndarray:
    """k smallest eigenvalues by dense LAPACK; the oracle for the iterative route.

    k above the dimension is clamped to it.  A non-finite operator raises
    NumericalError; ValueError unless k is an int (a bool is not) of at
    least 1.
    """
    _check_int("k", k, 1)
    return _dense_lowest(_finite_dense(op, "operator is not finite; no dense spectrum"),
                         min(k, op.dimension), vectors=False)[0]


def _shifted(s: np.ndarray, shift: float, overwrite: bool = False) -> np.ndarray:
    """_square(s) with `shift` added to its diagonal in place: the bits of
    s + shift I on the diagonal and of s off it (but for the sign of a
    zero), with no identity or sum formed.  With `overwrite`, s itself, a
    column-major float64 square matrix, takes the shift: no copy."""
    a = s if overwrite else _square(s)
    a[np.diag_indices(len(a))] += shift
    return a


def _negative_inertia(s: np.ndarray, shift: float = 0.0) -> int:
    """Number of negative eigenvalues of s + shift I, s symmetric (lower
    triangle read), from its LDL^T by dsytrf on one shifted column-major
    copy (_shifted), with the workspace of its query, the one
    scipy.linalg.ldl asks for, so the factor is the one ldl computes.

    By Sylvester's law s has the inertia of the block-diagonal D, whose
    pivots are 1x1 or 2x2 (Bunch-Kaufman).  D sits on the factor's diagonal,
    and a 2x2 pivot on rows k, k + 1, marked by negative ipiv entries there,
    has its off-diagonal entry at (k + 1, k); the negative entries come in
    such consecutive pairs, so every second one starts a pivot.
    """
    ldu = _shifted(s, shift)
    n = len(ldu)
    ipiv = np.empty(n, dtype=np.intc)
    info = ctypes.c_int()

    def sytrf(work, lwork):
        _DSYTRF(b"L", _int(n), _ptr(ldu), _int(max(1, n)), _ptr(ipiv),
                _ptr(work), _int(lwork), ctypes.byref(info))
        return _info("dsytrf", info)

    query = np.empty(1)
    sytrf(query, -1)
    lwork = int(query[0])
    sytrf(np.empty(lwork), lwork)
    diag = ldu.diagonal()
    pair = np.flatnonzero(ipiv < 0)[::2]  # 2x2 pivot on rows i, i + 1
    single = np.ones(n, dtype=bool)
    single[pair] = single[pair + 1] = False
    mid = 0.5 * (diag[pair] + diag[pair + 1])
    rad = np.hypot(0.5 * (diag[pair] - diag[pair + 1]), ldu[pair + 1, pair])
    return int((diag[single] < 0).sum() + (mid - rad < 0).sum() + (mid + rad < 0).sum())


def _cholesky(s: np.ndarray, shift: float = 0.0, uplo: bytes = b"L",
              overwrite: bool = False) -> Optional[np.ndarray]:
    """The Cholesky factor of s + shift I, s symmetric, by dpotrf on one
    shifted column-major copy (_shifted), or on s itself with `overwrite`,
    or None when the factorization fails.  The factor is the `uplo`
    triangle (b"L" or b"U", the only one read) of the returned array; its
    other triangle keeps s + shift I.  OpenBLAS's dpotrf can pass a NaN or
    an infinity with info = 0; one in the triangle it reads reaches a later
    pivot, so a factor whose diagonal is not finite is a failure too."""
    a = _shifted(s, shift, overwrite)
    n = len(a)
    info = ctypes.c_int()
    _DPOTRF(uplo, _int(n), _ptr(a), _int(max(1, n)), ctypes.byref(info))
    return None if _info("dpotrf", info) or not np.isfinite(a.diagonal()).all() else a


def _cholesky_inverse(s: np.ndarray, shift: float) -> Optional[np.ndarray]:
    """(s + shift I)^{-1}, s symmetric (upper triangle read), or None when
    s + shift I is not positive definite: dpotrs with B = I on the upper
    factor of _cholesky, as scipy.linalg.cho_solve(cho_factor(s + shift I),
    I) computes it."""
    factor = _cholesky(s, shift, b"U")
    if factor is None:
        return None
    n = len(factor)
    inv, info = np.eye(n, order="F"), ctypes.c_int()
    _DPOTRS(b"U", _int(n), _int(n), _ptr(factor), _int(max(1, n)), _ptr(inv),
            _int(max(1, n)), ctypes.byref(info))
    _info("dpotrs", info)
    return inv


def _dense_lowest(s: np.ndarray, k: int = 1, vectors: bool = True):
    """The k lowest eigenvalues of dense symmetric s (lower triangle read),
    ascending, and with `vectors` a k x n array whose rows are their unit
    eigenvectors (else None): dsyevr as scipy.linalg.eigh(s, eigvals_only=not
    vectors, subset_by_index=[0, k - 1]) runs it, with the workspace of its
    query; the rows are eigh's columns.  LinAlgError when dsyevr fails;
    ValueError unless 1 <= k <= n, before dsyevr could print its argument
    error on the process's stdout."""
    a = _square(s)
    n = len(a)
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} lies outside [1, {n}]" if n else
                         "an empty matrix has no lowest eigenvalue")
    w, z = np.empty(n), np.empty((k, n) if vectors else (1, 1))
    isuppz = np.empty(2 * k, dtype=np.intc)
    zero, found, info = ctypes.c_double(0.0), ctypes.c_int(), ctypes.c_int()

    def syevr(work, lwork, iwork, liwork):
        _DSYEVR(b"V" if vectors else b"N", b"I", b"L", _int(n), _ptr(a), _int(n),
                ctypes.byref(zero), ctypes.byref(zero), _int(1), _int(k), ctypes.byref(zero),
                ctypes.byref(found), _ptr(w), _ptr(z.T), _int(z.shape[1]),
                _ptr(isuppz), _ptr(work), _int(lwork), _ptr(iwork),
                _int(liwork), ctypes.byref(info))
        return _info("dsyevr", info)

    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    syevr(work, -1, iwork, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    if syevr(np.empty(lwork), lwork, np.empty(liwork, dtype=np.intc), liwork):
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info.value}")
    return w[:k], (z if vectors else None)


def _schur_margin(norms, m: int) -> float:
    """delta = c m u ||S|| for S = X - C, from `norms` = (||X||_1, ||C||_1), m
    at least S's order and the terms summed in one entry of C; ||S|| <=
    ||X||_1 + ||C||_1 covers the rounding of forming S too.  NumericalError
    if S is not finite."""
    s_norm = sum(norms)
    if not math.isfinite(s_norm):
        raise NumericalError("Schur complement is not finite")
    return SCHUR_MARGIN * m * np.finfo(np.float64).eps * s_norm


def _certified_count(s: np.ndarray, delta: float):
    """Negative inertia of S(e), for s the computed Schur complement S(e) and
    delta its margin (_schur_margin), or None.

    delta bounds the rounding of forming S(e) plus the Bunch-Kaufman backward
    error of an LDL^T (Higham ch. 11), so the LDL^T of s + delta I is exact
    for a matrix at or above S(e), and that of s - delta I for one at or
    below it: their negative inertias bound S(e)'s from below and from
    above, and it is returned when the two agree.  Only the level e is read.
    """
    lo, hi = (_negative_inertia(s, shift) for shift in (delta, -delta))
    return lo if lo == hi else None


@_one_blas_thread()
def count_below(op, e: float, split: int):
    """Number of eigenvalues of a SparseOperator below e, or None to fall back.

    `split` is where a diagonal trailing block D_top starts (for a fiber,
    basis.block_offset(N_max)).  Writing op - e = [[X - e, B], [B^T, D_top - e]]
    with e < min D_top, op - e has the inertia of D_top - e (all positive)
    plus that of the Schur complement S(e) = X - e - B (D_top - e)^{-1} B^T
    (Haynsworth), so the count is the number of negative pivots of an LDL^T
    of the dense split x split matrix S(e), formed once and certified
    against its rounding by _certified_count: None when e >= min D_top, when
    split exceeds DENSE_CAP, or when the counts of S(e) +- delta I differ;
    delta takes m = max(split, most entries in a row of B), as at N_max = 1
    the one entry of S(e) sums M terms.
    ValueError if e is not finite, split is not an int (a bool is not) in
    [0, dimension), or the trailing block is not diagonal.
    X, B and D_top are sliced from op.csr.  At N_max = 2,
    operators._pair_count gives the same count from the grid alone, without
    a fiber.
    """
    n = op.dimension
    _check_int("split", split, 0)
    if split >= n:
        raise ValueError(f"split must lie in [0, {n})")
    if not math.isfinite(e):
        raise ValueError(f"level e must be finite, got {e}")
    csr = op.csr
    start = csr.indptr[split]
    rows = np.repeat(np.arange(split, n), np.diff(csr.indptr[split:]))
    cols = csr.indices[start:]
    if ((cols >= split) & (cols != rows) & (csr.data[start:] != 0.0)).any():
        raise ValueError(f"the trailing block from {split} on is not diagonal")
    d_top = csr.diagonal()[split:]
    if e >= d_top.min() or split > DENSE_CAP:
        return None
    bt = csr[split:, :split]
    pair = (csr[:split, :split].toarray() - e * np.eye(split),
            (bt.T.tocsr() @ bt.multiply(1.0 / (d_top - e)[:, None])).toarray())
    inner = int(bt.getnnz(axis=0).max(initial=0))  # terms in one entry of B D^-1 B^T
    return _certified_count(np.subtract(*pair), _schur_margin(
        [np.linalg.norm(t, 1) for t in pair], max(split, inner)))


@_one_blas_thread()
def resolvent_positivity_audit(op, lam: float) -> PositivityReport:
    """Entrywise positivity of (op + lam)^{-1} plus ground-vector sign data.

    The caller passes the operator in the basis where positivity is expected
    (for fiber operators: after the sign flip).  lam must shift the spectrum
    strictly above zero; a non-positive-definite shift is a precondition
    violation, reported as ValueError, as is a non-finite lam, before any
    LAPACK call; a non-finite operator raises NumericalError.
    """
    if not math.isfinite(lam):
        raise ValueError(f"shift lam must be finite, got {lam}")
    dense = _finite_dense(op, "operator is not finite")
    n = len(dense)
    inv = _cholesky_inverse(dense, float(lam))
    if inv is None:
        raise ValueError(
            f"shift lam = {lam} does not make the operator positive definite; "
            "pick lam > -E0"
        )
    inv = 0.5 * (inv + inv.T)
    min_entry = float(inv.min())
    max_entry = float(inv.max())
    strictly_positive = bool(min_entry > 1e-14 * max(max_entry, 0.0))

    vals, vecs = _dense_lowest(dense, min(2, n))
    psi = vecs[0]
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
