"""Iterative eigensolver against dense oracles; resolvent positivity audits."""

import ctypes
import dataclasses
import math
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import polaronlab.solve as solve
from polaronlab import operators
from polaronlab import (
    CapacityError,
    ConvergenceError,
    FiberConfig,
    assemble_fiber,
    build_grid,
    dense_spectrum,
    enumerate_basis,
    ground_state,
    lowest_eigenpairs,
    resolvent_positivity_audit,
    sign_flip,
)
from polaronlab.errors import NumericalError
from polaronlab.solve import (
    _cholesky,
    _cholesky_inverse,
    _dense_lowest,
    _lowest_ritz,
    _negative_inertia,
    _one_blas_thread,
    _openblas_handles,
    _parallel_map,
    count_below,
)
from naive_ref import (dense_spectrum_ref, from_triplets, ldl_negative_inertia,
                       positivity_audit_ref)
from suite_configs import all_operators, kt_suite


def _diag_op(values):
    idx = np.arange(len(values), dtype=np.int64)
    return from_triplets(len(values), idx, idx, np.asarray(values, float))


def _tridiag_op(n):
    # discrete Laplacian: eigenvalues 2 - 2 cos(pi j / (n+1)) are closed form
    i = np.arange(n, dtype=np.int64)
    rows = np.concatenate([i, i[:-1]])
    cols = np.concatenate([i, i[:-1] + 1])
    vals = np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0)])
    return from_triplets(n, rows, cols, vals)


def test_diagonal_example():
    res = ground_state(_diag_op([3.0, 1.0, 2.0]))
    assert res.energy == pytest.approx(1.0, abs=1e-12)
    assert np.abs(res.vector) == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)
    assert res.residual <= 1e-9


def test_two_by_two_pair():
    op = from_triplets(2, [0, 0, 1], [0, 1, 1], [0.0, 1.0, 2.0])
    pairs = lowest_eigenpairs(op, k=2)
    assert pairs[0].energy == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-10)
    assert pairs[1].energy == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-10)
    for res in pairs:
        r = op.matvec(res.vector) - res.energy * res.vector
        assert np.linalg.norm(r) == pytest.approx(res.residual, abs=1e-13)
        assert res.residual <= 1e-9


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_lowest_ritz_matches_eigh(rows, seed):
    # the direct LAPACK call must give eigh's default (gvd) coefficients bit
    # for bit; a scipy that changed eigh's default routine would fail here
    work = np.random.default_rng(seed).standard_normal((6, 50))
    gram = work[:rows] @ work.T
    stiff = gram[:, 3 : 3 + rows]
    ref = scipy.linalg.eigh(0.5 * (stiff + stiff.T), gram[:, :rows])[1][:, 0]
    np.testing.assert_array_equal(_lowest_ritz(work, rows), ref)


def test_lowest_ritz_singular_and_nonfinite_gram():
    work = np.random.default_rng(0).standard_normal((6, 50))
    work[1] = 0.0  # a zero search direction makes S S^T singular
    assert _lowest_ritz(work, 2) is None
    work = np.random.default_rng(0).standard_normal((6, 50))
    work[4, 7] = np.nan
    with pytest.raises(NumericalError):  # a numerical failure (exit 2), not a config error
        _lowest_ritz(work, 2)


def test_identity_breaks_down_cleanly():
    res = ground_state(_diag_op(np.ones(5)))
    assert res.energy == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-12


def test_degenerate_lowest_level():
    pairs = lowest_eigenpairs(_diag_op([1.0, 1.0, 2.0, 5.0, 5.0, 9.0]), k=3)
    energies = [p.energy for p in pairs]
    assert energies == pytest.approx([1.0, 1.0, 2.0], abs=1e-9)


def test_laplacian_matches_closed_form():
    n = 300
    op = _tridiag_op(n)
    pairs = lowest_eigenpairs(op, k=4)
    for j, res in enumerate(pairs, start=1):
        exact = 2.0 - 2.0 * math.cos(math.pi * j / (n + 1))
        assert res.energy == pytest.approx(exact, abs=1e-9)
        assert res.residual <= 1e-9
    # the same instance through the dense oracle
    np.testing.assert_allclose(
        [p.energy for p in pairs], dense_spectrum(op, k=4), atol=1e-9
    )


def test_iterations_uniform_in_cutoff():
    # the diagonal preconditioner is spectrally equivalent to H + 1 uniformly
    # in Lambda, so the matvec count must not grow with the cutoff
    counts = {}
    for lam, dim in ((4.0, 2109), (8.0, 17077)):
        grid = build_grid(0.5, lam)
        basis = enumerate_basis(len(grid), 1, grid.units, grid.spacing)
        assert basis.dimension == dim
        cfg = FiberConfig(alpha=0.1, p=np.zeros(3), grid=grid, n_max=1)
        res = ground_state(assemble_fiber(cfg, basis))
        assert res.residual <= 1e-9
        counts[lam] = res.iterations
    assert counts[8.0] <= 25
    assert counts[8.0] <= 2 * counts[4.0]


def test_suite_operators_match_dense():
    for name, op in all_operators():
        if op.dimension > 600:
            continue
        res = ground_state(op)
        oracle = dense_spectrum(op, k=1)[0]
        assert res.energy == pytest.approx(oracle, abs=1e-8), name
        assert res.residual <= 1e-9


def test_convergence_error_carries_estimate(monkeypatch):
    op = _tridiag_op(400)
    monkeypatch.setattr(solve, "MAX_STEPS", 3)
    with pytest.raises(ConvergenceError, match="after 3 matvecs"):
        lowest_eigenpairs(op, k=1)


def test_deterministic_runs():
    _, op = all_operators()[4]
    a = ground_state(op)
    b = ground_state(op)
    assert a.energy == b.energy
    np.testing.assert_array_equal(a.vector, b.vector)
    c = ground_state(op, seed=7)
    assert c.energy == pytest.approx(a.energy, abs=1e-9)


def test_truncation_monotonicity():
    # enlarging the variational space can only lower the ground energy
    grid = build_grid(1.0, 1.5)
    energies = []
    for n_max in range(4):
        basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
        cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=n_max)
        energies.append(ground_state(assemble_fiber(cfg, basis)).energy)
    assert energies[0] == pytest.approx(0.0, abs=1e-12)
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-12


def test_sign_flip_preserves_ground_energy():
    for name, cfg, basis in kt_suite()[:4]:
        op = assemble_fiber(cfg, basis)
        e1 = ground_state(op).energy
        e2 = ground_state(sign_flip(op)).energy
        assert e1 == pytest.approx(e2, abs=1e-9)


def test_solver_argument_validation():
    op = _diag_op([1.0, 2.0])
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, k=0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, k=3)
    # a NaN tol would run MAX_STEPS matvecs first, an infinite one certify
    # the start vector
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            lowest_eigenpairs(op, tol=tol)
    with pytest.raises(ValueError):
        lowest_eigenpairs(from_triplets(0, [], [], []))


@pytest.mark.parametrize("k", [2.0, True, 0])
def test_lowest_eigenpairs_k_must_be_an_int(k):
    # 2.0 used to die in a TypeError inside range, True to run as k = 1
    with pytest.raises(ValueError, match="k must be an int of at least 1"):
        lowest_eigenpairs(_diag_op([1.0, 2.0, 3.0]), k=k)


@pytest.mark.parametrize("k", [2.5, True, 0])
def test_dense_spectrum_k_must_be_an_int(k):
    # 2.5 used to return two values, True one
    with pytest.raises(ValueError, match="k must be an int of at least 1"):
        dense_spectrum(_diag_op([3.0, 1.0, 2.0]), k=k)


def test_dense_spectrum_oracle(monkeypatch):
    op = _diag_op([3.0, 1.0, 2.0])
    np.testing.assert_allclose(dense_spectrum(op, k=6), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        dense_spectrum(op, k=0)
    monkeypatch.setattr(solve, "DENSE_CAP", 2)
    with pytest.raises(CapacityError):
        dense_spectrum(op)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_spectrum_rejects_non_finite_operator(bad):
    # a numerical failure (exit 2), not eigh's config-style ValueError (exit 3)
    with pytest.raises(NumericalError, match="not finite"):
        dense_spectrum(_diag_op([3.0, bad, 2.0]), k=1)


def test_audit_inverse_positive_case():
    # [[2,-1],[-1,2]]: an M-matrix, inverse (1/3)[[2,1],[1,2]] is positive
    op = from_triplets(2, [0, 0, 1], [0, 1, 1], [2.0, -1.0, 2.0])
    rep = resolvent_positivity_audit(op, lam=0.0)
    assert rep.strictly_positive
    assert rep.min_entry == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.ground_vector_min == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert rep.gap == pytest.approx(2.0, abs=1e-12)
    assert rep.lam == 0.0


def test_audit_detects_sign_problem():
    # positive off-diagonal coupling: inverse entries change sign and the
    # ground vector cannot be chosen entrywise positive
    op = from_triplets(2, [0, 0, 1], [0, 1, 1], [2.0, 1.0, 2.0])
    rep = resolvent_positivity_audit(op, lam=0.0)
    assert not rep.strictly_positive
    assert rep.ground_vector_min < 0.0


def test_audit_shift_must_clear_spectrum(monkeypatch):
    op = from_triplets(2, [0, 0, 1], [0, 1, 1], [2.0, -1.0, 2.0])
    with pytest.raises(ValueError):
        resolvent_positivity_audit(op, lam=-1.5)  # lands inside the spectrum
    monkeypatch.setattr(solve, "DENSE_CAP", 1)
    with pytest.raises(CapacityError):
        resolvent_positivity_audit(op, lam=0.0)


def test_audit_rejects_a_non_finite_operator():
    op = from_triplets(3, [0, 1, 2], [0, 1, 2], [1.0, np.nan, 2.0])
    with pytest.raises(NumericalError):
        resolvent_positivity_audit(op, lam=1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_audit_rejects_a_non_finite_shift_before_lapack(monkeypatch, lam):
    # lam = nan used to report min_entry = nan, and lam = inf min_entry = 0.0
    def forbidden(*args):
        raise AssertionError("LAPACK called")

    for name in ("_DPOTRF", "_DPOTRS", "_DSYEVR"):
        monkeypatch.setattr(solve, name, forbidden)
    op = from_triplets(2, [0, 0, 1], [0, 1, 1], [2.0, -1.0, 2.0])
    with pytest.raises(ValueError, match="lam must be finite"):
        resolvent_positivity_audit(op, lam)


def _c08_fiber(alpha, cutoff=1.5):
    # the c08 fiber at P = 0: delta 1, Lambda 1.5, N_max 2, 190 states
    # (28 states at Lambda 1)
    grid = build_grid(1.0, cutoff)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    return assemble_fiber(FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=2), basis)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
def test_dense_spectrum_matches_the_eigh_route_bit_for_bit(alpha):
    # every k from 1 past n: dense_spectrum clamps k to the dimension
    op = _c08_fiber(alpha, cutoff=1.0)
    n = op.dimension
    for k in range(1, n + 3):
        got = dense_spectrum(op, k=k)
        with _one_blas_thread():
            want = dense_spectrum_ref(op, k=k)
        assert got.tobytes() == want.tobytes(), k
        assert got.size == min(k, n)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
def test_audit_matches_the_cho_solve_route_field_for_field(alpha):
    # repr keeps the sign of a zero: at alpha = 0 the inverse is diagonal;
    # the oracle runs on one BLAS thread, as the audit does
    op = _c08_fiber(alpha)
    e0 = float(dense_spectrum(op, k=1)[0])
    flipped = sign_flip(op)
    rep = dataclasses.asdict(resolvent_positivity_audit(flipped, 1.0 - e0))
    with _one_blas_thread():
        want = positivity_audit_ref(flipped, 1.0 - e0)
    assert {k: repr(v) for k, v in rep.items()} == {k: repr(v) for k, v in want.items()}
    assert rep["strictly_positive"] is (alpha > 0.0)
    # a shift inside the spectrum: the same ValueError on both routes
    with pytest.raises(ValueError) as got:
        resolvent_positivity_audit(flipped, -e0 - 0.5)
    with pytest.raises(ValueError) as expected:
        positivity_audit_ref(flipped, -e0 - 0.5)
    assert str(got.value) == str(expected.value)
    assert "does not make the operator positive definite" in str(got.value)


def test_audit_single_state_gap_is_infinite():
    rep = resolvent_positivity_audit(_diag_op([2.0]), lam=0.0)
    assert rep.gap == math.inf
    assert rep.strictly_positive


def test_audit_fiber_needs_the_sign_flip():
    grid = build_grid(1.0, 1.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    op = assemble_fiber(cfg, basis)
    e0 = dense_spectrum(op, k=1)[0]
    lam = 1.0 - e0
    flipped = resolvent_positivity_audit(sign_flip(op), lam=lam)
    assert flipped.strictly_positive
    assert flipped.ground_vector_min > 0.0
    assert flipped.gap > 0.0
    raw = resolvent_positivity_audit(op, lam=lam)
    assert not raw.strictly_positive
    assert raw.ground_vector_min < 0.0


def test_parallel_map_order_serial_fallback_and_errors():
    items = list(range(9))
    for threads in (1, 2, 4):
        assert _parallel_map(lambda x: x * x, items, threads) == [x * x for x in items]
    # one thread or one item runs on the calling thread, without a pool
    caller = threading.get_ident()
    assert _parallel_map(lambda x: threading.get_ident(), items, 1) == [caller] * 9
    assert _parallel_map(lambda x: threading.get_ident(), [0], 4) == [caller]

    def fail_on_five(x):
        if x == 5:
            raise ConvergenceError("item 5")
        return x

    with pytest.raises(ConvergenceError, match="item 5"):
        _parallel_map(fail_on_five, items, 2)


class _FakeBlas:
    """A thread-count pair that logs every set call."""

    def __init__(self, count):
        self.count, self.sets = count, []

    def get(self):
        return self.count

    def put(self, count):
        self.sets.append(count)
        self.count = count


@pytest.mark.skipif(not _openblas_handles(),
                    reason="no bundled OpenBLAS thread-count calls resolve")
def test_one_blas_thread_sets_and_restores_openblas():
    handles = _openblas_handles()
    found = [get() for get, _ in handles]
    try:
        for _, put in handles:
            put(2)
        with _one_blas_thread():
            assert [get() for get, _ in handles] == [1] * len(handles)
        assert [get() for get, _ in handles] == [2] * len(handles)
    finally:
        for (_, put), count in zip(handles, found):
            put(count)


# a fresh interpreter: the OpenBLAS handles resolve before scipy.linalg is
# imported (they are cached at first use, so a copy loaded later would stay
# unpinned), and a later import of cython_lapack yields the capsules solve calls
_FRESH_BINDINGS = """
import ctypes, sys
import polaronlab
from polaronlab import solve
assert "scipy.linalg" not in sys.modules
print(len(solve._openblas_handles()))
import scipy.linalg.cython_lapack
capi = scipy.linalg.cython_lapack.__pyx_capi__
print(capi is solve._CAPI, all(
    ctypes.cast(call, ctypes.c_void_p).value
    == solve._capsule_pointer(capi[name], solve._capsule_name(capi[name]))
    for name, call in (("dsyevr", solve._DSYEVR), ("dpotrf", solve._DPOTRF),
                       ("dpotrs", solve._DPOTRS), ("dsytrf", solve._DSYTRF),
                       ("dsygvd", solve._DSYGVD))))
"""


@pytest.mark.skipif(not _openblas_handles(),
                    reason="no bundled OpenBLAS thread-count calls resolve")
def test_lapack_bindings_and_openblas_handles_need_no_scipy_linalg():
    proc = subprocess.run([sys.executable, "-c", _FRESH_BINDINGS], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(_openblas_handles())), "True", "True"]


def test_one_blas_thread_restores_once_when_nested_or_concurrent(monkeypatch):
    fakes = [_FakeBlas(3), _FakeBlas(2)]
    monkeypatch.setattr(solve, "_blas_handles", [(f.get, f.put) for f in fakes])
    with _one_blas_thread():
        with _one_blas_thread():
            assert [f.count for f in fakes] == [1, 1]
        assert [f.count for f in fakes] == [1, 1]
    assert [f.sets for f in fakes] == [[1, 3], [1, 2]]

    # both pool threads are inside the scope at once; the last exit restores
    inside = threading.Barrier(2)

    def enter(_):
        with _one_blas_thread():
            inside.wait(timeout=10)
            return [f.count for f in fakes]

    assert _parallel_map(enter, [0, 1], 2) == [[1, 1], [1, 1]]
    assert [f.sets for f in fakes] == [[1, 3, 1, 3], [1, 2, 1, 2]]
    assert solve._blas_depth == 0


def test_one_blas_thread_under_thread_switching_stress(monkeypatch):
    # a lost update of the depth would restore while a scope is open (a body
    # reads 3) or never restore (the count stays 1)
    fake = _FakeBlas(3)
    monkeypatch.setattr(solve, "_blas_handles", [(fake.get, fake.put)])
    seen = set()
    start = threading.Barrier(8)

    def churn():
        start.wait(timeout=60)
        for _ in range(20000):
            with _one_blas_thread():
                seen.add(fake.get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(start.parties)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert seen == {1}
    assert fake.count == 3 and solve._blas_depth == 0
    assert fake.sets[::2] == [1] * (len(fake.sets) // 2)
    assert fake.sets[1::2] == [3] * (len(fake.sets) // 2)


def test_solve_runs_without_openblas_handles(monkeypatch):
    op = _tridiag_op(40)
    energy = ground_state(op).energy
    monkeypatch.setattr(solve, "_blas_handles", [])
    assert ground_state(op).energy == energy
    assert dense_spectrum(op, k=1)[0] == pytest.approx(energy, abs=1e-9)


def _count_cases():
    # (name, fiber, split): N_max 1 and 2, P = 0 and e_z, alpha 0 and 1
    for delta, lam, n_max in ((1.0, 2.0, 1), (0.75, 3.0, 1), (1.0, 2.0, 2), (1.0, 1.5, 2)):
        grid = build_grid(delta, lam)
        basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
        assert basis.dimension <= 2000
        for alpha in (0.0, 1.0):
            for p in ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
                cfg = FiberConfig(alpha=alpha, p=np.array(p), grid=grid, n_max=n_max)
                yield (f"d{delta}-L{lam}-n{n_max}-a{alpha}-P{p}",
                       assemble_fiber(cfg, basis), basis.block_offset(n_max))


def test_count_below_matches_dense_spectrum():
    counted = 0
    for name, op, split in _count_cases():
        evals = np.linalg.eigvalsh(op.to_dense())
        top_min = op.diagonal()[split:].min()
        # the six lowest distinct levels: clusters split at gaps above 1e-8
        levels = evals[np.concatenate([[0], np.flatnonzero(np.diff(evals) > 1e-8) + 1])][:6]
        probes = np.concatenate([levels - 1e-9, levels + 1e-9,
                                 0.5 * (levels[:-1] + levels[1:])])
        for e in probes:
            got = count_below(op, float(e), split)
            want = int((evals < e).sum())
            if e >= top_min:
                assert got is None, (name, e)
            elif e >= top_min - 1e-6:  # the margin may reach the pole of S at min D_top
                assert got in (None, want), (name, e)
            else:
                assert got == want, (name, e)
                counted += 1
    assert counted >= 90


def test_count_below_margin_covers_the_m_term_sums_at_n_max_1():
    # at N_max = 1 the split is 1, but the one entry of B D^-1 B^T sums M =
    # 4,168 terms: scan levels by ulps around the ground level, and every
    # certified count must be the sign of S(e), taken in exact arithmetic on
    # the CSR entries (terms grouped by equal (b, d), which is exact)
    grid = build_grid(0.4, 4.0)
    basis = enumerate_basis(len(grid), 1, grid.units, grid.spacing)
    op = assemble_fiber(FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=1), basis)
    assert op.dimension == 4169
    csr = op.csr
    x = Fraction(float(csr[0, 0]))
    groups = Counter(zip(csr[1:, :1].toarray()[:, 0].tolist(), csr.diagonal()[1:].tolist()))
    e0 = operators._secular_ground(1.0, np.zeros(3), grid).energy
    certified = []
    for k in [*range(-400, 401, 4), -10**7, 10**7]:
        e = e0 + k * math.ulp(e0)
        got = count_below(op, e, 1)
        if got is not None:
            f = Fraction(e)
            s = x - f - sum(n * Fraction(b) ** 2 / (Fraction(d) - f) for (b, d), n in groups.items())
            assert got == int(s < 0), k
            certified.append(k)
    assert -10**7 in certified and 10**7 in certified


def test_negative_inertia_matches_the_ldl_route():
    # 200 random symmetric matrices, definite to strongly indefinite, many
    # with 2x2 pivots; the count is also the eigenvalue count
    rng = np.random.default_rng(11)
    pivots = 0
    for _ in range(200):
        n = int(rng.integers(1, 40))
        s = rng.standard_normal((n, n))
        s = s + s.T + rng.normal(0.0, 2.0 * math.sqrt(n)) * np.eye(n)
        want = ldl_negative_inertia(s)
        assert _negative_inertia(s) == want == int((np.linalg.eigvalsh(s) < 0).sum())
        pivots += np.count_nonzero(np.diag(scipy.linalg.ldl(s)[1], -1))
    assert pivots >= 100
    # two adjacent 2x2 pivots, and nothing else
    s = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 2.0, 0.0]])
    assert _negative_inertia(s) == ldl_negative_inertia(s) == 2


def _symmetric(rng, n, shift=0.0):
    s = rng.standard_normal((n, n))
    return s + s.T + shift * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 40, 257, 600])
def test_dense_lowest_matches_eigh_bit_for_bit(n):
    # the k lowest eigenvalues, with and without vectors, k = 1 up to k = n;
    # the rows of _dense_lowest are the columns of eigh
    s = _symmetric(np.random.default_rng(n), n)
    for k in sorted({1, 2, 6, n} & set(range(1, n + 1))):
        vals, rows = _dense_lowest(s, k)
        want_vals, want_vecs = scipy.linalg.eigh(s, subset_by_index=[0, k - 1])
        assert vals.tobytes() == want_vals.tobytes(), k
        assert rows.tobytes() == want_vecs.T.tobytes(), k
        only, none = _dense_lowest(s, k, vectors=False)
        want = scipy.linalg.eigh(s, eigvals_only=True, subset_by_index=[0, k - 1])
        assert none is None and only.tobytes() == want.tobytes(), k


def test_positive_definite_agrees_with_cholesky():
    # the factor's lower triangle is scipy's cholesky, and the inverse
    # scipy's cho_solve(cho_factor(s), I), bit for bit; None where they fail
    rng = np.random.default_rng(3)
    seen = set()
    for n in (1, 2, 5, 40, 257):
        for shift in (-2.0 * math.sqrt(n), 0.0, 3.0 * math.sqrt(n)):
            s = _symmetric(rng, n, shift)
            try:
                want = scipy.linalg.cholesky(s, lower=True)
                inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(s), np.eye(n))
            except scipy.linalg.LinAlgError:
                want = inv = None
            got = _cholesky(s)
            assert (got is None) is (want is None) is (_cholesky_inverse(s, 0.0) is None)
            if want is not None:
                assert np.tril(got).tobytes() == want.tobytes()
                assert _cholesky_inverse(s, 0.0).tobytes() == inv.tobytes()
            seen.add(want is None)
    assert seen == {True, False}


def test_shifted_factorizations_read_s_plus_shift_times_the_identity():
    # the shift goes onto the diagonal of the helpers' own column-major copy:
    # the bits of s + shift I, s untouched, and the same answers
    rng = np.random.default_rng(5)
    for n in (1, 2, 40, 257):
        s = _symmetric(rng, n)
        kept = s.copy()
        for shift in (-3.0 * math.sqrt(n), -0.5, 0.25, 3.0 * math.sqrt(n)):
            plain = s + shift * np.eye(n)
            shifted = solve._shifted(s, shift)
            assert shifted.flags.f_contiguous and np.array_equal(shifted, plain)
            np.testing.assert_array_equal(_cholesky(s, shift), _cholesky(plain))
            assert _negative_inertia(s, shift) == _negative_inertia(plain)
        assert np.array_equal(s, kept)


def test_lapack_helpers_never_print_on_an_empty_matrix(capfd):
    # LAPACK's xerbla would print an argument error on the process's stdout
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError, match="empty matrix"):
        _dense_lowest(empty)
    assert _negative_inertia(empty) == 0
    assert _cholesky(empty).shape == (0, 0)
    assert _cholesky_inverse(empty, 1.0).shape == (0, 0)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("n", [1, 300])
def test_cholesky_fails_on_non_finite_input(n):
    # OpenBLAS's dpotrf can return info = 0 with a NaN or an infinity in the
    # factor; one anywhere in the triangle read reaches a pivot, so each
    # placement fails, on either triangle, shifted or not
    eye = np.eye(n)
    assert _cholesky(eye) is not None
    for shift in (math.nan, math.inf):
        assert _cholesky(eye, shift) is None, shift
    for bad in (math.nan, math.inf, -math.inf):
        for i, j in {(0, 0), (n - 1, 0), (n // 2, n // 3), (n - 1, n - 1)}:
            a = eye.copy()
            a[i, j] = a[j, i] = bad
            for uplo in (b"L", b"U"):
                assert _cholesky(a, uplo=uplo) is None, (bad, i, j, uplo)
            assert _cholesky(a.T, 1.0, overwrite=True) is None, (bad, i, j)  # column-major


def test_lapack_bindings_release_the_gil_and_reject_bad_arguments():
    # CFUNCTYPE, not PYFUNCTYPE: ctypes drops the GIL for the call
    for routine in (solve._DSYEVR, solve._DPOTRF, solve._DPOTRS, solve._DSYTRF, solve._DSYGVD):
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    with pytest.raises(ValueError, match="empty matrix"):
        _dense_lowest(np.empty((0, 0)))  # before dsyevr, which rejects il = iu = 1 > n
    for k in (0, 3):
        with pytest.raises(ValueError, match=rf"k = {k} lies outside \[1, 2\]"):
            _dense_lowest(np.eye(2), k)
    for helper in (_dense_lowest, _cholesky, _negative_inertia):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(3, 2\)"):
            helper(np.zeros((3, 2)))  # LAPACK would read 9 entries of 6
    a, work = np.asfortranarray(np.eye(2)), np.empty(4)
    ipiv, info = np.empty(2, dtype=np.intc), ctypes.c_int()
    solve._DPOTRF(b"X", solve._int(2), solve._ptr(a), solve._int(2), ctypes.byref(info))
    with pytest.raises(ValueError, match="dpotrf rejected argument 1"):
        solve._info("dpotrf", info)
    solve._DSYTRF(b"L", solve._int(2), solve._ptr(a), solve._int(1), solve._ptr(ipiv),
                  solve._ptr(work), solve._int(4), ctypes.byref(info))
    with pytest.raises(ValueError, match="dsytrf rejected argument 4"):
        solve._info("dsytrf", info)  # lda < n


def test_lapack_helpers_are_bit_identical_across_threads():
    # four threads on two cores, switching often, each helper on its own
    # matrices: equal to the serial calls (a workspace freed or shared
    # during a call would show here)
    rng = np.random.default_rng(5)
    mats = [_symmetric(rng, n, shift) for n in (60, 257, 120, 200)
            for shift in (0.0, 40.0)]
    works = [rng.standard_normal((6, 80)) for _ in range(8)]
    jobs = {
        "dense_lowest": (lambda s: np.concatenate([x.ravel() for x in _dense_lowest(s, 2)]), mats),
        "cholesky": (_cholesky, mats),
        "cholesky_inverse": (lambda s: _cholesky_inverse(s, len(s)), mats),
        "negative_inertia": (_negative_inertia, mats),
        "lowest_ritz": (lambda w: _lowest_ritz(w, 3), works),
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name, (fn, items) in jobs.items():
            serial = [fn(x) for x in items]
            for _ in range(3):
                for got, want in zip(_parallel_map(fn, items, 4), serial):
                    np.testing.assert_array_equal(got, want, err_msg=name)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("split", [1.5, True, -1])
def test_count_below_split_must_be_an_int(split):
    # 1.5 used to die in an IndexError
    with pytest.raises(ValueError, match="split must be an int of at least 0"):
        count_below(_diag_op([3.0, 1.0, 2.0]), 0.5, split)


def test_count_below_fallbacks_and_validation(monkeypatch):
    grid = build_grid(1.0, 2.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    op = assemble_fiber(FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2), basis)
    split = basis.block_offset(2)
    top_min = op.diagonal()[split:].min()
    e0 = float(np.linalg.eigvalsh(op.to_dense())[0])
    assert count_below(op, e0 + 1e-8, split) == 1
    assert count_below(op, top_min, split) is None  # e at or above min D_top
    with monkeypatch.context() as m:
        m.setattr(solve, "DENSE_CAP", split - 1)
        assert count_below(op, e0 + 1e-8, split) is None
    assert count_below(op, e0, split) is None  # counts of S(e) +- delta I disagree
    with pytest.raises(ValueError, match="not diagonal"):
        count_below(op, e0, basis.block_offset(1))  # blocks 1 and 2 are coupled
    with pytest.raises(ValueError):
        count_below(op, e0, op.dimension + 1)
    with pytest.raises(ValueError):
        count_below(op, e0, op.dimension)  # no trailing block
    vals = op.vals.copy()
    vals[np.flatnonzero(op.rows == op.cols)[1]] = np.nan  # a one-phonon diagonal entry
    with pytest.raises(NumericalError):
        count_below(from_triplets(op.dimension, op.rows, op.cols, vals), e0, split)
    assert count_below(_diag_op([3.0, 1.0, 2.0]), 0.5, 0) == 0  # empty Schur complement
