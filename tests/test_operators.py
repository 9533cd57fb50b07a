"""Sparse fiber assembly, the K/T factorization, and norm diagnostics."""

import functools
import math

import numpy as np
import pytest

from polaronlab import (
    CapacityError,
    FiberConfig,
    FiberFamily,
    ModeGrid,
    SparseOperator,
    annihilation_csr,
    assemble_KT,
    assemble_fiber,
    basis_dimension,
    build_grid,
    dense_spectrum,
    enumerate_basis,
    kinetic_diagonal,
    neumann_constant,
    neumann_norms,
    sign_flip,
    weighted_annihilation_norm,
)
from polaronlab import fock, operators, solve
from naive_ref import (
    assemble_free, from_triplets, naive_fiber_dense, naive_pair_gram, naive_pair_schur,
    naive_pair_x, riemann_selfenergy_sum, upper_diagonal, upper_sign_flip, upper_to_dense,
)
from suite_configs import all_operators, all_operators_with_basis, kt_suite, single_mode_grid

def _neumann_instance(alpha=1.0):
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 3, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=3)
    return cfg, basis


def _all_norms(cfg, basis, seed):
    """s_1..s_{N_max+1}, C and the weighted norm."""
    return {"s": neumann_norms(cfg, basis, cfg.n_max + 1, seed=seed),
            "c": neumann_constant(cfg, basis, seed=seed),
            "weighted": weighted_annihilation_norm(cfg, basis, seed=seed)}


@functools.lru_cache(maxsize=None)
def _dense_norms(delta, lam, n_max):
    """The same norms at alpha = 1 as dense two-norms of the naive fiber at P = 0.

    Its strict upper triangle is A and its diagonal is h0 - 1.
    """
    grid = build_grid(delta, lam)
    mat, states = naive_fiber_dense(1.0, np.zeros(3), grid.modes, grid.couplings, n_max)
    a = np.triu(mat, 1)
    d = np.diag(mat) + 1.0
    nums = np.array([len(state) for state in states], dtype=np.float64)
    step = a / d[None, :]
    power = np.eye(len(d))
    s = []
    for _ in range(n_max):
        power = power @ step
        s.append(np.linalg.norm(power, 2))
    return {"s": np.array(s),
            "c": np.linalg.norm(a * ((nums + 1.0) ** 0.25 / d)[None, :], 2),
            "weighted": np.linalg.norm(a * (d ** -0.5 * (nums + 1.0) ** -0.25)[None, :], 2)}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "p"])
def test_fiber_config_rejects_non_finite(name, bad):
    args = {"alpha": 1.0, "p": np.zeros(3)}
    args[name] = bad if name == "alpha" else np.array([0.0, bad, 0.0])
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        FiberConfig(grid=build_grid(1.0, 1.0), n_max=1, **args)


def test_single_mode_closed_forms():
    name, cfg, basis = kt_suite()[0]
    assert name == "single-mode-2x2"
    h = assemble_fiber(cfg, basis).to_dense()
    np.testing.assert_array_equal(h, [[0.0, 1.0], [1.0, 2.0]])
    k, t = assemble_KT(cfg, basis)
    np.testing.assert_array_equal(k, [[4.0 / 3.0, 1.0], [1.0, 3.0]])
    np.testing.assert_array_equal(t, [[-1.0 / 3.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(k + t, h + np.eye(2))
    # K is positive definite but its bottom eigenvalue sits strictly below 1,
    # so K >= 1 is not available even in the smallest nontrivial instance
    lam_min = np.linalg.eigvalsh(k)[0]
    assert lam_min == pytest.approx((13.0 - math.sqrt(61.0)) / 6.0, rel=1e-13)
    assert 0.0 < lam_min < 1.0


@pytest.mark.parametrize("name,cfg,basis", kt_suite(), ids=lambda v: v if isinstance(v, str) else "")
def test_fiber_matches_naive_dense(name, cfg, basis):
    dense = assemble_fiber(cfg, basis).to_dense()
    naive, _ = naive_fiber_dense(
        cfg.alpha, cfg.p, cfg.grid.modes, cfg.grid.couplings, cfg.n_max
    )
    np.testing.assert_allclose(dense, naive, rtol=0.0, atol=5e-14)


FAMILY_MOMENTA = ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.37, -0.2, 0.11))


def test_fiber_matches_naive_dense_nonzero_momentum():
    # P = 0, an axis P and a generic P, drawn from one shared family and
    # assembled alone
    grid = build_grid(1.0, 2.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    family = FiberFamily(1.0, grid, basis)
    for p in FAMILY_MOMENTA:
        cfg = FiberConfig(alpha=1.0, p=np.asarray(p), grid=grid, n_max=2)
        naive, _ = naive_fiber_dense(1.0, p, grid.modes, grid.couplings, 2)
        for op in (family.fiber(p), assemble_fiber(cfg, basis)):
            np.testing.assert_allclose(op.to_dense(), naive, rtol=0.0, atol=5e-14)


@pytest.mark.parametrize("alpha", (0.0, 1.0))
def test_family_fiber_equals_generic_assembly(alpha):
    # entry for entry what from_triplets builds from the raw triplets,
    # including its symmetric CSR and the dropped vacuum zero at P = 0
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 3, grid.units, grid.spacing)
    family = FiberFamily(alpha, grid, basis)
    idx = np.arange(basis.dimension)
    for p in FAMILY_MOMENTA:
        cfg = FiberConfig(alpha=alpha, p=np.asarray(p), grid=grid, n_max=3)
        a = annihilation_csr(cfg, basis).tocoo()
        ref = from_triplets(basis.dimension, np.concatenate([idx, a.row]),
                            np.concatenate([idx, a.col]),
                            np.concatenate([kinetic_diagonal(cfg, basis), a.data]))
        op = family.fiber(p)
        assert op.nnz == ref.nnz
        for name in ("rows", "cols", "vals"):
            np.testing.assert_array_equal(getattr(op, name), getattr(ref, name))
        got, want = op.csr, ref.csr
        for name in ("data", "indices", "indptr"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)


def test_family_fibers_do_not_alias():
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    family = FiberFamily(1.0, grid, basis)
    first = family.fiber((0.0, 0.0, 1.0))
    vals, data = first.vals.copy(), first.csr.data.copy()
    x = np.random.default_rng(3).standard_normal(basis.dimension)
    y = first.matvec(x)
    for p in FAMILY_MOMENTA:
        family.fiber(p)
    np.testing.assert_array_equal(first.vals, vals)
    np.testing.assert_array_equal(first.csr.data, data)
    np.testing.assert_array_equal(first.matvec(x), y)


@pytest.mark.parametrize("name,cfg,basis", kt_suite(), ids=lambda v: v if isinstance(v, str) else "")
def test_factorization_identity(name, cfg, basis):
    k, t = assemble_KT(cfg, basis)
    h = assemble_fiber(cfg, basis).to_dense()
    assert np.abs(k + t - (h + np.eye(basis.dimension))).max() <= 1e-12
    kvals = np.linalg.eigvalsh(k)
    assert kvals[0] > 0.0  # K stays positive definite
    tvals = np.linalg.eigvalsh(t)
    assert tvals[-1] <= 1e-13  # T stays negative semidefinite


def test_free_operator_is_diagonal():
    _, cfg, basis = kt_suite()[3]
    free = assemble_free(cfg, basis)
    assert free.nnz == basis.dimension
    np.testing.assert_array_equal(free.rows, free.cols)
    np.testing.assert_array_equal(free.diagonal(), kinetic_diagonal(cfg, basis) + 1.0)
    assert free.diagonal().min() >= 1.0


def test_alpha_zero_is_strictly_diagonal():
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=0.0, p=np.zeros(3), grid=grid, n_max=2)
    op = assemble_fiber(cfg, basis)
    # the vacuum diagonal is exactly zero at P = 0 and gets dropped
    assert op.nnz == basis.dimension - 1
    np.testing.assert_array_equal(op.rows, op.cols)
    np.testing.assert_array_equal(
        op.to_dense(), np.diag(kinetic_diagonal(cfg, basis))
    )


def test_empty_grid_fiber():
    grid = build_grid(0.5, 0.4)
    basis = enumerate_basis(0, 2)
    cfg = FiberConfig(alpha=1.0, p=np.array([0.3, 0.0, 0.4]), grid=grid, n_max=2)
    op = assemble_fiber(cfg, basis)
    assert basis.dimension == 1
    np.testing.assert_array_equal(op.to_dense(), [[0.25]])
    k, t = assemble_KT(cfg, basis)
    np.testing.assert_array_equal(k, [[1.25]])
    np.testing.assert_array_equal(t, [[0.0]])


def test_assembly_is_reproducible():
    _, cfg, basis = kt_suite()[4]
    a = assemble_fiber(cfg, basis)
    b = assemble_fiber(cfg, basis)
    np.testing.assert_array_equal(a.rows, b.rows)
    np.testing.assert_array_equal(a.cols, b.cols)
    np.testing.assert_array_equal(a.vals, b.vals)  # bit-identical


def test_sparse_operator_storage_rules():
    op = from_triplets(3, [0, 1, 0], [0, 1, 2], [1.0, 0.0, 2.0])
    assert op.nnz == 2  # exact zero dropped
    for upper in (op.rows, op.cols, op.vals):
        assert not upper.flags.writeable
    np.testing.assert_array_equal(op.diagonal(), [1.0, 0.0, 0.0])
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(op.matvec(x), op.to_dense() @ x, atol=1e-15)
    with pytest.raises(ValueError):
        op.matvec(np.zeros(4))


@pytest.mark.parametrize(
    "name,op", all_operators(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_matvec_agrees_with_dense(name, op):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(op.dimension)
    scale = max(1.0, np.abs(op.vals).max()) * op.dimension
    np.testing.assert_allclose(op.matvec(x), op.to_dense() @ x, atol=1e-13 * scale)


@pytest.mark.parametrize(
    "name,op,basis", all_operators_with_basis(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_accessors_equal_triplet_formulas(name, op, basis):
    # the CSR-served accessors give, bit for bit, the upper-triangle formulas
    assert op.to_dense().tobytes() == upper_to_dense(op).tobytes()
    assert op.diagonal().tobytes() == upper_diagonal(op).tobytes()
    got, want = sign_flip(op).csr, upper_sign_flip(op, basis).csr
    for attr in ("data", "indices", "indptr"):
        x, y = getattr(got, attr), getattr(want, attr)
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def test_benchmark_tracer_contract():
    # the benchmark tracer wraps matvec on the class and prices one product
    # from nnz and the diagonal count of rows/cols, the upper triangle
    assert "matvec" in vars(SparseOperator)
    for name, op in all_operators():
        rows, cols = op.rows, op.cols
        assert op.nnz == rows.size == cols.size == op.vals.size
        assert (rows <= cols).all()
        assert 2 * op.nnz - int((rows == cols).sum()) == op.csr.nnz
        np.testing.assert_array_equal(op.to_dense()[rows, cols], op.vals)


def test_desk_fibers_share_one_canonical_int32_structure():
    # the desk torus basis: 256 modes, N_max = 2, 33,153 states
    grid = build_grid(0.75, 3.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    family = FiberFamily(1.0, grid, basis)
    zero, axis, generic = (family.fiber(p) for p in FAMILY_MOMENTA)
    for op in (zero, axis, generic):
        csr = op.csr
        assert csr.indices.dtype == csr.indptr.dtype == np.int32
        assert csr.has_canonical_format
        assert (csr != csr.T).nnz == 0
        assert not csr.indices.flags.writeable
    assert zero.csr.nnz == axis.csr.nnz - 1  # the dropped vacuum zero
    assert not axis.csr.indptr.flags.writeable
    assert np.shares_memory(axis.csr.indptr, generic.csr.indptr)
    for a, b in ((zero, axis), (axis, generic)):
        assert np.shares_memory(a.csr.indices, b.csr.indices)
        assert not np.shares_memory(a.csr.data, b.csr.data)


def test_sign_flip_involution_and_spectrum():
    for name, cfg, basis in kt_suite():
        op = assemble_fiber(cfg, basis)
        flipped = sign_flip(op)
        back = sign_flip(flipped)
        np.testing.assert_array_equal(back.vals, op.vals)
        np.testing.assert_array_equal(back.rows, op.rows)
        # diagonal untouched, cross-block entries negated
        np.testing.assert_array_equal(flipped.diagonal(), op.diagonal())
        off = op.rows != op.cols
        np.testing.assert_array_equal(flipped.vals[off], -op.vals[off])
        # conjugation by (-1)^N preserves the spectrum exactly
        a = np.linalg.eigvalsh(op.to_dense())
        b = np.linalg.eigvalsh(flipped.to_dense())
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_annihilation_couples_adjacent_blocks_only():
    cfg, basis = _neumann_instance()
    a = annihilation_csr(cfg, basis).tocoo()
    nums = basis.total_numbers()
    np.testing.assert_array_equal(nums[a.col], nums[a.row] + 1)


def test_neumann_norms_match_dense():
    cfg, basis = _neumann_instance()
    s = neumann_norms(cfg, basis, 4)
    np.testing.assert_allclose(s[:3], _dense_norms(1.0, 1.5, 3)["s"], rtol=1e-12)
    assert s[3] == 0.0  # chain longer than N_max is identically zero


@pytest.mark.parametrize("j_max", [2.0, True, 0])
def test_neumann_norms_j_max_must_be_an_int(j_max):
    # 2.0 used to die in a TypeError, True to return one norm
    cfg, basis = _neumann_instance()
    with pytest.raises(ValueError, match="j_max must be an int of at least 1"):
        neumann_norms(cfg, basis, j_max)


def test_neumann_norms_submultiplicative():
    cfg, basis = _neumann_instance()
    s = neumann_norms(cfg, basis, 3)
    assert s[1] <= s[0] ** 2 * (1.0 + 1e-9)
    assert s[2] <= s[0] * s[1] * (1.0 + 1e-9)


def test_neumann_decay_constant():
    cfg, basis = _neumann_instance()
    c = neumann_constant(cfg, basis)
    assert c == pytest.approx(_dense_norms(1.0, 1.5, 3)["c"], rel=1e-12)
    for j, sj in enumerate(neumann_norms(cfg, basis, 4), start=1):
        assert sj <= c**j / math.gamma(j + 1) ** 0.25 * (1.0 + 1e-10)


def test_weighted_annihilation_norm_matches_dense():
    cfg, basis = _neumann_instance()
    w = weighted_annihilation_norm(cfg, basis)
    assert w == pytest.approx(_dense_norms(1.0, 1.5, 3)["weighted"], rel=1e-12)
    # certificate: the weighted norm is dominated by the discrete self-energy
    assert w <= math.sqrt(riemann_selfenergy_sum(cfg.grid))


def test_block_factors_are_the_weighted_annihilation_blocks():
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 3, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=0.7, p=np.array([0.3, 0.0, 1.0]), grid=grid, n_max=3)
    a = annihilation_csr(cfg, basis).toarray()
    w = (kinetic_diagonal(cfg, basis) + 1.0) ** -0.5 * (basis.total_numbers() + 1.0) ** -0.25
    factors = operators._block_factors(cfg, basis, -0.5, -0.25)
    assert len(factors) == basis.n_max
    for n, f in enumerate(factors):
        rows = slice(basis.block_offset(n), basis.block_offset(n + 1))
        cols = slice(basis.block_offset(n + 1), basis.block_offset(n + 2))
        np.testing.assert_array_equal(f.toarray(), a[rows, cols] * w[cols])


def test_norm_solves_stay_within_number_blocks(monkeypatch):
    # the quick norm instance: 33,153 states in blocks of 1, 256 and 32,896
    grid = build_grid(0.5, 2.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    sizes = []
    solve = operators._eigenpairs

    def recording(matvec, diagonal, *args):
        sizes.append(diagonal.size)
        return solve(matvec, diagonal, *args)

    monkeypatch.setattr(operators, "_eigenpairs", recording)
    weighted_annihilation_norm(cfg, basis)
    neumann_norms(cfg, basis, 3)
    neumann_constant(cfg, basis)
    bound = max(basis.block_count(n) for n in range(basis.n_max))
    assert bound == 256
    assert sizes and max(sizes) == bound


@pytest.mark.parametrize("lam", [1.5, 2.0])
@pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (0.0, 0.3, 0.8)])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_pair_gram_matches_naive_reference(monkeypatch, lam, p, alpha):
    # the Schur coupling R = 1/(D - e) and the squared norm weight R = w^2
    grid = build_grid(1.0, lam)
    s = math.sqrt(alpha) * grid.couplings
    for weight in (lambda d: 1.0 / (d + 0.3), lambda d: 1.0 / (d + 1.0) / math.sqrt(3.0)):
        def r_rows(rows):
            return weight(operators.pair_diagonal(grid, p, rows))

        got = operators.pair_gram(s, r_rows)
        want = naive_pair_gram(alpha, p, grid.modes, grid.couplings, weight)
        assert np.array_equal(got, got.T)
        if alpha == 0.0:
            assert not got.any() and not want.any()
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        with monkeypatch.context() as m:  # rows in chunks of 5, the last one short
            m.setattr(operators, "PAIR_CHUNK", 5)
            assert np.array_equal(operators.pair_gram(s, r_rows), got)


@pytest.mark.parametrize("delta, lam", [(1.0, 2.0), (0.3, 1.0)])
def test_pair_diagonal_has_the_fiber_bits(delta, lam):
    grid = build_grid(delta, lam)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    p = np.array([0.0, 0.3, 0.8])
    d = kinetic_diagonal(FiberConfig(alpha=1.0, p=p, grid=grid, n_max=2), basis)
    pairs = basis.block(2)
    got = operators.pair_diagonal(grid, p)[pairs[:, 0], pairs[:, 1]]
    assert np.array_equal(got, d[basis.block_offset(2):])


@pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (0.0, 0.3, 0.8)])
def test_pair_blocks_diagonal_is_the_pair_diagonal_in_block_order(p):
    grid = build_grid(0.75, 3.0)
    d_top = operators._pair_blocks(1.0, grid, np.array(p))[2]
    assert d_top.flags.c_contiguous
    assert np.array_equal(d_top, operators.pair_diagonal(grid, p)[::-1, ::-1])


def test_pair_gram_capacity_is_checked_before_any_allocation():
    # C(3163, 2) = 5,000,703 two-phonon-basis states exceed the default capacity
    def unread(rows):
        raise AssertionError("R was read before the capacity check")

    with pytest.raises(CapacityError, match="3161 modes"):
        operators.pair_gram(np.ones(3161), unread)


def test_pair_gram_reads_the_basis_capacity_at_call_time(monkeypatch):
    def unread(rows):
        raise AssertionError("R was read before the capacity check")

    monkeypatch.setattr(fock, "BASIS_CAPACITY", basis_dimension(10, 2) - 1)
    with pytest.raises(CapacityError, match="10 modes"):
        operators.pair_gram(np.ones(10), unread)
    monkeypatch.setattr(fock, "BASIS_CAPACITY", basis_dimension(10, 2))
    gram = operators.pair_gram(np.ones(10), lambda rows: np.ones((rows.stop - rows.start, 10)))
    assert gram.shape == (10, 10)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_pair_norms_match_the_block_route(seed):
    # N_max = 2 reads the norms off the pair sum; the raise-map blocks are the
    # route of every other N_max
    for delta, lam, p in ((1.0, 1.5, (0.0, 0.3, 0.8)), (0.5, 2.0, (0.0, 0.0, 0.0))):
        grid = build_grid(delta, lam)
        basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
        cfg = FiberConfig(alpha=1.0, p=np.array(p), grid=grid, n_max=2)

        def blocks(h0_power, number_power, j_max):
            factors = operators._block_factors(cfg, basis, h0_power, number_power)
            return [operators._power_norm(factors, j, seed) for j in range(1, j_max + 1)]

        np.testing.assert_allclose(weighted_annihilation_norm(cfg, basis, seed=seed),
                                   blocks(-0.5, -0.25, 1)[0], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(neumann_norms(cfg, basis, 3, seed=seed), blocks(-1.0, 0.0, 3),
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(neumann_constant(cfg, basis, seed=seed),
                                   blocks(-1.0, 0.25, 1)[0], rtol=1e-14, atol=0.0)


PAIR_MOMENTA = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 2.0), (0.3, -0.7, 1.1)]


@pytest.mark.parametrize("p", PAIR_MOMENTA)
def test_pair_ground_bracket_holds_the_dense_ground(p):
    # the quick torus grid: 32 modes, 561 states, in reach of the dense oracle
    grid = build_grid(1.0, 2.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    op = assemble_fiber(FiberConfig(alpha=1.0, p=np.array(p), grid=grid, n_max=2), basis)
    dense = dense_spectrum(op, k=1)[0]
    r = operators._certified_ground(1.0, grid, 2, p)[0]
    lo, hi = r.bracket
    assert lo <= dense <= hi and lo < r.energy < hi
    assert hi - lo <= solve.DEFAULT_TOL
    assert 1 <= r.iterations <= 10
    # the vector is blocks 0 and 1 of the unit lifted vector y, whose block 2
    # is -(D_top - E)^-1 B^T (blocks 0 and 1); residual is ||H y - E y||
    split = basis.block_offset(2)
    d_top = op.diagonal()[split:]
    y = np.concatenate([r.vector, -(op.csr[split:, :split] @ r.vector) / (d_top - r.energy)])
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-13)
    assert r.vector[0] > 0.0
    true_residual = np.linalg.norm(op.matvec(y) - r.energy * y)
    assert true_residual <= 1e-13 and r.residual <= 1e-13
    assert r.residual == pytest.approx(true_residual, abs=1e-14)


def test_pair_ground_matches_lobpcg_on_the_desk_grid():
    # 256 modes, 33,153 states: LOBPCG's energy lies in the pair bracket
    grid = build_grid(0.75, 3.0)
    family = FiberFamily(1.0, grid, enumerate_basis(len(grid), 2, grid.units, grid.spacing))
    for p in PAIR_MOMENTA:
        r = operators._certified_ground(1.0, grid, 2, p)[0]
        e = solve.ground_state(family.fiber(p)).energy
        assert abs(r.energy - e) <= 1e-12
        assert r.bracket[0] <= e <= r.bracket[1]
        assert r.bracket[1] - r.bracket[0] <= 1e-10


def test_pair_ground_decoupled_and_empty_grid_are_exact():
    grid = build_grid(1.0, 2.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    for p in ((0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 2.5)):
        cfg = FiberConfig(alpha=0.0, p=np.array(p), grid=grid, n_max=2)
        e = float(kinetic_diagonal(cfg, basis).min())
        r = operators._certified_ground(0.0, grid, 2, p)[0]
        assert (r.energy, r.bracket, r.residual, r.iterations) == (e, (e, e), 0.0, 0)
        assert r.vector.size == basis.block_offset(2) and r.vector.max() == 1.0
    # no modes: the vacuum alone, at P^2
    r = operators._certified_ground(1.0, build_grid(1.0, 0.5), 2, (0.0, 0.0, 0.5))[0]
    assert r.energy == 0.25 and r.vector.tolist() == [1.0]


@pytest.mark.parametrize("error", [1e-6, -1e-6])
def test_pair_ground_proves_no_bracket_around_a_wrong_root(monkeypatch, error):
    # an eigensolver off by 1e-6 moves the Newton root off E0 by about as
    # much, to the right (no Cholesky below) or to the left (no negative
    # Rayleigh quotient above): no bracket within tol is proven
    lowest = operators._dense_lowest

    def off(s):
        mu, v = lowest(s)
        return mu + error, v

    monkeypatch.setattr(operators, "_dense_lowest", off)
    assert operators._certified_ground(1.0, build_grid(1.0, 2.0), 2, (0.0, 0.0, 1.0))[0] is None


def test_pair_ground_declines(monkeypatch):
    grid = build_grid(1.0, 2.0)
    # at P = 4 e_z the diagonal minimum is the two-phonon state 2 e_z + 2 e_z,
    # at 2, below the N_max = 1 start near 5: with or without coupling
    for alpha in (0.0, 1.0):
        assert operators._certified_ground(alpha, grid, 2, (0.0, 0.0, 4.0))[0] is None
    # no bracket within a tol below the rounding margin
    assert operators._certified_ground(1.0, grid, 2, (0.0, 0.0, 0.0), tol=1e-14)[0] is None
    r = operators._certified_ground(1.0, grid, 2, (0.0, 0.0, 0.0), tol=1e-11)[0]
    assert r.bracket[1] - r.bracket[0] <= 1e-11
    monkeypatch.setattr(solve, "DENSE_CAP", len(grid))
    assert operators._certified_ground(1.0, grid, 2, (0.0, 0.0, 0.0))[0] is None


def test_route_solves_nothing_outside_n_max_1_and_2(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the route solved a secular equation")

    monkeypatch.setattr(operators, "_secular_ground", forbidden)
    grid = build_grid(1.0, 2.0)
    for n_max in (0, 3):
        assert operators._certified_ground(1.0, grid, n_max, (0.0, 0.0, 0.5)) == (None, None)


def test_pair_count_declines_above_the_dense_cap_and_rejects_an_empty_grid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("pair blocks built above the dense cap")

    grid = build_grid(1.0, 2.0)
    monkeypatch.setattr(operators, "_pair_blocks", forbidden)
    monkeypatch.setattr(solve, "DENSE_CAP", len(grid))
    assert operators._pair_count(1.0, grid, np.zeros(3), 0.0) is None
    with pytest.raises(ValueError, match="empty grid"):
        operators._pair_count(1.0, build_grid(1.0, 0.5), np.zeros(3), 0.0)


def test_counts_and_the_pair_bracket_form_one_schur_complement_per_level(monkeypatch):
    # a count forms S(e) once, and a pair solve at most once per Newton step,
    # plus once more when its last step falls within the margin: the bracket
    # reads the full S(E) at the final E (on these symmetric momenta the
    # steps run on the sector and form the full S(E) once, test below).
    # Each complement of operators._pair_schur takes one margin.
    formed = []

    def counting(module, tag):
        original = module._schur_margin
        monkeypatch.setattr(module, "_schur_margin",
                            lambda *a: formed.append(tag) or original(*a))

    counting(operators, "pair")
    counting(solve, "count_below")
    grid = build_grid(0.75, 3.0)  # 256 modes
    for p in ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
        formed.clear()
        r = operators._certified_ground(1.0, grid, 2, p)[0]
        assert r.bracket[0] <= r.energy <= r.bracket[1]
        assert 1 <= len(formed) <= r.iterations + 1 and set(formed) == {"pair"}
        formed.clear()
        assert operators._pair_count(1.0, grid, np.array(p), r.energy + 1e-8) == 1
        assert formed == ["pair"]
    small = build_grid(1.0, 2.0)
    basis = enumerate_basis(len(small), 2, small.units, small.spacing)
    op = assemble_fiber(FiberConfig(alpha=1.0, p=np.zeros(3), grid=small, n_max=2), basis)
    formed.clear()
    assert solve.count_below(op, 0.0, basis.block_offset(2)) == 1
    assert formed == ["count_below"]


SECTOR_MOMENTA = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0),
                  (0.3, 0.7, 1.1)]


@functools.lru_cache(maxsize=None)
def _pair_basis(lam):
    grid = build_grid(1.0, lam)
    return grid, enumerate_basis(len(grid), 2, grid.units, grid.spacing)


def _sector_columns(labels):
    """Q: the vacuum and the orbit sums of the one-phonon states, orbits by
    their least mode, as columns on blocks 0 and 1 in fiber order (the
    one-phonon state j on mode M - 1 - j)."""
    m = len(labels)
    orbits = np.unique(labels)
    q = np.zeros((m + 1, len(orbits) + 1))
    q[0, 0] = 1.0
    for a, label in enumerate(orbits):
        members = m - 1 - np.flatnonzero(labels == label)
        q[1 + members, 1 + a] = 1.0 / math.sqrt(len(members))
    return q


@pytest.mark.parametrize("p", SECTOR_MOMENTA)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("lam", [1.5, 2.0])
def test_sector_route_agrees_with_the_full_space(lam, alpha, p):
    # the Newton steps run on Q^T S(E) Q; the bracket is proven on the full
    # S(E), so it holds the dense ground level of the assembled fiber
    grid, basis = _pair_basis(lam)
    op = assemble_fiber(FiberConfig(alpha=alpha, p=np.array(p), grid=grid, n_max=2), basis)
    dense = dense_spectrum(op, k=1)[0]
    r = operators._certified_ground(alpha, grid, 2, p)[0]
    assert r.bracket[0] <= dense <= r.bracket[1]
    assert r.bracket[1] - r.bracket[0] <= solve.DEFAULT_TOL
    assert r.residual <= 1e-13 and r.vector[0] > 0.0
    labels = operators._stabilizer_orbits(grid, p)
    if p == (0.3, 0.7, 1.1):
        assert labels is None  # the stabilizer is the identity: the full block
        return
    x, s, d_top = operators._pair_blocks(alpha, grid, np.array(p))
    complement, lift = operators._pair_schur(x, s, d_top, labels)
    t, delta, form = complement(r.energy)
    full, _, full_form = operators._pair_schur(x, s, d_top)[0](r.energy)
    q = _sector_columns(labels)
    eps = np.finfo(np.float64).eps
    assert np.abs(t - q.T @ full @ q).max() <= 8.0 * eps * np.linalg.norm(full, 1)
    assert t.shape[0] < full.shape[0] and delta > 0.0
    # the slope form and the lift are those of Q
    u = np.random.default_rng(3).standard_normal(t.shape[0])
    u /= np.linalg.norm(u)
    np.testing.assert_allclose(lift(u), q @ u, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(form(u[1:]), full_form((q @ u)[1:]), rtol=1e-13)


@pytest.mark.parametrize("corrupt", ["weight", "orbit"])
def test_a_wrong_sector_never_certifies_a_wrong_level(monkeypatch, corrupt):
    # a sector matrix that is not Q^T S(E) Q moves the Newton root; the full
    # certificate then declines, or brackets the dense level all the same
    grid, basis = _pair_basis(2.0)
    if corrupt == "weight":  # one orbit's vacuum coupling off by sqrt 2
        schur = operators._pair_schur

        def wrong(x, s, d_top, labels=None):
            complement, lift = schur(x, s, d_top, labels)
            if labels is None:  # the full certificate stays exact
                return complement, lift

            def off(level):
                t, delta, form = complement(level)
                t[0, 1] *= math.sqrt(2.0)
                t[1, 0] *= math.sqrt(2.0)
                return t, delta, form

            return off, lift

        monkeypatch.setattr(operators, "_pair_schur", wrong)
    else:  # one mode moved into the next orbit
        orbits = operators._stabilizer_orbits

        def wrong(grid, p):
            labels = orbits(grid, p)
            labels[np.flatnonzero(labels == labels[0])[-1]] = np.unique(labels)[1]
            return labels

        monkeypatch.setattr(operators, "_stabilizer_orbits", wrong)
    declined = 0
    for p in SECTOR_MOMENTA[:4]:
        op = assemble_fiber(FiberConfig(alpha=1.0, p=np.array(p), grid=grid, n_max=2), basis)
        dense = dense_spectrum(op, k=1)[0]
        r = operators._certified_ground(1.0, grid, 2, p)[0]
        if r is None:
            declined += 1
        else:
            assert r.bracket[0] <= dense <= r.bracket[1]
    assert declined >= 1


def test_generic_momenta_and_broken_symmetry_keep_the_full_route_bits():
    # where the stabilizer acts trivially the sector is the whole block, and
    # the route returns the bits it returned before the sector existed
    def pinned(r):
        return (r.energy.hex(), r.residual.hex(), tuple(b.hex() for b in r.bracket),
                r.iterations)

    desk = build_grid(0.75, 3.0)
    assert operators._stabilizer_orbits(desk, (0.3, 0.7, 1.1)) is None
    assert pinned(operators._certified_ground(1.0, desk, 2, (0.3, 0.7, 1.1))[0]) == (
        "0x1.1f2b89f644d00p+0", "0x1.afbe56581fbf7p-48",
        ("0x1.1f2b89f62ecdcp+0", "0x1.1f2b89f65ad24p+0"), 4)
    # the quick grid with one coupling an ulp off, in the orbit of mode 0
    grid = build_grid(1.0, 2.0)
    g = grid.couplings.copy()
    g[0] = np.nextafter(g[0], 1.0)
    broken = ModeGrid.manual(1.0, 2.0, grid.units, g)
    want = {
        (0.0, 0.0, 1.0): ("0x1.a080373fbb9cfp-1", "0x1.df6c150abfb88p-48",
                          ("0x1.a080373fb8980p-1", "0x1.a080373fbea1ep-1"), 3),
        (0.0, 0.0, 0.0): ("-0x1.062d628739c2dp-4", "0x1.8f4012c773025p-53",
                          ("-0x1.062d628747296p-4", "-0x1.062d62872c5c4p-4"), 3),
    }
    for p, bits in want.items():
        assert operators._stabilizer_orbits(grid, p) is not None
        assert operators._stabilizer_orbits(broken, p) is None
        assert pinned(operators._certified_ground(1.0, broken, 2, p)[0]) == bits
    # _pair_count on each side of the ground level: the last level certified
    # 0 and the first undecided one, then the last undecided and the first
    # certified 1, so the complement's margin is pinned to an ulp of e
    counts = [
        (desk, (0.3, 0.7, 1.1), ("0x1.1f2b89f63a48ep+0", "0x1.1f2b89f63a48fp+0",
                                 "0x1.1f2b89f64f574p+0", "0x1.1f2b89f64f575p+0")),
        (broken, (0.0, 0.0, 1.0), ("0x1.a080373fba205p-1", "0x1.a080373fba206p-1",
                                   "0x1.a080373fbd19bp-1", "0x1.a080373fbd19cp-1")),
        (broken, (0.0, 0.0, 0.0), ("-0x1.062d628740757p-4", "-0x1.062d628740756p-4",
                                   "-0x1.062d62873310cp-4", "-0x1.062d62873310bp-4")),
    ]
    for g_, p, levels in counts:
        got = [operators._pair_count(1.0, g_, np.array(p), float.fromhex(e)) for e in levels]
        assert got == [0, None, None, 1]


def test_sector_solve_forms_the_full_complement_once(monkeypatch):
    # desk grid: 15 orbits at P = 0 and 55 at e_z, so each Newton step
    # solves k + 1 rows, and the full 257-row S(E) is formed only for the
    # certificate
    formed, rows = [], []
    schur, lowest = operators._pair_schur, operators._dense_lowest

    def recording(x, s, d_top, labels=None):
        complement, lift = schur(x, s, d_top, labels)
        if labels is not None:
            return complement, lift
        return (lambda level: formed.append(level) or complement(level)), lift

    monkeypatch.setattr(operators, "_pair_schur", recording)
    monkeypatch.setattr(operators, "_dense_lowest", lambda s: rows.append(len(s)) or lowest(s))
    grid = build_grid(0.75, 3.0)
    for p, k in (((0.0, 0.0, 0.0), 15), ((0.0, 0.0, 1.0), 55)):
        formed.clear()
        rows.clear()
        r = operators._certified_ground(1.0, grid, 2, p)[0]
        assert len(np.unique(operators._stabilizer_orbits(grid, p))) == k
        assert formed == [r.energy]
        assert rows and max(rows) <= k + 1 and len(rows) == r.iterations


# the seven desk torus momenta (spacing 2 pi / ell = 1) and two generic ones
WINDOW_MOMENTA = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                  (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                  (0.3, 0.7, 1.1), (-0.45, 0.2, 0.65)]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("lam", [1.5, 2.0])
def test_window_count_is_the_dense_count_or_none(lam, alpha):
    # on assembled fibers under the dense cap: at the bracket's ends, inside
    # it, above E and around the second level, the count read off the kept
    # S(E) is the dense count or None, never another number
    grid, basis = _pair_basis(lam)
    certified = []
    for p in WINDOW_MOMENTA:
        op = assemble_fiber(FiberConfig(alpha=alpha, p=np.array(p), grid=grid, n_max=2), basis)
        levels = np.linalg.eigvalsh(op.to_dense())
        r, window = operators._certified_ground(alpha, grid, 2, p)
        lo, hi = r.bracket
        probes = [lo, hi, 0.5 * (lo + r.energy)] + [r.energy + d for d in (1e-7, 1e-3, 0.3)]
        probes += [levels[1] - 1e-6, levels[1] + 1e-6]
        got = [operators._window_count(window, e) for e in probes]
        for e, n in zip(probes, got):
            assert n in (None, int((levels < e).sum())), (p, e, n)
        certified.append([got[0], got[3], got[4]])
    # 0 at the bracket's lower end, 1 at 1e-7 and 1e-3 above E, everywhere
    assert certified == [[0, 1, 1]] * len(WINDOW_MOMENTA)


def test_window_count_declines_two_levels_in_the_window():
    # one mode e_z at P = e_z: the vacuum and the one-phonon state both sit
    # at 1, split by 2 sqrt(alpha) = 2e-8, so a window 1e-7 above the ground
    # level holds two levels; the fresh complement counts them
    grid = ModeGrid.manual(1.0, 1.0, [[0, 0, 1]], [1.0])
    basis = enumerate_basis(1, 2, grid.units, grid.spacing)
    p, alpha = (0.0, 0.0, 1.0), 1e-16
    op = assemble_fiber(FiberConfig(alpha=alpha, p=np.array(p), grid=grid, n_max=2), basis)
    levels = np.linalg.eigvalsh(op.to_dense())
    r, window = operators._certified_ground(alpha, grid, 2, p)
    for e in (r.energy + 3e-8, r.energy + 1e-7):
        assert int((levels < e).sum()) == 2
        assert operators._window_count(window, e) is None
        assert operators._pair_count(alpha, grid, p, e) == 2
    # between the two levels the window count certifies the one below
    assert operators._window_count(window, r.energy + 1e-9) == 1


def test_window_count_shift_covers_margin_slope_and_its_own_rounding(monkeypatch):
    # each Cholesky of the count factors S(E) + u u^T - sigma I, and its
    # proof needs c = ||u||^2 >= ||C(E)|| and sigma >= delta + eta + k (c +
    # sigma), eta = (e - E)(1 + c / (d_min - e)), k = SCHUR_MARGIN (M + 1) u
    calls = []
    cholesky = operators._cholesky
    monkeypatch.setattr(operators, "_cholesky", lambda a, shift=0.0, **kw: calls.append(
        (a.copy(), -shift)) or cholesky(a, shift, **kw))
    grid, _ = _pair_basis(2.0)
    for alpha in (1.0, 3.0):
        for p in ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.3, 0.7, 1.1)):
            x = naive_pair_x(alpha, p, grid)
            window = operators._certified_ground(alpha, grid, 2, p)[1]
            level, _, s_e, delta, v, d_min = window
            n = len(s_e)
            k = solve.SCHUR_MARGIN * n * np.finfo(np.float64).eps
            norm_c = np.linalg.norm(x - level * np.eye(n) - s_e, 2)
            for e in (level + 1e-7, level + 1e-3):
                calls.clear()
                assert operators._window_count(window, e) == 1
                (a, sigma), = calls
                c = float(v @ (a - s_e) @ v)
                assert c >= norm_c
                eta = (e - level) * (1.0 + c / (d_min - e))
                assert sigma >= (delta + eta + k * (c + sigma)) * (1.0 - 1e-12), (p, e)


@pytest.mark.parametrize("p", SECTOR_MOMENTA)
@pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("lam", [2.0, 3.0])
def test_pair_complement_has_the_bits_of_the_dense_construction(monkeypatch, lam, alpha, p):
    # at every level a Newton run visits, on its sector and on the full
    # block, S(E), its margin and its slope form are those of the dense
    # X, separate G and np.linalg.norm margins, byte for byte (alpha = 0
    # runs no Newton step, but its G of zeros pins their sign)
    grid = build_grid(1.0 if lam == 2.0 else 0.75, lam)
    x, s, d_top = operators._pair_blocks(alpha, grid, np.array(p))
    dense = naive_pair_x(alpha, p, grid)
    assert x.tobytes() == dense.diagonal().tobytes() and s.tobytes() == dense[0, 1:].tobytes()
    visited, schur = [], operators._pair_schur

    def recording(x, s, d_top, labels=None):
        complement, lift = schur(x, s, d_top, labels)
        return (lambda level: visited.append((labels, level)) or complement(level)), lift

    monkeypatch.setattr(operators, "_pair_schur", recording)
    r = operators._certified_ground(alpha, grid, 2, p)[0]
    monkeypatch.undo()
    labels = operators._stabilizer_orbits(grid, p)
    assert any(lab is not None for lab, _ in visited) == (alpha > 0 and labels is not None)
    visited.append((None, r.energy + 1e-8))  # a count's level, above the ground level
    visited += [(labels, level) for level in (r.energy, r.bracket[0])]
    u = np.random.default_rng(5).standard_normal(len(s) + 1)
    for lab, level in visited:
        got, delta, slope = schur(x, s, d_top, lab)[0](level)
        want, want_delta, want_slope = naive_pair_schur(dense, s, d_top, lab)(level)
        assert got.tobytes() == want.tobytes() and delta.hex() == want_delta.hex()
        v = u[:len(got)] / np.linalg.norm(u[:len(got)])
        assert slope(v[1:]).hex() == want_slope(v[1:]).hex()


@pytest.mark.parametrize("p", WINDOW_MOMENTA[:2] + WINDOW_MOMENTA[-2:])
def test_window_count_factors_the_dense_construction(monkeypatch, p):
    # the matrix the window count factors in place is u u^T + S(E), with
    # S(E) the dense construction's, byte for byte, and so is its shift
    grid = build_grid(0.75, 3.0)
    window = operators._certified_ground(1.0, grid, 2, p)[1]
    level, _, s_e, delta, v, d_min = window
    _, s, d_top = operators._pair_blocks(1.0, grid, np.array(p))
    want, want_delta, _ = naive_pair_schur(naive_pair_x(1.0, p, grid), s, d_top)(level)
    assert s_e.tobytes() == want.tobytes() and delta == want_delta
    calls = []
    cholesky = operators._cholesky
    monkeypatch.setattr(operators, "_cholesky", lambda a, shift=0.0, **kw: calls.append(
        (np.ascontiguousarray(a), shift)) or cholesky(a, shift, **kw))
    e = level + 1e-7
    assert operators._window_count(window, e) == 1
    (a, shift), = calls
    k = solve.SCHUR_MARGIN * len(s_e) * np.finfo(np.float64).eps
    c = delta / k
    eta = (e - level) * (1.0 + c / (d_min - e))
    u = math.sqrt(c) * v
    dense = np.outer(u, u)
    dense += want
    assert a.tobytes() == dense.tobytes()
    assert shift == -(delta + eta + k * (c + delta + eta) / (1.0 - k))


@pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
def test_counts_reject_a_non_finite_level_before_building_blocks(monkeypatch, e):
    def forbidden(*args, **kwargs):
        raise AssertionError("blocks built for a non-finite level")

    class Unread:
        """An operator whose blocks must not be read."""
        dimension = 5
        csr = property(forbidden)

    monkeypatch.setattr(operators, "_pair_blocks", forbidden)
    with pytest.raises(ValueError, match="must be finite"):
        operators._pair_count(1.0, build_grid(1.0, 2.0), np.zeros(3), e)
    with pytest.raises(ValueError, match="must be finite"):
        solve.count_below(Unread(), e, 2)


def test_norms_at_nonzero_momentum_match_dense():
    # block diagonality of the Grams does not rest on P = 0
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    p = np.array([0.0, 0.0, 1.0])
    cfg = FiberConfig(alpha=1.0, p=p, grid=grid, n_max=2)
    mat, states = naive_fiber_dense(1.0, p, grid.modes, grid.couplings, 2)
    a = np.triu(mat, 1)
    d = np.diag(mat) + 1.0
    nums = np.array([len(state) for state in states], dtype=np.float64)
    weighted = np.linalg.norm(a * (d ** -0.5 * (nums + 1.0) ** -0.25)[None, :], 2)
    assert weighted_annihilation_norm(cfg, basis) == pytest.approx(weighted, rel=1e-12)
    step = a / d[None, :]
    s = neumann_norms(cfg, basis, 3)
    np.testing.assert_allclose(s[:2], [np.linalg.norm(step, 2), np.linalg.norm(step @ step, 2)],
                               rtol=1e-12)
    assert s[2] == 0.0
    c = np.linalg.norm(a * ((nums + 1.0) ** 0.25 / d)[None, :], 2)
    assert neumann_constant(cfg, basis) == pytest.approx(c, rel=1e-12)


def test_norms_agree_across_seeds():
    cfg, basis = _neumann_instance()
    first = _all_norms(cfg, basis, seed=0)
    for seed in range(1, 5):
        again = _all_norms(cfg, basis, seed=seed)
        for name in first:
            np.testing.assert_allclose(again[name], first[name], rtol=1e-10, err_msg=name)


def test_zero_norms_are_positive_zero():
    # checks.json writes these values, so they must be 0.0 and never -0.0
    cfg, basis = _neumann_instance()
    values = list(neumann_norms(cfg, basis, 5)[3:])
    free = _all_norms(*_neumann_instance(alpha=0.0), seed=0)
    values += [*free["s"], free["c"], free["weighted"]]
    for value in values:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_norms_on_an_empty_grid_are_positive_zero():
    # Lambda < delta leaves no modes: only the vacuum block has states
    grid = build_grid(1.0, 0.5)
    basis = enumerate_basis(0, 2, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    norms = _all_norms(cfg, basis, seed=0)
    for value in [*norms["s"], norms["c"], norms["weighted"]]:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("alpha,delta,lam,n_max", [(1e-8, 1.0, 1.5, 3), (1.0, 1.0, 1.0, 6)])
def test_small_norms_keep_relative_accuracy(alpha, delta, lam, n_max):
    # the squared norms fall to 1e-30 (s_3 at alpha = 1e-8) and 1e-13 (s_6),
    # far below the eigensolver's default absolute residual tolerance of 1e-9
    grid = build_grid(delta, lam)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=n_max)
    got = _all_norms(cfg, basis, seed=0)
    want = _dense_norms(delta, lam, n_max)  # at alpha = 1; s_j scales as alpha^(j/2)
    root = math.sqrt(alpha)
    np.testing.assert_allclose(got["s"][:n_max], want["s"] * root ** np.arange(1, n_max + 1),
                               rtol=1e-12)
    assert got["s"][n_max] == 0.0
    for name in ("c", "weighted"):
        assert got[name] == pytest.approx(root * want[name], rel=1e-12), name


def test_weighted_norm_scales_with_alpha():
    cfg, basis = _neumann_instance()
    quarter = FiberConfig(alpha=0.25, p=cfg.p, grid=cfg.grid, n_max=cfg.n_max)
    w1 = weighted_annihilation_norm(cfg, basis)
    w2 = weighted_annihilation_norm(quarter, basis)
    assert w2 == pytest.approx(0.5 * w1, rel=1e-7)


def test_basis_grid_mismatch_guards():
    grid = build_grid(1.0, 1.0)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    with pytest.raises(ValueError):
        assemble_fiber(cfg, enumerate_basis(5, 2, grid.units[:5], grid.spacing))
    with pytest.raises(ValueError):
        assemble_fiber(cfg, enumerate_basis(6, 3, grid.units, grid.spacing))
    with pytest.raises(ValueError):
        assemble_fiber(cfg, enumerate_basis(6, 2))  # no momentum table
    with pytest.raises(ValueError):
        assemble_fiber(cfg, enumerate_basis(6, 2, grid.units, 0.5))
    other = build_grid(1.0, 1.5)
    with pytest.raises(ValueError):
        assemble_fiber(cfg, enumerate_basis(6, 2, other.units[:6], other.spacing))


def test_dense_caps_enforced(monkeypatch):
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    monkeypatch.setattr(solve, "DENSE_CAP", 10)
    with pytest.raises(CapacityError):
        assemble_KT(cfg, basis)
    with pytest.raises(ValueError):
        neumann_norms(cfg, basis, 0)


def test_fiber_config_validation():
    grid = single_mode_grid()
    with pytest.raises(ValueError):
        FiberConfig(alpha=-1.0, p=np.zeros(3), grid=grid, n_max=1)
    with pytest.raises(ValueError):
        FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=-1)
    cfg = FiberConfig(alpha=1.0, p=[0.1, 0.2, 0.3], grid=grid, n_max=1)
    assert cfg.p.shape == (3,)


def _zero_fiber_ground(delta, lam, n_max, alpha=1.0):
    grid = build_grid(delta, lam)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=n_max)
    return float(dense_spectrum(assemble_fiber(cfg, basis), k=1)[0])


def test_zero_fiber_ground_is_non_increasing_in_the_cutoff():
    # at fixed delta a larger Lambda adds modes and keeps the couplings of the
    # old ones, so the spaces nest and the variational minimum cannot rise
    energies = [_zero_fiber_ground(1.0, lam, 2) for lam in (1.0, 1.5, 2.0)]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0]


def test_zero_fiber_ground_is_non_increasing_in_the_truncation():
    energies = [_zero_fiber_ground(1.0, 1.0, n_max) for n_max in range(6)]
    assert energies[0] == 0.0  # the vacuum alone
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[1]
