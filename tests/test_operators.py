"""Sparse fiber assembly, the K/T factorization, and norm diagnostics."""

import functools
import math

import numpy as np
import pytest

from polaronlab import (
    CapacityError,
    FiberConfig,
    FiberFamily,
    SparseOperator,
    annihilation_csr,
    assemble_KT,
    assemble_fiber,
    build_grid,
    dense_spectrum,
    enumerate_basis,
    kinetic_diagonal,
    neumann_constant,
    neumann_norms,
    riemann_selfenergy_sum,
    sign_flip,
    weighted_annihilation_norm,
)
from polaronlab import operators
from naive_ref import (
    assemble_free, naive_fiber_dense, upper_diagonal, upper_sign_flip, upper_to_dense,
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
    # entry for entry what the triplet constructor builds from the raw
    # triplets, including its symmetric CSR and the dropped vacuum zero at P = 0
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 3, grid.units, grid.spacing)
    family = FiberFamily(alpha, grid, basis)
    idx = np.arange(basis.dimension)
    for p in FAMILY_MOMENTA:
        cfg = FiberConfig(alpha=alpha, p=np.asarray(p), grid=grid, n_max=3)
        a = annihilation_csr(cfg, basis).tocoo()
        ref = SparseOperator(basis.dimension, np.concatenate([idx, a.row]),
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
    with pytest.raises(ValueError):
        SparseOperator(2, [1], [0], [1.0])  # lower triangle rejected
    with pytest.raises(ValueError):
        SparseOperator(2, [0, 0], [1, 1], [1.0, 2.0])  # duplicate entry
    with pytest.raises(ValueError):
        SparseOperator(2, [0], [2], [1.0])  # out of range
    op = SparseOperator(3, [0, 1, 0], [0, 1, 2], [1.0, 0.0, 2.0])
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
    got, want = sign_flip(op, basis).csr, upper_sign_flip(op, basis).csr
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
        flipped = sign_flip(op, basis)
        back = sign_flip(flipped, basis)
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
    with pytest.raises(ValueError):
        sign_flip(op, enumerate_basis(1, 1))


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
    solve = operators.lowest_eigenpairs

    def recording(op, **kwargs):
        sizes.append(op.dimension)
        return solve(op, **kwargs)

    monkeypatch.setattr(operators, "lowest_eigenpairs", recording)
    weighted_annihilation_norm(cfg, basis)
    neumann_norms(cfg, basis, 3, dense_cap=basis.dimension)
    neumann_constant(cfg, basis, dense_cap=basis.dimension)
    bound = max(basis.block_count(n) for n in range(basis.n_max))
    assert bound == 256
    assert sizes and max(sizes) == bound


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


def test_dense_caps_enforced():
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    with pytest.raises(CapacityError):
        assemble_KT(cfg, basis, dense_cap=10)
    with pytest.raises(CapacityError):
        neumann_norms(cfg, basis, 2, dense_cap=10)
    with pytest.raises(CapacityError):
        neumann_constant(cfg, basis, dense_cap=10)
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
