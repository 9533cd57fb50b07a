"""Occupation-basis enumeration, ranking, raise maps and phonon momenta."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaronlab import (
    BasisIndex,
    CapacityError,
    FiberConfig,
    FiberFamily,
    basis_dimension,
    build_grid,
    enumerate_basis,
    fock,
    neumann_constant,
    neumann_norms,
    weighted_annihilation_norm,
)
from naive_ref import (
    naive_block_ranks,
    naive_ladder,
    naive_pf_units,
    naive_raise_map,
    naive_rank,
    naive_states,
)

UNIT_MODES = np.array(
    [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1], [0, 1, 0], [1, 0, 0]],
    dtype=np.int64,
)


def _mode_tuples(basis: BasisIndex):
    """Every state's ascending mode tuple, in basis order."""
    return [tuple(int(m) for m in row)
            for n in range(basis.n_max + 1) for row in basis.block(n)]


def _raise_entries(basis: BasisIndex, n: int):
    """(src, mode, counts, tgt) of raise_map(n), the source state and mode of
    each entry derived from the documented repeat/tile order."""
    counts, tgt = basis.raise_map(n)
    m, c = basis.m_modes, basis.block_count(n)
    return np.repeat(np.arange(c), m), np.tile(np.arange(m), c), counts, tgt


def _ladder_matrices(basis: BasisIndex, mode: int):
    """Dense (lower, raise) matrices of one mode from the basis raise maps."""
    raise_ = np.zeros((basis.dimension, basis.dimension))
    for n in range(basis.n_max):
        src, modes, counts, tgt = _raise_entries(basis, n)
        sel = modes == mode
        raise_[basis.block_offset(n + 1) + tgt[sel],
               basis.block_offset(n) + src[sel]] = np.sqrt(counts[sel] + 1.0)
    return raise_.T.copy(), raise_


def test_dimension_examples():
    assert enumerate_basis(5, 0).dimension == 1
    assert enumerate_basis(2, 2).dimension == 6
    assert enumerate_basis(3, 3).dimension == 20
    assert basis_dimension(3, 3) == 20


def test_basis_dimension_is_the_summed_block_counts():
    # the closed-form sizes and offsets against the enumerated blocks
    for m_modes in (*range(13), 32):
        for n_max in range(5):
            basis = enumerate_basis(m_modes, n_max)
            lengths = [len(basis.block(n)) for n in range(n_max + 1)]
            assert [basis.block_count(n) for n in range(n_max + 1)] == lengths
            assert [basis.block_offset(n) for n in range(n_max + 2)] == (
                np.cumsum([0] + lengths).tolist()), (m_modes, n_max)
            assert basis_dimension(m_modes, n_max) == sum(lengths), (m_modes, n_max)


def test_blocks_are_enumerated_only_when_read(monkeypatch):
    calls = []
    enumerate_tuples = fock._ascending_tuples

    def counted(m_modes, n):
        calls.append(n)
        return enumerate_tuples(m_modes, n)

    monkeypatch.setattr(fock, "_ascending_tuples", counted)
    grid = build_grid(0.5, 2.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    assert basis.dimension == 33_153
    # the N_max = 2 norm certificates read the pair sum, not the tuples
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    weighted_annihilation_norm(cfg, basis, seed=3)
    neumann_norms(cfg, basis, 3, seed=3)
    neumann_constant(cfg, basis, seed=3)
    assert calls == []
    FiberFamily(1.0, grid, basis)
    assert sorted(calls) == [0, 1, 2]
    FiberFamily(1.0, grid, basis)  # cached
    assert sorted(calls) == [0, 1, 2]


def test_concurrent_first_reads_give_the_serial_tables():
    want = enumerate_basis(6, 3, mode_units=UNIT_MODES, spacing=0.5)
    basis = enumerate_basis(6, 3, mode_units=UNIT_MODES, spacing=0.5)
    got, switch = [], sys.getswitchinterval()

    def read():
        got.append([basis.block(3), basis.pf_units(2), *basis.raise_map(2)])

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and len(got) == 8
    for tables in got:
        for x, y in zip(tables, [want.block(3), want.pf_units(2), *want.raise_map(2)]):
            assert x.tobytes() == y.tobytes()


def test_block_index_is_checked():
    basis = enumerate_basis(3, 2)
    for bad in (-1, 3):
        for read in (basis.block, basis.block_count, basis.pf_units):
            with pytest.raises(IndexError, match=f"block n = {bad}"):
                read(bad)
    with pytest.raises(IndexError, match="outside 0..3"):
        basis.block_offset(-1)
    with pytest.raises(IndexError, match="outside 0..3"):
        basis.block_offset(4)
    assert basis.block_offset(3) == basis.dimension == 10


def test_vacuum_is_index_zero():
    basis = enumerate_basis(3, 2)
    assert basis.block_offset(0) == 0
    assert basis.block(0).shape == (1, 0)
    assert basis.total_numbers()[0] == 0


def test_state_order_matches_naive_enumeration():
    for m_modes, n_max in ((2, 2), (3, 2), (4, 3), (1, 4)):
        basis = enumerate_basis(m_modes, n_max)
        assert _mode_tuples(basis) == naive_states(m_modes, n_max)


def test_block_structure_sorted_by_total_number():
    basis = enumerate_basis(4, 3)
    nums = basis.total_numbers().tolist()
    assert nums == sorted(nums)
    assert nums == [len(s) for s in naive_states(4, 3)]


def test_index_roundtrip_exhaustive():
    basis = enumerate_basis(4, 3)
    ranks = naive_block_ranks(4, 3)
    for n in range(basis.n_max + 1):
        np.testing.assert_array_equal(naive_rank(ranks[n], basis.block(n)),
                                      np.arange(basis.block_count(n)))


def test_pf_units_are_exact_mode_sums():
    basis = enumerate_basis(6, 3, mode_units=UNIT_MODES, spacing=0.5)
    for n in range(basis.n_max + 1):
        expect = [sum((UNIT_MODES[m] for m in row), np.zeros(3, dtype=np.int64))
                  for row in basis.block(n)]
        np.testing.assert_array_equal(basis.pf_units(n), np.reshape(expect, (-1, 3)))


@pytest.mark.parametrize("delta,lam,n_max", [(1.0, 1.5, 1), (1.0, 1.5, 2), (1.0, 1.5, 3),
                                             (1.0, 1.5, 4), (0.75, 3.0, 2)])
def test_raise_map_and_pf_units_match_plain_expressions(delta, lam, n_max):
    grid = build_grid(delta, lam)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    for n in range(n_max + 1):
        got, want = basis.pf_units(n), naive_pf_units(basis, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for n in range(n_max):
        for got, want in zip(basis.raise_map(n), naive_raise_map(basis, n)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("m_modes,n_max", [(2, 61), (2, 70)])
def test_raise_map_exact_where_binomial_ranks_overflow_int64(m_modes, n_max):
    # long blocks over two modes: binomial rank sums here need C(64, 32)-sized
    # intermediates, past int64, while every rank is below 72
    basis = enumerate_basis(m_modes, n_max)
    for n in range(n_max):
        for got, want in zip(basis.raise_map(n), naive_raise_map(basis, n)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_capacity_guard(monkeypatch):
    def forbidden(*args):
        raise AssertionError("enumerated a basis above capacity")

    # the closed-form dimension is checked before any block is enumerated
    monkeypatch.setattr(fock, "_ascending_tuples", forbidden)
    with monkeypatch.context() as m:
        m.setattr(fock, "BASIS_CAPACITY", 1000)
        with pytest.raises(CapacityError):
            enumerate_basis(60, 5)
    with pytest.raises(CapacityError):
        enumerate_basis(2_000_000, 3)


@pytest.mark.parametrize("m_modes, n_max, name", [
    (5, True, "n_max"), (True, 2, "m_modes"), (5, 2.0, "n_max"), (5.0, 2, "m_modes"),
    ("3", 1, "m_modes"), (5, -1, "n_max"), (-1, 2, "m_modes"), (2_000_000.0, 3, "m_modes"),
])
def test_basis_sizes_must_be_ints_before_the_capacity_check(m_modes, n_max, name):
    # True used to run as 1, a float to fail in math.comb, a str at `<`
    for make in (enumerate_basis, BasisIndex):
        with pytest.raises(ValueError, match=f"{name} must be an int of at least 0"):
            make(m_modes, n_max)


def test_lower_on_vacuum_absent():
    basis = enumerate_basis(3, 2)
    for mode in range(3):
        lower, _ = _ladder_matrices(basis, mode)
        assert not lower[:, 0].any()


def test_raise_on_vacuum_amplitude_one():
    basis = enumerate_basis(3, 2)
    src, mode, counts, tgt = _raise_entries(basis, 0)
    sel = mode == 1
    assert src[sel].tolist() == [0]
    assert np.sqrt(counts[sel] + 1.0).tolist() == [1.0]
    assert basis.block(1)[tgt[sel]].tolist() == [[1]]


def test_raise_blocked_at_truncation():
    basis = enumerate_basis(2, 2)
    top = basis.total_numbers() == basis.n_max
    for mode in range(2):
        _, raise_ = _ladder_matrices(basis, mode)
        assert not raise_[:, top].any()


def test_raise_lower_amplitude_product():
    # a a* |n=2> = 3 |n=2>: amplitudes sqrt(3) * sqrt(3)
    basis = enumerate_basis(1, 3)
    lower, raise_ = _ladder_matrices(basis, 0)
    i = basis.block_offset(2)
    col = (lower @ raise_)[:, i]
    assert col[i] == pytest.approx(3.0, abs=1e-15)
    col[i] = 0.0
    assert not col.any()


def test_raise_map_caches_only_counts_and_targets():
    basis = enumerate_basis(6, 2, mode_units=UNIT_MODES, spacing=0.4)
    for n in range(basis.n_max):
        counts, tgt = basis.raise_map(n)
        assert counts.shape == tgt.shape == (basis.block_count(n) * 6,)
        assert basis.raise_map(n) is basis._raise_cache[n]
    assert [len(a) for a in enumerate_basis(0, 2).raise_map(0)] == [0, 0]


def test_ladder_rejects_bad_arguments():
    basis = enumerate_basis(2, 1)
    for n in (-1, basis.n_max, 5):
        with pytest.raises(ValueError):
            basis.raise_map(n)


def test_ccr_below_truncation_layer():
    basis = enumerate_basis(3, 3)
    nums = basis.total_numbers()
    for mode in range(3):
        lower, raise_ = _ladder_matrices(basis, mode)
        want_lower, want_raise = naive_ladder(3, 3, mode)
        np.testing.assert_array_equal(lower, want_lower)
        np.testing.assert_array_equal(raise_, want_raise)
        comm = lower @ raise_ - raise_ @ lower
        for i in range(basis.dimension):
            if nums[i] < basis.n_max:
                assert comm[i, i] == pytest.approx(1.0, abs=1e-12)
                row = comm[i].copy()
                row[i] = 0.0
                assert np.max(np.abs(row)) < 1e-12
    # commutation necessarily fails on the top layer (raise is truncated away)
    top = np.flatnonzero(nums == basis.n_max)
    lower, raise_ = _ladder_matrices(basis, 0)
    comm = lower @ raise_ - raise_ @ lower
    assert any(abs(comm[i, i] - 1.0) > 0.5 for i in top)


def test_momentum_additive_under_raise():
    basis = enumerate_basis(6, 2, mode_units=UNIT_MODES, spacing=0.4)
    for n in range(basis.n_max):
        src, mode, _, tgt = _raise_entries(basis, n)
        # integer bookkeeping makes additivity exact, not approximate
        np.testing.assert_array_equal(basis.pf_units(n + 1)[tgt],
                                      basis.pf_units(n)[src] + UNIT_MODES[mode])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=5))
def test_index_roundtrip_random_states(occ):
    if sum(occ.values()) > 3:
        occ = {}
    modes = tuple(sorted(m for m, c in occ.items() for _ in range(c)))
    n = len(modes)
    basis = enumerate_basis(5, 3)
    i = naive_block_ranks(5, 3)[n][modes]
    assert tuple(int(m) for m in basis.block(n)[i]) == modes
    assert naive_states(5, 3).index(modes) == basis.block_offset(n) + i


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_dimension_closed_form(m_extra, n_max):
    m_modes = m_extra + 1
    basis = enumerate_basis(m_modes, n_max)
    assert basis.dimension == basis_dimension(m_modes, n_max)
    assert basis.dimension == len(naive_states(m_modes, n_max))
