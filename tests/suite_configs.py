"""Shared registry of small operator instances used across the test suite.

Two tiers: KT_SUITE holds dimension <= 500 instances for the factorization
identity; ALL_OPERATORS holds every suite operator of dimension <= 2000 (the
assembled fibers, their sign flips, and the free diagonals) for the
iterative-vs-dense oracle cross-check, each with its basis in
all_operators_with_basis.
"""

from functools import lru_cache

import numpy as np

from polaronlab import (
    FiberConfig,
    ModeGrid,
    assemble_fiber,
    build_grid,
    enumerate_basis,
    sign_flip,
)
from naive_ref import assemble_free


def single_mode_grid() -> ModeGrid:
    # the closed-form 2x2 instance: one mode at e_z with unit coupling
    return ModeGrid.manual(1.0, 1.0, [[0, 0, 1]], [1.0])


@lru_cache(maxsize=None)
def kt_suite():
    """(name, FiberConfig, BasisIndex) with dimension <= 500."""
    out = []
    grid1 = single_mode_grid()
    basis1 = enumerate_basis(1, 1, grid1.units, grid1.spacing)
    out.append(("single-mode-2x2",
                FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid1, n_max=1), basis1))
    for delta, lam, n_max in ((1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 1.5, 1),
                              (1.0, 1.5, 2), (0.75, 1.5, 1)):
        grid = build_grid(delta, lam)
        basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
        assert basis.dimension <= 500
        for alpha in (0.0, 0.5, 1.0):
            name = f"d{delta}-L{lam}-n{n_max}-a{alpha}"
            out.append((name,
                        FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=n_max),
                        basis))
    return tuple(out)


@lru_cache(maxsize=None)
def all_operators_with_basis():
    """(name, SparseOperator, BasisIndex) for every suite operator of dimension <= 2000."""
    out = []
    for name, cfg, basis in kt_suite():
        op = assemble_fiber(cfg, basis)
        out.append((f"fiber:{name}", op, basis))
        out.append((f"flip:{name}", sign_flip(op), basis))
        out.append((f"free:{name}", assemble_free(cfg, basis), basis))
    # larger instances, momenta off the origin, a finer spacing
    extras = (
        ("d1-L2-n2-a1-P001", 1.0, 1.0, 2.0, 2, (0.0, 0.0, 1.0)),
        ("d1-L2-n2-a1-Pgen", 1.0, 1.0, 2.0, 2, (0.37, -0.2, 0.11)),
        ("d0.5-L1-n2-a1-P0", 1.0, 0.5, 1.0, 2, (0.0, 0.0, 0.0)),
        ("d1-L1.5-n3-a1-P0", 1.0, 1.0, 1.5, 3, (0.0, 0.0, 0.0)),
        ("d0.75-L1.5-n2-a0.5-P0", 0.5, 0.75, 1.5, 2, (0.0, 0.0, 0.0)),
    )
    for name, alpha, delta, lam, n_max, p in extras:
        grid = build_grid(delta, lam)
        basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
        assert basis.dimension <= 2000
        cfg = FiberConfig(alpha=alpha, p=np.asarray(p), grid=grid, n_max=n_max)
        op = assemble_fiber(cfg, basis)
        out.append((f"fiber:{name}", op, basis))
        out.append((f"flip:{name}", sign_flip(op), basis))
    return tuple(out)


def all_operators():
    """(name, SparseOperator) for every suite operator of dimension <= 2000."""
    return tuple((name, op) for name, op, _ in all_operators_with_basis())
