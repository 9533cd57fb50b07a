"""Correctness oracles for the benchmark workloads, independent of the solvers.

Each oracle rebuilds its reference from public building blocks of the package
(grids, couplings, the annihilation matrix) with a different algorithm than
the pipeline under test, and none depends on the workload seed, so a result
can be re-checked on any seed.
"""

import json
import math

import numpy as np

NORM_BOUND = 0.3536 * 1.05


def secular_ground_energy(alpha: float, p, grid) -> float:
    """Ground energy of the N_max = 1 fiber from its arrowhead structure.

    The fiber couples the vacuum (diagonal P^2) to one-phonon states
    (diagonal d_i = (P - k_i)^2 + 1) with amplitudes sqrt(alpha) g_i, so its
    lowest eigenvalue is the unique root below min d_i of
    f(E) = E - P^2 + alpha * sum g_i^2 / (d_i - E), which increases from -inf
    to +inf on that interval.
    """
    from scipy.optimize import brentq

    if not alpha > 0 or grid.is_empty:
        raise ValueError("the secular oracle needs alpha > 0 and a non-empty grid")
    p = np.asarray(p, dtype=np.float64).reshape(3)
    p2 = float(p @ p)
    g2 = grid.couplings ** 2
    d = ((p[None, :] - grid.modes) ** 2).sum(axis=1) + 1.0
    d_min = float(d.min())

    def f(e):
        return e - p2 + alpha * float(np.sum(g2 / (d - e)))

    # at lo every d_i - lo >= 1, so f(lo) <= m - 1 - p2 < 0
    m = min(p2, d_min)
    lo = m - 1.0 - alpha * float(np.sum(g2 / (d - m + 1.0)))
    gap = 0.5 * (d_min - lo)
    while f(d_min - gap) <= 0.0:
        gap *= 0.5
        if gap < 1e-300:
            raise ArithmeticError("no sign change below min d_i")
    return float(brentq(f, lo, d_min - gap, xtol=1e-15, rtol=4 * np.finfo(float).eps,
                        maxiter=500))


def weighted_norm_reference(pl, cfg, basis) -> float:
    """||A W|| with W = h0^{-1/2} (N+1)^{-1/4}, by ARPACK on W A^T A W.

    A is the public annihilation matrix (sqrt(alpha) included); the start
    vector is fixed, so the value does not depend on any seed.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    a = pl.annihilation_csr(cfg, basis)
    at = a.T.tocsr()
    h0 = pl.kinetic_diagonal(cfg, basis) + 1.0
    w = h0 ** -0.5 * (basis.total_numbers() + 1.0) ** -0.25
    n = basis.dimension

    def gram(x):
        x = np.ravel(x)
        return w * (at @ (a @ (w * x)))

    op = LinearOperator((n, n), matvec=gram, dtype=np.float64)
    lam = eigsh(op, k=1, which="LA", v0=np.ones(n), tol=1e-13,
                return_eigenvectors=False)[0]
    return math.sqrt(max(float(lam), 0.0))


def check_extrapolation(report, alpha: float, references) -> list:
    """Problems with a cutoff_extrapolate report; empty when it is correct."""
    problems = []
    if len(report.energies) != len(references):
        return [f"{len(report.energies)} energies for {len(references)} cutoffs"]
    for lam, e, ref in zip(report.lambdas, report.energies, references):
        if not abs(e - ref) <= 1e-8:
            problems.append(f"E(Lambda={lam}) = {e!r}, secular root {ref!r}")
    if not abs(report.e_inf + alpha / 8.0) <= 0.1 * alpha / 8.0:
        problems.append(f"e_inf = {report.e_inf!r} not within 10% of -alpha/8")
    return problems


def check_norm(value: float, reference: float) -> list:
    problems = []
    if not value <= NORM_BOUND:
        problems.append(f"norm {value!r} above the bound {NORM_BOUND}")
    if not abs(value - reference) <= 1e-6 * reference:
        problems.append(f"norm {value!r}, ARPACK reference {reference!r}")
    return problems


def check_torus(pl, report) -> list:
    """Simple minimum at P = 0 and equal energies on the six +-axis fibers."""
    problems = []
    if report.argmin != ((0.0, 0.0, 0.0),) or report.multiplicity != 1:
        problems.append(f"argmin {report.argmin}, multiplicity {report.multiplicity}")
    branch, consistent = pl.contradiction_check(report)
    if not consistent:
        problems.append(f"dichotomy branch {branch} inconsistent")
    axis = [e for p, e in report.fiber_energies if sum(x != 0.0 for x in p) == 1]
    if len(axis) != 6:
        problems.append(f"{len(axis)} axis fibers, expected 6")
    elif not max(axis) - min(axis) <= 1e-8:
        problems.append(f"axis fibers spread {max(axis) - min(axis)!r} (octahedral symmetry)")
    return problems


def check_checks(exit_code: int, data: bytes, first: bytes) -> list:
    """CLI checks run: exit 0, top-level passed, bytes equal to the first op's."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if not data or json.loads(data).get("passed") is not True:
        problems.append("checks.json has no top-level passed = true")
    if data != first:
        problems.append("checks.json differs from the first op of this run")
    return problems
