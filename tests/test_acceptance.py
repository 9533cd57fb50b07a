"""Acceptance gate: eleven shipped guarantees, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to stream the per-criterion lines;
under default capture they still appear for any failing criterion.  Every
tolerance is pinned here, next to the assertion it guards.  The whole gate
takes a few minutes; the heavy entries are the 2.2M-state norm certificate and
the 33-fiber torus sweep.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from polaronlab import (
    CutoffSchedule,
    FiberConfig,
    TorusConfig,
    assemble_KT,
    assemble_fiber,
    assemble_torus,
    build_grid,
    cutoff_extrapolate,
    degeneracy_analysis,
    dense_spectrum,
    dispersion_curve,
    effective_mass,
    enumerate_basis,
    ground_state,
    hvz_edge_check,
    lowest_eigenpairs,
    mass_momenta,
    minimum_check,
    neumann_constant,
    neumann_norms,
    resolvent_positivity_audit,
    sign_flip,
    weighted_annihilation_norm,
)
from polaronlab.cli import main

from suite_configs import all_operators, kt_suite

REPO = Path(__file__).resolve().parents[1]

# desk-scale fiber family shared by criteria 3 plus the mass diagnostic
DESK = dict(alpha=1.0, delta=0.75, cutoff=3.0, n_max=2)


def _verdict(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label} ({detail})"
    print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def desk_curve():
    ps = [(0.0, 0.0, t) for t in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]
    return dispersion_curve(DESK["alpha"], ps, DESK["delta"], DESK["cutoff"],
                            DESK["n_max"], threads=2)


def test_c01_free_dispersion_exactness(tmp_path):
    code = main(["dispersion", "--config", str(REPO / "configs" / "free.cfg"),
                 "--out", str(tmp_path)])
    with open(tmp_path / "dispersion.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    devs = [abs(float(r["energy"]) - min(float(r["Pnorm"]) ** 2, 1.0))
            for r in rows]
    ok = code == 0 and len(rows) == 5 and max(devs) <= 1e-9
    line = _verdict(1, "free dispersion exactness",
                    ok, f"max |E - min(P^2,1)| = {max(devs):.3e}")
    assert ok, line


def test_c02_weak_coupling_extrapolation():
    schedule = CutoffSchedule(lambdas=(4.0, 8.0, 12.0, 16.0), delta=0.4, n_max=1)
    report = cutoff_extrapolate(0.1, schedule, threads=2)
    target = -0.1 / 8.0
    dev = abs(report.e_inf - target)
    ok = dev <= 0.1 * abs(target)
    line = _verdict(2, "weak-coupling self-energy",
                    ok, f"E_inf = {report.e_inf:.10f}, target {target}, "
                        f"deviation {100.0 * dev / abs(target):.2f}% of 10%")
    assert ok, line


def test_c03_minimum_at_zero(desk_curve):
    verdict = minimum_check(desk_curve, margin=1e-4)
    ok = (verdict.passed and verdict.argmin_unique
          and verdict.worst_margin > 1e-4)
    line = _verdict(3, "minimum at zero",
                    ok, f"worst margin {verdict.worst_margin:.6f} > 1e-4 "
                        f"over {len(desk_curve.samples) - 1} nonzero samples")
    assert ok, line


def test_c04_hvz_edge():
    report = hvz_edge_check(DESK["alpha"], DESK["delta"], DESK["cutoff"],
                            DESK["n_max"], (0.0, 0.0, 2.5), edge_tol=0.1)
    ok = report.passed and 0.0 <= report.d + 1e-12 and report.d <= 0.1
    line = _verdict(4, "essential-spectrum edge",
                    ok, f"d = E(P_far) - E(0) - 1 = {report.d:.6f} in [0, 0.1]")
    assert ok, line


def test_c05_factorization_identity():
    worst = 0.0
    alphas = set()
    names = set()
    for name, cfg, basis in kt_suite():
        assert basis.dimension <= 500
        names.add(name)
        alphas.add(cfg.alpha)
        k_mat, t_mat = assemble_KT(cfg, basis)
        h_plus = assemble_fiber(cfg, basis).to_dense() + np.eye(basis.dimension)
        worst = max(worst, float(np.max(np.abs(k_mat + t_mat - h_plus))))
    ok = (worst <= 1e-10 and "single-mode-2x2" in names
          and {0.0, 0.5, 1.0} <= alphas)
    line = _verdict(5, "factorization identity K + T = H + 1",
                    ok, f"max entry deviation {worst:.3e} over "
                        f"{len(names)} instances")
    assert ok, line


def test_c06_norm_bound_certificate():
    grid = build_grid(0.5, 4.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    norm = weighted_annihilation_norm(cfg, basis)
    threshold = 0.3536 * 1.05
    ok = norm <= threshold
    line = _verdict(6, "uniform norm bound",
                    ok, f"norm {norm:.6f} <= {threshold:.6f} "
                        f"on {basis.dimension} states")
    assert ok, line


def test_c07_neumann_decay():
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 3, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=3)
    s = neumann_norms(cfg, basis, 4)
    c = neumann_constant(cfg, basis)
    bounds = [c**j / math.gamma(j + 1) ** 0.25 for j in (1, 2, 3)]
    decay_ok = all(s[j - 1] <= bounds[j - 1] * (1.0 + 1e-10) for j in (1, 2, 3))
    nilpotent_ok = s[3] <= 1e-12
    ok = decay_ok and nilpotent_ok
    ratios = ", ".join(f"{s[j - 1] / bounds[j - 1]:.2f}" for j in (1, 2, 3))
    line = _verdict(7, "resolvent expansion decay",
                    ok, f"s_j/bound_j = {ratios}; s_4 = {s[3]:.1e}")
    assert ok, line


def test_c08_ground_state_uniqueness():
    grid = build_grid(1.0, 1.5)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    op = assemble_fiber(cfg, basis)
    e0 = float(dense_spectrum(op, k=1)[0])
    flipped = sign_flip(op)
    report = resolvent_positivity_audit(flipped, 1.0 - e0)

    vec = ground_state(flipped).vector
    plus = float(np.linalg.norm(np.clip(vec, 0.0, None)))
    minus = float(np.linalg.norm(np.clip(-vec, 0.0, None)))
    faris = min(plus, minus)

    ok = (basis.dimension == 190
          and report.strictly_positive and report.min_entry > 0.0
          and report.ground_vector_min > 0.0
          and report.gap > 1e-6 and faris <= 1e-10)
    line = _verdict(8, "ground-state uniqueness",
                    ok, f"resolvent min entry {report.min_entry:.3e}, "
                        f"gap {report.gap:.4f}, sign defect {faris:.1e}")
    assert ok, line


def test_c09_torus_mechanism():
    full_cfg = TorusConfig(ell=2.0 * math.pi, alpha=DESK["alpha"],
                           delta=DESK["delta"], cutoff=DESK["cutoff"],
                           n_max=DESK["n_max"], fiber_cutoff=2.0)
    full = degeneracy_analysis(assemble_torus(full_cfg), threads=4)
    full_ok = (full.argmin == ((0.0, 0.0, 0.0),) and full.multiplicity == 1)

    restr_cfg = TorusConfig(ell=2.0 * math.pi, alpha=DESK["alpha"],
                            delta=DESK["delta"], cutoff=DESK["cutoff"],
                            n_max=DESK["n_max"], fiber_cutoff=2.0,
                            fibers=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)))
    restr = degeneracy_analysis(assemble_torus(restr_cfg), threads=2)
    energies = dict(restr.fiber_energies)
    mismatch = abs(energies[(0.0, 0.0, 1.0)] - energies[(0.0, 0.0, -1.0)])
    restr_ok = restr.multiplicity == 2 and mismatch <= 1e-10

    ok = full_ok and restr_ok
    line = _verdict(9, "torus degeneracy mechanism",
                    ok, f"full lattice: argmin {{0}}, multiplicity "
                        f"{full.multiplicity}; restricted: multiplicity "
                        f"{restr.multiplicity}, |E(q) - E(-q)| = {mismatch:.1e}")
    assert ok, line


def test_c10_solver_oracle_equivalence():
    # dense oracles stop at 2000 states; the first oracle above that cap is
    # test_torus::test_count_certifies_desk_ground_and_doublet, where the
    # Schur-complement count brackets the LOBPCG levels of a 33,153-state fiber
    worst = 0.0
    count = 0
    for name, op in all_operators():
        assert op.dimension <= 2000
        k = min(3, op.dimension)
        dense = dense_spectrum(op, k=k)
        results = lowest_eigenpairs(op, k=k)
        for i in range(k):
            worst = max(worst, abs(results[i].energy - float(dense[i])))
        count += 1
    ok = worst <= 1e-8
    line = _verdict(10, "iterative vs dense eigenvalues",
                    ok, f"max |E_iter - E_dense| = {worst:.3e} "
                        f"over {count} operators")
    assert ok, line


def test_c11_determinism(tmp_path):
    cfg = str(REPO / "configs" / "quick.cfg")
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = main(["checks", "--config", cfg, "--out", str(a)])
    code_b = main(["checks", "--config", cfg, "--out", str(b)])
    bytes_a = (a / "checks.json").read_bytes()
    bytes_b = (b / "checks.json").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    line = _verdict(11, "byte-identical reruns",
                    ok, f"{len(bytes_a)} bytes, exit codes "
                        f"({code_a}, {code_b})")
    assert ok, line


def test_diagnostics_reported_not_gated(desk_curve):
    mass = effective_mass(dispersion_curve(DESK["alpha"], mass_momenta(), DESK["delta"],
                                           DESK["cutoff"], DESK["n_max"]))
    e0 = desk_curve.at_zero().energy
    small = [s for s in desk_curve.samples if 0.0 < s.pnorm <= 0.5]
    held = all(s.energy <= e0 + s.pnorm**2 / (2.0 * mass.m_eff) + 1e-12
               for s in small)
    print(f"[diagnostic] parabola bound E(P) <= E(0) + P^2/(2M) for |P| <= 0.5: "
          f"{'holds' if held else 'violated'} on {len(small)} sample(s)",
          flush=True)
    print(f"[diagnostic] effective mass M(alpha=1) = {mass.m_eff:.6f} "
          f"(free value 0.5, enhancement {'yes' if mass.m_eff > 0.5 else 'no'})",
          flush=True)
