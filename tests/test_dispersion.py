"""Dispersion scans, effective mass, minimum/edge checks, cutoff extrapolation."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

import polaronlab.dispersion
from polaronlab import (
    CutoffSchedule,
    DispersionCurve,
    DispersionSample,
    FiberConfig,
    FiberFamily,
    ModeGrid,
    NumericalError,
    SpectralResult,
    assemble_fiber,
    build_grid,
    check_minimum_samples,
    cutoff_extrapolate,
    dense_spectrum,
    dispersion_curve,
    effective_mass,
    enumerate_basis,
    fit_inverse_cutoff,
    ground_state,
    hvz_edge_check,
    mass_momenta,
    minimum_check,
)
from polaronlab.dispersion import far_momentum
from polaronlab.operators import _secular_ground

# alpha = 0.5, N_max = 1, delta = 0.5 ground energy extrapolated over
# Lambda in {4,...,16}; frozen from a threaded run of this pipeline.
EXTRAP_E_INF = -0.05793735571193336
EXTRAP_SLOPE = 0.0380553040655241

# central-difference mass for (alpha=1, delta=1, Lambda=1.5, N_max=2)
MASS_H10 = 0.5095629424344886
MASS_H05 = 0.5094997664656606


def _curve(samples):
    return DispersionCurve(alpha=0.0, delta=1.0, cutoff=1.0, n_max=1, samples=samples)


def _sample(p, energy):
    return DispersionSample(
        p=p, pnorm=float(np.linalg.norm(p)), energy=energy, residual=0.0, iterations=1
    )


def _mass(alpha, delta, cutoff, n_max, h=0.1):
    """effective_mass over a curve of its three momenta alone."""
    return effective_mass(dispersion_curve(alpha, mass_momenta(h), delta, cutoff, n_max), h)


def test_decoupled_curve_is_exact():
    # alpha = 0: E(P) = min over occupations of (P - P_f)^2 + n, closed form
    curve = dispersion_curve(
        0.0, [(0, 0, 1), (0, 0, 0), (0, 0, 2), (0, 0, 0.5)], 0.5, 1.0, 2
    )
    assert [s.pnorm for s in curve.samples] == [0.0, 0.5, 1.0, 2.0]
    expected = [0.0, 0.25, 1.0, 2.0]
    for s, e in zip(curve.samples, expected):
        assert s.energy == pytest.approx(e, abs=1e-8)
        assert s.residual <= 1e-9
    assert curve.at_zero().energy == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_dispersion_curve_rejects_a_bad_tol(n_max, tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        dispersion_curve(1.0, [(0, 0, 0), (0, 0, 0.5)], 1.0, 1.0, n_max, tol=tol)


BAD_N_MAX = [3.0, 2.5, -1, True, "2"]


def _forbid_grids(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(polaronlab.dispersion, "build_grid", forbidden)


@pytest.mark.parametrize("n_max", BAD_N_MAX)
def test_fiber_config_rejects_a_bad_n_max(n_max):
    with pytest.raises(ValueError, match="n_max must be an int of at least 0"):
        FiberConfig(alpha=1.0, p=np.zeros(3), grid=build_grid(1.0, 1.0), n_max=n_max)


@pytest.mark.parametrize("n_max", BAD_N_MAX)
def test_cutoff_schedule_rejects_a_bad_n_max(n_max):
    with pytest.raises(ValueError, match="N_max must be an int of at least 0"):
        CutoffSchedule(lambdas=(3.0, 4.0, 5.0), delta=1.0, n_max=n_max)


@pytest.mark.parametrize("n_max", BAD_N_MAX)
def test_dispersion_curve_rejects_a_bad_n_max_before_any_grid(monkeypatch, n_max):
    # n_max = True used to run as N_max = 1, a float to fail in math.comb
    _forbid_grids(monkeypatch)
    with pytest.raises(ValueError, match="n_max must be an int of at least 0"):
        dispersion_curve(1.0, [(0, 0, 0)], 1.0, 1.0, n_max)


@pytest.mark.parametrize("n_max", BAD_N_MAX)
def test_hvz_edge_check_rejects_a_bad_n_max_before_any_grid(monkeypatch, n_max):
    _forbid_grids(monkeypatch)
    with pytest.raises(ValueError, match="n_max must be an int of at least 0"):
        hvz_edge_check(0.0, 1.0, 2.5, n_max, (0.0, 0.0, 2.0))


BAD_SEEDS = [2.5, True, -1, "7"]
EXTRAP_SCHEDULE = CutoffSchedule(lambdas=(1.0, 1.5, 2.0), delta=1.0, n_max=1)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_dispersion_curve_rejects_a_bad_seed_before_any_grid(monkeypatch, seed):
    # seed = 2.5 used to return a curve: the certified routes draw no start vector
    _forbid_grids(monkeypatch)
    with pytest.raises(ValueError, match="seed must be an int of at least 0"):
        dispersion_curve(1.0, [(0, 0, 0), (0, 0, 0.5)], 1.0, 1.0, 2, seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_cutoff_extrapolate_rejects_a_bad_seed_before_any_grid(monkeypatch, seed):
    _forbid_grids(monkeypatch)
    with pytest.raises(ValueError, match="seed must be an int of at least 0"):
        cutoff_extrapolate(1.0, EXTRAP_SCHEDULE, seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_hvz_edge_check_rejects_a_bad_seed_before_any_grid(monkeypatch, seed):
    _forbid_grids(monkeypatch)
    with pytest.raises(ValueError, match="seed must be an int of at least 0"):
        hvz_edge_check(0.0, 1.0, 2.5, 1, (0.0, 0.0, 2.0), seed=seed)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("alpha, p, message", [
    (1.0, (0.0, 0.0, math.inf), "momentum p must be finite"),
    (1.0, (math.nan, 0.0, 0.0), "momentum p must be finite"),
    (math.nan, (0.0, 0.0, 0.5), "alpha must be non-negative and finite"),
    (math.inf, (0.0, 0.0, 0.5), "alpha must be non-negative and finite"),
    (-1.0, (0.0, 0.0, 0.5), "alpha must be non-negative and finite"),
])
def test_non_finite_input_is_rejected_before_any_grid(monkeypatch, n_max, alpha, p, message):
    # these used to fail as a NumericalError from the solver, or in a Gram
    # matrix; hvz_edge_check used to build its grid and basis first
    _forbid_grids(monkeypatch)
    with pytest.raises(ValueError, match=message):
        dispersion_curve(alpha, [(0, 0, 0), p], 1.0, 2.0, n_max)
    with pytest.raises(ValueError, match=message):
        cutoff_extrapolate(alpha, EXTRAP_SCHEDULE, p=p)
    with pytest.raises(ValueError, match=message):
        hvz_edge_check(alpha, 1.0, 2.5, n_max, p)


BAD_THREADS = [0, 2.5, True]


def _forbid_solves(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fiber was solved")

    monkeypatch.setattr(polaronlab.dispersion, "_certified_ground", forbidden)


@pytest.mark.parametrize("threads", BAD_THREADS)
def test_dispersion_curve_rejects_bad_threads_before_solving(monkeypatch, threads):
    # threads = 0 and 2.5 used to run serially, True as one thread
    _forbid_solves(monkeypatch)
    with pytest.raises(ValueError, match="threads must be an int of at least 1"):
        dispersion_curve(1.0, [(0, 0, 0), (0, 0, 0.5)], 1.0, 1.0, 2, threads=threads)


@pytest.mark.parametrize("threads", BAD_THREADS)
def test_cutoff_extrapolate_rejects_bad_threads_before_solving(monkeypatch, threads):
    _forbid_solves(monkeypatch)
    with pytest.raises(ValueError, match="threads must be an int of at least 1"):
        cutoff_extrapolate(1.0, CutoffSchedule(lambdas=(1.0, 1.5, 2.0), delta=1.0, n_max=1),
                           threads=threads)


def test_sampling_order_ties_keep_input_order():
    curve = dispersion_curve(0.0, [(0, 0.5, 0), (0.5, 0, 0), (0, 0, 0)], 0.5, 1.0, 1)
    assert [s.p for s in curve.samples] == [
        (0.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.5, 0.0, 0.0),
    ]


def test_momentum_inversion_symmetry():
    curve = dispersion_curve(1.0, [(0.3, -0.2, 0.7), (-0.3, 0.2, -0.7)], 1.0, 1.5, 2)
    e1, e2 = (s.energy for s in curve.samples)
    assert abs(e1 - e2) <= 1e-9


def test_threaded_scan_is_deterministic():
    ps = [(0, 0, 0), (0, 0, 0.5), (0, 0, 1), (0.5, 0.5, 0)]
    a = dispersion_curve(1.0, ps, 1.0, 1.5, 2, threads=1)
    b = dispersion_curve(1.0, ps, 1.0, 1.5, 2, threads=2)
    assert [s.energy for s in a.samples] == [s.energy for s in b.samples]


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        dispersion_curve(0.0, [], 1.0, 1.0, 1)


def test_minimum_check_passes_on_strict_minimum():
    curve = _curve((
        _sample((0.0, 0.0, 0.0), -0.5),
        _sample((0.0, 0.0, 0.5), -0.2),
        _sample((0.0, 0.0, 1.0), 0.4),
    ))
    verdict = minimum_check(curve, margin=1e-4)
    assert verdict.passed
    assert verdict.worst_margin == pytest.approx(0.3)
    assert verdict.argmin == ((0.0, 0.0, 0.0),)
    assert verdict.argmin_unique


def test_minimum_check_fails_on_flat_curve():
    curve = _curve((
        _sample((0.0, 0.0, 0.0), 1.0),
        _sample((0.0, 0.0, 0.5), 1.0),
    ))
    verdict = minimum_check(curve, margin=1e-4)
    assert not verdict.passed
    assert verdict.worst_margin == 0.0
    assert len(verdict.argmin) == 2
    assert not verdict.argmin_unique


def test_minimum_check_fails_inside_margin():
    curve = _curve((
        _sample((0.0, 0.0, 0.0), 0.0),
        _sample((0.0, 0.0, 0.5), 5e-5),
    ))
    assert not minimum_check(curve, margin=1e-4).passed


@pytest.mark.parametrize("margin", [math.nan, -1e-4, math.inf])
def test_minimum_check_rejects_a_margin_that_voids_it(margin):
    # margin = -1e-4 used to pass this curve, whose E(P) dips below E(0)
    curve = _curve((
        _sample((0.0, 0.0, 0.0), 0.0),
        _sample((0.0, 0.0, 0.5), -5e-5),
    ))
    with pytest.raises(ValueError, match="margin must be non-negative and finite"):
        minimum_check(curve, margin=margin)


def test_minimum_check_needs_samples():
    with pytest.raises(ValueError):
        minimum_check(_curve((_sample((0.0, 0.0, 0.5), 1.0),)))  # no P = 0
    with pytest.raises(ValueError):
        minimum_check(_curve((_sample((0.0, 0.0, 0.0), 1.0),)))  # nothing else
    # the same two rules on the momenta alone, before any solve
    check_minimum_samples([(0, 0, 0.5), (0, 0, 0), (0.3, 0, 0)])
    with pytest.raises(ValueError, match="no P = 0 sample"):
        check_minimum_samples([(0, 0, 0.5), (0, 0, 1)])
    with pytest.raises(ValueError, match="at least one nonzero sample"):
        check_minimum_samples([(0, 0, 0), (0, 0, -0.0)])


def test_effective_mass_free_theory():
    rep = _mass(0.0, 1.0, 1.0, 1, h=0.1)
    assert rep.m_eff == pytest.approx(0.5, abs=1e-6)
    assert rep.curvature == pytest.approx(2.0, abs=1e-5)
    assert not rep.degenerate
    assert rep.e_zero == pytest.approx(0.0, abs=1e-9)
    assert rep.e_plus == pytest.approx(0.01, abs=1e-9)
    assert rep.e_plus == pytest.approx(rep.e_minus, abs=1e-9)


def test_effective_mass_step_consistency():
    # coupling raises the mass above 1/2; halving h moves it only at O(h^2)
    m1 = _mass(1.0, 1.0, 1.5, 2, h=0.1)
    m2 = _mass(1.0, 1.0, 1.5, 2, h=0.05)
    assert m1.m_eff == pytest.approx(MASS_H10, rel=1e-8)
    assert m2.m_eff == pytest.approx(MASS_H05, rel=1e-8)
    assert m1.m_eff > 0.5
    assert abs(m1.m_eff - m2.m_eff) <= 0.01 * m1.m_eff
    assert m1.h == 0.1


def test_effective_mass_step_validation():
    curve = _curve((_sample((0.0, 0.0, 0.0), 0.0),))
    for h in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"mass step h must lie in \(0, 1\)"):
            mass_momenta(h)
        with pytest.raises(ValueError, match=r"mass step h must lie in \(0, 1\)"):
            effective_mass(curve, h=h)


def test_effective_mass_names_a_missing_sample():
    samples = [_sample(p, 0.0) for p in mass_momenta(0.1)]
    assert effective_mass(_curve(tuple(samples)), 0.1).curvature == 0.0
    for i, p in enumerate(mass_momenta(0.1)):
        with pytest.raises(ValueError, match=re.escape(f"no sample at P = {p}")):
            effective_mass(_curve(tuple(samples[:i] + samples[i + 1:])), 0.1)
    with pytest.raises(ValueError, match=re.escape("no sample at P = (0.0, 0.0, 0.05)")):
        effective_mass(_curve(tuple(samples)), 0.05)


def test_edge_check_decoupled():
    # alpha = 0 with a mode exactly at P_far: E(P_far) = E(0) + 1 so d = 0
    rep = hvz_edge_check(0.0, 1.0, 2.5, 2, (0.0, 0.0, 2.0))
    assert rep.d == pytest.approx(0.0, abs=1e-8)
    assert rep.passed
    assert rep.e_zero == pytest.approx(0.0, abs=1e-9)
    assert rep.e_far == pytest.approx(1.0, abs=1e-8)
    assert rep.p_far == (0.0, 0.0, 2.0)


@pytest.mark.parametrize("p_far", [(0.0, 0.0, math.nan), (math.nan, 0.0, 2.0),
                                   (0.0, 0.0, math.inf)])
def test_far_momentum_must_be_finite(p_far):
    with pytest.raises(ValueError, match="must be finite"):
        far_momentum(p_far, math.inf)


def test_edge_check_preconditions():
    with pytest.raises(ValueError):
        hvz_edge_check(0.0, 1.0, 2.5, 1, (0.0, 0.0, 1.0))  # |P_far| < 2
    with pytest.raises(ValueError):
        hvz_edge_check(0.0, 1.0, 1.5, 1, (0.0, 0.0, 2.0))  # cutoff below |P_far|


@pytest.mark.parametrize("edge_tol", [math.nan, -0.1, math.inf])
def test_hvz_edge_check_rejects_an_edge_tol_that_voids_it(monkeypatch, edge_tol):
    # edge_tol = nan used to fail every curve, and inf to pass any d >= 0
    _forbid_grids(monkeypatch)
    with pytest.raises(ValueError, match="edge_tol must be non-negative and finite"):
        hvz_edge_check(0.0, 1.0, 2.5, 1, (0.0, 0.0, 2.0), edge_tol=edge_tol)


def test_fit_inverse_cutoff_recovers_exact_model():
    lams = [4.0, 6.0, 8.0, 12.0]
    energies = [-0.3 + 0.7 / x for x in lams]
    e_inf, slope, resid = fit_inverse_cutoff(lams, energies)
    assert e_inf == pytest.approx(-0.3, abs=1e-12)
    assert slope == pytest.approx(0.7, abs=1e-11)
    assert resid <= 1e-13


def test_fit_inverse_cutoff_validation():
    with pytest.raises(ValueError):
        fit_inverse_cutoff([4.0, 6.0], [-0.1, -0.2])
    with pytest.raises(ValueError):
        fit_inverse_cutoff([4.0, 6.0, 8.0], [-0.1, -0.2])


def test_extrapolation_decoupled_is_flat():
    rep = cutoff_extrapolate(
        0.0, CutoffSchedule(lambdas=(3.0, 4.0, 5.0), delta=1.0, n_max=1)
    )
    assert rep.e_inf == pytest.approx(0.0, abs=1e-8)
    assert rep.slope == pytest.approx(0.0, abs=1e-7)
    for e in rep.energies:
        assert e == pytest.approx(0.0, abs=1e-9)


def test_extrapolation_tracks_tail_rate():
    # the 1/Lambda fit leaves a sub-percent residual once the tail dominates
    rep = cutoff_extrapolate(
        0.5,
        CutoffSchedule(lambdas=(4.0, 6.0, 8.0, 12.0, 16.0), delta=0.5, n_max=1),
        threads=2,
    )
    assert all(b < a for a, b in zip(rep.energies, rep.energies[1:]))
    assert rep.e_inf == pytest.approx(EXTRAP_E_INF, rel=1e-9)
    assert rep.slope == pytest.approx(EXTRAP_SLOPE, rel=1e-8)
    assert rep.fit_residual <= 0.02 * abs(rep.e_inf)
    assert all(r <= 1e-9 for r in rep.solver_residuals)
    assert len(rep.solver_iterations) == 5


def test_extrapolation_builds_one_grid(monkeypatch):
    built = []

    def counting_build_grid(delta, lam):
        built.append(lam)
        return build_grid(delta, lam)

    monkeypatch.setattr("polaronlab.dispersion.build_grid", counting_build_grid)
    rep = cutoff_extrapolate(0.1, CutoffSchedule(lambdas=(1.0, 2.0, 3.0), delta=0.5, n_max=1))
    assert built == [3.0]
    assert len(rep.energies) == 3


def _count_families(monkeypatch):
    """Record the mode count of every FiberFamily built, by whichever route."""
    built = []
    init = FiberFamily.__init__

    def counting(self, alpha, grid, basis):
        built.append(len(grid))
        init(self, alpha, grid, basis)

    monkeypatch.setattr(FiberFamily, "__init__", counting)
    return built


def test_n_max_3_pipelines_build_one_family_per_grid(monkeypatch):
    built = _count_families(monkeypatch)
    curve = dispersion_curve(1.0, [(0, 0, 0), (0, 0, 0.1), (0, 0, -0.1)], 1.0, 1.5, 3)
    mass = effective_mass(curve, 0.1)
    assert len(built) == 1
    del built[:]
    cutoff_extrapolate(0.5, CutoffSchedule(lambdas=(1.0, 1.5, 2.0), delta=1.0, n_max=3))
    assert sorted(built) == [len(build_grid(1.0, lam)) for lam in (1.0, 1.5, 2.0)]
    # the three mass points are the curve's energies, each at its own momentum
    energies = {s.p[2]: s.energy for s in curve.samples}
    assert (mass.e_zero, mass.e_plus, mass.e_minus) == (
        energies[0.0], energies[0.1], energies[-0.1])


def test_n_max_2_pipelines_assemble_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an N_max = 2 pipeline built a basis, a fiber or a solve")

    for name in ("enumerate_basis", "assemble_fiber", "FiberFamily", "ground_state"):
        monkeypatch.setattr(polaronlab.dispersion, name, forbidden)
    curve = dispersion_curve(1.0, [(0, 0, 0), (0, 0, 0.1), (0, 0, -0.1)], 1.0, 1.5, 2,
                             threads=2)
    mass = effective_mass(curve, 0.1)
    energies = {s.p[2]: s.energy for s in curve.samples}
    assert (mass.e_zero, mass.e_plus, mass.e_minus) == (
        energies[0.0], energies[0.1], energies[-0.1])
    rep = cutoff_extrapolate(0.5, CutoffSchedule(lambdas=(1.5, 2.0, 2.5), delta=1.0, n_max=2))
    assert all(r <= 1e-12 for r in rep.solver_residuals)


def test_n_max_2_curve_depends_on_neither_seed_nor_threads():
    ps = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 1.0), (0.3, -0.7, 1.1)]
    ref = dispersion_curve(1.0, ps, 1.0, 2.0, 2)
    for seed, threads in ((1, 1), (7, 2), (42, 4)):
        assert dispersion_curve(1.0, ps, 1.0, 2.0, 2, seed=seed, threads=threads) == ref


def test_n_max_2_falls_back_to_lobpcg_where_the_pair_route_declines(monkeypatch):
    # at P = 4 e_z two phonons of momentum 2 e_z cost 2, below the N_max = 1
    # root near 5, so the pair route declines and that sample alone goes to
    # LOBPCG, on the one family built for it
    built = _count_families(monkeypatch)
    ps = [(0.0, 0.0, 0.0), (0.0, 0.0, 4.0)]
    curve = dispersion_curve(1.0, ps, 1.0, 2.0, 2)
    assert built == [len(build_grid(1.0, 2.0))]
    grid = build_grid(1.0, 2.0)
    basis = enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    for s in curve.samples:
        op = assemble_fiber(FiberConfig(alpha=1.0, p=np.asarray(s.p), grid=grid, n_max=2), basis)
        assert s.energy == pytest.approx(dense_spectrum(op, k=1)[0], abs=1e-10)
    newton, matvecs = (s.iterations for s in curve.samples)
    assert newton <= 10 < matvecs


def test_extrapolation_needs_three_cutoffs():
    with pytest.raises(ValueError):
        cutoff_extrapolate(
            0.0, CutoffSchedule(lambdas=(3.0, 4.0), delta=1.0, n_max=1)
        )


def _rising_energies():
    """A fake solver whose energies rise along the schedule: -0.5, -0.4, -0.3."""
    def fake(*args, **kwargs):
        fake.calls += 1
        return SpectralResult(
            energy={1: -0.5, 2: -0.4, 3: -0.3}[fake.calls],
            vector=np.zeros(1), residual=0.0, iterations=1,
        )

    fake.calls = 0
    return fake


def test_extrapolation_rejects_energy_increase(monkeypatch):
    # corrupted solves must abort the fit, not feed it; at N_max = 1 the
    # energies come from the secular equation
    fake = _rising_energies()
    monkeypatch.setattr("polaronlab.operators._secular_ground", fake)
    with pytest.raises(NumericalError):
        cutoff_extrapolate(
            0.0, CutoffSchedule(lambdas=(3.0, 4.0, 5.0), delta=1.0, n_max=1)
        )
    assert fake.calls == 3


def test_extrapolation_rejects_energy_increase_from_the_eigensolver(monkeypatch):
    fake = _rising_energies()
    monkeypatch.setattr("polaronlab.dispersion.ground_state", fake)
    with pytest.raises(NumericalError):
        cutoff_extrapolate(
            0.0, CutoffSchedule(lambdas=(1.0, 1.5, 2.0), delta=1.0, n_max=3)
        )
    assert fake.calls == 3


# -- the N_max = 1 route: the secular equation ---------------------------------

SECULAR_MOMENTA = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 1.0), (0.0, 0.0, 2.5),
                   (0.3, -0.7, 1.1)]
U = 2.0**-53


def _one_phonon_fiber(alpha, p, grid):
    """The assembled N_max = 1 fiber and the mode of each one-phonon state."""
    basis = enumerate_basis(len(grid), 1, grid.units, grid.spacing)
    cfg = FiberConfig(alpha=alpha, p=np.asarray(p, dtype=np.float64), grid=grid, n_max=1)
    return assemble_fiber(cfg, basis), basis.block(1)[:, 0]


def _exact_secular(alpha, op, modes, grid, e):
    """(f(e), |e| + P^2 + alpha sum_k t_k) in 60-digit decimals, from the fiber's diagonal."""
    diag = op.diagonal()
    with localcontext() as ctx:
        ctx.prec = 60
        x, p2 = Decimal(e), Decimal(diag[0])
        terms = sum(Decimal(grid.couplings[k]) ** 2 / (Decimal(dk) - x)
                    for k, dk in zip(modes, diag[1:]))
        at = Decimal(alpha) * terms
        return x - p2 + at, abs(x) + p2 + at


def _assert_certified(alpha, p, grid):
    """The secular result against the dense spectrum and its bracket against
    decimal arithmetic.  Each end's sign is proven by
    |f^| > c u S with c = ceil(log2 M) + 8, while the rounding of f^ is at
    most (ceil(log2 M) + 6) u S, so the exact f clears 2 u S there."""
    op, modes = _one_phonon_fiber(alpha, p, grid)
    r = _secular_ground(alpha, p, grid)
    lo, hi = r.bracket
    assert lo <= r.energy <= hi
    assert r.energy == pytest.approx(dense_spectrum(op, k=1)[0], abs=1e-12)
    if alpha == 0.0 or grid.is_empty:
        assert lo == r.energy == hi == op.diagonal().min()
        return r
    f_lo, scale = _exact_secular(alpha, op, modes, grid, lo)
    assert f_lo < 0 and -f_lo > 2 * Decimal(U) * scale
    if hi < op.diagonal()[1:].min():
        f_hi, scale = _exact_secular(alpha, op, modes, grid, hi)
        assert f_hi > 0 and f_hi > 2 * Decimal(U) * scale
    return r


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("p", SECULAR_MOMENTA)
def test_secular_root_matches_dense_spectrum_inside_its_bracket(alpha, p):
    r = _assert_certified(alpha, p, build_grid(1.0, 2.0))
    assert r.residual <= 1e-13


def test_secular_free_edge_and_empty_grid():
    # alpha = 0 with P^2 >= min D: the edge min D itself, on a one-phonon state
    grid = build_grid(1.0, 2.0)
    r = _assert_certified(0.0, (0.0, 0.0, 2.5), grid)
    assert r.energy == 1.25 and r.vector[0] == 0.0 and r.iterations == 0
    # no modes: only the vacuum, at P^2
    r = _assert_certified(1.0, (0.0, 0.0, 0.5), build_grid(1.0, 0.5))
    assert r.energy == 0.25 and r.vector.tolist() == [1.0]


def test_secular_bracket_survives_cancellation():
    # P^2 = 100 cancels against alpha sum t_k near E = 0 while f' is about 1.1:
    # the rounding bound on f there is of order 1e-13, far above 4 u max(1, |E|)
    units = [[0, 0, -21], [1, 0, -21], [0, 1, -21], [-1, 0, -21], [0, -1, -21]]
    couplings = np.sqrt(np.array([962.0, 963.0, 963.0, 963.0, 963.0]) * 20.0)
    grid = ModeGrid.manual(1.0, 30.0, units, couplings)
    r = _assert_certified(1.0, (0.0, 0.0, 10.0), grid)
    assert abs(r.energy) < 0.1
    assert r.bracket[1] - r.bracket[0] > 1e-14


def test_secular_matches_lobpcg_on_the_quick_schedule():
    # the quick extrapolation: delta 0.4, Lambda 4, 6, 8, up to 33,401 states
    largest = build_grid(0.4, 8.0)
    for lam in (4.0, 6.0, 8.0):
        grid = largest.within(lam)
        op, _ = _one_phonon_fiber(0.1, np.zeros(3), grid)
        r = _secular_ground(0.1, np.zeros(3), grid)
        assert r.energy == pytest.approx(ground_state(op).energy, abs=1e-12)
        assert r.bracket[0] <= r.energy <= r.bracket[1]
        recomputed = np.linalg.norm(op.matvec(r.vector) - r.energy * r.vector)
        assert r.residual == pytest.approx(recomputed, abs=1e-14)
        assert r.iterations > 0


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
def test_secular_residual_matches_the_matvec(alpha):
    grid = build_grid(1.0, 2.0)
    for p in SECULAR_MOMENTA:
        op, _ = _one_phonon_fiber(alpha, p, grid)
        r = _secular_ground(alpha, p, grid)
        assert np.linalg.norm(r.vector) == pytest.approx(1.0, abs=1e-15)
        recomputed = np.linalg.norm(op.matvec(r.vector) - r.energy * r.vector)
        assert r.residual == pytest.approx(recomputed, abs=1e-14)


@pytest.mark.parametrize("poison", ["coupling", "momentum", "kinetic"])
def test_secular_rejects_non_finite_input(poison, monkeypatch):
    grid = build_grid(1.0, 2.0)
    p = np.zeros(3)
    if poison == "coupling":
        grid.couplings[3] = np.nan
    elif poison == "momentum":
        p[1] = np.inf
    else:
        kinetic = polaronlab.operators._kinetic

        def poisoned(*args):
            d = kinetic(*args)
            d[-1] = np.nan
            return d

        monkeypatch.setattr(polaronlab.operators, "_kinetic", poisoned)
    with pytest.raises(NumericalError, match="non-finite"):
        _secular_ground(0.5, p, grid)


def test_secular_bracket_respects_tol():
    # the first bracket, 4 u max(1, |E|) either side of E, is already wider
    # than 1e-17
    with pytest.raises(NumericalError, match="no secular bracket within 1e-17"):
        _secular_ground(1.0, np.zeros(3), build_grid(1.0, 2.0), tol=1e-17)


def test_n_max_0_curve_is_the_free_vacuum():
    # one state per fiber, the vacuum at P^2: N_max = 0 goes to LOBPCG, and
    # no N_max = 1 root stands in for it
    curve = dispersion_curve(1.0, [(0, 0, 0), (0, 0, 0.5), (0, 0, 1.5)], 1.0, 2.0, 0)
    assert [s.energy for s in curve.samples] == [0.0, 0.25, 2.25]


def test_n_max_1_pipelines_assemble_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an N_max = 1 pipeline built a basis, a fiber or a solve")

    for name in ("enumerate_basis", "assemble_fiber", "FiberFamily", "ground_state"):
        monkeypatch.setattr(polaronlab.dispersion, name, forbidden)
    curve = dispersion_curve(0.1, [(0, 0, 0), (0, 0, 0.5)], 1.0, 2.0, 1, threads=2)
    assert curve.samples[0].energy < 0.0 < curve.samples[1].energy
    assert _mass(0.1, 1.0, 2.0, 1).m_eff > 0.5
    rep = cutoff_extrapolate(0.1, CutoffSchedule(lambdas=(1.0, 1.5, 2.0), delta=1.0, n_max=1))
    assert rep.energies[-1] == curve.samples[0].energy
