"""Dispersion scans, effective mass, minimum/edge checks, cutoff extrapolation."""

import math

import numpy as np
import pytest

from polaronlab import (
    CutoffSchedule,
    DispersionCurve,
    DispersionSample,
    NumericalError,
    SpectralResult,
    build_grid,
    cutoff_extrapolate,
    dispersion_curve,
    effective_mass,
    fit_inverse_cutoff,
    hvz_edge_check,
    minimum_check,
)

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


def test_minimum_check_needs_samples():
    with pytest.raises(ValueError):
        minimum_check(_curve((_sample((0.0, 0.0, 0.5), 1.0),)))  # no P = 0
    with pytest.raises(ValueError):
        minimum_check(_curve((_sample((0.0, 0.0, 0.0), 1.0),)))  # nothing else


def test_effective_mass_free_theory():
    rep = effective_mass(0.0, 1.0, 1.0, 1, h=0.1)
    assert rep.m_eff == pytest.approx(0.5, abs=1e-6)
    assert rep.curvature == pytest.approx(2.0, abs=1e-5)
    assert not rep.degenerate
    assert rep.e_zero == pytest.approx(0.0, abs=1e-9)
    assert rep.e_plus == pytest.approx(0.01, abs=1e-9)
    assert rep.e_plus == pytest.approx(rep.e_minus, abs=1e-9)


def test_effective_mass_step_consistency():
    # coupling raises the mass above 1/2; halving h moves it only at O(h^2)
    m1 = effective_mass(1.0, 1.0, 1.5, 2, h=0.1)
    m2 = effective_mass(1.0, 1.0, 1.5, 2, h=0.05)
    assert m1.m_eff == pytest.approx(MASS_H10, rel=1e-8)
    assert m2.m_eff == pytest.approx(MASS_H05, rel=1e-8)
    assert m1.m_eff > 0.5
    assert abs(m1.m_eff - m2.m_eff) <= 0.01 * m1.m_eff
    assert m1.h == 0.1


def test_effective_mass_step_validation():
    with pytest.raises(ValueError):
        effective_mass(0.0, 1.0, 1.0, 1, h=0.0)
    with pytest.raises(ValueError):
        effective_mass(0.0, 1.0, 1.0, 1, h=1.0)


def test_edge_check_decoupled():
    # alpha = 0 with a mode exactly at P_far: E(P_far) = E(0) + 1 so d = 0
    rep = hvz_edge_check(0.0, 1.0, 2.5, 2, (0.0, 0.0, 2.0))
    assert rep.d == pytest.approx(0.0, abs=1e-8)
    assert rep.passed
    assert rep.e_zero == pytest.approx(0.0, abs=1e-9)
    assert rep.e_far == pytest.approx(1.0, abs=1e-8)
    assert rep.p_far == (0.0, 0.0, 2.0)


def test_edge_check_preconditions():
    with pytest.raises(ValueError):
        hvz_edge_check(0.0, 1.0, 2.5, 1, (0.0, 0.0, 1.0))  # |P_far| < 2
    with pytest.raises(ValueError):
        hvz_edge_check(0.0, 1.0, 1.5, 1, (0.0, 0.0, 2.0))  # cutoff below |P_far|


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


def test_extrapolation_needs_three_cutoffs():
    with pytest.raises(ValueError):
        cutoff_extrapolate(
            0.0, CutoffSchedule(lambdas=(3.0, 4.0), delta=1.0, n_max=1)
        )


def test_extrapolation_rejects_energy_increase(monkeypatch):
    # corrupted solves must abort the fit, not feed it
    def fake_ground_state(op, tol, seed):
        fake_ground_state.calls += 1
        e = {1: -0.5, 2: -0.4, 3: -0.3}[fake_ground_state.calls]
        return SpectralResult(
            energy=e, vector=np.zeros(op.dimension), residual=0.0,
            iterations=1, converged=True,
        )

    fake_ground_state.calls = 0
    monkeypatch.setattr("polaronlab.dispersion.ground_state", fake_ground_state)
    with pytest.raises(NumericalError):
        cutoff_extrapolate(
            0.0, CutoffSchedule(lambdas=(3.0, 4.0, 5.0), delta=1.0, n_max=1)
        )
