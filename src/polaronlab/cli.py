"""Command-line entry point: parse config, run pipelines, write CSV/JSON.

Commands: dispersion, checks, extrapolate, torus, kernel.  Configuration is a
flat `key = value` text file plus `--key` flags that override it.  Each
command's parameter table (COMMANDS) alone decides which config keys and
which flags it takes; main reads both through it once (read_params), so
every key is parsed and checked, and each config object built, before the
first solve.  A command returns its verdict and its files; main writes the
files and maps the verdict to the exit code, so every command shares one
input path and one output path.
Outputs are CSV (header row, LF, UTF-8, 17 significant digits) and JSON (one
object per file, sorted keys).  Runs are deterministic: same config + seed
means byte-identical bytes on disk, for any OPENBLAS_NUM_THREADS, since main
runs its BLAS and LAPACK work on one thread (solve._one_blas_thread).

Exit codes: 0 all gated checks pass, 1 a gated check failed, 2 numerical
failure (solver, capacity, monotonicity), 3 configuration error.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import dispersion as _disp
from . import torus as _torus
from .errors import CapacityError, ConfigError, ConvergenceError, NumericalError
from .fock import basis_dimension, enumerate_basis
from .modes import CutoffSchedule, ModeGrid, build_grid
from .operators import (
    FiberConfig,
    assemble_KT,
    assemble_fiber,
    neumann_constant,
    neumann_norms,
    sign_flip,
    weighted_annihilation_norm,
)
from .solve import (DEFAULT_SEED, DEFAULT_TOL, _one_blas_thread, dense_spectrum,
                    resolvent_positivity_audit)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3

NORM_BOUND_THRESHOLD = 0.3536 * 1.05
FARIS_TOL = 1e-10
GAP_TOL = 1e-6
DEGENERACY_MATCH_TOL = 1e-10
TOL_MAX = 1e-6  # a looser solver tolerance would certify a bare start vector


# -- config handling --------------------------------------------------------

def read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment; duplicate keys rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{text}'")
        key, value = text.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def _number(key, tok):
    """float(tok), or ConfigError naming the parameter unless it is finite."""
    try:
        val = float(tok)
    except (TypeError, ValueError):
        raise ConfigError(f"parameter '{key}': cannot parse '{tok}' as a number")
    if not math.isfinite(val):
        raise ConfigError(f"parameter '{key}' must be finite, got {val}")
    return val


def _parse(key, kind, raw):
    """`raw` as a `kind`: "int", "float", "floats", "vec3" (three floats) or
    "fibers" (';'-separated triples); every number must be finite."""
    if kind == "int":
        try:
            return int(raw, 10)
        except ValueError:
            raise ConfigError(f"parameter '{key}': cannot parse '{raw}' as an integer")
    if kind == "float":
        return _number(key, raw)
    if kind == "fibers":
        parts = [part.split(",") for part in raw.split(";") if part.strip()]
        if not parts:
            raise ConfigError(f"parameter '{key}' must list at least one fiber")
        if any(len(toks) != 3 for toks in parts):
            raise ConfigError(f"parameter '{key}': each fiber needs three components")
        return tuple(tuple(_number(key, t) for t in toks) for toks in parts)
    vals = tuple(_number(key, tok) for tok in raw.split(",") if tok.strip())
    if not vals:
        raise ConfigError(f"parameter '{key}' must contain at least one number")
    if kind == "vec3" and len(vals) != 3:
        raise ConfigError(f"parameter '{key}' must be three comma-separated numbers")
    return vals


# A parameter table maps key -> (kind, default, bound); bound is "positive",
# "nonnegative", an integer minimum or None.
_COMMON = {"seed": ("int", DEFAULT_SEED, 0), "threads": ("int", 1, 1),
           "tol": ("float", DEFAULT_TOL, "positive")}


def _problem(alpha, delta, lam, nmax):
    """The table of one fiber problem: coupling, spacing, cutoff, truncation."""
    return {"alpha": ("float", alpha, "nonnegative"), "delta": ("float", delta, "positive"),
            "lambda": ("float", lam, "positive"), "nmax": ("int", nmax, 0)}


# each --key flag sets config key `key`, on a command whose table has it
_FLAGS = ("alpha", "delta", "lambda", "nmax", "tol", "seed", "threads")


def read_params(values: dict, args, specs: dict) -> dict:
    """Every key of the table `specs`, read from `values` and the flags in
    `args`, and checked.

    A flag overrides its config key; a flag or a config key the table lacks
    is rejected.  Every number read from a config file or a flag must be
    finite and within its bound, and `tol` at most TOL_MAX.  A default is
    taken as it stands: only a default (extrapolate's NaN target, meaning
    ungated) may be NaN.
    """
    flags = {key: getattr(args, key) for key in _FLAGS if getattr(args, key) is not None}
    values = {**values, **flags}
    for key in values:
        if key not in specs and f"{key}_values" in specs:  # extrapolate's cutoffs
            raise ConfigError(f"parameter '{key}' does not apply here; use '{key}_values'")
    for key in flags:
        if key not in specs:  # checks reads its keys as <check>_<key>
            hint = ("; use the per-check config keys instead"
                    if any(k.endswith("_" + key) for k in specs) else "")
            raise ConfigError(f"--{key} does not apply to '{args.command}'{hint}")
    unknown = sorted(set(values) - set(specs))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    out = {}
    for key, (kind, default, bound) in specs.items():
        if key not in values:
            out[key] = default
            continue
        val = out[key] = _parse(key, kind, values[key])
        if bound == "positive" and not val > 0.0:
            raise ConfigError(f"parameter '{key}' must be positive, got {val}")
        if bound == "nonnegative" and val < 0.0:
            raise ConfigError(f"parameter '{key}' must be non-negative, got {val}")
        if isinstance(bound, int) and val < bound:
            raise ConfigError(f"parameter '{key}' must be >= {bound}, got {val}")
    if out["tol"] > TOL_MAX:
        raise ConfigError(f"parameter 'tol' must be at most {TOL_MAX:g}, got {out['tol']}")
    return out


# -- output helpers ----------------------------------------------------------

def fmt17(x) -> str:
    """Full round-trip decimal form, 17 significant digits."""
    return format(float(x), ".17g")


def _plain(obj):
    """Make an object json-serializable with deterministic content."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# -- commands ----------------------------------------------------------------
# Each command maps its parameters, read through its table in COMMANDS, to
# (passed, outputs): whether its gated checks passed, and {file name: JSON
# object, or (header, rows) for a .csv}, written by main in that order.

_DISPERSION = {**_COMMON, **_problem(1.0, 0.75, 3.0, 2),
               "p_values": ("floats", (0.0, 0.5, 1.0, 1.5, 2.0), None),
               "margin": ("float", _disp.DEFAULT_MARGIN, "positive"),
               "mass_step": ("float", _disp.DEFAULT_MASS_STEP, "positive")}


def cmd_dispersion(c: dict):
    p_values = c["p_values"]
    ps = [(0.0, 0.0, t) for t in p_values]
    # every sample rule raises before the one solve, which adds the mass momenta
    extra = [p for p in _disp.mass_momenta(c["mass_step"]) if p not in ps]
    _disp.check_minimum_samples(ps)
    for i, t in enumerate(p_values):
        first = p_values.index(t)  # == compares, so -0.0 repeats 0.0
        if first < i:  # a repeat would be solved and written twice
            raise ConfigError(f"parameter 'p_values' repeats momentum {p_values[first]}")
    solved = _disp.dispersion_curve(c["alpha"], ps + extra, c["delta"], c["lambda"], c["nmax"],
                                    tol=c["tol"], seed=c["seed"], threads=c["threads"])
    mass = _disp.effective_mass(solved, c["mass_step"])
    curve = dataclasses.replace(solved, samples=tuple(s for s in solved.samples if s.p in ps))
    verdict = _disp.minimum_check(curve, margin=c["margin"])

    parabola = []
    for s in curve.samples:
        if 0.0 < s.pnorm <= 0.5 and not mass.degenerate:
            bound = curve.at_zero().energy + s.pnorm**2 / (2.0 * mass.m_eff)
            parabola.append({
                "pnorm": s.pnorm,
                "energy": s.energy,
                "bound": bound,
                "satisfied": bool(s.energy <= bound + 1e-12),
            })

    rows = [
        [fmt17(curve.alpha), fmt17(s.p[0]), fmt17(s.p[1]), fmt17(s.p[2]),
         fmt17(s.pnorm), fmt17(curve.cutoff), fmt17(curve.delta),
         str(curve.n_max), fmt17(s.energy), fmt17(s.residual), str(s.iterations)]
        for s in curve.samples
    ]
    return verdict.passed, {
        "dispersion.csv": (["alpha", "Px", "Py", "Pz", "Pnorm", "Lambda", "delta", "Nmax",
                            "energy", "residual", "iterations"], rows),
        "verdict.json": {
            "minimum": {**dataclasses.asdict(verdict), "gating": True},
            "mass": {**dataclasses.asdict(mass), "gating": False},
            "parabola": {"gating": False, "samples": parabola},
            "passed": verdict.passed,
        },
    }


# a cutoff schedule's problem: its cutoffs are a list of their own
_SCHEDULE = {k: v for k, v in _problem(0.1, 0.4, None, 1).items() if k != "lambda"}
# the keys echoed in extrapolation.json (a NaN target, ungated, as null)
_EXTRAPOLATE = {**_SCHEDULE, "p": ("vec3", (0.0, 0.0, 0.0), None),
                "target": ("float", math.nan, None), "target_rtol": ("float", 0.1, "positive")}


def _extrapolation(alpha, schedule, target, rtol, p, tol, seed, threads):
    """(report, measured, passed) of cutoff_extrapolate on `schedule` at `p`.

    The gate is |e_inf - target| <= rtol |target|; a NaN target is ungated:
    it passes, with deviation None.  `measured` holds the fit and the
    deviation as extrapolation.json and the extrapolation check report them.
    """
    report = _disp.cutoff_extrapolate(alpha, schedule, p=p, tol=tol, seed=seed,
                                      threads=threads)
    deviation = None if math.isnan(target) else abs(report.e_inf - target)
    measured = {
        "lambdas": list(report.lambdas),
        "energies": list(report.energies),
        "e_inf": report.e_inf,
        "slope": report.slope,
        "fit_residual": report.fit_residual,
        "deviation": deviation,
    }
    return report, measured, deviation is None or bool(deviation <= rtol * abs(target))


def cmd_extrapolate(c: dict):
    schedule = CutoffSchedule(lambdas=c["lambda_values"], delta=c["delta"], n_max=c["nmax"])
    report, measured, passed = _extrapolation(c["alpha"], schedule, c["target"],
                                              c["target_rtol"], c["p"], c["tol"],
                                              c["seed"], c["threads"])
    rows = [
        [fmt17(lam), fmt17(e), fmt17(r), str(it)]
        for lam, e, r, it in zip(report.lambdas, report.energies,
                                 report.solver_residuals, report.solver_iterations)
    ]
    return passed, {
        "extrapolation.csv": (["Lambda", "energy", "residual", "iterations"], rows),
        "extrapolation.json": {**{key: c[key] for key in _EXTRAPOLATE}, **measured,
                               "gating": measured["deviation"] is not None, "passed": passed},
    }


_TORUS_MODEL = {**_problem(1.0, 1.0, 2.0, 2), "ell": ("float", 2.0 * math.pi, "positive"),
                "fiber_cutoff": ("float", 1.0, "positive"),
                "degeneracy_tol": ("float", _torus.DEFAULT_DEGENERACY_TOL, "positive")}
_TORUS = {**_COMMON, **_TORUS_MODEL, "fibers": ("fibers", None, None)}


def _torus_config(c, fibers) -> _torus.TorusConfig:
    """The torus model of the _TORUS_MODEL keys in `c`, over `fibers`."""
    return _torus.TorusConfig(
        ell=c["ell"], alpha=c["alpha"], delta=c["delta"], cutoff=c["lambda"],
        n_max=c["nmax"], fiber_cutoff=c["fiber_cutoff"],
        degeneracy_tol=c["degeneracy_tol"], fibers=fibers,
    )


def cmd_torus(c: dict):
    tcfg = _torus_config(c, c["fibers"])
    model = _torus.assemble_torus(tcfg)
    report = _torus.degeneracy_analysis(model, tol=c["tol"], seed=c["seed"],
                                        threads=c["threads"])
    branch, consistent = _torus.contradiction_check(report)

    rows = [
        [fmt17(p[0]), fmt17(p[1]), fmt17(p[2]), fmt17(e)]
        for p, e in report.fiber_energies
    ]
    return consistent, {
        "torus.csv": (["Px", "Py", "Pz", "energy"], rows),
        "torus.json": {
            "ell": tcfg.ell,
            "alpha": tcfg.alpha,
            "fiber_count": len(model.fibers),
            "fiber_dimension": basis_dimension(len(model.grid), tcfg.n_max),
            "ground_energy": report.ground_energy,
            "argmin": [list(p) for p in report.argmin],
            "multiplicity": report.multiplicity,
            "degeneracy_tol": report.degeneracy_tol,
            "mechanism": {"branch": branch, "consistent": consistent, "gating": True},
            "passed": consistent,
        },
    }


# the kernel's own keys, echoed in kernel.json
_KERNEL = {"ell": ("float", 2.0 * math.pi, "positive"), "mass": ("float", 1.0, None),
           "x": ("vec3", (1.0, 0.0, 0.0), None), "xprime": ("vec3", (0.0, 0.0, 0.0), None),
           "image_cut": ("int", 1, 1)}


def cmd_kernel(c: dict):
    ell, mass, x, xp, image_cut = c["ell"], c["mass"], c["x"], c["xprime"], c["image_cut"]

    value = _torus.periodized_yukawa(x, xp, ell, mass=mass, image_cut=image_cut)
    conv_value, conv_cut = _torus._yukawa_settle(x, xp, ell, mass, image_cut, value)
    passed = bool(value > 0.0)
    return passed, {"kernel.json": {
        **{key: c[key] for key in _KERNEL},
        "value": value,
        "converged_value": conv_value,
        "converged_cut": conv_cut,
        "positive": passed,
        "passed": passed,
    }}


# -- the checks command ------------------------------------------------------

def _entry(name, passed, threshold, measured) -> dict:
    """One gating entry of checks.json."""
    return {"name": name, "gating": True, "passed": bool(passed), "threshold": threshold,
            "measured": measured}


def _kt_suite_instances():
    """Small instances for the factorization identity, incl. the 2x2 closed form.

    Yields (name, alpha, grid, basis); the alphas of one (delta, Lambda,
    N_max) share a grid and basis.
    """
    grid = ModeGrid.manual(1.0, 1.0, [[0, 0, 1]], [1.0])
    yield "single-mode-2x2", 1.0, grid, enumerate_basis(1, 1, grid.units, grid.spacing)
    for delta, lam, n_max in ((1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 1.5, 1)):
        grid = build_grid(delta, lam)
        basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
        for alpha in (0.0, 0.5, 1.0):
            yield f"grid-d{delta}-L{lam}-n{n_max}-a{alpha}", alpha, grid, basis


def _check_kt_identity() -> dict:
    worst = 0.0
    min_eig = math.inf
    count = 0
    for name, alpha, grid, basis in _kt_suite_instances():
        fcfg = FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=basis.n_max)
        op = assemble_fiber(fcfg, basis)
        k_mat, t_mat = assemble_KT(fcfg, basis)
        h_plus = op.to_dense() + np.eye(basis.dimension)
        dev = float(np.max(np.abs(k_mat + t_mat - h_plus)))
        eig = float(np.linalg.eigvalsh(k_mat)[0])
        # max(0.0, nan) is 0.0, so a NaN must be caught before the fold
        if not (math.isfinite(dev) and math.isfinite(eig)):
            raise NumericalError(f"K + T identity on {name} is not finite")
        worst = max(worst, dev)
        min_eig = min(min_eig, eig)
        count += 1
    return _entry("kt_identity", worst <= 1e-10 and min_eig > 0.0,
                  {"max_deviation": 1e-10, "k_min_eigenvalue": 0.0},
                  {"max_deviation": worst, "k_min_eigenvalue": min_eig, "instances": count})


def _fiber_problem(c):
    """The P = 0 fiber config of c's problem, and its grid's basis."""
    grid = build_grid(c["delta"], c["lambda"])
    basis = enumerate_basis(len(grid), c["nmax"], grid.units, grid.spacing)
    return FiberConfig(alpha=c["alpha"], p=np.zeros(3), grid=grid, n_max=c["nmax"]), basis


def _check_norm_bound(c, seed: int) -> dict:
    fcfg, basis = _fiber_problem(c)
    norm = weighted_annihilation_norm(fcfg, basis, seed=seed)
    return _entry("norm_bound", norm <= NORM_BOUND_THRESHOLD, NORM_BOUND_THRESHOLD,
                  {"norm": norm, "delta": c["delta"], "lambda": c["lambda"],
                   "nmax": c["nmax"], "dimension": basis.dimension})


def _check_neumann_decay(c, seed: int) -> dict:
    n_max = c["nmax"]
    j_max = n_max + 1 if c["jmax"] is None else c["jmax"]
    fcfg, basis = _fiber_problem(c)
    s = neumann_norms(fcfg, basis, j_max, seed=seed)
    c_meas = neumann_constant(fcfg, basis, seed=seed)
    bounds, ok = [], True
    for j in range(1, j_max + 1):
        if j <= n_max:
            bound = c_meas**j / math.gamma(j + 1) ** 0.25
            bounds.append(bound)
            ok = ok and s[j - 1] <= bound * (1.0 + 1e-10)
        else:
            bounds.append(0.0)
            ok = ok and s[j - 1] <= 1e-12
    return _entry("neumann_decay", ok, {"bounds": bounds, "nilpotent_above": n_max},
                  {"s": list(map(float, s)), "c_meas": c_meas, "dimension": basis.dimension})


def _check_positivity(c) -> list:
    """The positivity check at c's alpha and its decoupled note at alpha = 0,
    on one grid and basis."""
    fcfg, basis = _fiber_problem(c)
    audits = []
    for alpha in (c["alpha"], 0.0):
        op = assemble_fiber(dataclasses.replace(fcfg, alpha=alpha), basis)
        e0 = float(dense_spectrum(op, k=1)[0])
        r = resolvent_positivity_audit(sign_flip(op), 1.0 - e0)
        audits.append((r, {"lam": r.lam, "min_entry": r.min_entry, "e0": e0,
                           "strictly_positive": r.strictly_positive,
                           "dimension": basis.dimension}))
    (report, measured), (_, free) = audits
    faris = max(0.0, -report.ground_vector_min)
    measured.update(ground_vector_min=report.ground_vector_min, gap=report.gap,
                    faris_defect=faris)
    passed = (report.strictly_positive and report.ground_vector_min > 0.0
              and report.gap > GAP_TOL and faris <= FARIS_TOL)
    return [
        _entry("positivity", passed, {"gap": GAP_TOL, "faris": FARIS_TOL}, measured),
        {"name": "positivity_alpha0", "gating": False, "passed": None,
         "note": "not improving (decoupled)", "threshold": None, "measured": free},
    ]


def _check_hvz(c, seed: int, tol: float) -> dict:
    report = _disp.hvz_edge_check(c["alpha"], c["delta"], c["lambda"], c["nmax"], c["pfar"],
                                  edge_tol=c["edge_tol"], tol=tol, seed=seed)
    return _entry("hvz_edge", report.passed, {"lower": 0.0, "upper": report.edge_tol},
                  {"d": report.d, "e_zero": report.e_zero, "e_far": report.e_far,
                   "p_far": list(report.p_far)})


def _check_torus(full_cfg, restr_cfg, seed: int, tol: float, threads: int) -> list:
    q, minus_q = restr_cfg.fibers
    full = _torus.degeneracy_analysis(_torus.assemble_torus(full_cfg),
                                      tol=tol, seed=seed, threads=threads)
    zero_simple = _torus.contradiction_check(full) == ("simple-zero-minimum", True)

    restr_model = _torus.assemble_torus(restr_cfg)
    restr = _torus.degeneracy_analysis(restr_model, tol=tol, seed=seed, threads=threads)
    e_by_fiber = dict(restr.fiber_energies)
    mismatch = abs(e_by_fiber[q] - e_by_fiber[minus_q])
    restr_ok = restr.multiplicity == 2 and mismatch <= DEGENERACY_MATCH_TOL

    return [
        _entry("torus_degeneracy", zero_simple,
               {"argmin": [[0.0, 0.0, 0.0]], "multiplicity": 1},
               {
                   "ground_energy": full.ground_energy,
                   "argmin": [list(p) for p in full.argmin],
                   "multiplicity": full.multiplicity,
                   "fibers": len(full.fiber_energies),
               }),
        _entry("torus_restricted", restr_ok,
               {"multiplicity": 2, "pair_mismatch": DEGENERACY_MATCH_TOL},
               {
                   "ground_energy": restr.ground_energy,
                   "multiplicity": restr.multiplicity,
                   "pair_mismatch": mismatch,
                   "q": list(q),
               }),
    ]


# each check's table; the checks command reads its key `k` as `<check>_k`
_CHECKS = {
    "norm": _problem(1.0, 0.5, 2.0, 2),
    "neumann": {**_problem(1.0, 1.0, 1.5, 3), "nmax": ("int", 3, 1),
                "jmax": ("int", None, 1)},  # None: nmax + 1
    "pos": _problem(1.0, 1.0, 1.5, 2),
    "hvz": {**_problem(1.0, 1.0, 2.5, 2), "pfar": ("vec3", (0.0, 0.0, 2.0), None),
            "edge_tol": ("float", _disp.DEFAULT_EDGE_TOL, "positive")},
    "torus": {**_TORUS_MODEL, "q": ("vec3", (0.0, 0.0, 1.0), None)},
    "extrap": {**_SCHEDULE, "lambdas": ("floats", (4.0, 6.0, 8.0), None),
               "target": ("float", -0.0125, None), "rtol": ("float", 0.1, "positive")},
}
_CHECKS_TABLE = {**_COMMON, **{f"{check}_{key}": spec for check, table in _CHECKS.items()
                               for key, spec in table.items()}}


def cmd_checks(p: dict):
    seed, threads, tol = p["seed"], p["threads"], p["tol"]
    c = {check: {key: p[f"{check}_{key}"] for key in table} for check, table in _CHECKS.items()}
    # the later checks' argument-only rules raise here, before the first solve
    _disp.far_momentum(c["hvz"]["pfar"], c["hvz"]["lambda"])
    q = c["torus"]["q"]
    torus_cfgs = (_torus_config(c["torus"], None),
                  _torus_config(c["torus"], (q, tuple(-x for x in q))))
    ex = c["extrap"]
    schedule = CutoffSchedule(lambdas=ex["lambdas"], delta=ex["delta"], n_max=ex["nmax"])
    entries = [
        _check_kt_identity(),
        _check_norm_bound(c["norm"], seed),
        _check_neumann_decay(c["neumann"], seed),
        *_check_positivity(c["pos"]),
        _check_hvz(c["hvz"], seed, tol),
        *_check_torus(*torus_cfgs, seed, tol, threads),
    ]
    _, measured, extrap_ok = _extrapolation(ex["alpha"], schedule, ex["target"], ex["rtol"],
                                            (0.0, 0.0, 0.0), tol, seed, threads)
    entries.append(_entry("extrapolation", extrap_ok,
                          {"target": ex["target"], "rtol": ex["rtol"]}, measured))
    passed = all(e["passed"] for e in entries if e["gating"])
    return passed, {"checks.json": {"checks": entries, "passed": passed}}


# command name -> (command, parameter table); the table alone decides which
# config keys and which --key flags the command takes
COMMANDS = {
    "dispersion": (cmd_dispersion, _DISPERSION),
    "checks": (cmd_checks, _CHECKS_TABLE),
    "extrapolate": (cmd_extrapolate, {**_COMMON, **_EXTRAPOLATE,
                                      "lambda_values": ("floats", (4.0, 6.0, 8.0), None)}),
    "torus": (cmd_torus, _TORUS),
    "kernel": (cmd_kernel, {**_COMMON, **_KERNEL}),
}


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; bad flags are config errors here
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polaronlab",
                     description="Polaron fiber spectra: dispersion, checks, "
                                 "extrapolation, torus degeneracy, kernels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # every command parses every flag, so read_params can say which apply
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=".")
        for key in _FLAGS:
            p.add_argument("--" + key)
    return parser


@_one_blas_thread()
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        values = read_config_file(args.config) if args.config else {}
        cmd, table = COMMANDS[args.command]
        os.makedirs(args.out, exist_ok=True)
        passed, outputs = cmd(read_params(values, args, table))
        for name, content in outputs.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8", newline="\n") as fh:
                if name.endswith(".csv"):
                    header, rows = content
                    fh.writelines(",".join(row) + "\n" for row in [header, *rows])
                else:
                    json.dump(_plain(content), fh, indent=2, sort_keys=True)
                    fh.write("\n")
        return EXIT_PASS if passed else EXIT_CHECK_FAILURE
    # before ValueError: np.linalg.LinAlgError subclasses it
    except (CapacityError, ConvergenceError, NumericalError,
            np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
