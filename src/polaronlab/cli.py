"""Command-line entry point: parse config, run pipelines, write CSV/JSON.

Commands: dispersion, checks, extrapolate, torus, kernel.  Configuration is a
flat `key = value` text file plus command-line overrides; outputs are CSV
(header row, LF, UTF-8, 17 significant digits) and JSON (one object per file,
sorted keys).  Runs are deterministic: same config + seed means byte-identical
bytes on disk, for any OPENBLAS_NUM_THREADS, since main runs its BLAS and LAPACK
work on one thread (solve._one_blas_thread).

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
from .fock import enumerate_basis
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
from .solve import _one_blas_thread, dense_spectrum, resolvent_positivity_audit

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


class RunConfig:
    """Typed access to string config values with parameter-naming errors.

    Every number read from a config file or a flag must be finite; only a
    default (extrapolate's NaN target, meaning ungated) may be NaN.
    """

    def __init__(self, values: dict, allowed: set):
        unknown = sorted(set(values) - set(allowed))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        self.values = dict(values)

    def get_float(self, key, default=None, positive=False, nonnegative=False):
        raw = self.values.get(key)
        val = float(default) if raw is None else _number(key, raw)
        if positive and not val > 0.0:
            raise ConfigError(f"parameter '{key}' must be positive, got {val}")
        if nonnegative and val < 0.0:
            raise ConfigError(f"parameter '{key}' must be non-negative, got {val}")
        return val

    def get_int(self, key, default=None, minimum=None):
        raw = self.values.get(key)
        if raw is None:
            val = int(default)
        else:
            try:
                val = int(str(raw), 10)
            except (TypeError, ValueError):
                raise ConfigError(f"parameter '{key}': cannot parse '{raw}' as an integer")
        if minimum is not None and val < minimum:
            raise ConfigError(f"parameter '{key}' must be >= {minimum}, got {val}")
        return val

    def get_floats(self, key, default):
        raw = self.values.get(key, default)
        vals = tuple(_number(key, tok) for tok in str(raw).split(",") if tok.strip())
        if not vals:
            raise ConfigError(f"parameter '{key}' must contain at least one number")
        return vals

    def get_vec3(self, key, default):
        vals = self.get_floats(key, default)
        if len(vals) != 3:
            raise ConfigError(f"parameter '{key}' must be three comma-separated numbers")
        return vals

    def get_fibers(self, key):
        raw = self.values.get(key)
        if raw is None:
            return None
        fibers = []
        for part in str(raw).split(";"):
            part = part.strip()
            if not part:
                continue
            toks = part.split(",")
            if len(toks) != 3:
                raise ConfigError(f"parameter '{key}': each fiber needs three components")
            fibers.append(tuple(_number(key, t) for t in toks))
        if not fibers:
            raise ConfigError(f"parameter '{key}' must list at least one fiber")
        return tuple(fibers)


_GENERIC_FLAGS = (("alpha", "alpha"), ("delta", "delta"), ("lam", "lambda"),
                  ("nmax", "nmax"), ("tol", "tol"))


def merge_overrides(values: dict, args, accept_generic: bool = True) -> dict:
    out = dict(values)
    for attr, key in _GENERIC_FLAGS:
        flag_val = getattr(args, attr, None)
        if flag_val is not None:
            if not accept_generic:
                raise ConfigError(
                    f"--{key} does not apply to '{args.command}'; "
                    "use the per-check config keys instead"
                )
            out[key] = flag_val
    if args.seed is not None:
        out["seed"] = args.seed
    if args.threads is not None:
        out["threads"] = args.threads
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


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_plain(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# -- commands ----------------------------------------------------------------

_COMMON_KEYS = {"seed", "threads", "tol"}


def _common(cfg: RunConfig):
    seed = cfg.get_int("seed", default=42, minimum=0)
    threads = cfg.get_int("threads", default=1, minimum=1)
    tol = cfg.get_float("tol", default=1e-9, positive=True)
    if tol > TOL_MAX:
        raise ConfigError(f"parameter 'tol' must be at most {TOL_MAX:g}, got {tol}")
    return seed, threads, tol


def cmd_dispersion(values: dict, outdir: str, args) -> int:
    allowed = _COMMON_KEYS | {"alpha", "delta", "lambda", "nmax", "p_values",
                              "margin", "mass_step"}
    cfg = RunConfig(merge_overrides(values, args), allowed)
    seed, threads, tol = _common(cfg)
    alpha = cfg.get_float("alpha", default=1.0, nonnegative=True)
    delta = cfg.get_float("delta", default=0.75, positive=True)
    lam = cfg.get_float("lambda", default=3.0, positive=True)
    n_max = cfg.get_int("nmax", default=2, minimum=0)
    ts = cfg.get_floats("p_values", "0,0.5,1,1.5,2")
    margin = cfg.get_float("margin", default=1e-4, positive=True)
    h = cfg.get_float("mass_step", default=0.1, positive=True)

    curve = _disp.dispersion_curve(
        alpha, [(0.0, 0.0, t) for t in ts], delta, lam, n_max,
        tol=tol, seed=seed, threads=threads,
    )
    verdict = _disp.minimum_check(curve, margin=margin)
    mass = _disp.effective_mass(alpha, delta, lam, n_max, h=h, tol=tol, seed=seed)

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
    write_csv(
        os.path.join(outdir, "dispersion.csv"),
        ["alpha", "Px", "Py", "Pz", "Pnorm", "Lambda", "delta", "Nmax",
         "energy", "residual", "iterations"],
        rows,
    )
    write_json(os.path.join(outdir, "verdict.json"), {
        "minimum": {
            "gating": True,
            "passed": verdict.passed,
            "margin": verdict.margin,
            "worst_margin": verdict.worst_margin,
            "argmin": [list(p) for p in verdict.argmin],
            "argmin_unique": verdict.argmin_unique,
        },
        "mass": {
            "gating": False,
            "m_eff": mass.m_eff,
            "h": mass.h,
            "e_zero": mass.e_zero,
            "e_plus": mass.e_plus,
            "e_minus": mass.e_minus,
            "curvature": mass.curvature,
            "degenerate": mass.degenerate,
        },
        "parabola": {"gating": False, "samples": parabola},
        "passed": verdict.passed,
    })
    return EXIT_PASS if verdict.passed else EXIT_CHECK_FAILURE


def cmd_extrapolate(values: dict, outdir: str, args) -> int:
    allowed = _COMMON_KEYS | {"alpha", "delta", "nmax", "lambda_values", "p",
                              "target", "target_rtol"}
    merged = merge_overrides(values, args)
    if "lambda" in merged:
        raise ConfigError("parameter 'lambda' does not apply here; use 'lambda_values'")
    cfg = RunConfig(merged, allowed)
    seed, threads, tol = _common(cfg)
    alpha = cfg.get_float("alpha", default=0.1, nonnegative=True)
    delta = cfg.get_float("delta", default=0.4, positive=True)
    n_max = cfg.get_int("nmax", default=1, minimum=0)
    lams = cfg.get_floats("lambda_values", "4,6,8")
    p = cfg.get_vec3("p", "0,0,0")
    target = cfg.get_float("target", default=math.nan)
    target_rtol = cfg.get_float("target_rtol", default=0.1, positive=True)

    schedule = CutoffSchedule(lambdas=lams, delta=delta, n_max=n_max)
    report = _disp.cutoff_extrapolate(alpha, schedule, p=p, tol=tol, seed=seed,
                                      threads=threads)
    gated = not math.isnan(target)
    passed = True
    deviation = None
    if gated:
        deviation = abs(report.e_inf - target)
        passed = bool(deviation <= target_rtol * abs(target))

    rows = [
        [fmt17(lam), fmt17(e), fmt17(r), str(it)]
        for lam, e, r, it in zip(report.lambdas, report.energies,
                                 report.solver_residuals, report.solver_iterations)
    ]
    write_csv(os.path.join(outdir, "extrapolation.csv"),
              ["Lambda", "energy", "residual", "iterations"], rows)
    write_json(os.path.join(outdir, "extrapolation.json"), {
        "alpha": alpha,
        "delta": delta,
        "nmax": n_max,
        "p": list(p),
        "lambdas": list(report.lambdas),
        "energies": list(report.energies),
        "e_inf": report.e_inf,
        "slope": report.slope,
        "fit_residual": report.fit_residual,
        "target": None if not gated else target,
        "target_rtol": target_rtol,
        "deviation": deviation,
        "gating": gated,
        "passed": passed,
    })
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE


def _torus_config(cfg: RunConfig, prefix: str) -> _torus.TorusConfig:
    """The torus model of the seven keys read under `prefix` ("" or "torus_")."""
    return _torus.TorusConfig(
        alpha=cfg.get_float(prefix + "alpha", default=1.0, nonnegative=True),
        delta=cfg.get_float(prefix + "delta", default=1.0, positive=True),
        cutoff=cfg.get_float(prefix + "lambda", default=2.0, positive=True),
        n_max=cfg.get_int(prefix + "nmax", default=2, minimum=0),
        ell=cfg.get_float(prefix + "ell", default=2.0 * math.pi, positive=True),
        fiber_cutoff=cfg.get_float(prefix + "fiber_cutoff", default=1.0, positive=True),
        degeneracy_tol=cfg.get_float(prefix + "degeneracy_tol", default=1e-7, positive=True),
    )


def cmd_torus(values: dict, outdir: str, args) -> int:
    allowed = _COMMON_KEYS | {"alpha", "delta", "lambda", "nmax", "ell",
                              "fiber_cutoff", "degeneracy_tol", "fibers"}
    cfg = RunConfig(merge_overrides(values, args), allowed)
    seed, threads, tol = _common(cfg)
    tcfg = dataclasses.replace(_torus_config(cfg, ""), fibers=cfg.get_fibers("fibers"))
    model = _torus.assemble_torus(tcfg)
    report = _torus.degeneracy_analysis(model, tol=tol, seed=seed, threads=threads)
    branch, consistent = _torus.contradiction_check(report)

    rows = [
        [fmt17(p[0]), fmt17(p[1]), fmt17(p[2]), fmt17(e)]
        for p, e in report.fiber_energies
    ]
    write_csv(os.path.join(outdir, "torus.csv"), ["Px", "Py", "Pz", "energy"], rows)
    write_json(os.path.join(outdir, "torus.json"), {
        "ell": tcfg.ell,
        "alpha": tcfg.alpha,
        "fiber_count": len(model.blocks),
        "fiber_dimension": model.basis.dimension,
        "ground_energy": report.ground_energy,
        "argmin": [list(p) for p in report.argmin],
        "multiplicity": report.multiplicity,
        "degeneracy_tol": report.degeneracy_tol,
        "mechanism": {"branch": branch, "consistent": consistent, "gating": True},
        "passed": consistent,
    })
    return EXIT_PASS if consistent else EXIT_CHECK_FAILURE


def cmd_kernel(values: dict, outdir: str, args) -> int:
    allowed = _COMMON_KEYS | {"ell", "mass", "x", "xprime", "image_cut"}
    cfg = RunConfig(merge_overrides(values, args, accept_generic=False), allowed)
    ell = cfg.get_float("ell", default=2.0 * math.pi, positive=True)
    mass = cfg.get_float("mass", default=1.0)
    x = cfg.get_vec3("x", "1,0,0")
    xp = cfg.get_vec3("xprime", "0,0,0")
    image_cut = cfg.get_int("image_cut", default=1, minimum=1)

    value = _torus.periodized_yukawa(x, xp, ell, mass=mass, image_cut=image_cut)
    conv_value, conv_cut = _torus.yukawa_converged(x, xp, ell, mass=mass,
                                                   start_cut=max(1, image_cut))
    passed = value > 0.0
    write_json(os.path.join(outdir, "kernel.json"), {
        "ell": ell,
        "mass": mass,
        "x": list(x),
        "xprime": list(xp),
        "image_cut": image_cut,
        "value": value,
        "converged_value": conv_value,
        "converged_cut": conv_cut,
        "positive": bool(passed),
        "passed": bool(passed),
    })
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE


# -- the checks command ------------------------------------------------------

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
    passed = worst <= 1e-10 and min_eig > 0.0
    return {
        "name": "kt_identity",
        "gating": True,
        "passed": bool(passed),
        "threshold": {"max_deviation": 1e-10, "k_min_eigenvalue": 0.0},
        "measured": {"max_deviation": worst, "k_min_eigenvalue": min_eig,
                     "instances": count},
    }


def _check_norm_bound(cfg: RunConfig, seed: int) -> dict:
    alpha = cfg.get_float("norm_alpha", default=1.0, nonnegative=True)
    delta = cfg.get_float("norm_delta", default=0.5, positive=True)
    lam = cfg.get_float("norm_lambda", default=2.0, positive=True)
    n_max = cfg.get_int("norm_nmax", default=2, minimum=0)
    grid = build_grid(delta, lam)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    fcfg = FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=n_max)
    norm = weighted_annihilation_norm(fcfg, basis, seed=seed)
    return {
        "name": "norm_bound",
        "gating": True,
        "passed": bool(norm <= NORM_BOUND_THRESHOLD),
        "threshold": NORM_BOUND_THRESHOLD,
        "measured": {"norm": norm, "delta": delta, "lambda": lam, "nmax": n_max,
                     "dimension": basis.dimension},
    }


def _check_neumann_decay(cfg: RunConfig, seed: int) -> dict:
    alpha = cfg.get_float("neumann_alpha", default=1.0, nonnegative=True)
    delta = cfg.get_float("neumann_delta", default=1.0, positive=True)
    lam = cfg.get_float("neumann_lambda", default=1.5, positive=True)
    n_max = cfg.get_int("neumann_nmax", default=3, minimum=1)
    j_max = cfg.get_int("neumann_jmax", default=n_max + 1, minimum=1)
    grid = build_grid(delta, lam)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    fcfg = FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=n_max)
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
    return {
        "name": "neumann_decay",
        "gating": True,
        "passed": bool(ok),
        "threshold": {"bounds": bounds, "nilpotent_above": n_max},
        "measured": {"s": list(map(float, s)), "c_meas": c_meas,
                     "dimension": basis.dimension},
    }


def _audit_fiber(alpha, delta, lam, n_max):
    grid = build_grid(delta, lam)
    basis = enumerate_basis(len(grid), n_max, grid.units, grid.spacing)
    fcfg = FiberConfig(alpha=alpha, p=np.zeros(3), grid=grid, n_max=n_max)
    op = assemble_fiber(fcfg, basis)
    e0 = float(dense_spectrum(op, k=1)[0])
    flipped = sign_flip(op)
    report = resolvent_positivity_audit(flipped, 1.0 - e0)
    return basis, report, e0


def _check_positivity(cfg: RunConfig) -> dict:
    alpha = cfg.get_float("pos_alpha", default=1.0, nonnegative=True)
    delta = cfg.get_float("pos_delta", default=1.0, positive=True)
    lam = cfg.get_float("pos_lambda", default=1.5, positive=True)
    n_max = cfg.get_int("pos_nmax", default=2, minimum=0)
    basis, report, e0 = _audit_fiber(alpha, delta, lam, n_max)
    faris = max(0.0, -report.ground_vector_min)
    passed = (report.strictly_positive and report.ground_vector_min > 0.0
              and report.gap > GAP_TOL and faris <= FARIS_TOL)
    return {
        "name": "positivity",
        "gating": True,
        "passed": bool(passed),
        "threshold": {"gap": GAP_TOL, "faris": FARIS_TOL},
        "measured": {
            "lam": report.lam,
            "min_entry": report.min_entry,
            "strictly_positive": report.strictly_positive,
            "ground_vector_min": report.ground_vector_min,
            "gap": report.gap,
            "faris_defect": faris,
            "e0": e0,
            "dimension": basis.dimension,
        },
    }


def _check_positivity_alpha0(cfg: RunConfig) -> dict:
    delta = cfg.get_float("pos_delta", default=1.0, positive=True)
    lam = cfg.get_float("pos_lambda", default=1.5, positive=True)
    n_max = cfg.get_int("pos_nmax", default=2, minimum=0)
    basis, report, e0 = _audit_fiber(0.0, delta, lam, n_max)
    return {
        "name": "positivity_alpha0",
        "gating": False,
        "passed": None,
        "note": "not improving (decoupled)",
        "threshold": None,
        "measured": {
            "lam": report.lam,
            "min_entry": report.min_entry,
            "strictly_positive": report.strictly_positive,
            "e0": e0,
            "dimension": basis.dimension,
        },
    }


def _check_hvz(cfg: RunConfig, seed: int, tol: float) -> dict:
    alpha = cfg.get_float("hvz_alpha", default=1.0, nonnegative=True)
    delta = cfg.get_float("hvz_delta", default=1.0, positive=True)
    lam = cfg.get_float("hvz_lambda", default=2.5, positive=True)
    n_max = cfg.get_int("hvz_nmax", default=2, minimum=0)
    p_far = cfg.get_vec3("hvz_pfar", "0,0,2")
    edge_tol = cfg.get_float("hvz_edge_tol", default=0.1, positive=True)
    report = _disp.hvz_edge_check(alpha, delta, lam, n_max, p_far,
                                  edge_tol=edge_tol, tol=tol, seed=seed)
    return {
        "name": "hvz_edge",
        "gating": True,
        "passed": bool(report.passed),
        "threshold": {"lower": 0.0, "upper": report.edge_tol},
        "measured": {"d": report.d, "e_zero": report.e_zero, "e_far": report.e_far,
                     "p_far": list(report.p_far)},
    }


def _check_torus(cfg: RunConfig, seed: int, tol: float, threads: int) -> list:
    full_cfg = _torus_config(cfg, "torus_")
    q = cfg.get_vec3("torus_q", "0,0,1")
    minus_q = tuple(-x for x in q)
    restr_cfg = dataclasses.replace(full_cfg, fibers=(q, minus_q))  # checked before any solve
    full = _torus.degeneracy_analysis(_torus.assemble_torus(full_cfg),
                                      tol=tol, seed=seed, threads=threads)
    zero_simple = (len(full.argmin) == 1
                   and all(x == 0.0 for x in full.argmin[0])
                   and full.multiplicity == 1)

    restr_model = _torus.assemble_torus(restr_cfg)
    restr = _torus.degeneracy_analysis(restr_model, tol=tol, seed=seed, threads=threads)
    e_by_fiber = dict(restr.fiber_energies)
    mismatch = abs(e_by_fiber[q] - e_by_fiber[minus_q])
    restr_ok = restr.multiplicity == 2 and mismatch <= DEGENERACY_MATCH_TOL

    return [
        {
            "name": "torus_degeneracy",
            "gating": True,
            "passed": bool(zero_simple),
            "threshold": {"argmin": [[0.0, 0.0, 0.0]], "multiplicity": 1},
            "measured": {
                "ground_energy": full.ground_energy,
                "argmin": [list(p) for p in full.argmin],
                "multiplicity": full.multiplicity,
                "fibers": len(full.fiber_energies),
            },
        },
        {
            "name": "torus_restricted",
            "gating": True,
            "passed": bool(restr_ok),
            "threshold": {"multiplicity": 2, "pair_mismatch": DEGENERACY_MATCH_TOL},
            "measured": {
                "ground_energy": restr.ground_energy,
                "multiplicity": restr.multiplicity,
                "pair_mismatch": mismatch,
                "q": list(q),
            },
        },
    ]


def _check_extrapolation(cfg: RunConfig, seed: int, tol: float, threads: int) -> dict:
    alpha = cfg.get_float("extrap_alpha", default=0.1, nonnegative=True)
    delta = cfg.get_float("extrap_delta", default=0.4, positive=True)
    n_max = cfg.get_int("extrap_nmax", default=1, minimum=0)
    lams = cfg.get_floats("extrap_lambdas", "4,6,8")
    target = cfg.get_float("extrap_target", default=-0.0125)
    rtol = cfg.get_float("extrap_rtol", default=0.1, positive=True)
    schedule = CutoffSchedule(lambdas=lams, delta=delta, n_max=n_max)
    report = _disp.cutoff_extrapolate(alpha, schedule, tol=tol, seed=seed,
                                      threads=threads)
    deviation = abs(report.e_inf - target)
    return {
        "name": "extrapolation",
        "gating": True,
        "passed": bool(deviation <= rtol * abs(target)),
        "threshold": {"target": target, "rtol": rtol},
        "measured": {
            "lambdas": list(report.lambdas),
            "energies": list(report.energies),
            "e_inf": report.e_inf,
            "slope": report.slope,
            "fit_residual": report.fit_residual,
            "deviation": deviation,
        },
    }


_CHECK_KEYS = {
    "norm_alpha", "norm_delta", "norm_lambda", "norm_nmax",
    "neumann_alpha", "neumann_delta", "neumann_lambda", "neumann_nmax", "neumann_jmax",
    "pos_alpha", "pos_delta", "pos_lambda", "pos_nmax",
    "hvz_alpha", "hvz_delta", "hvz_lambda", "hvz_nmax", "hvz_pfar", "hvz_edge_tol",
    "torus_alpha", "torus_delta", "torus_lambda", "torus_nmax", "torus_ell",
    "torus_fiber_cutoff", "torus_degeneracy_tol", "torus_q",
    "extrap_alpha", "extrap_delta", "extrap_nmax", "extrap_lambdas",
    "extrap_target", "extrap_rtol",
}


def cmd_checks(values: dict, outdir: str, args) -> int:
    cfg = RunConfig(merge_overrides(values, args, accept_generic=False),
                    _COMMON_KEYS | _CHECK_KEYS)
    seed, threads, tol = _common(cfg)
    entries = [
        _check_kt_identity(),
        _check_norm_bound(cfg, seed),
        _check_neumann_decay(cfg, seed),
        _check_positivity(cfg),
        _check_positivity_alpha0(cfg),
        _check_hvz(cfg, seed, tol),
    ]
    entries.extend(_check_torus(cfg, seed, tol, threads))
    entries.append(_check_extrapolation(cfg, seed, tol, threads))
    passed = all(e["passed"] for e in entries if e["gating"])
    write_json(os.path.join(outdir, "checks.json"),
               {"checks": entries, "passed": bool(passed)})
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE


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
    handlers = {
        "dispersion": cmd_dispersion,
        "checks": cmd_checks,
        "extrapolate": cmd_extrapolate,
        "torus": cmd_torus,
        "kernel": cmd_kernel,
    }
    for name, func in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", default=None)
        p.add_argument("--threads", default=None)
        p.add_argument("--alpha", default=None)
        p.add_argument("--delta", default=None)
        p.add_argument("--lambda", dest="lam", default=None)
        p.add_argument("--nmax", default=None)
        p.add_argument("--tol", default=None)
        p.set_defaults(func=func)
    return parser


@_one_blas_thread()
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        values = read_config_file(args.config) if args.config else {}
        os.makedirs(args.out, exist_ok=True)
        return args.func(values, args.out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # before ValueError: np.linalg.LinAlgError subclasses it
    except (CapacityError, ConvergenceError, NumericalError,
            np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
