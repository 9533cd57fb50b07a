"""End-to-end command-line runs: exit codes, file formats, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polaronlab.cli
import polaronlab.torus
import polaronlab.dispersion
import polaronlab.modes
import polaronlab.operators
from polaronlab import periodized_yukawa
from polaronlab.cli import main, read_config_file
from polaronlab.errors import ConfigError, NumericalError
from polaronlab.solve import _openblas_handles

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CHECK_ORDER = [
    "kt_identity", "norm_bound", "neumann_decay", "positivity",
    "positivity_alpha0", "hvz_edge", "torus_degeneracy", "torus_restricted",
    "extrapolation",
]


def _read(path):
    return path.read_bytes()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\nalpha = 1.5\n\nnmax = 2  # trailing\n")
    assert read_config_file(str(cfg)) == {"alpha": "1.5", "nmax": "2"}

    bad = tmp_path / "b.cfg"
    bad.write_text("alpha 1.5\n")
    with pytest.raises(ConfigError, match="b.cfg:1"):
        read_config_file(str(bad))

    bad.write_text("alpha =\n")
    with pytest.raises(ConfigError, match="empty"):
        read_config_file(str(bad))

    bad.write_text("alpha = 1\nalpha = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        read_config_file(str(bad))

    with pytest.raises(ConfigError):
        read_config_file(str(tmp_path / "missing.cfg"))


def test_bad_arguments_exit_3(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["dispersion", "--delta", "-1", "--out", out]) == 3
    assert "delta" in capsys.readouterr().err
    assert main(["bogus-command"]) == 3
    assert main([]) == 3
    assert main(["kernel", "--no-such-flag"]) == 3
    assert main(["dispersion", "--nmax", "1.5", "--out", out]) == 3
    for command in ("checks", "kernel"):
        assert main([command, "--seed", "x", "--out", out]) == 3
        assert "parameter 'seed': cannot parse 'x'" in capsys.readouterr().err
        assert main([command, "--threads", "0", "--out", out]) == 3
        assert "parameter 'threads' must be >= 1" in capsys.readouterr().err
    # non-finite numbers: an infinite tol would certify any residual
    for command, flag, value in (("dispersion", "--tol", "inf"), ("extrapolate", "--tol", "inf"),
                                 ("dispersion", "--alpha", "nan"),
                                 ("dispersion", "--alpha", "inf"),
                                 ("dispersion", "--delta", "inf")):
        assert main([command, flag, value, "--out", out]) == 3
        assert "must be finite" in capsys.readouterr().err
    # a finite tol above 1e-6 would certify the solver's start vector
    # (checks takes tol from its config only)
    loose = tmp_path / "loose.cfg"
    for value in ("1e3", "1.1e-6"):
        loose.write_text(f"tol = {value}\n")
        for command in ("dispersion", "extrapolate", "torus", "checks", "kernel"):
            assert main([command, "--config", str(loose), "--out", out]) == 3
            assert "'tol' must be at most 1e-06" in capsys.readouterr().err
    # kernel solves nothing, yet its tol is checked like every command's
    loose.write_text("tol = inf\n")
    assert main(["kernel", "--config", str(loose), "--out", out]) == 3
    assert "must be finite" in capsys.readouterr().err
    assert main(["dispersion", "--tol", "1e3", "--out", out]) == 3
    cfg = tmp_path / "nonfinite.cfg"
    for line in ("lambda_values = 4,inf,8", "target = nan", "p = 0,0,-inf"):
        cfg.write_text(line + "\n")
        assert main(["extrapolate", "--config", str(cfg), "--out", out]) == 3
    cfg.write_text("fibers = 0,0,nan; 0,0,nan\n")
    assert main(["torus", "--config", str(cfg), "--out", out]) == 3
    # seed must be named, also on the secular route that draws no random numbers
    for argv in (["dispersion", "--nmax", "1"], ["dispersion", "--nmax", "2"],
                 ["extrapolate"], ["torus"], ["checks"], ["kernel"]):
        assert main(argv + ["--seed", "-1", "--out", out]) == 3
        assert "parameter 'seed' must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("not positive definite"),
                                   MemoryError()])
def test_numerical_breakdown_exits_2(tmp_path, capsys, monkeypatch, error):
    # LinAlgError subclasses ValueError, and an uncaught MemoryError exits 1
    def broken_solver(*args, **kwargs):
        raise error

    # N_max = 2: at N_max = 1 the dispersion comes from the secular equation
    monkeypatch.setattr(polaronlab.dispersion, "ground_state", broken_solver)
    code = main(["dispersion", "--alpha", "0", "--delta", "0.5", "--lambda", "1",
                 "--nmax", "2", "--out", str(tmp_path)])
    assert code == 2
    assert type(error).__name__ in capsys.readouterr().err


def test_nan_reaching_the_solver_exits_2(tmp_path, capsys, monkeypatch):
    # a NaN on a fiber diagonal turns the Rayleigh-Ritz Gram matrix non-finite
    kinetic = polaronlab.operators._kinetic

    def poisoned(*args):
        d = kinetic(*args)
        d[-1] = np.nan
        return d

    monkeypatch.setattr(polaronlab.operators, "_kinetic", poisoned)
    code = main(["dispersion", "--alpha", "1", "--delta", "1", "--lambda", "1",
                 "--nmax", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "NumericalError" in capsys.readouterr().err


def test_nan_reaching_the_positivity_audit_exits_2(tmp_path, capsys, monkeypatch):
    # the fiber's dense spectrum is taken before the flip, so only the audit sees the NaN
    flip = polaronlab.cli.sign_flip

    def poisoned(op):
        out = flip(op)
        out.csr.data[-1] = np.nan
        return out

    monkeypatch.setattr(polaronlab.cli, "sign_flip", poisoned)
    assert main(["checks", "--out", str(tmp_path)]) == 2
    assert "NumericalError" in capsys.readouterr().err


def _poison_assembled_fibers(monkeypatch):
    """Make cli.assemble_fiber return fibers whose last CSR value is NaN."""
    assemble = polaronlab.cli.assemble_fiber

    def poisoned(fcfg, basis):
        out = assemble(fcfg, basis)
        out.csr.data[-1] = np.nan
        return out

    monkeypatch.setattr(polaronlab.cli, "assemble_fiber", poisoned)


def test_nan_reaching_the_kt_identity_exits_2(tmp_path, capsys, monkeypatch):
    # max(0.0, nan) is 0.0: a fold that skips the NaN would report a pass
    _poison_assembled_fibers(monkeypatch)
    with pytest.raises(NumericalError, match="K \\+ T identity on single-mode-2x2"):
        polaronlab.cli._check_kt_identity()
    assert main(["checks", "--out", str(tmp_path)]) == 2
    assert "NumericalError: K + T identity" in capsys.readouterr().err
    assert not (tmp_path / "checks.json").exists()


def test_nan_reaching_the_dense_spectrum_exits_2(tmp_path, capsys, monkeypatch):
    # the audited fiber is poisoned before its dense spectrum, which must stop
    # the run before the positivity audit is reached; the K + T instances are
    # dropped, since that check would catch the NaN first
    def unreachable(*args, **kw):
        raise AssertionError("the positivity audit ran on a non-finite fiber")

    _poison_assembled_fibers(monkeypatch)
    monkeypatch.setattr(polaronlab.cli, "_kt_suite_instances", lambda: iter(()))
    monkeypatch.setattr(polaronlab.cli, "resolvent_positivity_audit", unreachable)
    assert main(["checks", "--out", str(tmp_path)]) == 2
    assert "NumericalError: operator is not finite; no dense spectrum" in capsys.readouterr().err


def test_unknown_config_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_parameter = 1\n")
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "no_such_parameter" in capsys.readouterr().err


def test_generic_flags_rejected_for_checks_and_kernel(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["checks", "--alpha", "1", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "--alpha" in err and "checks" in err
    assert "use the per-check config keys instead" in err
    # kernel has no per-check keys to point to
    assert main(["kernel", "--lambda", "2", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "--lambda does not apply to 'kernel'" in err
    assert "per-check" not in err


def test_extrapolate_rejects_bare_lambda(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 4\n")
    assert main(["extrapolate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "lambda_values" in capsys.readouterr().err


def test_dispersion_decoupled_run(tmp_path):
    out = tmp_path / "runs" / "free"  # nested directory gets created
    code = main([
        "dispersion", "--alpha", "0", "--delta", "0.5", "--lambda", "1",
        "--nmax", "2", "--out", str(out),
    ])
    assert code == 0

    rows = _rows(out / "dispersion.csv")
    assert list(rows[0]) == ["alpha", "Px", "Py", "Pz", "Pnorm", "Lambda",
                             "delta", "Nmax", "energy", "residual", "iterations"]
    assert len(rows) == 5
    energies = [float(r["energy"]) for r in rows]
    assert energies == pytest.approx([0.0, 0.25, 1.0, 1.25, 2.0], abs=1e-8)
    assert [float(r["Pnorm"]) for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]

    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["minimum"]["gating"] is True
    assert verdict["minimum"]["argmin"] == [[0.0, 0.0, 0.0]]
    assert verdict["mass"]["m_eff"] == pytest.approx(0.5, abs=1e-6)
    assert verdict["mass"]["gating"] is False
    samples = verdict["parabola"]["samples"]
    assert len(samples) == 1 and samples[0]["satisfied"] is True


def test_csv_is_lf_terminated_and_roundtrips(tmp_path):
    out = tmp_path / "fmt"
    assert main(["dispersion", "--alpha", "0", "--delta", "1", "--lambda", "1",
                 "--nmax", "1", "--out", str(out)]) == 0
    raw = _read(out / "dispersion.csv")
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    for line in raw.decode("utf-8").splitlines()[1:]:
        for tok in line.split(","):
            float(tok)  # every cell parses back


def test_dispersion_byte_determinism(tmp_path):
    args = ["dispersion", "--alpha", "1", "--delta", "1", "--lambda", "1.5",
            "--nmax", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read(a / "dispersion.csv") == _read(b / "dispersion.csv")
    assert _read(a / "verdict.json") == _read(b / "verdict.json")


def test_config_file_equals_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0\ndelta = 1\nlambda = 1\nnmax = 1\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["dispersion", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["dispersion", "--alpha", "0", "--delta", "1", "--lambda", "1",
                 "--nmax", "1", "--out", str(b)]) == 0
    assert _read(a / "dispersion.csv") == _read(b / "dispersion.csv")


def test_extrapolate_ungated_and_gated(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda_values = 3,4,5\ndelta = 1\nnmax = 1\n")
    out = tmp_path / "free"
    assert main(["extrapolate", "--config", str(cfg), "--alpha", "0",
                 "--out", str(out)]) == 0
    rep = json.loads((out / "extrapolation.json").read_text())
    assert rep["gating"] is False
    assert rep["target"] is None
    assert rep["passed"] is True
    assert rep["e_inf"] == pytest.approx(0.0, abs=1e-8)
    rows = _rows(out / "extrapolation.csv")
    assert [float(r["Lambda"]) for r in rows] == [3.0, 4.0, 5.0]

    gated = tmp_path / "gated.cfg"
    gated.write_text("lambda_values = 3,4,5\ndelta = 1\nnmax = 1\ntarget = -1\n")
    out2 = tmp_path / "fail"
    assert main(["extrapolate", "--config", str(gated), "--alpha", "0",
                 "--out", str(out2)]) == 1
    rep2 = json.loads((out2 / "extrapolation.json").read_text())
    assert rep2["gating"] is True and rep2["passed"] is False
    assert rep2["deviation"] == pytest.approx(1.0, abs=1e-7)


def test_torus_command(tmp_path, monkeypatch):
    # the default N_max = 2 run enumerates no basis and builds no fiber family
    def forbidden(*args, **kwargs):
        raise AssertionError("the default torus run built a basis or a family")

    for name in ("enumerate_basis", "FiberFamily"):
        monkeypatch.setattr(polaronlab.torus, name, forbidden)
    out = tmp_path / "torus"
    assert main(["torus", "--out", str(out)]) == 0
    rows = _rows(out / "torus.csv")
    assert len(rows) == 7
    rep = json.loads((out / "torus.json").read_text())
    assert rep["fiber_count"] == 7
    assert rep["fiber_dimension"] == 561
    assert rep["argmin"] == [[0.0, 0.0, 0.0]]
    assert rep["multiplicity"] == 1
    assert rep["mechanism"]["branch"] == "simple-zero-minimum"
    assert rep["mechanism"]["consistent"] is True
    assert rep["passed"] is True


def test_torus_restricted_fibers(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fibers = 0,0,1; 0,0,-1\n")
    out = tmp_path / "restricted"
    assert main(["torus", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "torus.json").read_text())
    assert rep["fiber_count"] == 2
    assert rep["multiplicity"] >= 2
    assert rep["mechanism"]["branch"] == "degenerate-minimum"
    assert rep["passed"] is True


def test_repeated_fiber_momentum_exits_3(tmp_path, capsys):
    # one fiber listed twice must not pass as a two-fold degenerate minimum
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fibers = 0,0,0; 0,0,0\n")
    assert main(["torus", "--config", str(cfg), "--out", str(tmp_path / "torus")]) == 3
    assert "repeats momentum (0.0, 0.0, 0.0)" in capsys.readouterr().err
    quick = (CONFIGS / "quick.cfg").read_text()
    cfg.write_text(quick.replace("torus_q = 0,0,1", "torus_q = 0,0,0"))
    assert main(["checks", "--config", str(cfg), "--out", str(tmp_path / "checks")]) == 3
    assert "repeats momentum (0.0, 0.0, 0.0)" in capsys.readouterr().err


def _unsolvable(*args, **kwargs):
    raise AssertionError("a solve ran before the config was checked")


@pytest.mark.parametrize("line, message", [
    ("torus_q = 0,0,0", "repeats momentum (0.0, 0.0, 0.0)"),
    ("torus_ell = -1", "parameter 'torus_ell' must be positive"),
    ("extrap_lambdas = 4,6", "at least three cutoffs"),
    ("extrap_lambdas = 8,6,4", "cutoffs must be strictly increasing"),
    ("hvz_pfar = 0,0,1", "the edge check needs |P_far| >= 2"),
    ("neumann_jmax = 0", "parameter 'neumann_jmax' must be >= 1"),
])
def test_checks_config_errors_exit_3_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      line, message):
    # the K + T identity is the first check, so it stands for every solve
    monkeypatch.setattr(polaronlab.cli, "_check_kt_identity", _unsolvable)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["checks", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err


def test_dispersion_mass_step_error_exits_3_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(polaronlab.dispersion, "dispersion_curve", _unsolvable)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mass_step = 2\n")
    assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "mass step h must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("p_values, message", [
    ("0.5,1", "curve has no P = 0 sample"),
    ("0", "minimum check needs at least one nonzero sample"),
    ("0,-0", "minimum check needs at least one nonzero sample"),
])
def test_dispersion_sample_rule_errors_exit_3_before_any_solve(tmp_path, capsys, monkeypatch,
                                                               p_values, message):
    monkeypatch.setattr(polaronlab.dispersion, "dispersion_curve", _unsolvable)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p_values = {p_values}\n")
    assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p_values, repeated", [("0,0.5,0.5,1", "0.5"), ("0,1,-0", "0.0")])
def test_dispersion_repeated_momentum_exits_3_before_any_solve(tmp_path, capsys, monkeypatch,
                                                               p_values, repeated):
    # a repeat would be solved twice and written as two rows; -0.0 repeats 0.0
    monkeypatch.setattr(polaronlab.dispersion, "dispersion_curve", _unsolvable)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p_values = {p_values}\n")
    out = tmp_path / "out"
    assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 3
    assert f"parameter 'p_values' repeats momentum {repeated}" in capsys.readouterr().err
    assert not (out / "dispersion.csv").exists()


def _count_dispersion_work(monkeypatch):
    """Count the grids, fiber families, eigensolves and certified-route solves
    of the dispersion module."""
    calls = dict.fromkeys(("build_grid", "FiberFamily", "ground_state", "_certified_ground"), 0)

    def counting(name):
        fn = getattr(polaronlab.dispersion, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(polaronlab.dispersion, name, counting(name))
    return calls


@pytest.mark.parametrize("config, expected, rows", [
    ("", (1, 0, 0, 7), 5),  # p_values 0, 0.5, 1, 1.5, 2 and the mass momenta 0, +-0.1
    ("nmax = 1\n", (1, 0, 0, 7), 5),
    ("nmax = 1\np_values = 1,0.1,0,-0.1\n", (1, 0, 0, 4), 4),  # mass momenta solved once
])
def test_dispersion_solves_one_curve(tmp_path, monkeypatch, config, expected, rows):
    calls = _count_dispersion_work(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
    assert tuple(calls.values()) == expected
    table = _rows(out / "dispersion.csv")
    assert len(table) == rows
    energies = {float(r["Pz"]): float(r["energy"]) for r in table}
    mass = json.loads((out / "verdict.json").read_text())["mass"]
    assert mass["e_zero"] == energies[0.0]
    if 0.1 in energies:  # p_values holds the mass momenta: the mass reads their rows
        assert (mass["e_plus"], mass["e_minus"]) == (energies[0.1], energies[-0.1])


def test_kernel_command(tmp_path):
    out = tmp_path / "kernel"
    assert main(["kernel", "--out", str(out)]) == 0
    rep = json.loads((out / "kernel.json").read_text())
    expected = periodized_yukawa((1, 0, 0), (0, 0, 0), 2.0 * math.pi, image_cut=1)
    assert rep["value"] == expected
    assert rep["converged_cut"] >= 1
    assert rep["positive"] is True

    cfg = tmp_path / "sing.cfg"
    cfg.write_text("x = 0,0,0\nxprime = 0,0,0\n")
    assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 3
    cfg2 = tmp_path / "mass.cfg"
    cfg2.write_text("mass = 0.5\n")
    assert main(["kernel", "--config", str(cfg2), "--out", str(out)]) == 3


def test_kernel_sums_each_image_box_once(tmp_path, monkeypatch):
    # `value` at image_cut is also the start of the convergence loop
    cuts = []
    yukawa = polaronlab.torus.periodized_yukawa

    def counted(*args, image_cut, **kwargs):
        cuts.append(image_cut)
        return yukawa(*args, image_cut=image_cut, **kwargs)

    monkeypatch.setattr(polaronlab.torus, "periodized_yukawa", counted)
    assert main(["kernel", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "kernel.json").read_text())
    assert cuts == list(range(1, rep["converged_cut"] + 1))
    assert rep["converged_cut"] >= 2


def test_kernel_image_cut_is_bounded_by_the_lattice_budget(tmp_path, capsys, monkeypatch):
    # the image sum goes past cut 64 and stops, exit 2, where the budget does
    out = tmp_path / "kernel"
    cfg = tmp_path / "far.cfg"
    cfg.write_text("image_cut = 64\n")
    assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "kernel.json").read_text())["converged_cut"] == 65
    monkeypatch.setattr(polaronlab.modes, "GRID_CAPACITY", 1)  # cuts up to 4
    cfg.write_text("ell = 0.5\nx = 0.2,0,0\n")
    assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 2
    assert "did not settle by image_cut = 4" in capsys.readouterr().err


def test_checks_run_and_schema(tmp_path):
    out = tmp_path / "checks"
    assert main(["checks", "--out", str(out)]) == 0
    rep = json.loads((out / "checks.json").read_text())
    assert rep["passed"] is True
    names = [e["name"] for e in rep["checks"]]
    assert names == CHECK_ORDER
    for entry in rep["checks"]:
        if entry["gating"]:
            assert entry["passed"] is True
    alpha0 = rep["checks"][4]
    assert alpha0["gating"] is False
    assert alpha0["passed"] is None
    assert alpha0["note"] == "not improving (decoupled)"


def test_checks_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["checks", "--out", str(a)]) == 0
    assert main(["checks", "--out", str(b)]) == 0
    assert _read(a / "checks.json") == _read(b / "checks.json")


@pytest.mark.skipif(not _openblas_handles(),
                    reason="no bundled OpenBLAS thread-count calls resolve")
def test_checks_bytes_independent_of_blas_threads(tmp_path):
    # a threaded BLAS splits its sums by thread count; the CLI runs on one thread
    outputs = []
    for i, threads in enumerate((None, "1", "2")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"run{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "polaronlab", "checks", "--config",
             str(CONFIGS / "quick.cfg"), "--seed", "7", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(_read(out / "checks.json"))
    assert outputs[0] == outputs[1] == outputs[2]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "polaronlab", "kernel", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "kernel.json").exists()


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.2 s at import, scipy.sparse and scipy.linalg
    # about 0.1 s each, which every CLI run would pay
    code = ("import sys, polaronlab, polaronlab.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.linalg') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the benchmark's desk torus, two dispersion curves and an extrapolation run
# on the pair and secular routes, which need neither a sparse fiber nor
# scipy.linalg; a dense spectrum and a positivity audit afterwards load
# scipy.sparse for the fiber, and still not scipy.linalg
_LEAN_PIPELINES = """
import math, sys
import numpy as np
import polaronlab as pl
cfg = pl.TorusConfig(ell=2.0 * math.pi, alpha=1.0, delta=0.75, cutoff=3.0, n_max=2,
                     fiber_cutoff=1.0)
pl.degeneracy_analysis(pl.assemble_torus(cfg), threads=2)
for n_max in (1, 2):
    pl.dispersion_curve(1.0, [(0, 0, 0), (0, 0, 0.5)], 1.0, 1.5, n_max, threads=2)
pl.cutoff_extrapolate(0.1, pl.CutoffSchedule(lambdas=(3.0, 4.0, 5.0), delta=1.0, n_max=1),
                      threads=2)
print([m for m in ("scipy.sparse", "scipy.linalg") if m in sys.modules])
grid = pl.build_grid(1.0, 1.5)
basis = pl.enumerate_basis(len(grid), 2, grid.units, grid.spacing)
op = pl.assemble_fiber(pl.FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2), basis)
spectrum = pl.dense_spectrum(op, k=3)
audit = pl.resolvent_positivity_audit(pl.sign_flip(op), 1.0 - spectrum[0])
print([m for m in ("scipy.sparse", "scipy.linalg") if m in sys.modules])
print(spectrum.tobytes().hex(), audit.min_entry.hex())
"""


def test_lean_pipelines_leave_scipy_sparse_and_linalg_unloaded():
    proc = subprocess.run([sys.executable, "-c", _LEAN_PIPELINES], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    lean, dense, results = proc.stdout.splitlines()
    assert lean == "[]"
    assert dense == "['scipy.sparse']"
    grid = polaronlab.build_grid(1.0, 1.5)
    basis = polaronlab.enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    op = polaronlab.assemble_fiber(
        polaronlab.FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2), basis)
    spectrum = polaronlab.dense_spectrum(op, k=3)
    audit = polaronlab.resolvent_positivity_audit(polaronlab.sign_flip(op), 1.0 - spectrum[0])
    assert results.split() == [spectrum.tobytes().hex(), audit.min_entry.hex()]


def test_subcommands_leave_scipy_linalg_unloaded(tmp_path):
    # each subcommand at its defaults, then checks on both shipped configs,
    # in one fresh interpreter: the exit status and whether scipy.linalg is
    # loaded after each
    runs = [["torus"], ["dispersion"], ["extrapolate"], ["kernel"],
            ["checks", "--config", str(CONFIGS / "quick.cfg")],
            ["checks", "--config", str(CONFIGS / "desk.cfg")]]
    code = ("import sys\nfrom polaronlab import cli\n"
            f"for i, args in enumerate({runs!r}):\n"
            f"    status = cli.main(args + ['--out', {str(tmp_path)!r} + f'/{{i}}'])\n"
            "    print(status, 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 False"] * len(runs)


def test_nan_coupling_reaching_the_secular_route_exits_2(tmp_path, capsys, monkeypatch):
    # the last mode lies only in the largest cutoff's grid, so E(3) and E(4)
    # are solved before the NaN is met
    build = polaronlab.dispersion.build_grid

    def poisoned(delta, lam):
        grid = build(delta, lam)
        grid.couplings[-1] = np.nan
        return grid

    monkeypatch.setattr(polaronlab.dispersion, "build_grid", poisoned)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.1\nlambda_values = 3,4,5\ndelta = 1\nnmax = 1\n")
    out = tmp_path / "out"
    assert main(["extrapolate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "NumericalError: non-finite secular equation" in capsys.readouterr().err
    assert not (out / "extrapolation.csv").exists()
