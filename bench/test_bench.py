"""Self-tests of the benchmark: span arithmetic, tracer wiring, oracles.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import polaronlab as pl  # noqa: E402
import polaronlab.cli  # noqa: E402,F401

import oracles  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def span(sid, parent, name, t0, t1, thread=1, **info):
    return Span(sid, parent, 0, name, thread, t0, t1, info=info)


# -- self-time arithmetic ------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert spans.covered([], 0.0, 10.0) == 0.0
    assert spans.covered([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert spans.covered([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert spans.covered([(1, 4), (2, 3)], 0.0, 10.0) == 3.0


def test_self_time_nested_tree():
    # cli.main [0, 10] > cutoff_extrapolate [1, 6] > ground_state [2, 5] > matvec [3, 4]
    tree = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "dispersion.cutoff_extrapolate", 1.0, 6.0),
        span(2, 1, "solve.ground_state", 2.0, 5.0, iterations=7),
        span(3, 2, "operators.matvec", 3.0, 4.0, bytes=2e9),
        span(4, 0, "modes.build_grid", 5.5, 7.0, modes=10),
    ]
    m = spans.op_metrics(tree)
    assert m["cli.main.s"] == 10.0
    assert m["cli.self_s"] == pytest.approx(10.0 - 6.0)  # children cover [1, 7]
    assert m["dispersion.cutoff_extrapolate.self_s"] == pytest.approx(2.0)
    assert m["solve.overhead_s"] == pytest.approx(2.0)
    assert m["solve.matvec_frac"] == pytest.approx(1.0 / 3.0)
    assert m["solve.iterations"] == 7
    assert m["operators.matvec.gbps"] == pytest.approx(2.0)
    assert m["modes.build_grid.modes"] == 10


def test_self_time_cross_thread_children():
    # degeneracy_analysis [0, 10] on thread 1, solves on pool threads 2 and 3
    tree = [
        span(0, None, "torus.degeneracy_analysis", 0.0, 10.0),
        span(1, 0, "solve.lowest_eigenpairs", 1.0, 6.0, thread=2, iterations=3),
        span(2, 0, "solve.lowest_eigenpairs", 2.0, 8.0, thread=3, iterations=4),
        span(3, 1, "operators.matvec", 1.5, 2.5, thread=2, bytes=0),
        span(4, 2, "operators.matvec", 2.0, 3.0, thread=3, bytes=0),
        span(5, 2, "operators.matvec", 7.0, 8.0, thread=3, bytes=0),
    ]
    parent = tree[0]
    assert spans.self_time(parent, tree[1:3]) == pytest.approx(10.0 - 7.0)
    m = spans.op_metrics(tree)
    assert m["solve.lowest_eigenpairs.s"] == pytest.approx(11.0)
    assert m["solve.iterations"] == 7
    assert m["solve.overhead_s"] == pytest.approx(11.0 - 3.0)
    assert m["operators.matvec.calls"] == 3


def test_nested_solve_spans_count_iterations_once():
    tree = [
        span(0, None, "solve.ground_state", 0.0, 4.0, iterations=5),
        span(1, 0, "solve.lowest_eigenpairs", 0.5, 3.5, iterations=5),
        span(2, 1, "operators.matvec", 1.0, 2.0, bytes=0),
    ]
    m = spans.op_metrics(tree)
    assert m["solve.iterations"] == 5
    assert m["solve.overhead_s"] == pytest.approx(3.0)


def test_layer_metrics_take_median_over_ops_and_report_overhead():
    ops = [Span(i, None, op, "cli.main", 1, 0.0, t) for i, (op, t) in
           enumerate([(0, 1.0), (1, 3.0), (2, 2.0)])]
    m = spans.layer_metrics(ops, overhead_frac=0.1)
    assert list(m) == list(spans.LAYER_METRICS)
    assert m["cli.main.s"] == 2.0
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    assert m["torus.degeneracy_analysis.s"] == 0.0


# -- recorder and patching -----------------------------------------------------

def test_recorder_parents_per_thread_and_pool_threads():
    rec = spans.Recorder()
    rec.begin_op(0)
    outer = rec.open("torus.degeneracy_analysis")
    seen = {}

    def pool_work(tag):
        s = rec.open("solve.lowest_eigenpairs")
        inner = rec.open("operators.matvec")
        rec.close(inner)
        rec.close(s)
        seen[tag] = (s, inner)

    threads = [threading.Thread(target=pool_work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    rec.close(outer)
    for s, inner in seen.values():
        assert s.parent == outer.sid
        assert inner.parent == s.sid
        assert s.op == 0
    assert outer.parent is None
    assert len(rec.spans) == 5


def test_installed_traces_bound_names_and_restores_them():
    originals = (pl.dispersion.build_grid, pl.cli.main, pl.SparseOperator.matvec)
    rec = spans.Recorder()
    rec.begin_op(0)
    with spans.installed(rec, pl):
        assert pl.dispersion.build_grid is pl.modes.build_grid is pl.build_grid
        assert pl.dispersion.build_grid is not originals[0]
        pl.hvz_edge_check(1.0, 1.0, 2.0, 1, (0.0, 0.0, 2.0), seed=3)
    assert (pl.dispersion.build_grid, pl.cli.main, pl.SparseOperator.matvec) == originals
    names = {s.name for s in rec.spans}
    assert {"modes.build_grid", "fock.enumerate_basis", "operators.assemble_fiber",
            "solve.ground_state", "solve.lowest_eigenpairs", "operators.matvec"} <= names
    m = spans.op_metrics(rec.spans)
    assert m["operators.assemble_fiber.calls"] == 2
    assert m["solve.iterations"] > 0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import run
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(run.PINNED_ENV) <= set(run.WORKLOADS)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS) - {"extrapolate", "norm"}
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == spans.LAYER_METRICS
    assert [m["name"] for m in bench["end_to_end"]] == ["op_s", "cpu_s", "setup_s",
                                                        "peak_rss_mb"]


# -- oracles against dense references -------------------------------------------

@pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (0.0, 0.3, 0.8)])
def test_secular_root_matches_dense_spectrum(p):
    grid = pl.build_grid(1.0, 2.0)
    basis = pl.enumerate_basis(len(grid), 1, grid.units, grid.spacing)
    cfg = pl.FiberConfig(alpha=1.0, p=np.asarray(p), grid=grid, n_max=1)
    dense = pl.dense_spectrum(pl.assemble_fiber(cfg, basis), k=1)[0]
    assert oracles.secular_ground_energy(1.0, p, grid) == pytest.approx(dense, abs=1e-12)


def test_weighted_norm_reference_matches_dense_two_norm():
    grid = pl.build_grid(1.0, 2.0)
    basis = pl.enumerate_basis(len(grid), 2, grid.units, grid.spacing)
    cfg = pl.FiberConfig(alpha=1.0, p=np.zeros(3), grid=grid, n_max=2)
    a = pl.annihilation_csr(cfg, basis)
    w = ((pl.kinetic_diagonal(cfg, basis) + 1.0) ** -0.5
         * (basis.total_numbers() + 1.0) ** -0.25)
    dense = np.linalg.norm(a.toarray() * w[None, :], 2)
    assert oracles.weighted_norm_reference(pl, cfg, basis) == pytest.approx(dense, rel=1e-12)
    assert oracles.check_norm(pl.weighted_annihilation_norm(cfg, basis, seed=5), dense) == []


def test_checks_flag_wrong_results():
    class Report:
        lambdas, energies, e_inf = (4.0,), (-0.01,), -0.0125

    assert oracles.check_extrapolation(Report, 0.1, [-0.01]) == []
    assert oracles.check_extrapolation(Report, 0.1, [-0.01 + 1e-7]) != []
    assert oracles.check_norm(0.5, 0.5) != []
    assert oracles.check_checks(0, b'{"passed": true}', b'{"passed": true}') == []
    assert oracles.check_checks(0, b'{"passed": true}', b'{"passed": true }') != []
    assert oracles.check_checks(1, b'{"passed": false}', b'{"passed": false}') != []
