"""Benchmark of polaronlab: time to a certified result on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py): torus and checks_quick, which
BENCHMARK.json lists, and extrapolate and norm, which it leaves out.  On a
shared 2-core host whose speed drifts by 20 to 30% over minutes, only two
workloads fit runs long enough to average that drift, and checks_quick
already runs every traced layer; extrapolate, with 3 to 5 ops a run whose
times move by 10% with the start vectors, spread the most.  norm's power
iteration takes 170 to 615 steps depending on the start vector, so its
median op time over one run moves by 15 to 20% from seed to seed.  Each
run uses fresh interpreters only:

* with ``--trace 0``, SETUP_SAMPLES interpreters are timed from spawn to
  ``ready`` (imports plus the workload's one-time set-up; one of them goes
  on to run the workload, the others start before and after it, so the
  samples span the run), and the reported end-to-end metrics are
  ``op_s`` and ``cpu_s`` (median wall and process CPU time per op),
  ``setup_s`` (median set-up time) and ``peak_rss_mb`` (ru_maxrss of the
  workload process after its first op);
* with ``--trace 1``, one interpreter runs the workload untraced for half the
  seconds and traced for the other half and reports the per-layer metrics
  of spans.py, including ``trace.overhead_frac``.

Every op is checked against a seed-independent oracle (oracles.py).  Ops
that raise or fail their check count in ``failed`` out of ``attempted``
(their ratio is failed_frac); ``correct`` is true only when none failed.
The BLAS thread settings are left as found, except on torus (PINNED_ENV),
and recorded in the provenance both as found and as the worker ran.
The last line of standard output is the JSON result; the full record,
provenance included, goes to ``.bench_out/``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import spans  # stdlib only: the per-layer metric table

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("torus", "extrapolate", "norm", "checks_quick")
SETUP_SAMPLES = 6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# torus solves its seven fibers on a pool of threads = 2 = nproc; with the
# BLAS threads as found on top, four spinning threads share two cores, and the
# per-run median op time moved 9.1 to 11.7 s across runs (ten-run quartile
# spread up to 25% of the median), measuring the scheduler of a shared host
# more than the program.  With one BLAS thread per pool thread it moved
# 7.07 to 7.38 s.  The other workloads run one pool thread and keep the BLAS
# threads as found.
PINNED_ENV = {"torus": {name: "1" for name in THREAD_VARS}}
DEADLINE_S = 170.0  # the whole run, set-up spawns included


@contextmanager
def worker(args, env, deadline):
    """Run worker.py; yield (proc, seconds from spawn to its ready line).

    The worker is killed when it overruns the deadline or when this process
    leaves the block early, and is always waited for.
    """
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    # a killed worker's pipe reads EOF, which ends the reads below
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"worker {' '.join(args)} did not become ready")
        yield proc, ready
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def finish(proc):
    """The worker's remaining output, after it has exited with code 0."""
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def summary(name, values, unit):
    values = sorted(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} over {len(values)} "
            f"samples (min {values[0]:.6g}, max {values[-1]:.6g})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "polaronlab", "__init__.py")):
        print(f"no polaronlab sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **PINNED_ENV.get(args.workload, {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    os.makedirs(OUT_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # on SIGTERM unwind through the worker blocks, which stop the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setup = []

    def setup_only():
        with worker(common + ["--setup-only"], env, deadline) as (proc, ready):
            finish(proc)
        setup.append(ready)

    # the host's speed drifts over tens of seconds: sample set-up on both sides
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        for _ in range(extra // 2):
            setup_only()
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        with worker(run_args, env, deadline) as (proc, ready):
            out = finish(proc)
        setup.append(ready)
        for _ in range(extra - extra // 2):
            setup_only()
        report = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, (unit, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {
            "op_s": {"value": statistics.median(report["op_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(report["cpu_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"failed_frac = {report['failed']} failed / {report['attempted']} ops attempted")
    print(summary("op_s (untraced)", report["op_s"], "s"))
    print(summary("cpu_s (untraced)", report["cpu_s"], "s"))
    if args.trace:
        print(summary("op_s (traced)", report["traced_op_s"], "s"))
        print("not measured: " + spans.UNMEASURED)
    else:
        print(summary("setup_s", setup, "s"))
    prov = dict(report["provenance"],
                thread_env_found={k: os.environ.get(k) for k in THREAD_VARS})
    print("provenance: " + json.dumps(prov, sort_keys=True))
    record = dict(result, setup_s=setup, samples={k: report[k] for k in
                  ("op_s", "cpu_s", "traced_op_s")}, provenance=prov)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
