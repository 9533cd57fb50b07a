"""One workload in one fresh process; started by run.py, not by hand.

Prints ``ready`` once set-up is done (imports plus the workload's one-time
set-up), then runs ops back to back for the given seconds, checks every op
against the workload's oracle and prints one JSON line with the samples.
With ``--trace 1`` the untraced ops get half the seconds, and then the same
ops (same per-op seeds) run again under the span recorder, so the tracing
overhead compares like with like in one process.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy
import scipy

import spans
import workloads  # imports polaronlab
from run import THREAD_VARS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def measure(workload, seconds, ops=None, recorder=None):
    """Run ops back to back: `ops` of them, or else as many as fit in `seconds`.

    At least one op runs; after that an op starts only if the median op so far
    would end within `seconds`, so a run of long ops does not overshoot by
    most of an op.  Returns the (wall, cpu, result, error) samples and the
    peak resident set in MiB right after the first op, which is what one
    pipeline call in a fresh process peaks at; later ops only add allocator
    fragmentation.
    """
    samples, first_peak = [], None
    start = time.perf_counter()

    def more():
        if not samples:
            return True
        if ops is not None:
            return len(samples) < ops
        typical = statistics.median(s[0] for s in samples)
        return time.perf_counter() - start + typical <= seconds

    while more():
        if recorder is not None:
            recorder.begin_op(len(samples))
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = workload.run(), None
        except Exception:
            result, error = None, traceback.format_exc()
        t1, c1 = time.perf_counter(), time.process_time()
        samples.append((t1 - t0, c1 - c0, result, error))
        if first_peak is None:
            first_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return samples, first_peak


def verdicts(workload, samples):
    """Oracle problems per sample (empty list = correct), outside the timed ops."""
    try:
        ref = workload.reference()
    except Exception:
        return [["oracle failed: " + traceback.format_exc()]] * len(samples)
    out = []
    for _, _, result, error in samples:
        if error is not None:
            out.append(["op raised: " + error])
            continue
        try:
            out.append(workload.check(result, ref))
        except Exception:
            out.append(["check raised: " + traceback.format_exc()])
    return out


def git_commit(root):
    """Commit id read from .git without leaving the checkout; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the package sources, identifying the code in a non-git checkout."""
    pkg = os.path.join(root, "src", "polaronlab")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance():
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    plain_s = args.seconds / 2 if args.trace else args.seconds
    plain, peak_rss_mib = measure(workload, plain_s)
    traced, layers = [], None
    if args.trace:
        recorder = spans.Recorder()
        workload.rewind()
        with spans.installed(recorder, workloads.pl):
            traced, _ = measure(workload, 0.0, ops=len(plain), recorder=recorder)
        overhead = sum(s[0] for s in traced) / sum(s[0] for s in plain) - 1.0
        layers = spans.layer_metrics(recorder.spans, overhead)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w") as fh:
            for s in recorder.spans:
                fh.write(json.dumps(vars(s)) + "\n")

    problems = verdicts(workload, plain + traced)
    for i, probs in enumerate(problems):
        for p in probs:
            print(f"op {i}: {p}", file=sys.stderr)
    print(json.dumps({
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "op_s": [s[0] for s in plain],
        "cpu_s": [s[1] for s in plain],
        "traced_op_s": [s[0] for s in traced],
        "peak_rss_mb": peak_rss_mib,
        "layers": layers,
        "provenance": provenance(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
