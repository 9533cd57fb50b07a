"""The benchmark workloads (BENCHMARK.json lists torus, checks_quick; see run.py).

Constructing a workload is its one-time set-up (counted in setup_s); `run`
is one op, a public pipeline call that yields a certified result;
`reference` and `check` are the seed-independent oracle, evaluated after the
timed ops.

The workload seed reaches every public call as `seed=`, where it picks the
Lanczos and power-iteration start vectors.  Their iteration counts depend on
that choice (power iteration on `norm` takes 170 to 615 steps across seeds),
so each op of torus, extrapolate and norm draws its own seed from a generator
seeded with the workload seed, and a run's median samples the start-vector
distribution instead of a single point of it.  checks_quick keeps the
workload seed for every op, as its oracle compares output bytes across ops.
"""

import math
import os
import random
import shutil

import numpy as np

import polaronlab as pl
import polaronlab.cli  # noqa: F401  (binds pl.cli for checks_quick and the tracer)

import oracles


class Workload:
    """Shared plumbing: the per-op seed sequence and the default oracle."""

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.rewind()

    def rewind(self):
        """Restart the per-op seeds, so a second phase replays the same ops."""
        self._seeds = random.Random(self.seed)

    def op_seed(self) -> int:
        return self._seeds.randrange(2**31)

    def reference(self):
        return None


class Torus(Workload):
    """Desk torus family: 7 fibers x 33,153 states, k = 2 per fiber, 2 pool threads.

    Deflated second-level solves, P-dependent reassembly over one shared
    basis, and the thread pool; run.py pins the BLAS to one thread here.
    """

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.cfg = pl.TorusConfig(ell=2.0 * math.pi, alpha=1.0, delta=0.75,
                                  cutoff=3.0, n_max=2, fiber_cutoff=1.0)

    def run(self):
        model = pl.assemble_torus(self.cfg)
        return pl.degeneracy_analysis(model, seed=self.op_seed(), threads=2)

    def check(self, report, ref):
        return oracles.check_torus(pl, report)


class Extrapolate(Workload):
    """Cutoff extrapolation at N_max = 1, Lambda = 4..16 (up to 267,761 states).

    Large single-vector solves and grid quadrature at scale; no deflation and
    no thread pool.
    """

    ALPHA = 0.1

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.schedule = pl.CutoffSchedule(lambdas=(4.0, 8.0, 12.0, 16.0),
                                          delta=0.4, n_max=1)

    def run(self):
        return pl.cutoff_extrapolate(self.ALPHA, self.schedule, p=(0.0, 0.0, 0.0),
                                     seed=self.op_seed(), threads=1)

    def reference(self):
        return [oracles.secular_ground_energy(self.ALPHA, np.zeros(3),
                                              pl.build_grid(self.schedule.delta, lam))
                for lam in self.schedule.lambdas]

    def check(self, report, ref):
        return oracles.check_extrapolation(report, self.ALPHA, ref)


class Norm(Workload):
    """Criterion-6 certificate: 924 modes, 428,275 states, no eigensolver."""

    ALPHA, DELTA, CUTOFF, N_MAX = 1.0, 0.5, 3.0, 2

    def _problem(self):
        grid = pl.build_grid(self.DELTA, self.CUTOFF)
        basis = pl.enumerate_basis(len(grid), self.N_MAX, grid.units, grid.spacing)
        cfg = pl.FiberConfig(alpha=self.ALPHA, p=np.zeros(3), grid=grid, n_max=self.N_MAX)
        return cfg, basis

    def run(self):
        cfg, basis = self._problem()
        return pl.weighted_annihilation_norm(cfg, basis, seed=self.op_seed())

    def reference(self):
        return oracles.weighted_norm_reference(pl, *self._problem())

    def check(self, value, ref):
        return oracles.check_norm(value, ref)


class ChecksQuick(Workload):
    """`polaronlab checks` on configs/quick.cfg: about 20 small problems at threads=1.

    Per-call overhead dominates, so added fixed set-up cost shows here first.
    """

    CONFIG = os.path.join("configs", "quick.cfg")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.count = 0
        self.first = None

    def run(self):
        out = os.path.join(self.out_dir, f"checks-{os.getpid()}-{self.count}")
        self.count += 1
        try:
            code = pl.cli.main(["checks", "--config", self.CONFIG, "--out", out,
                                "--seed", str(self.seed)])
            with open(os.path.join(out, "checks.json"), "rb") as fh:
                data = fh.read()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return code, data

    def check(self, result, ref):
        code, data = result
        if self.first is None:
            self.first = data
        return oracles.check_checks(code, data, self.first)


WORKLOADS = {
    "torus": Torus,
    "extrapolate": Extrapolate,
    "norm": Norm,
    "checks_quick": ChecksQuick,
}
