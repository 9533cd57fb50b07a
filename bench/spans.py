"""Span recorder for the traced benchmark run, and the per-layer metrics.

Tracing works from outside the package: `installed` replaces each traced
public function at every module-global name bound to it (``dispersion``,
``torus`` and ``cli`` import ``build_grid``, ``assemble_fiber``,
``ground_state`` and friends by name, so patching the defining module alone
would miss their calls) and wraps ``SparseOperator.matvec`` and
``BasisIndex.raise_map`` on the class.  Every call becomes one span with a
parent and an op id.  Parent stacks are per thread; a span opened on a thread
with an empty stack (a ``ThreadPoolExecutor`` worker in ``torus`` or
``dispersion``) takes as parent the innermost open span of the thread that
runs the op, which is blocked in the pool call at that moment.  Spans stay in
memory until the benchmark writes them out at the end.

The one gap (UNMEASURED) is printed with every traced run.
"""

import functools
import itertools
import statistics
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

UNMEASURED = (
    "operators.matvec.calls and .s exclude the power-iteration products inside "
    "weighted_annihilation_norm, neumann_norms and neumann_constant: they call "
    "scipy sparse products directly, which cannot be intercepted from outside "
    "the package"
)

# traced functions: layer name -> (module, attribute)
FUNCTIONS = {
    "modes.build_grid": ("modes", "build_grid"),
    "fock.enumerate_basis": ("fock", "enumerate_basis"),
    "operators.assemble_fiber": ("operators", "assemble_fiber"),
    "operators.annihilation_csr": ("operators", "annihilation_csr"),
    "operators.weighted_annihilation_norm": ("operators", "weighted_annihilation_norm"),
    "operators.neumann_norms": ("operators", "neumann_norms"),
    "operators.neumann_constant": ("operators", "neumann_constant"),
    "solve.ground_state": ("solve", "ground_state"),
    "solve.lowest_eigenpairs": ("solve", "lowest_eigenpairs"),
    "solve.dense_spectrum": ("solve", "dense_spectrum"),
    "solve.resolvent_positivity_audit": ("solve", "resolvent_positivity_audit"),
    "dispersion.cutoff_extrapolate": ("dispersion", "cutoff_extrapolate"),
    "dispersion.hvz_edge_check": ("dispersion", "hvz_edge_check"),
    "torus.assemble_torus": ("torus", "assemble_torus"),
    "torus.degeneracy_analysis": ("torus", "degeneracy_analysis"),
    "cli.main": ("cli", "main"),
}
# traced methods: layer name -> (module, class, attribute)
METHODS = {
    "fock.raise_map": ("fock", "BasisIndex", "raise_map"),
    "operators.matvec": ("operators", "SparseOperator", "matvec"),
}
MODULES = ("modes", "fock", "operators", "solve", "dispersion", "torus", "cli")
SOLVES = ("solve.ground_state", "solve.lowest_eigenpairs")
CPU_TRACED = ("torus.degeneracy_analysis",)

# per-layer metric -> (unit, better); the order is the order of the output
LAYER_METRICS = {
    "modes.build_grid.s": ("s", "lower"),
    "modes.build_grid.modes": ("count", "lower"),
    "fock.enumerate_basis.s": ("s", "lower"),
    "fock.raise_map.s": ("s", "lower"),
    "fock.dim": ("count", "lower"),
    "operators.assemble_fiber.s": ("s", "lower"),
    "operators.assemble_fiber.calls": ("count", "lower"),
    "operators.nnz": ("count", "lower"),
    "operators.annihilation_csr.s": ("s", "lower"),
    "operators.weighted_annihilation_norm.s": ("s", "lower"),
    "operators.neumann.s": ("s", "lower"),
    "operators.matvec.calls": ("count", "lower"),
    "operators.matvec.s": ("s", "lower"),
    "operators.matvec.gbps": ("GB/s_computed", "higher"),
    "solve.ground_state.s": ("s", "lower"),
    "solve.lowest_eigenpairs.s": ("s", "lower"),
    "solve.iterations": ("count", "lower"),
    "solve.overhead_s": ("s", "lower"),
    "solve.matvec_frac": ("ratio", "higher"),
    "solve.dense_spectrum.s": ("s", "lower"),
    "solve.resolvent_positivity_audit.s": ("s", "lower"),
    "dispersion.cutoff_extrapolate.s": ("s", "lower"),
    "dispersion.cutoff_extrapolate.self_s": ("s", "lower"),
    "dispersion.hvz_edge_check.s": ("s", "lower"),
    "dispersion.hvz_edge_check.self_s": ("s", "lower"),
    "torus.assemble_torus.s": ("s", "lower"),
    "torus.degeneracy_analysis.s": ("s", "lower"),
    "torus.cpu_per_wall": ("ratio", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    op: int
    name: str
    thread: int
    t0: float
    t1: float = 0.0
    cpu0: float = 0.0
    cpu1: float = 0.0
    info: dict = field(default_factory=dict)


class Recorder:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Start op `op` on the calling thread, which becomes the op thread."""
        self.op = op
        self._op_stack = self._stack()

    def open(self, name: str) -> Span:
        stack = self._stack()
        source = stack or self._op_stack
        try:
            parent = source[-1].sid
        except IndexError:
            parent = None
        span = Span(next(self._ids), parent, self.op, name,
                    threading.get_ident(), time.perf_counter())
        if name in CPU_TRACED:
            span.cpu0 = time.process_time()
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        if span.name in CPU_TRACED:
            span.cpu1 = time.process_time()
        self._stack().pop()
        self.spans.append(span)


def _matvec_bytes(op) -> int:
    """Computed bytes of one CSR product with the symmetrized operator.

    int32 indices, float64 values: 12 bytes per stored entry, 4 per row
    pointer, and the input and output vectors once each.  Cache misses are
    not counted, so the derived rate is labelled computed.
    """
    n = op.dimension
    n_diag = int((op.rows == op.cols).sum())
    nnz_full = 2 * op.nnz - n_diag
    return 12 * nnz_full + 4 * (n + 1) + 16 * n


def _annotate(name, span, out, args, bytes_cache):
    if name == "modes.build_grid":
        span.info["modes"] = len(out)
    elif name == "fock.enumerate_basis":
        span.info["dim"] = out.dimension
    elif name == "operators.assemble_fiber":
        span.info["nnz"] = out.nnz
    elif name == "solve.ground_state":
        span.info["iterations"] = out.iterations
    elif name == "solve.lowest_eigenpairs":
        span.info["iterations"] = sum(r.iterations for r in out)
    elif name == "operators.matvec":
        op = args[0]
        if op not in bytes_cache:
            bytes_cache[op] = _matvec_bytes(op)
        span.info["bytes"] = bytes_cache[op]


def _traced(recorder, name, fn, bytes_cache):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        _annotate(name, span, out, args, bytes_cache)
        return out

    return traced


@contextmanager
def installed(recorder: Recorder, pl):
    """Route every traced call of package `pl` through `recorder`; undo on exit."""
    modules = [pl] + [getattr(pl, m) for m in MODULES]
    bytes_cache = weakref.WeakKeyDictionary()
    undo = []
    try:
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(getattr(pl, mod), attr)
            wrapper = _traced(recorder, name, orig, bytes_cache)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        undo.append((module, key, orig))
                        setattr(module, key, wrapper)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(getattr(pl, mod), cls_name)
            orig = vars(cls)[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, _traced(recorder, name, orig, bytes_cache))
        yield recorder
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


# -- self time and per-layer metrics -----------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_time(span: Span, children) -> float:
    """Duration minus the part of it that the child spans cover."""
    return (span.t1 - span.t0) - covered(
        [(c.t0, c.t1) for c in children], span.t0, span.t1)


def op_metrics(spans) -> dict:
    """Per-layer metrics of one op's spans (all but trace.overhead_frac).

    A ``.s`` metric is the summed duration of that function's spans, so it
    includes traced calls nested inside it (``ground_state`` contains its
    ``lowest_eigenpairs``); ``solve.iterations``, ``solve.overhead_s`` and
    ``solve.matvec_frac`` count only the outermost solve span of each nest.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def busy(name):
        return sum(s.t1 - s.t0 for s in by_name[name])

    def self_sum(name):
        return sum(self_time(s, children[s.sid]) for s in by_name[name])

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    def outer_solve(span):
        """Outermost solve span among `span` and its ancestors, or None."""
        found = None
        while span is not None:
            if span.name in SOLVES:
                found = span
            span = by_id.get(span.parent)
        return found

    solve_spans = [s for name in SOLVES for s in by_name[name]]
    outer = [s for s in solve_spans if outer_solve(by_id.get(s.parent)) is None]
    matvec_in = defaultdict(list)
    for mv in by_name["operators.matvec"]:
        root = outer_solve(mv)
        if root is not None:
            matvec_in[root.sid].append((mv.t0, mv.t1))
    solve_wall = sum(s.t1 - s.t0 for s in outer)
    solve_matvec = sum(covered(matvec_in[s.sid], s.t0, s.t1) for s in outer)
    matvec_s = busy("operators.matvec")
    deg = by_name["torus.degeneracy_analysis"]
    deg_wall = busy("torus.degeneracy_analysis")

    return {
        "modes.build_grid.s": busy("modes.build_grid"),
        "modes.build_grid.modes": info_sum("modes.build_grid", "modes"),
        "fock.enumerate_basis.s": busy("fock.enumerate_basis"),
        "fock.raise_map.s": busy("fock.raise_map"),
        "fock.dim": info_sum("fock.enumerate_basis", "dim"),
        "operators.assemble_fiber.s": busy("operators.assemble_fiber"),
        "operators.assemble_fiber.calls": len(by_name["operators.assemble_fiber"]),
        "operators.nnz": info_sum("operators.assemble_fiber", "nnz"),
        "operators.annihilation_csr.s": busy("operators.annihilation_csr"),
        "operators.weighted_annihilation_norm.s": busy("operators.weighted_annihilation_norm"),
        "operators.neumann.s": busy("operators.neumann_norms") + busy("operators.neumann_constant"),
        "operators.matvec.calls": len(by_name["operators.matvec"]),
        "operators.matvec.s": matvec_s,
        "operators.matvec.gbps": (info_sum("operators.matvec", "bytes") / matvec_s / 1e9
                                  if matvec_s > 0 else 0.0),
        "solve.ground_state.s": busy("solve.ground_state"),
        "solve.lowest_eigenpairs.s": busy("solve.lowest_eigenpairs"),
        "solve.iterations": sum(s.info.get("iterations", 0) for s in outer),
        "solve.overhead_s": solve_wall - solve_matvec,
        "solve.matvec_frac": solve_matvec / solve_wall if solve_wall > 0 else 0.0,
        "solve.dense_spectrum.s": busy("solve.dense_spectrum"),
        "solve.resolvent_positivity_audit.s": busy("solve.resolvent_positivity_audit"),
        "dispersion.cutoff_extrapolate.s": busy("dispersion.cutoff_extrapolate"),
        "dispersion.cutoff_extrapolate.self_s": self_sum("dispersion.cutoff_extrapolate"),
        "dispersion.hvz_edge_check.s": busy("dispersion.hvz_edge_check"),
        "dispersion.hvz_edge_check.self_s": self_sum("dispersion.hvz_edge_check"),
        "torus.assemble_torus.s": busy("torus.assemble_torus"),
        "torus.degeneracy_analysis.s": deg_wall,
        "torus.cpu_per_wall": (sum(s.cpu1 - s.cpu0 for s in deg) / deg_wall
                               if deg_wall > 0 else 0.0),
        "cli.main.s": busy("cli.main"),
        "cli.self_s": self_sum("cli.main"),
    }


def layer_metrics(spans, overhead_frac: float) -> dict:
    """Median over ops of each per-layer metric, plus trace.overhead_frac.

    `overhead_frac` is traced / untraced wall time - 1 over the same ops.
    """
    per_op = defaultdict(list)
    for s in spans:
        per_op[s.op].append(s)
    rows = [op_metrics(per_op[op]) for op in sorted(per_op)] or [op_metrics([])]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in LAYER_METRICS}
