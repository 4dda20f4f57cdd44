"""Runs one workload as a closed loop with a single caller and computes its metrics.

The next solve starts when the previous one has returned and been checked.
Only the solve call is timed; making the input and checking the output are
not.  After each solve the run times the workload's fixed reference
kernel, if it has one, and every reported time is rescaled by it to a host
of reference speed (see ``reference``); the full report keeps the raw
wall-clock figures too.  An untraced run gives the end-to-end metrics.  A traced run first
repeats the untraced loop for half the time as a reference, then installs
the wrappers and gives the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy
import scipy

from . import reference
from .spans import Target, Tracer, child_counts, totals
from .workloads import WORKLOADS, instance_seed

SETUP_ROUNDS = 5
IMPORT_KERNELS = 3
REFERENCE_SHARE = 0.5
MAX_LISTED_FAILURES = 20

# The metrics of the last output line, as BENCHMARK.json lists them.
END_TO_END = {
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _callbacks(tracer, maps):
    """Wrap the residual and Jacobian closures that a residual map returns."""
    residual, jacobian, *rest = maps
    return (
        tracer.wrap(residual, "refine.residual"),
        tracer.wrap(jacobian, "refine.jacobian", measure=lambda args, J: J.nbytes),
        *rest,
    )


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _svd_bytes(args, out):
    return sum(a.nbytes for a in out)


_CALLBACKS = ("refine.residual", "refine.jacobian")

TARGETS = [
    Target("symapprox", "approx_sym", "symapprox.approx_sym"),
    Target("symapprox", "solve_generating_matrix", "symapprox.solve_generating_matrix"),
    Target("symapprox", "assemble_system", "symapprox.assemble_system"),
    Target("symapprox", "extract_points", "symapprox.extract_points"),
    Target("symapprox", "solve_coefficients", "symapprox.solve_coefficients"),
    Target("symapprox", "reconstruct_sym", "symapprox.reconstruct_sym"),
    # linalg functions bound into the pipeline modules by `from .linalg import`
    Target("symapprox", "lstsq_min_norm", "linalg.lstsq_min_norm"),
    Target("symapprox", "schur", "linalg.schur"),
    Target("nonsymapprox", "lstsq_min_norm", "linalg.lstsq_min_norm"),
    Target("nonsymapprox", "schur", "linalg.schur"),
    Target("nonsymapprox", "approx_nonsym", "nonsymapprox.approx_nonsym"),
    Target("nonsymapprox", "solve_generating_matrix_ns", "nonsymapprox.solve_generating_matrix_ns"),
    Target("nonsymapprox", "assemble_system_ns", "nonsymapprox.assemble_system_ns"),
    Target("nonsymapprox", "extract_modes", "nonsymapprox.extract_modes"),
    Target("nonsymapprox", "build_mjk", "nonsymapprox.build_mjk"),
    Target("nonsymapprox", "solve_first_mode", "nonsymapprox.solve_first_mode"),
    Target("nonsymapprox", "reconstruct_ns", "nonsymapprox.reconstruct_ns"),
    Target(
        "refine", "levenberg_marquardt", "refine.levenberg_marquardt", measure=lambda args, out: out[2]
    ),
    Target("refine", "sym_residual_map", "refine.sym_residual_map", transform=_callbacks, also=_CALLBACKS),
    Target("refine", "ns_residual_map", "refine.ns_residual_map", transform=_callbacks, also=_CALLBACKS),
    Target("tensors", "SymTensor.__init__", "tensors.SymTensor"),
    Target("generate", "gen_random_sym", "generate.gen_random_sym"),
    Target("generate", "gen_random_ns", "generate.gen_random_ns"),
    Target("tensorio", "write_tensor", "tensorio.write_tensor"),
    Target("rank", "svd", "rank.svd", measure=_svd_bytes),
    Target("cli", "main", "cli.main"),
    # names the CLI binds by `from ... import`
    Target("cli", "read_tensor", "tensorio.read_tensor", measure=_file_bytes),
    Target("cli", "write_report", "tensorio.write_report"),
    Target("cli", "spectrum_ns", "rank.spectrum_ns"),
    Target("cli", "approx_nonsym", "nonsymapprox.approx_nonsym"),
]

_UNITS = {"calls": "count/solve", "s": "s/solve", "self_s": "s/solve"}

# (metric, span, Totals field, unit); every value is a total over the traced
# loop divided by its number of solves.
PER_SOLVE = [
    (f"{span}.{fld}", span, fld, _UNITS[fld])
    for span, fld in [
        ("symapprox.assemble_system", "calls"),
        ("symapprox.assemble_system", "s"),
        ("symapprox.solve_generating_matrix", "s"),
        ("symapprox.extract_points", "s"),
        ("symapprox.solve_coefficients", "s"),
        ("symapprox.reconstruct_sym", "s"),
        ("symapprox.approx_sym", "self_s"),
        ("nonsymapprox.extract_modes", "self_s"),
        ("nonsymapprox.build_mjk", "calls"),
        ("nonsymapprox.solve_generating_matrix_ns", "s"),
        ("nonsymapprox.assemble_system_ns", "s"),
        ("nonsymapprox.solve_first_mode", "s"),
        ("nonsymapprox.reconstruct_ns", "s"),
        ("nonsymapprox.approx_nonsym", "self_s"),
        ("linalg.lstsq_min_norm", "calls"),
        ("linalg.lstsq_min_norm", "s"),
        ("linalg.schur", "calls"),
        ("linalg.schur", "s"),
        ("refine.levenberg_marquardt", "calls"),
        ("refine.levenberg_marquardt", "self_s"),
        ("refine.jacobian", "calls"),
        ("refine.jacobian", "s"),
        ("refine.residual", "calls"),
        ("refine.residual", "s"),
        ("tensors.SymTensor", "calls"),
        ("tensors.SymTensor", "s"),
        ("generate.gen_random_sym", "s"),
        ("generate.gen_random_ns", "s"),
        ("tensorio.read_tensor", "s"),
        ("tensorio.write_report", "s"),
        ("tensorio.write_tensor", "s"),
        ("rank.spectrum_ns", "s"),
        ("rank.svd", "s"),
        ("cli.main", "self_s"),
    ]
] + [
    ("refine.iterations", "refine.levenberg_marquardt", "value", "count/solve"),
    ("refine.jacobian_bytes", "refine.jacobian", "value", "B/solve"),
    ("tensorio.read_tensor.bytes", "tensorio.read_tensor", "value", "B/solve"),
    ("rank.svd.bytes", "rank.svd", "value", "B/solve"),
]

PER_LAYER = {name: unit for name, _, _, unit in PER_SOLVE} | {
    "refine.accept_ratio": "ratio",
    "refine.invoked_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.solves": "count",
}


@dataclass
class Record:
    """Outcome of every solve in one loop: wall seconds, gate value or None,
    reference-kernel seconds right after it, failures."""

    times: list = field(default_factory=list)
    quality: list = field(default_factory=list)
    ref: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    kernel: str | None = "interp"  # which reference kernel ``ref`` timed, if any

    def add(self, dt, quality, failure, ref):
        self.times.append(dt)
        self.quality.append(quality)
        self.ref.append(ref)
        if failure is not None:
            self.failures.append(failure)

    @property
    def passed(self) -> int:
        return sum(q is not None for q in self.quality)

    def adjusted(self) -> list[float]:
        """Solve seconds on a host of reference speed."""
        return [t * s for t, s in zip(self.times, reference.scales(self.ref, self.kernel), strict=True)]

    def solves_per_s(self) -> float:
        return self.passed / sum(self.adjusted())


def solve_once(wl, seed, index, workdir, tracer, warmup=False):
    """Make input ``index``, time its solve, check it and release it."""
    tracer.enabled = True
    inst = wl.prepare(instance_seed(seed, index, warmup), index, workdir)
    tracer.solve = index
    failure = quality = out = None
    t0 = time.perf_counter()
    try:
        out = wl.solve(inst)
    except Exception as exc:  # a solve that raises is recorded and the loop goes on
        failure = ("solve", exc)
    dt = time.perf_counter() - t0
    tracer.enabled, tracer.solve = False, None
    if failure is None:
        try:
            quality = wl.check(inst, out)
        except Exception as exc:  # GateError, or a malformed output
            failure = ("gate", exc)
    wl.release(inst)
    if failure is not None:
        stage, exc = failure
        failure = {"index": index, "warmup": warmup, "stage": stage, "type": type(exc).__name__,
                   "message": str(exc)}
    return dt, quality, failure


def measure(wl, seed, seconds, workdir, tracer) -> Record:
    """Solve inputs 0, 1, 2, ... until ``seconds`` of wall time have passed."""
    rec = Record(kernel=wl.kernel)
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        rec.add(*solve_once(wl, seed, index, workdir, tracer), reference.time_kernel(wl.kernel))
        index += 1
    return rec


@dataclass
class SetUp:
    """Wall seconds of the import and of each set-up round, and the median
    of IMPORT_KERNELS reference-kernel times right after the import."""

    import_s: float
    import_ref: float | None
    kernel: str | None
    rounds: list = field(default_factory=list)
    adjusted_rounds: list = field(default_factory=list)

    def seconds(self) -> float:
        """Import plus the median round, on a host of reference speed."""
        (scale,) = reference.scales([self.import_ref], self.kernel)
        return self.import_s * scale + statistics.median(self.adjusted_rounds)


def set_up(wl, seed, workdir, tracer, rec, import_s) -> SetUp:
    """Set-up rounds: make fresh inputs, solve and check them.  The reference
    kernels between solves are not counted."""
    ref = None
    if wl.kernel is not None:
        reference.time_kernel(wl.kernel)  # the first call warms the kernel up
        ref = statistics.median(reference.time_kernel(wl.kernel) for _ in range(IMPORT_KERNELS))
    setup = SetUp(import_s, ref, wl.kernel)
    walls = []
    for r in range(SETUP_ROUNDS):
        for k in range(wl.warm_instances):
            t0 = time.perf_counter()
            out = solve_once(wl, seed, r * wl.warm_instances + k, workdir, tracer, warmup=True)
            walls.append(time.perf_counter() - t0)
            rec.add(*out, reference.time_kernel(wl.kernel))
    scales = reference.scales([setup.import_ref, *rec.ref], wl.kernel)[1:]
    per_round = wl.warm_instances
    for r in range(SETUP_ROUNDS):
        k = slice(r * per_round, (r + 1) * per_round)
        setup.rounds.append(sum(walls[k]))
        setup.adjusted_rounds.append(sum(w * sc for w, sc in zip(walls[k], scales[k])))
    return setup


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def _num(x):
    return None if x is None or math.isinf(x) else x


def _latencies(times, quality):
    # a failed solve misses every latency limit
    return [t if q is not None else math.inf for t, q in zip(times, quality)]


def end_to_end(wl, rec, warm, setup) -> dict:
    """Time metrics are on a host of reference speed; ``raw_value`` is wall clock."""
    lat = _latencies(rec.adjusted(), rec.quality)
    raw = _latencies(rec.times, rec.quality)
    tail_s, pct = tail(lat)
    attempted = len(warm.times) + len(rec.times)
    failed = len(warm.failures) + len(rec.failures)
    gated = [q for q in rec.quality if q is not None]
    n = len(rec.times)
    return {
        "solves_per_s": {"value": rec.solves_per_s(), "unit": "1/s", "samples": n,
                         "raw_value": rec.passed / sum(rec.times)},
        "solve_s_p50": {"value": _num(statistics.median(lat)), "unit": "s", "samples": n,
                        "raw_value": _num(statistics.median(raw))},
        "solve_s_tail": {"value": _num(tail_s), "unit": "s", "samples": n, "percentile": pct,
                         "raw_value": _num(tail(raw)[0])},
        "fail_frac": {"value": failed / attempted, "unit": "ratio", "samples": attempted},
        "setup_s": {
            "value": setup.seconds(),
            "unit": "s",
            "samples": len(setup.rounds),
            "raw_value": setup.import_s + statistics.median(setup.rounds),
            "import_s": setup.import_s,
            "rounds_s": setup.rounds,
            "adjusted_rounds_s": setup.adjusted_rounds,
        },
        "reference_kernel_s": {
            "value": statistics.median(rec.ref) if rec.kernel else None,
            "unit": "s",
            "samples": n if rec.kernel else 0,
            "kernel": rec.kernel,
            "reference_s": reference.REFERENCE_S.get(rec.kernel),
        },
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "samples": 1},
        wl.quality: {"value": max(gated) if gated else None, "unit": "ratio", "samples": len(gated)},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def per_layer(tracer, rec, untraced_rec) -> dict:
    """Per-solve layer metrics of a traced loop; a metric whose span has no
    wrapper (its target is gone) reads as absent."""
    spans = tracer.spans
    sums = totals(spans)
    n = len(rec.times)
    out = {}
    for metric, span, fld, unit in PER_SOLVE:
        if span not in tracer.installed or (fld == "value" and span in tracer.unmeasured):
            out[metric] = {"value": None, "unit": unit, "absent": True}
            continue
        total = getattr(sums[span], fld) if span in sums else 0.0
        out[metric] = {"value": total / n, "unit": unit, "total": total, "solves": n}
    lm = "refine.levenberg_marquardt"
    if {lm, *_CALLBACKS} <= tracer.installed:
        # each attempted step evaluates the residual once, each accepted one
        # the Jacobian once more; the first call of each is the starting point
        attempted = sum(c - 1 for c in child_counts(spans, lm, "refine.residual"))
        accepted = sum(c - 1 for c in child_counts(spans, lm, "refine.jacobian"))
        ratio = accepted / attempted if attempted else 0.0
        out["refine.accept_ratio"] = {"value": ratio, "unit": "ratio", "accepted": accepted,
                                      "attempted": attempted}
    else:
        out["refine.accept_ratio"] = {"value": None, "unit": "ratio", "absent": True}
    if lm in tracer.installed:
        runs = sums[lm].calls if lm in sums else 0
        out["refine.invoked_frac"] = {"value": runs / n, "unit": "ratio", "lm_runs": runs, "solves": n}
    else:
        out["refine.invoked_frac"] = {"value": None, "unit": "ratio", "absent": True}
    untraced, traced = untraced_rec.solves_per_s(), rec.solves_per_s()
    out["trace.overhead_frac"] = {
        "value": 1.0 - traced / untraced if untraced else 0.0,
        "unit": "ratio",
        "untraced_solves_per_s": untraced,
        "traced_solves_per_s": traced,
        "difference_solves_per_s": untraced - traced,
    }
    out["trace.solves"] = {"value": n, "unit": "count"}
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root) -> str | None:
    """HEAD's commit when the tree is a git checkout, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
    }


def run(name, seed, seconds, trace, root, import_s=0.0, params=None):
    """Run one workload; returns (full report, result line)."""
    wl = WORKLOADS[name](**(params or {}))
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer()
    warm = Record(kernel=wl.kernel)
    loops = [warm]
    try:
        setup = set_up(wl, seed, workdir, tracer, warm, import_s)
        rec = measure(wl, seed, seconds * (REFERENCE_SHARE if trace else 1.0), workdir, tracer)
        loops.append(rec)
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment(root),
                  "end_to_end": end_to_end(wl, rec, warm, setup)}
        if trace:
            tracer.install(TARGETS)
            try:
                traced = measure(wl, seed, seconds, workdir, tracer)
            finally:
                tracer.uninstall()
            loops.append(traced)
            report["per_layer"] = per_layer(tracer, traced, rec)
            report["trace_file"] = os.path.join(outdir, f"trace-{name}-seed{seed}.json")
            tracer.dump(report["trace_file"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for loop in loops for f in loop.failures]
    report["failures"] = failures[:MAX_LISTED_FAILURES]
    chosen = report["per_layer"] if trace else {k: report["end_to_end"][k] for k in END_TO_END}
    result = {
        "correct": not failures,
        "attempted": sum(len(loop.times) for loop in loops),
        "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in chosen.items()},
    }
    return report, result
