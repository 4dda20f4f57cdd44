"""Randomized experiment protocol: seeded trials, relative errors, presets.

Each experiment draws `trials` random low-rank instances, runs the matching
approximation pipeline, and aggregates the maximum relative error (mrlerr)
and mean wall time.  With eps = 0 the protocol switches to decomposition
mode and aggregates the maximum relative residual instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .generate import check_eps, gen_random_ns, gen_random_sym
from .linalg import NumericalError
from .nonsymapprox import approx_nonsym, check_shape_ns
from .symapprox import approx_sym, check_shape_sym

__all__ = ["InstanceSpec", "TrialResult", "RunReport", "run_experiment", "bench_preset"]


@dataclass(frozen=True)
class InstanceSpec:
    """One experiment configuration: what to generate and how many times."""

    kind: str  # "sym" | "nonsym"
    dims: tuple  # (n, m) for sym, (n1, ..., nm) for nonsym
    rank: int
    eps: float = 0.0
    seed: int = 0
    trials: int = 20

    def __post_init__(self):
        if self.kind not in ("sym", "nonsym"):
            raise ValueError(f"kind must be 'sym' or 'nonsym', got {self.kind!r}")
        if self.kind == "sym" and len(self.dims) != 2:
            raise ValueError(f"sym dims must be (n, m), got {self.dims}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.kind == "sym":
            check_shape_sym(*self.dims, self.rank)
        else:
            check_shape_ns(self.dims, self.rank)
        check_eps(self.eps)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    seed: int
    residual_gp: float | None
    residual_opt: float | None
    relerr: float | None
    rel_residual: float | None
    wall_time: float
    error: str | None = None  # "<exception type>: <message>" when the trial failed


@dataclass
class RunReport:
    spec: InstanceSpec
    trials: list[TrialResult] = field(default_factory=list)

    @property
    def mrlerr(self) -> float | None:
        vals = [t.relerr for t in self.trials if t.relerr is not None]
        return max(vals) if vals else None

    @property
    def max_rel_residual(self) -> float | None:
        vals = [t.rel_residual for t in self.trials if t.rel_residual is not None]
        return max(vals) if vals else None

    @property
    def mean_time(self) -> float:
        return float(np.mean([t.wall_time for t in self.trials])) if self.trials else 0.0

    @property
    def failures(self) -> int:
        return sum(1 for t in self.trials if t.error is not None)


def _run_trial(spec: InstanceSpec, trial_seed: int) -> TrialResult:
    t0 = time.perf_counter()
    try:
        if spec.kind == "sym":
            n, m = spec.dims
            F, R, E = gen_random_sym(n, m, spec.rank, spec.eps, trial_seed)
            res = approx_sym(F, spec.rank, refine=True, seed=trial_seed)
        else:
            F, R, E = gen_random_ns(spec.dims, spec.rank, spec.eps, trial_seed)
            res = approx_nonsym(F, spec.rank, refine=True, seed=trial_seed)
        wall = time.perf_counter() - t0
        if spec.eps > 0:
            # relerr = ||F - X|| / ||E|| for the kept approximation X, whose residual the result holds
            rel = res.best_residual / E.norm()
            return TrialResult(trial_seed, res.residual_gp, res.residual_opt, rel, None, wall)
        return TrialResult(
            trial_seed, res.residual_gp, res.residual_opt, None, res.residual_gp / F.norm(), wall
        )
    except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
        # a failed solve is recorded and the batch goes on; any other exception is a bug
        error = f"{type(exc).__name__}: {exc}"
        return TrialResult(trial_seed, None, None, None, None, time.perf_counter() - t0, error)


def trial_seeds(seed: int, trials: int) -> list[int]:
    """Deterministic per-trial seeds derived from the experiment seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(trials)]


def run_experiment(spec: InstanceSpec) -> RunReport:
    report = RunReport(spec=spec)
    for ts in trial_seeds(spec.seed, spec.trials):
        report.trials.append(_run_trial(spec, ts))
    return report


def _rows(kind: str, seed: int, rows) -> list[InstanceSpec]:
    """One 20-trial spec per (dims, rank, eps) row; row i has its own seed, seed + i."""
    return [
        InstanceSpec(kind, dims, r, eps, seed=seed + i, trials=20)
        for i, (dims, r, eps) in enumerate(rows)
    ]


# Desk-scale presets mirroring the published experiment tables.  Rows that
# would be too slow on a laptop are shrunk; the deviation is noted in the
# rendered header.
_PRESETS = {
    "table1": {
        "note": "symmetric approximation; desk scale keeps (n=10, m=3, r=5)",
        "specs": _rows("sym", 7, [((10, 3), 5, eps) for eps in (1e-1, 1e-2, 1e-3)]),
    },
    "table2": {
        "note": "symmetric exact decomposition; desk scale uses (10,3,r=5) and (15,4,r=10)",
        "specs": _rows("sym", 11, [((10, 3), 5, 0.0), ((15, 4), 10, 0.0)]),
    },
    "table3": {
        "note": "nonsymmetric approximation; desk scale keeps dims (10,10,10), r=5",
        "specs": _rows("nonsym", 13, [((10, 10, 10), 5, eps) for eps in (1e-1, 1e-2, 1e-3)]),
    },
    "table4": {
        "note": (
            "nonsymmetric exact decomposition; desk scale shrinks the largest "
            "published row to dims (60,60,60), r=10 and uses 20 trials everywhere"
        ),
        "specs": _rows("nonsym", 17, [((20, 20, 20), 10, 0.0), ((60, 60, 60), 10, 0.0)]),
    },
}


def bench_preset(name: str):
    """Run a named preset; returns (header_lines, [RunReport])."""
    preset = _PRESETS.get(name)
    if preset is None:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(sorted(_PRESETS))}")
    header = [f"preset={name}", f"note: {preset['note']}"]
    return header, [run_experiment(s) for s in preset["specs"]]
