"""The four benchmark workloads: how each makes an input, solves it and checks it.

Inputs come from (workload seed, index) alone and are made one at a time,
so a run holds a single input and peak memory measures the program.  Every
call into gptensor goes through a module attribute looked up at call time,
which is where the traced run puts its wrappers.

The gates recompute the approximation from the returned terms with plain
numpy, so they do not trust the program's own reconstruction or residual.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from gptensor import cli, generate, nonsymapprox, symapprox, tensorio

EXACT_TOL = 1e-8  # criterion 5: ||F - X|| / ||F||
NOISY_TOL = 1.05  # criterion 6: ||F - X|| / ||E||
REPORT_TOL = 1e-10  # criterion 8: |recomputed residual - reported residual|


class GateError(Exception):
    """A solve returned, but its output is wrong."""


@dataclass
class Instance:
    kind: str  # "sym" or "ns"
    seed: int  # drives both the generator and the solver's xi draw
    rank: int
    F: object
    E: object = None  # the perturbation, on the noisy workload
    path: str = None  # the tensor file, on the file workload
    report: str = None


def instance_seed(seed: int, index: int, warmup: bool = False) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(int(warmup), index)).generate_state(1)[0])


# ---------------------------------------------------------------- gates


def _sym_residual(F, U, lam) -> float:
    """||F - sum_i lam_i U_i^(x)m|| on compact storage, multinomial-weighted."""
    m = F.m
    full = np.column_stack([m - F.powers.sum(axis=1), F.powers])
    X = np.zeros(len(full), dtype=np.complex128)
    for lam_i, u in zip(lam, np.asarray(U, dtype=np.complex128)):
        term = np.ones(len(full), dtype=np.complex128)
        for k in range(full.shape[1]):
            term *= (u[k] ** np.arange(m + 1))[full[:, k]]
        X += lam_i * term
    fact = np.array([math.factorial(j) for j in range(m + 1)], dtype=np.float64)
    weights = math.factorial(m) / np.prod(fact[full], axis=1)
    return float(np.sqrt(np.sum(weights * np.abs(F.values - X) ** 2)))


def _sym_norm(T) -> float:
    return _sym_residual(T, np.zeros((0, T.n)), [])


def _ns_residual(data, tuples) -> float:
    X = sum(reduce(np.multiply.outer, [np.asarray(v, dtype=np.complex128) for v in tup]) for tup in tuples)
    return float(np.linalg.norm(data - X))


def _residual(inst: Instance, res) -> float:
    if inst.kind == "sym":
        if res.refined:
            return _sym_residual(inst.F, res.u_opt, np.ones(inst.rank))
        return _sym_residual(inst.F, res.points, res.coefficients)
    return _ns_residual(inst.F.data, res.tuples_opt if res.refined else res.tuples)


def _norm(inst: Instance, T) -> float:
    return _sym_norm(T) if inst.kind == "sym" else float(np.linalg.norm(T.data))


def gate_exact(inst: Instance, res) -> float:
    """Relative residual of an exact decomposition; raises GateError above 1e-8."""
    rel = _residual(inst, res) / _norm(inst, inst.F)
    if not rel <= EXACT_TOL:
        raise GateError(f"relative residual {rel:.3e} > {EXACT_TOL:g}")
    return rel


def gate_noisy(inst: Instance, res) -> float:
    """||F - X|| / ||E||; raises GateError above 1.05."""
    relerr = _residual(inst, res) / _norm(inst, inst.E)
    if not relerr <= NOISY_TOL:
        raise GateError(f"relerr {relerr:.4f} > {NOISY_TOL}")
    return relerr


def gate_report(inst: Instance, code: int, report: dict) -> float:
    """CLI exit code, residual recomputed from the report's terms, and exactness."""
    if code != 0:
        raise GateError(f"approx-ns exited with code {code}")
    result = report["result"]
    key = "residual_opt" if result["refined"] else "residual_gp"
    order = inst.F.order
    tuples = [[report[f"term{s}"][f"mode{t + 1}"] for t in range(order)] for s in range(inst.rank)]
    resid = _ns_residual(inst.F.data, tuples)
    if not abs(resid - result[key]) <= REPORT_TOL:
        raise GateError(f"recomputed residual {resid:.6e} differs from reported {key} {result[key]:.6e}")
    rel = resid / _norm(inst, inst.F)
    if not rel <= EXACT_TOL:
        raise GateError(f"relative residual {rel:.3e} > {EXACT_TOL:g}")
    return rel


# ---------------------------------------------------------------- workloads


class Workload:
    """Makes input ``index`` (``prepare``), solves it, checks the output and
    deletes what ``prepare`` wrote."""

    warm_instances = 1  # inputs per set-up round
    quality = "max_rel_residual"  # what ``check`` returns
    kernel = "interp"  # the reference kernel that tracks host speed for it

    def check(self, inst, res):
        return gate_exact(inst, res)

    def release(self, inst):
        pass


class SymExact(Workload):
    """approx_sym on exact symmetric rank-r tensors (table2 row 2)."""

    def __init__(self, n=15, m=4, r=10):
        self.n, self.m, self.r = n, m, r

    def prepare(self, seed, index, workdir):
        F, _, _ = generate.gen_random_sym(self.n, self.m, self.r, 0.0, seed)
        return Instance("sym", seed, self.r, F)

    def solve(self, inst):
        return symapprox.approx_sym(inst.F, inst.rank, seed=inst.seed)


class NsExact(Workload):
    """approx_nonsym on exact dense rank-r tensors (table4 row 2)."""

    def __init__(self, dims=(60, 60, 60), r=10):
        self.dims, self.r = tuple(dims), r

    def prepare(self, seed, index, workdir):
        F, _, _ = generate.gen_random_ns(self.dims, self.r, 0.0, seed)
        return Instance("ns", seed, self.r, F)

    def solve(self, inst):
        return nonsymapprox.approx_nonsym(inst.F, inst.rank, seed=inst.seed)


class Noisy(Workload):
    """Perturbed instances, symmetric and dense alternating (table1, table3)."""

    EPS = (1e-1, 1e-2, 1e-3)
    warm_instances = 2  # one symmetric and one dense input
    quality = "mrlerr"
    # Wall clock.  While these solves run the kernels do not follow their
    # speed: rescaling widened the ten-run spread of solve_s_tail from 0.07
    # to 0.26 (each solve by its two kernels) and to 0.45 (every solve by the
    # run's median kernel), where raw wall clock stayed at 0.07-0.15.
    kernel = None

    def __init__(self, sym=(10, 3), dims=(10, 10, 10), r=5):
        self.sym, self.dims, self.r = tuple(sym), tuple(dims), r

    def prepare(self, seed, index, workdir):
        eps = self.EPS[(index // 2) % len(self.EPS)]
        if index % 2 == 0:
            F, _, E = generate.gen_random_sym(*self.sym, self.r, eps, seed)
            return Instance("sym", seed, self.r, F, E)
        F, _, E = generate.gen_random_ns(self.dims, self.r, eps, seed)
        return Instance("ns", seed, self.r, F, E)

    def solve(self, inst):
        if inst.kind == "sym":
            return symapprox.approx_sym(inst.F, inst.rank, seed=inst.seed)
        return nonsymapprox.approx_nonsym(inst.F, inst.rank, seed=inst.seed)

    def check(self, inst, res):
        return gate_noisy(inst, res)


class CliFile(NsExact):
    """``gptensor approx-ns`` in process on exact dense tensor files (criterion 8)."""

    kernel = "interp_memory"

    def __init__(self, dims=(40, 40, 40), r=10):
        super().__init__(dims, r)

    def prepare(self, seed, index, workdir):
        inst = super().prepare(seed, index, workdir)
        inst.path = os.path.join(workdir, f"in{index}.tns")
        inst.report = os.path.join(workdir, f"in{index}.rep")
        tensorio.write_tensor(inst.F, inst.path)
        return inst

    def solve(self, inst):
        return cli.main(["approx-ns", "--rank", str(inst.rank), inst.path, "-o", inst.report])

    def check(self, inst, code):
        report = tensorio.parse_report(inst.report) if code == 0 else {}
        return gate_report(inst, code, report)

    def release(self, inst):
        for path in (inst.path, inst.report):
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {"sym_exact": SymExact, "ns_exact": NsExact, "noisy": Noisy, "cli_file": CliFile}
