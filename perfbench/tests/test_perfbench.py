"""Tests of the benchmark itself: span arithmetic, gates and metric output.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import bench, reference, run, spans, workloads  # noqa: E402
from perfbench.spans import Span, Target, Tracer  # noqa: E402

# Small rows of the table1-table4 presets, so each solve takes milliseconds.
SMALL = {
    "sym_exact": {"n": 10, "m": 3, "r": 5},
    "ns_exact": {"dims": (20, 20, 20), "r": 10},
    "noisy": {"sym": (10, 3), "dims": (10, 10, 10), "r": 5},
    "cli_file": {"dims": (10, 10, 10), "r": 5},
}


REF = reference.REFERENCE_S["interp"]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- spans


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] counts once
        Span("a.child", 1.5, 2.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # only [9, 10] lies inside root
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 2.5, 3.0, 0.5, 3.0])
    sums = spans.totals(tree)
    assert sums["root"].calls == 1 and sums["root"].s == pytest.approx(10.0)
    assert sums["a"].self_s == pytest.approx(2.5)


def test_tracer_records_nesting_and_restores_targets():
    from gptensor import nonsymapprox

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original = nonsymapprox.build_mjk
    tracer.install([
        Target("nonsymapprox", "extract_modes", "outer"),
        Target("nonsymapprox", "build_mjk", "inner", measure=lambda args, out: out.nbytes),
        Target("nonsymapprox", "no_such_function", "gone"),
        Target("no_such_module", "f", "gone_too"),
    ])
    assert tracer.installed == {"outer", "inner"}
    F, _, _ = workloads.generate.gen_random_ns((4, 4, 4), 2, 0.0, 3)
    gm = nonsymapprox.solve_generating_matrix_ns(F, 2)
    tracer.enabled, tracer.solve = True, 7
    nonsymapprox.extract_modes(gm, nonsymapprox._draw_xi(F.dims, np.random.default_rng(0)))
    tracer.enabled = False
    tracer.uninstall()
    assert nonsymapprox.build_mjk is original
    assert tracer.spans[0].name == "outer" and tracer.spans[0].parent == -1
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert inner and all(s.parent == 0 and s.solve == 7 and s.value == 2 * 2 * 16 for s in inner)
    # with a one-tick clock each span lasts its children's ticks plus one
    sums = spans.totals(tracer.spans)
    assert sums["inner"].self_s == pytest.approx(len(inner))


def test_missing_target_reads_absent_not_zero():
    tracer = Tracer()
    tracer.installed = {"symapprox.approx_sym"}
    rec = bench.Record(times=[1.0, 1.0], quality=[0.0, 0.0], ref=[REF, REF])
    layer = bench.per_layer(tracer, rec, rec)
    assert layer["symapprox.assemble_system.s"] == {"value": None, "unit": "s/solve", "absent": True}
    assert layer["refine.accept_ratio"]["absent"] and layer["refine.invoked_frac"]["absent"]
    assert layer["symapprox.approx_sym.self_s"]["value"] == 0.0


def test_result_of_a_changed_shape_reads_absent(tmp_path):
    from gptensor import refine, symapprox

    tracer = Tracer()
    tracer.install([
        Target("symapprox", "approx_sym", "symapprox.approx_sym"),
        Target("refine", "levenberg_marquardt", "refine.levenberg_marquardt",
               measure=lambda args, out: out.no_such_field),
        Target("refine", "sym_residual_map", "refine.sym_residual_map",
               transform=lambda tr, out: out.no_such_field, also=bench._CALLBACKS),
    ])
    F, _, _ = workloads.generate.gen_random_sym(5, 3, 2, 0.1, 4)
    tracer.enabled = True
    try:
        symapprox.approx_sym(F, 2, seed=4)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert refine.levenberg_marquardt.__name__ == "levenberg_marquardt"
    rec = bench.Record(times=[1.0], quality=[0.5], ref=[REF])
    layer = bench.per_layer(tracer, rec, rec)
    assert layer["refine.iterations"]["absent"] and layer["refine.jacobian.calls"]["absent"]
    assert layer["refine.levenberg_marquardt.calls"]["value"] == 1.0


def test_adjusted_times_cancel_host_speed():
    fast = bench.Record(times=[0.5, 0.6, 0.7], quality=[0.0] * 3, ref=[REF] * 3)
    # the same solves on a host that runs everything twice as slowly
    slow = bench.Record(times=[1.0, 1.2, 1.4], quality=[0.0] * 3, ref=[2 * REF] * 3)
    assert fast.adjusted() == pytest.approx([0.5, 0.6, 0.7])
    assert slow.adjusted() == pytest.approx([0.5, 0.6, 0.7])
    assert slow.solves_per_s() == pytest.approx(3 / 1.8)


def test_scale_follows_the_kernels_around_each_solve():
    # the host slows down during the third solve and stays slow
    assert reference.scales([REF, REF, 3 * REF, 3 * REF]) == pytest.approx([1.0, 1.0, 0.5, 1 / 3])
    assert reference.scales([None, None], None) == [1.0, 1.0]
    assert all(reference.time_kernel(kind) > 0 for kind in reference.KERNELS)
    assert reference.time_kernel(None) is None
    assert set(reference.KERNELS) == set(reference.REFERENCE_S) >= {
        wl.kernel for wl in workloads.WORKLOADS.values()} - {None}


def test_tail_has_ten_samples_beyond_it():
    lat = list(range(30))
    assert bench.tail(lat) == (19, pytest.approx(100 * 20 / 30))
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# ---------------------------------------------------------------- gates


def _solved(name, workdir, index=0):
    wl = workloads.WORKLOADS[name](**SMALL[name])
    inst = wl.prepare(workloads.instance_seed(5, index), index, str(workdir))
    return wl, inst, wl.solve(inst)


def _scale_first_coefficient(inst, res):
    if inst.kind == "sym":
        target = res.u_opt if res.refined else res.coefficients
    else:
        target = res.tuples_opt[0] if res.refined else res.tuples[0]
    target[0] = target[0] * 1.01


@pytest.mark.parametrize("name,index", [("sym_exact", 0), ("ns_exact", 0), ("noisy", 0), ("noisy", 1)])
def test_gate_rejects_a_corrupted_result(name, index, tmp_path):
    wl, inst, res = _solved(name, tmp_path, index)
    wl.check(inst, res)
    _scale_first_coefficient(inst, res)
    with pytest.raises(workloads.GateError):
        wl.check(inst, res)


def test_report_gate_rejects_a_corrupted_report_and_a_failed_exit(tmp_path):
    wl, inst, code = _solved("cli_file", tmp_path)
    report = workloads.tensorio.parse_report(inst.report)
    workloads.gate_report(inst, code, report)
    with pytest.raises(workloads.GateError, match="exited"):
        workloads.gate_report(inst, 3, report)
    report["term0"]["mode1"] = report["term0"]["mode1"] * 1.01
    with pytest.raises(workloads.GateError, match="differs"):
        workloads.gate_report(inst, code, report)
    wl.release(inst)
    assert not os.listdir(tmp_path)


# ---------------------------------------------------------------- output


def test_metric_lists_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_prints_every_named_metric(name, trace, tmp_path):
    report, result = bench.run(name, 3, 0.3, trace, str(tmp_path), params=SMALL[name])
    line = json.loads(json.dumps(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    e2e = report["end_to_end"]
    extra = {"fail_frac", "reference_kernel_s", workloads.WORKLOADS[name].quality}
    assert set(e2e) == set(bench.END_TO_END) | extra
    # a workload without a reference kernel times none
    assert all("unit" in v and v["samples"] >= (k != "reference_kernel_s") for k, v in e2e.items())
    assert e2e["fail_frac"]["value"] == 0
    if trace:
        layer = report["per_layer"]
        assert os.path.exists(report["trace_file"])
        exact = name != "noisy"
        assert (layer["refine.invoked_frac"]["value"] == 0) == exact
    assert os.listdir(os.path.join(str(tmp_path), ".perfbench")) == (
        [os.path.basename(report["trace_file"])] if trace else []
    )


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noisy", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
