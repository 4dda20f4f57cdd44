import math

import numpy as np
import pytest

from gptensor import experiments
from gptensor.experiments import (
    InstanceSpec,
    RunReport,
    TrialResult,
    bench_preset,
    relerr,
    run_experiment,
    trial_seeds,
)
from gptensor.generate import gen_random_sym
from gptensor.linalg import NumericalError
from gptensor.nonsymapprox import approx_nonsym
from gptensor.symapprox import approx_sym
from gptensor.tensors import DenseTensor, SymTensor


class TestRelerr:
    def test_recover_unperturbed_gives_one(self):
        F, R, E = gen_random_sym(5, 3, 2, 0.1, seed=0)
        assert np.isclose(relerr(F, R, E), 1.0)

    def test_perfect_fit_gives_zero(self):
        F, R, E = gen_random_sym(5, 3, 2, 0.1, seed=1)
        assert relerr(F, F, E) == 0.0

    def test_matches_hand_computed_quotient(self):
        F, R, E = gen_random_sym(4, 3, 2, 0.25, seed=2)
        X = R * 0.9
        assert np.isclose(relerr(F, X, E), (F - X).norm() / 0.25)

    def test_zero_eps_rejected(self):
        F, R, E = gen_random_sym(4, 3, 2, 0.0, seed=3)
        with pytest.raises(ZeroDivisionError):
            relerr(F, R, E)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            InstanceSpec("other", (4, 3), 2)

    def test_bad_eps_and_trials(self):
        with pytest.raises(ValueError):
            InstanceSpec("sym", (4, 3), 2, eps=-0.1)
        with pytest.raises(ValueError):
            InstanceSpec("sym", (4, 3), 2, trials=0)

    def test_bad_sym_dims_and_rank(self):
        for dims in [(4, 3, 2), (4,)]:
            with pytest.raises(ValueError, match=r"sym dims must be \(n, m\)"):
                InstanceSpec("sym", dims, 2)
        for rank in (0, -1):
            with pytest.raises(ValueError, match="rank must be >= 1"):
                InstanceSpec("nonsym", (4, 3, 3), rank)

    @pytest.mark.parametrize(
        "dims,rank,message",
        [
            ((4, 3), 2, "needs order >= 3"),
            ((5, 1, 4), 2, "mode 2 has dimension 1"),
            ((3, 3, 3), 5, r"rank must be in 1\.\.3"),
            ((8, 8, 3), 5, "rank 5 exceeds the 3 rows of the system for mode 2"),
        ],
    )
    def test_unsolvable_nonsym_spec_rejected_like_the_solver(self, dims, rank, message):
        with pytest.raises(ValueError, match=message):
            InstanceSpec("nonsym", dims, rank)
        with pytest.raises(ValueError, match=message):
            approx_nonsym(DenseTensor(np.arange(1.0, np.prod(dims) + 1).reshape(dims)), rank)

    @pytest.mark.parametrize(
        "dims,rank,message",
        [
            ((3, 2), 10, r"rank must be in 1\.\.6, got 10"),
            ((1, 3), 1, "need n >= 2"),
            ((4, 1), 1, "approximation needs order >= 2"),
            ((3, 3), 9, "rank 9 needs shift monomials of degree 4 > order 3"),
            ((3, 3), 5, "rank 5 exceeds the 3 rows of the system for shift monomials of degree 2"),
        ],
    )
    def test_unsolvable_sym_spec_rejected_like_the_solver(self, dims, rank, message):
        n, m = dims
        with pytest.raises(ValueError, match=message):
            InstanceSpec("sym", dims, rank)
        with pytest.raises(ValueError, match=message):
            approx_sym(SymTensor(n, m, np.arange(1.0, math.comb(n - 1 + m, m) + 1)), rank)


class TestRunExperiment:
    def test_decomposition_mode(self):
        spec = InstanceSpec("sym", (6, 3), 2, 0.0, seed=0, trials=4)
        rep = run_experiment(spec)
        assert len(rep.trials) == 4
        assert rep.failures == 0
        assert rep.mrlerr is None
        assert rep.max_rel_residual <= 1e-8
        assert rep.mean_time > 0

    def test_approximation_mode(self):
        spec = InstanceSpec("nonsym", (5, 4, 3), 2, 1e-2, seed=1, trials=3)
        rep = run_experiment(spec)
        assert rep.mrlerr is not None
        assert rep.mrlerr <= 1.05
        for t in rep.trials:
            assert t.relerr is not None and t.rel_residual is None

    def test_deterministic_per_spec(self):
        spec = InstanceSpec("sym", (5, 3), 2, 1e-2, seed=5, trials=3)
        a, b = run_experiment(spec), run_experiment(spec)
        assert [t.relerr for t in a.trials] == [t.relerr for t in b.trials]
        assert [t.seed for t in a.trials] == [t.seed for t in b.trials]

    def test_trial_seeds_distinct_and_stable(self):
        s1 = trial_seeds(3, 10)
        assert s1 == trial_seeds(3, 10)
        assert len(set(s1)) == 10
        assert s1 != trial_seeds(4, 10)

    def test_errors_recorded_not_raised(self, monkeypatch):
        # the first trial's solve fails; it is recorded and the second one still runs
        failed = []

        def fail_once(F, r, **kwargs):
            if not failed:
                failed.append(r)
                raise NumericalError("Schur decomposition failed")
            return approx_nonsym(F, r, **kwargs)

        monkeypatch.setattr(experiments, "approx_nonsym", fail_once)
        rep = run_experiment(InstanceSpec("nonsym", (3, 3, 3), 2, 0.0, seed=2, trials=2))
        assert rep.failures == 1
        assert rep.trials[0].error == "NumericalError: Schur decomposition failed"
        assert rep.trials[1].error is None and rep.trials[1].rel_residual <= 1e-8

    def test_failed_trial_records_its_type(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("rank too large")

        monkeypatch.setattr(experiments, "approx_sym", fail)
        rep = run_experiment(InstanceSpec("sym", (4, 3), 2, 0.0, seed=1, trials=2))
        assert [t.error for t in rep.trials] == ["ValueError: rank too large"] * 2

    def test_programming_errors_propagate(self, monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(experiments, "approx_sym", bug)
        with pytest.raises(TypeError, match="unexpected argument"):
            run_experiment(InstanceSpec("sym", (4, 3), 2, 0.0, seed=1, trials=2))

    def test_report_aggregates(self):
        rep = RunReport(spec=InstanceSpec("sym", (4, 3), 1, 0.1))
        rep.trials.append(TrialResult(1, 0.5, 0.4, 0.9, None, 0.1))
        rep.trials.append(TrialResult(2, 0.6, 0.5, 1.01, None, 0.3))
        assert rep.mrlerr == 1.01
        assert np.isclose(rep.mean_time, 0.2)


class TestPresets:
    def test_unknown_preset_and_scale(self):
        with pytest.raises(ValueError):
            bench_preset("table9")

    def test_preset_headers_mention_scale(self):
        # run the smallest preset row only indirectly: headers are cheap
        from gptensor.experiments import _PRESETS

        for name, preset in _PRESETS.items():
            assert preset["note"]
            for spec in preset["specs"]:
                assert spec.trials >= 1

    @pytest.mark.parametrize("name", ["table1", "table3"])
    def test_eps_rows_draw_distinct_instances(self, name):
        specs = experiments._PRESETS[name]["specs"]
        assert len({s.eps for s in specs}) == len(specs) > 1
        assert len({s.seed for s in specs}) == len(specs)
