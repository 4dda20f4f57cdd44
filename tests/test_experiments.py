import math

import numpy as np
import pytest

from gptensor import experiments
from gptensor.experiments import (
    InstanceSpec,
    RunReport,
    TrialResult,
    bench_preset,
    run_experiment,
    trial_seeds,
)
from gptensor.generate import gen_random_ns, gen_random_sym
from gptensor.linalg import NumericalError
from gptensor.nonsymapprox import approx_nonsym, check_shape_ns
from gptensor.symapprox import approx_sym, check_shape_sym
from gptensor.tensors import DenseTensor, SymTensor


class TestRelerr:
    @staticmethod
    def solve(spec, seed):
        if spec.kind == "sym":
            F, _, E = gen_random_sym(*spec.dims, spec.rank, spec.eps, seed)
            return F, E, approx_sym(F, spec.rank, refine=True, seed=seed)
        F, _, E = gen_random_ns(spec.dims, spec.rank, spec.eps, seed)
        return F, E, approx_nonsym(F, spec.rank, refine=True, seed=seed)

    def test_matches_hand_computed_quotient(self):
        # a trial's relerr is its kept residual over ||E||: check it, and the residual it would
        # use unrefined, against ||F - X|| / ||E|| formed from the full tensors of the same solve
        sym = InstanceSpec("sym", (5, 3), 2, 1e-2, trials=1)
        dense = InstanceSpec("nonsym", (5, 4, 3), 2, 1e-2, trials=1)
        for spec in (sym, dense):
            (seed,) = trial_seeds(spec.seed, 1)
            F, E, res = self.solve(spec, seed)
            trial = experiments._run_trial(spec, seed)
            X = res.X_opt if res.refined else res.X_gp
            assert trial.relerr == pytest.approx((F - X).norm() / E.norm(), rel=1e-12)
            assert trial.residual_gp == pytest.approx((F - res.X_gp).norm(), rel=1e-12)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            InstanceSpec("other", (4, 3), 2)

    def test_bad_eps_and_trials(self):
        for eps in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
                InstanceSpec("sym", (4, 3), 2, eps=eps)
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

    @pytest.mark.parametrize("dims,mode", [((5, 0, 3), 2), ((5, -4, 3), 2), ((0, 4, 3), 1), ((5, 4, 3, -1), 4)])
    def test_nonpositive_nonsym_dimension_rejected(self, dims, mode):
        message = f"mode {mode} has dimension {dims[mode - 1]}; every mode needs >= 2"
        with pytest.raises(ValueError, match=message):
            check_shape_ns(dims, 2)
        with pytest.raises(ValueError, match=message):
            InstanceSpec("nonsym", dims, 2)

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_nonpositive_sym_dimension_rejected(self, n):
        with pytest.raises(ValueError, match="need n >= 2"):
            check_shape_sym(n, 3, 2)
        with pytest.raises(ValueError, match="need n >= 2"):
            InstanceSpec("sym", (n, 3), 2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            InstanceSpec("sym", (5, 3), 2, seed=-1)
        assert InstanceSpec("sym", (5, 3), 2, seed=0).seed == 0


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
