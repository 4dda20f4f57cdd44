import itertools
import tracemalloc

import numpy as np
import pytest

from gptensor import nonsymapprox, refine
from gptensor.generate import gen_random_ns, named_tensor
from gptensor.linalg import joint_points, lstsq_min_norm
from gptensor.nonsymapprox import (
    approx_nonsym,
    assemble_system_ns,
    build_mjk,
    extract_modes,
    mode_permute,
    rank1_closed_form_ns,
    reconstruct_ns,
    solve_first_mode,
    solve_generating_matrix_ns,
    truncated_core,
)
from gptensor.refine import FULL_FINISH_GAIN, ns_normal_map, ns_residual_map, refine_nonsym
from gptensor.tensors import DenseTensor, khatri_rao, outer_product


def spy_on_joint_points(monkeypatch):
    """Record the matrix stack of every `joint_points` call that `nonsymapprox` makes."""
    seen = []

    def spy(mats, pair, sizes):
        seen.append(mats)
        return joint_points(mats, pair, sizes)

    monkeypatch.setattr(nonsymapprox, "joint_points", spy)
    return seen


class TestModePermute:
    def test_largest_dimension_leads(self):
        t = DenseTensor(np.zeros((3, 7, 5)))
        p, perm = mode_permute(t)
        assert p.dims == (7, 3, 5)
        assert perm == (1, 0, 2)

    def test_preserves_entries(self):
        rng = np.random.default_rng(0)
        t = DenseTensor(rng.standard_normal((2, 4, 3)))
        p, perm = mode_permute(t)
        for idx in itertools.product(range(1, 3), range(1, 5), range(1, 4)):
            assert p.entry(tuple(idx[perm[k]] for k in range(3))) == t.entry(idx)

    def test_order_two_rejected(self):
        with pytest.raises(ValueError):
            mode_permute(DenseTensor(np.zeros((3, 3))))

    def test_largest_mode_first_returns_the_tensor(self):
        t = DenseTensor(np.ones((7, 3, 5)))
        p, perm = mode_permute(t)
        assert p is t and perm == (0, 1, 2)

    def test_other_orders_copy_contiguously(self):
        rng = np.random.default_rng(0)
        t = DenseTensor(rng.standard_normal((3, 7, 4)))
        p, perm = mode_permute(t)
        assert p.data.flags.c_contiguous
        assert np.array_equal(p.data, np.transpose(t.data, perm))


class TestSystemAssembly:
    def test_bruteforce_indexing(self):
        rng = np.random.default_rng(1)
        t = DenseTensor(rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2)))
        r = 2
        A, B = assemble_system_ns(t, 2, r)
        # rows: indices of mode 3 (the only mode other than 1 and 2)
        assert A.shape == (2, r)
        for row, i3 in enumerate(range(2)):
            for ell in range(r):
                assert A[row, ell] == t.entry((ell + 1, 1, i3 + 1))
            for i in range(r):
                for k in range(1, 3):
                    assert B[i, k - 1][row] == t.entry((i + 1, k + 1, i3 + 1))

    @pytest.mark.parametrize("dims", [(5, 3, 4, 2), (4, 2, 3)])
    def test_slices_equal_index_loop(self, dims):
        rng = np.random.default_rng(len(dims))
        t = DenseTensor(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
        r = 3
        for j in range(2, len(dims) + 1):
            A, B = assemble_system_ns(t, j, r)
            rest = [idx for idx in np.ndindex(*dims) if idx[0] == 0 and idx[j - 1] == 0]
            assert A.shape == (len(rest), r) and B.shape == (r, dims[j - 1] - 1, len(rest))
            for row, idx in enumerate(rest):
                for i in range(r):
                    for k in range(dims[j - 1]):
                        at = list(idx)
                        at[0], at[j - 1] = i, k
                        got = A[row, i] if k == 0 else B[i, k - 1, row]
                        assert got == t.data[tuple(at)]

    def test_validation(self):
        t = DenseTensor(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            assemble_system_ns(t, 1, 2)
        with pytest.raises(ValueError):
            assemble_system_ns(t, 4, 2)
        with pytest.raises(ValueError):
            assemble_system_ns(t, 2, 5)

    def test_exact_tensor_zero_residuals(self):
        F, _, _ = gen_random_ns((6, 5, 4), 3, 0.0, seed=2)
        gm = solve_generating_matrix_ns(F, 3)
        for j in (2, 3):
            assert np.max(gm.column_residuals[j]) <= 1e-9 * F.norm()

    def test_build_mjk_bounds(self):
        F, _, _ = gen_random_ns((5, 4, 3), 2, 0.0, seed=3)
        gm = solve_generating_matrix_ns(F, 2)
        assert build_mjk(gm, 2, 1).shape == (2, 2)
        with pytest.raises(ValueError):
            build_mjk(gm, 2, 4)
        with pytest.raises(ValueError):
            build_mjk(gm, 5, 1)


class TestExtraction:
    def test_xi_validation(self):
        F, _, _ = gen_random_ns((5, 4, 3), 2, 0.0, seed=4)
        gm = solve_generating_matrix_ns(F, 2)
        # one weight per pair (2,1),(2,2),(2,3),(3,1),(3,2): two wrong lengths, a wrong sum,
        # then a negative and a zero weight among weights summing to 1
        cases = [[0.7, 0.7], [1.5, -0.5], [0.3] * 5, [0.6, 0.6, -0.1, -0.05, -0.05], [0.5, 0.5, 0, 0, 0]]
        for xi in cases:
            with pytest.raises(ValueError, match="strictly positive weights"):
                extract_modes(gm, np.array(xi))

    def test_modes_have_unit_leading_entry(self):
        F, _, _ = gen_random_ns((5, 4, 3), 2, 0.0, seed=5)
        gm = solve_generating_matrix_ns(F, 2)
        # weights of the pairs (2,1),(2,2),(2,3),(3,1),(3,2)
        factors, diag = extract_modes(gm, np.array([0.25, 0.25, 0.25, 0.15, 0.1]))
        assert [a.shape for a in factors] == [(4, 2), (3, 2)]
        for a in factors:
            assert np.all(a[0] == 1.0)
        assert diag["schur_defect"] <= 1e-8
        assert not diag["low_confidence"]

    @pytest.mark.parametrize("dims", [(5, 4, 3), (4, 5, 3, 3)])
    def test_stack_is_the_per_mode_least_squares(self, monkeypatch, dims):
        # M_{j,k}[i, ell] is entry ell of the least-squares solution for the right-hand
        # side (i, k) of mode j, and the stack runs over (j, k) in order
        F, _, _ = gen_random_ns(dims, 2, 1e-2, seed=6)
        gm = solve_generating_matrix_ns(F, 2)
        seen = spy_on_joint_points(monkeypatch)
        K = sum(n - 1 for n in dims[1:])
        extract_modes(gm, np.full(K, 1 / K))
        (mats,) = seen
        expected = []
        for j in range(2, len(dims) + 1):
            A, B = assemble_system_ns(F, j, 2)
            for k in range(1, dims[j - 1]):
                expected.append([lstsq_min_norm(A, B[i, k - 1])[0] for i in range(2)])
        assert mats.shape == (K, 2, 2)
        assert np.allclose(mats, expected, rtol=0, atol=1e-12 * np.abs(mats).max())


class TestPipeline:
    @pytest.mark.parametrize(
        "dims,r,seed",
        # (12, 3, 3, 3) r=8: every mode system has 9 rows, enough for r = 8; its core
        # truncates mode 1 only, (30, 20, 10) r=10 all modes but the last, (8, 7, 6, 5) r=4 all
        [
            ((5, 4, 3), 2, 0),
            ((6, 6, 6), 4, 1),
            ((4, 5, 3, 3), 2, 2),
            ((12, 3, 3, 3), 8, 1),
            ((30, 20, 10), 10, 3),
            ((8, 7, 6, 5), 4, 4),
        ],
    )
    def test_exact_recovery(self, dims, r, seed):
        F, _, _ = gen_random_ns(dims, r, 0.0, seed=seed)
        res = approx_nonsym(F, r, refine=False, seed=seed)
        assert res.residual_gp <= 1e-8 * F.norm()
        assert res.X_gp.dims == dims

    def test_permuted_modes_map_back(self):
        F, _, _ = gen_random_ns((3, 7, 4), 2, 0.0, seed=6)
        res = approx_nonsym(F, 2, refine=False)
        assert res.mode_permutation == (1, 0, 2)
        assert res.residual_gp <= 1e-8 * F.norm()
        for tup in res.tuples:
            assert [len(v) for v in tup] == [3, 7, 4]

    def test_first_mode_solve_is_least_squares(self):
        F, _, _ = gen_random_ns((6, 4, 3), 2, 1e-2, seed=7)
        res = approx_nonsym(F, 2, refine=False)
        # residual orthogonal to the design columns of every first-mode slice
        D = np.column_stack(
            [np.multiply.outer(tup[1], tup[2]).ravel() for tup in res.tuples]
        )
        diff = (F.data - res.X_gp.data).reshape(6, -1)
        assert np.max(np.abs(diff @ D.conj())) <= 1e-8 * F.norm()

    def test_rank_exceeds_largest_dim(self):
        F, _, _ = gen_random_ns((4, 3, 3), 2, 0.0, seed=8)
        for r in (5, 0, -1):
            with pytest.raises(ValueError, match=r"rank must be in 1\.\.4"):
                approx_nonsym(F, r)

    @pytest.mark.parametrize(
        "dims,r,rows",
        [((8, 8, 3), 5, 3), ((20, 5, 5), 10, 5), ((10, 4, 4), 6, 4), ((20, 20, 5), 10, 5)],
    )
    def test_mode_system_with_fewer_rows_than_rank(self, dims, r, rows):
        F, _, _ = gen_random_ns(dims, r, 0.0, seed=1)
        with pytest.raises(ValueError, match=f"rank {r} exceeds the {rows} rows"):
            approx_nonsym(F, r)

    @pytest.mark.parametrize("dims,mode", [((5, 3, 1), 3), ((1, 4, 3), 1), ((4, 1, 1, 3), 2)])
    def test_dimension_one_mode_rejected(self, dims, mode):
        F = DenseTensor(np.ones(dims))
        with pytest.raises(ValueError, match=f"mode {mode} has dimension 1"):
            approx_nonsym(F, 1)

    def test_deterministic_per_seed(self):
        F, _, _ = gen_random_ns((5, 4, 4), 3, 1e-2, seed=9)
        a = approx_nonsym(F, 3, refine=False, seed=21)
        b = approx_nonsym(F, 3, refine=False, seed=21)
        assert a.residual_gp == b.residual_gp

    def test_refinement_on_named_tensor(self):
        F = named_tensor("expsum3")
        res = approx_nonsym(F, 2, refine=True)
        assert res.refined
        assert res.residual_opt <= res.residual_gp + 1e-12
        # published refined residual for this tensor at rank 2 is about 5e-4
        assert res.residual_opt <= 1e-3

    def test_exact_skips_refinement(self):
        F, _, _ = gen_random_ns((5, 4, 3), 2, 0.0, seed=10)
        res = approx_nonsym(F, 2, refine=True)
        assert not res.refined


class TestDenseResult:
    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    @pytest.mark.parametrize(
        "dims,r,slab_rows",
        # slab_rows None keeps the module's budget; 7 rows do not divide 30,
        # and a budget below one row gives one row per slab
        [((3, 7, 4), 2, None), ((4, 5, 3, 3), 2, None), ((30, 20, 10), 10, None),
         ((30, 20, 10), 10, 7), ((5, 4, 3), 2, 0.5)],
    )
    def test_slab_residual_is_the_residual(self, monkeypatch, dims, r, slab_rows, eps):
        if slab_rows is not None:
            row_bytes = 16 * np.prod(dims[1:])
            monkeypatch.setattr(nonsymapprox, "RESIDUAL_SLAB_BYTES", int(slab_rows * row_bytes))
        F, _, _ = gen_random_ns(dims, r, eps, seed=17)
        res = approx_nonsym(F, r, refine=False, seed=17)
        direct = np.linalg.norm(F.data - reconstruct_ns(res.tuples).data)
        assert abs(res.residual_gp - direct) <= 1e-13 * F.norm()

    def test_refined_residual_is_the_residual(self):
        F = named_tensor("expsum3")
        res = approx_nonsym(F, 2)
        assert res.refined
        direct = np.linalg.norm(F.data - reconstruct_ns(res.tuples_opt).data)
        assert abs(res.residual_opt - direct) <= 1e-13 * F.norm()

    @pytest.mark.parametrize("refined", [False, True])
    def test_full_tensors_built_on_first_access(self, monkeypatch, refined):
        F = named_tensor("expsum3") if refined else gen_random_ns((3, 7, 4), 2, 1e-2, seed=18)[0]

        def forbidden(tuples):
            raise AssertionError("approx_nonsym built a full tensor")

        monkeypatch.setattr(nonsymapprox, "reconstruct_ns", forbidden)
        res = approx_nonsym(F, 2, refine=refined)
        monkeypatch.undo()
        assert res.refined == refined
        assert np.array_equal(res.X_gp.data, reconstruct_ns(res.tuples).data)
        assert res.X_gp is res.X_gp
        if refined:
            assert np.array_equal(res.X_opt.data, reconstruct_ns(res.tuples_opt).data)
            assert res.X_opt is res.X_opt
        else:
            assert res.X_opt is None

    def test_extra_memory_is_a_fraction_of_the_tensor(self):
        # largest mode first, so nothing copies F; the residual runs over slabs
        F, _, _ = gen_random_ns((80, 80, 80), 5, 0.0, seed=19)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            approx_nonsym(F, 5, refine=False, seed=19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.5 * F.data.nbytes

    def test_refined_extra_memory_is_a_fraction_of_the_tensor(self):
        # LM runs on the 5^3 core; the outside gain reads F through views
        F, _, _ = gen_random_ns((80, 80, 80), 5, 1e-2, seed=19)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = approx_nonsym(F, 5, refine=True, seed=19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.refined and res.diagnostics["outside_gain"] < FULL_FINISH_GAIN
        assert peak - base < 0.5 * F.data.nbytes


class TestCore:
    @staticmethod
    def project(data, bases, modes):
        """data x_t U_t^H for every listed mode t that has a basis."""
        for t in modes:
            if bases[t] is not None:
                data = np.moveaxis(np.tensordot(bases[t].conj(), data, axes=(0, t)), 0, t)
        return data

    def test_core_is_the_projection_onto_orthonormal_bases(self):
        F, _, _ = gen_random_ns((7, 6, 5, 2), 3, 1e-2, seed=13)
        P, C, bases = truncated_core(F, 3)
        assert [b is None for b in bases] == [False, False, False, True]
        for U in bases[:3]:
            assert U.shape[1] == 3
            assert np.linalg.norm(U.conj().T @ U - np.eye(3)) <= 1e-13
        assert P.dims == (7, 3, 3, 2) and C.dims == (3, 3, 3, 2)
        assert np.linalg.norm(P.data - self.project(F.data, bases, (1, 2, 3))) <= 1e-13 * F.norm()
        assert np.linalg.norm(C.data - self.project(P.data, bases, (0,))) <= 1e-13 * F.norm()

    @pytest.mark.parametrize("dims,r", [((5, 4, 3), 1), ((4, 4, 3), 4)])
    def test_no_truncation_returns_the_tensor(self, dims, r):
        F, _, _ = gen_random_ns(dims, 2, 1e-2, seed=14)
        P, C, bases = truncated_core(F, r)
        assert P is F and C is F and bases == [None] * len(dims)

    def test_first_mode_fit_on_partial_core_equals_full_fit(self):
        # at r = 6 the core truncates modes 1 and 2 and keeps mode 3 whole
        F, _, _ = gen_random_ns((12, 8, 6), 6, 1e-2, seed=3)
        assert [b is None for b in truncated_core(F, 6)[2]] == [False, False, True]
        res = approx_nonsym(F, 6, refine=False, seed=3)
        A = [np.column_stack(vs) for vs in zip(*res.tuples)]
        full = solve_first_mode(F, A[1:]).T
        assert np.linalg.norm(full - A[0]) <= 1e-10 * np.linalg.norm(A[0])

    @pytest.mark.parametrize("dims,r,calls", [((60, 60, 60), 10, 18), ((5, 4, 3), 1, 5)])
    def test_build_mjk_calls(self, monkeypatch, dims, r, calls):
        # one multiplication matrix per (j, k) pair of the core: sum_j (min(n_j, r) - 1)
        count = []

        def counted(*args):
            count.append(args)
            return build_mjk(*args)

        monkeypatch.setattr(nonsymapprox, "build_mjk", counted)
        seen = spy_on_joint_points(monkeypatch)
        F, _, _ = gen_random_ns(dims, r, 0.0, seed=15)
        approx_nonsym(F, r, refine=False, seed=15)
        assert len(count) == calls
        # and stage ii gets them as one stack
        assert [len(mats) for mats in seen] == [calls]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noisy_residual_near_the_perturbation(self, seed):
        F, _, E = gen_random_ns((60, 60, 60), 10, 1e-2, seed=seed)
        res = approx_nonsym(F, 10, refine=False, seed=seed)
        assert res.residual_gp <= 1.5 * E.norm()

    def test_term_weights_spanning_1e4_stay_exact(self):
        # the Gram squares the spread of the mode singular values; at a 1e-4
        # spread the exact residual stays below SKIP_REFINE_TOL, so LM is skipped
        rng = np.random.default_rng(16)
        A = [rng.standard_normal((60, 10)) + 1j * rng.standard_normal((60, 10)) for _ in range(3)]
        A[0] *= np.logspace(0, -4, 10)
        F = DenseTensor((A[0] @ khatri_rao(A[1:]).T).reshape(60, 60, 60))
        res = approx_nonsym(F, 10, seed=16)
        assert res.residual_gp <= 1e-11 * F.norm()
        assert not res.refined


def spy_on_polish(monkeypatch):
    """Record the dims of every `ns_normal_map` and the (F, start, result) of every `refine_nonsym`."""
    seen = {"normal": [], "refine": []}

    def normal_map(F, r):
        seen["normal"].append(F.dims)
        return ns_normal_map(F, r)

    def refine_fn(F, tuples):
        out = refine_nonsym(F, tuples)
        seen["refine"].append((F, tuples, out))
        return out

    monkeypatch.setattr(refine, "ns_normal_map", normal_map)
    monkeypatch.setattr(nonsymapprox, "refine_nonsym", refine_fn)
    return seen


def spy_on_outside_gain(monkeypatch):
    """Record the arguments and value of every `_outside_gain` call."""
    seen = []
    gain = nonsymapprox._outside_gain

    def spy(Fp, factors, bases, residual):
        seen.append((Fp, factors, bases, residual, gain(Fp, factors, bases, residual)))
        return seen[-1][-1]

    monkeypatch.setattr(nonsymapprox, "_outside_gain", spy)
    return seen


def outside_oracle(Fp, factors, bases):
    """1/2 gc^H (Q^H H Q)^{-1} gc from `ns_normal_map`, Q spanning the directions outside range U_t."""
    r = factors[0].shape[1]
    residual, _, _ = ns_residual_map(Fp, r)
    c = np.concatenate([np.concatenate([a[:, s] for a in factors]) for s in range(r)])
    H, g = ns_normal_map(Fp, r)(c, residual(c))
    offsets = np.cumsum((0,) + Fp.dims)
    cols = []
    for s, (t, U) in itertools.product(range(r), enumerate(bases)):
        if U is not None:
            n = Fp.dims[t]
            block = np.zeros((len(c), n - r), dtype=complex)
            start = s * offsets[-1] + offsets[t]
            block[start : start + n] = np.linalg.svd(np.eye(n) - U @ U.conj().T)[0][:, : n - r]
            cols.append(block)
    Q = np.hstack(cols)
    gc = Q.conj().T @ g
    return 0.5 * np.vdot(gc, np.linalg.solve(Q.conj().T @ H @ Q, gc)).real


class TestCorePolish:
    @pytest.mark.parametrize(
        "dims,r",
        # a mode kept whole, a permuted input, and every mode compressed
        [((6, 5, 4), 3), ((7, 6, 5, 2), 3), ((5, 8, 4), 2), ((8, 7, 6, 5), 4)],
    )
    def test_outside_gain_is_the_gauss_newton_decrease(self, monkeypatch, dims, r):
        seen = spy_on_outside_gain(monkeypatch)
        # a noise of norm 1 leaves enough outside the core for the oracle's
        # J^H r, formed from F - X, to resolve pred
        F, _, _ = gen_random_ns(dims, r, 1.0, seed=sum(dims))
        res = approx_nonsym(F, r, seed=3)
        (Fp, factors, bases, residual, gain), = seen
        assert res.diagnostics["outside_gain"] == gain
        pred = 0.5 * gain * residual**2
        assert abs(pred - outside_oracle(Fp, factors, bases)) <= 1e-10 * pred

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_inputs_polish_on_the_core(self, monkeypatch, eps, seed):
        F, _, _ = gen_random_ns((10, 10, 10), 5, eps, seed=seed)
        seen = spy_on_polish(monkeypatch)
        res = approx_nonsym(F, 5, seed=seed)
        monkeypatch.undo()
        assert res.refined and seen["normal"] and F.dims not in seen["normal"]
        assert 0 < res.diagnostics["outside_gain"] < FULL_FINISH_GAIN
        _, full = refine_nonsym(F, res.tuples)
        assert abs(res.best_residual - full) <= 1e-6 * full

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_recip4_takes_the_full_size_finish(self, monkeypatch, r):
        F = named_tensor("recip4")
        seen = spy_on_polish(monkeypatch)
        res = approx_nonsym(F, r)
        monkeypatch.undo()
        assert res.diagnostics["outside_gain"] > FULL_FINISH_GAIN
        (core, _, _), (full, start, (_, finished)) = seen["refine"]
        assert core.dims == (r,) * 4 and full is F and res.best_residual == finished
        # the same value as a full-size polish from the unrefined terms, to criterion 3's digits
        _, oracle = refine_nonsym(F, res.tuples)
        assert abs(finished - oracle) <= 1e-6 * oracle and f"{finished:.4g}" == f"{oracle:.4g}"
        if r == 2:
            # the second-order test predicted the finish's gain
            lifted = np.linalg.norm(F.data - reconstruct_ns(start).data)
            pred = 0.5 * res.diagnostics["outside_gain"] * lifted**2
            drop = 0.5 * (lifted**2 - finished**2)
            assert abs(pred - drop) <= 0.1 * drop

    def test_recip4_finish_is_not_cut_short_by_a_small_residual(self):
        # the finish reaches the optimum (9.1635094e-6 by LM from the unrefined terms),
        # though the gradient there is small in absolute terms
        assert approx_nonsym(named_tensor("recip4"), 4).best_residual <= 9.16351e-6

    @pytest.mark.parametrize("dims,r", [((5, 4, 3), 1), ((4, 4, 4), 4)])
    def test_no_compressed_mode_is_the_full_size_polish(self, dims, r):
        F, _, _ = gen_random_ns(dims, r, 1e-1, seed=14)
        res = approx_nonsym(F, r, seed=14)
        assert res.refined and res.diagnostics["outside_gain"] == 0.0
        tuples_opt, residual_opt = refine_nonsym(F, res.tuples)
        assert res.residual_opt == residual_opt
        assert all(np.array_equal(a, b) for ta, tb in zip(res.tuples_opt, tuples_opt) for a, b in zip(ta, tb))

    def test_gain_is_nan_without_lm(self):
        F, _, _ = gen_random_ns((6, 5, 4), 2, 1e-1, seed=4)
        assert np.isnan(approx_nonsym(F, 2, refine=False).diagnostics["outside_gain"])
        G, _, _ = gen_random_ns((6, 5, 4), 2, 0.0, seed=4)
        res = approx_nonsym(G, 2)
        assert not res.refined and np.isnan(res.diagnostics["outside_gain"])

    def test_refined_deterministic_per_seed(self):
        F, _, _ = gen_random_ns((7, 6, 5), 3, 1e-2, seed=9)
        a, b = (approx_nonsym(F, 3, seed=21) for _ in range(2))
        assert a.refined and a.residual_opt == b.residual_opt
        assert a.diagnostics["outside_gain"] == b.diagnostics["outside_gain"]
        assert all(np.array_equal(u, v) for ta, tb in zip(a.tuples_opt, b.tuples_opt) for u, v in zip(ta, tb))


class TestRankOneClosedForm:
    def test_matches_pipeline_20_cases(self):
        for seed in range(20):
            dims = [(4, 3, 3), (5, 4, 3), (3, 3, 3, 3)][seed % 3]
            F, _, _ = gen_random_ns(dims, 2, 0.05, seed=seed)
            Fp, perm = mode_permute(F)
            tup = rank1_closed_form_ns(Fp)
            direct = (Fp - reconstruct_ns([tup])).norm()
            res = approx_nonsym(F, 1, refine=False, seed=seed)
            assert abs(direct - res.residual_gp) <= 1e-10 * max(1.0, F.norm())

    def test_exact_rank_one(self):
        rng = np.random.default_rng(11)
        vs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (4, 3, 3)]
        F = outer_product(vs)
        tup = rank1_closed_form_ns(F)
        assert (F - reconstruct_ns([tup])).norm() <= 1e-10 * F.norm()

    def test_degenerate_slice_rejected(self):
        arr = np.zeros((3, 3, 3), dtype=complex)
        arr[1, 1, 1] = 1.0  # every slice through index 0 vanishes
        with pytest.raises(ValueError):
            rank1_closed_form_ns(DenseTensor(arr))
        with pytest.raises(ValueError, match="needs order >= 3"):
            rank1_closed_form_ns(DenseTensor(np.ones((2, 2))))


@pytest.mark.parametrize("dims,r", [((4, 3, 5), 1), ((3, 4, 2, 3), 4), ((60, 60, 60), 10)])
def test_reconstruct_equals_sum_of_outer_products(dims, r):
    rng = np.random.default_rng(r)
    tuples = [[rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims] for _ in range(r)]
    expect = outer_product(tuples[0]).data
    for tup in tuples[1:]:
        expect = expect + outer_product(tup).data
    got = reconstruct_ns(tuples)
    assert got.dims == dims
    assert np.max(np.abs(got.data - expect)) <= 1e-15 * np.max(np.abs(expect))


def test_first_mode_duplicate_tuples_minimum_norm():
    rng = np.random.default_rng(12)
    vs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (4, 3, 3)]
    F = outer_product(vs)
    dup = [np.column_stack([v / v[0]] * 2) for v in vs[1:]]
    Z = solve_first_mode(F, dup)
    # identical design columns: the minimum-norm solution splits evenly
    assert np.allclose(Z[0], Z[1], atol=1e-8)
    X = reconstruct_ns([[Z[s], dup[0][:, s], dup[1][:, s]] for s in range(2)])
    assert (F - X).norm() <= 1e-8 * F.norm()
