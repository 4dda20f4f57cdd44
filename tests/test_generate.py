import numpy as np
import pytest

from gptensor.generate import NAMED_TENSORS, gen_random_ns, gen_random_sym, named_tensor
from gptensor.monomials import factor_table
from gptensor.tensors import DenseTensor, SymTensor, outer_product, sym_power


class TestRandomSym:
    def test_zero_eps_exact(self):
        F, R, E = gen_random_sym(5, 3, 2, 0.0, seed=0)
        assert np.array_equal(F.values, R.values)
        assert E.norm() == 0.0

    def test_noise_norm_exact(self):
        F, R, E = gen_random_sym(5, 3, 2, 0.037, seed=1)
        assert abs(E.norm() - 0.037) <= 1e-12
        assert abs((F - R).norm() - 0.037) <= 1e-12

    def test_seed_repeatable(self):
        a = gen_random_sym(6, 3, 3, 1e-2, seed=7)
        b = gen_random_sym(6, 3, 3, 1e-2, seed=7)
        assert np.array_equal(a[0].values, b[0].values)
        c = gen_random_sym(6, 3, 3, 1e-2, seed=8)
        assert not np.array_equal(a[0].values, c[0].values)

    @pytest.mark.parametrize("n,m,r", [(6, 3, 4), (5, 4, 1), (2, 2, 3)])
    def test_equals_sum_of_symmetric_powers(self, n, m, r):
        F, R, E = gen_random_sym(n, m, r, 0.1, seed=r)
        rng = np.random.default_rng(r)  # the same draws, in the same order
        U = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        expect = sym_power(U[0], m)
        for u in U[1:]:
            expect = expect + sym_power(u, m)
        # batched and per-vector products round differently; the sum over terms can cancel
        bound = 2 * m * np.finfo(float).eps * np.max(np.abs(expect.values))
        assert np.max(np.abs(R.values - expect.values)) <= bound
        assert np.max(np.abs(F.values - (expect + E).values)) <= bound

    @pytest.mark.parametrize("n,m,r", [(15, 4, 10), (10, 3, 5)])
    def test_bit_identical_to_the_gather_loop_sum(self, n, m, r):
        # the benchmark inputs: the r x N table of m gathered factors, multiplied in
        # ascending order and summed over its rows in the gather's memory order
        rng = np.random.default_rng(r)
        U = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        idx = factor_table(n - 1, m)
        table = U[:, idx[:, 0]]
        for j in range(1, m):
            table *= U[:, idx[:, j]]
        assert np.array_equal(gen_random_sym(n, m, r, 0.0, seed=r)[0].values, table.sum(axis=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_sym(5, 3, 0)
        for eps in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
                gen_random_sym(5, 3, 2, eps=eps)


class TestRandomNs:
    def test_zero_eps_exact(self):
        F, R, E = gen_random_ns((4, 3, 3), 2, 0.0, seed=0)
        assert np.array_equal(F.data, R.data)
        assert E.norm() == 0.0

    def test_noise_norm_exact(self):
        F, R, E = gen_random_ns((4, 3, 3), 2, 0.5, seed=2)
        assert abs(E.norm() - 0.5) <= 1e-12
        assert abs((F - R).norm() - 0.5) <= 1e-12

    def test_seed_repeatable(self):
        a = gen_random_ns((4, 4, 4), 3, 1e-1, seed=3)
        b = gen_random_ns((4, 4, 4), 3, 1e-1, seed=3)
        assert np.array_equal(a[0].data, b[0].data)

    @pytest.mark.parametrize("dims,r", [((4, 3, 3), 2), ((3, 2, 4, 2), 5)])
    def test_equals_sum_of_outer_products(self, dims, r):
        _, R, _ = gen_random_ns(dims, r, 0.1, seed=r)
        rng = np.random.default_rng(r)  # term-major draws, one per (term, mode)
        draw = [[rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims] for _ in range(r)]
        expect = sum(outer_product(tup).data for tup in draw)
        assert np.max(np.abs(R.data - expect)) <= 1e-15 * np.max(np.abs(expect))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_ns((4, 3), 2)
        with pytest.raises(ValueError):
            gen_random_ns((4, 3, 3), 0)
        for eps in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
                gen_random_ns((4, 3, 3), 2, eps=eps)


class TestNamedTensors:
    def test_sin3_entry(self):
        t = named_tensor("sin3", 6)
        assert isinstance(t, SymTensor)
        assert np.isclose(t.entry((1, 1, 1)), np.sin(3.0))
        assert np.isclose(t.entry((2, 5, 3)), np.sin(10.0))

    def test_recip3_entry(self):
        t = named_tensor("recip3")
        assert t.n == 10
        assert np.isclose(t.entry((1, 1, 1)), 1.0 / 3.0)
        assert np.isclose(t.entry((10, 10, 10)), 1.0 / 30.0)

    def test_cos3_entry(self):
        t = named_tensor("cos3")
        assert isinstance(t, DenseTensor)
        assert t.dims == (5, 4, 4)
        assert np.isclose(t.entry((1, 1, 1)), np.cos(-1.0))
        assert np.isclose(t.entry((5, 2, 3)), np.cos(0.0))

    def test_exp4_and_log4(self):
        e = named_tensor("exp4")
        assert np.isclose(e.entry((1, 1, 1, 1)), np.exp(-1.0))
        l = named_tensor("log4")
        assert np.isclose(l.entry((2, 3, 4, 5)), np.log(14.0))

    def test_recip4_entry(self):
        t = named_tensor("recip4")
        assert t.dims == (8, 7, 6, 5)
        assert np.isclose(t.entry((1, 1, 1, 1)), 1.0 / 11.0)

    def test_dense_families_fixed_dims(self):
        assert named_tensor("expsum3").dims == (7, 6, 5)
        assert named_tensor("coscross4").dims == (5, 5, 4, 4)
        assert named_tensor("logexp6ns").dims == (5, 5, 5, 4, 4, 4)
        with pytest.raises(ValueError):
            named_tensor("cos3", n=6)

    def test_all_names_construct(self):
        for name in NAMED_TENSORS:
            t = named_tensor(name)
            assert np.all(np.isfinite(t.values if isinstance(t, SymTensor) else t.data))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_tensor("nope")

    def test_dimension_override_is_taken_literally(self):
        for bad in (0, -2):
            with pytest.raises(ValueError):
                named_tensor("sin3", bad)
        t = named_tensor("sin3", 1)
        assert (t.n, t.m, len(t.values)) == (1, 3, 1)
        assert t.entry((1, 1, 1)) == np.sin(3.0)

    def test_symmetric_families_are_symmetric(self):
        t = named_tensor("logexp6", 3)
        # symmetric storage round-trips through a dense symmetry check
        back = SymTensor.from_dense(t.to_dense(), tol=1e-9)
        assert np.allclose(back.values, t.values)
