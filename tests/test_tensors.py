import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptensor.monomials import factor_table, multiindex_to_power, power_table, prefix_table
from gptensor.tensors import (
    DenseTensor,
    SymTensor,
    khatri_rao,
    monomial_values,
    outer_product,
    sym_combination,
    sym_contract,
    sym_power,
)


EPS = np.finfo(float).eps  # 2^-52


def random_sym(n, m, seed=0):
    rng = np.random.default_rng(seed)
    t = SymTensor.zeros(n, m)
    t.values[:] = rng.standard_normal(len(t.values)) + 1j * rng.standard_normal(len(t.values))
    return t


class TestDenseTensor:
    def test_entry_indexing(self):
        arr = np.arange(24, dtype=float).reshape(2, 3, 4)
        t = DenseTensor(arr)
        assert t.dims == (2, 3, 4)
        assert t.order == 3
        assert t.entry((1, 1, 1)) == 0
        assert t.entry((2, 3, 4)) == 23
        with pytest.raises(ValueError):
            t.entry((3, 1, 1))
        # index 0 would wrap to the last plane under plain 0-based indexing
        with pytest.raises(ValueError):
            t.entry((0, 1, 1))
        with pytest.raises(ValueError):
            t.entry((1, 1))

    def test_norm_and_arithmetic(self):
        rng = np.random.default_rng(3)
        a = DenseTensor(rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2)))
        b = DenseTensor(rng.standard_normal((3, 4, 2)))
        assert np.isclose(a.norm(), np.sqrt(np.sum(np.abs(a.data) ** 2)))
        assert np.allclose((a + b).data, a.data + b.data)
        assert np.allclose((a - b).data, a.data - b.data)
        assert np.allclose((2j * a).data, 2j * a.data)
        # no broadcasting between tensors of different dims
        for op in (a.__add__, a.__sub__):
            with pytest.raises(ValueError, match="incompatible"):
                op(DenseTensor(np.ones((3, 1, 2))))
        # nor arithmetic with another kind, a number or an array
        for other in (SymTensor.zeros(3, 3), 1, a.data):
            with pytest.raises(TypeError, match="unsupported operand"):
                a + other
            with pytest.raises(TypeError, match="unsupported operand"):
                a - other

    def test_compares_and_hashes_by_identity(self):
        # as SymTensor does: == of two equal arrays would ask numpy for one truth value
        a = DenseTensor(np.arange(8.0).reshape(2, 2, 2))
        b = DenseTensor(a.data.copy())
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            DenseTensor(np.empty((2, 0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        arr = np.zeros((2, 2, 2), dtype=complex)
        arr[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            DenseTensor(arr)


class TestSymTensor:
    def test_entry_permutation_invariant(self):
        t = random_sym(4, 3, seed=1)
        for idx in itertools.product(range(1, 5), repeat=3):
            v = t.entry(idx)
            for perm in itertools.permutations(idx):
                assert t.entry(perm) == v
        with pytest.raises(ValueError, match="expected 3 indices, got 2"):
            t.entry((1, 1))

    def test_norm_matches_dense_oracle(self):
        for n, m, seed in [(3, 2, 0), (4, 3, 1), (3, 4, 2)]:
            t = random_sym(n, m, seed)
            dense = t.to_dense()
            assert np.isclose(t.norm(), dense.norm(), rtol=1e-12)

    def test_dense_roundtrip(self):
        for n, m in [(4, 3), (6, 4)]:
            t = random_sym(n, m, seed=5)
            oracle = dict(zip(map(tuple, power_table(n - 1, m)[0].tolist()), t.values))
            dense = t.to_dense()
            for idx in itertools.product(range(1, n + 1), repeat=m):
                assert dense.entry(idx) == oracle[multiindex_to_power(idx, n)]
            back = SymTensor.from_dense(dense, tol=1e-12)
            assert np.array_equal(back.values, t.values)

    def test_from_dense_rejects_asymmetric(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1.0  # its permutations stay zero
        with pytest.raises(ValueError):
            SymTensor.from_dense(DenseTensor(arr), tol=1e-12)

    def test_from_dense_rejects_noncubic(self):
        with pytest.raises(ValueError):
            SymTensor.from_dense(DenseTensor(np.zeros((2, 3, 2))))

    def test_from_function(self):
        t = SymTensor.from_function(3, 3, lambda i, j, k: i + j + k)
        assert t.entry((1, 2, 3)) == 6
        assert t.entry((3, 3, 3)) == 9
        assert t.at_power((0, 0)) == 3

    def test_weights_are_multiindex_counts(self):
        t = SymTensor.zeros(3, 3)
        # constant power vector covers only (1,1,1); x1^3 covers only (2,2,2)
        assert t.weights[t.position((0, 0))] == 1
        assert t.weights[t.position((3, 0))] == 1
        # x1 x2 with m=3: indices are permutations of (1,2,3): 6 of them
        assert t.weights[t.position((1, 1))] == 6

    def test_arithmetic_and_compatibility(self):
        a, b = random_sym(3, 3, 0), random_sym(3, 3, 1)
        assert np.allclose((a + b).values, a.values + b.values)
        assert np.allclose((a - b).values, a.values - b.values)
        assert np.allclose((3.0 * a).values, 3.0 * a.values)
        with pytest.raises(ValueError):
            a + random_sym(4, 3, 0)
        for other in (a.to_dense(), 1, a.values):
            with pytest.raises(TypeError, match="unsupported operand"):
                a + other
            with pytest.raises(TypeError, match="unsupported operand"):
                a - other

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            SymTensor(3, 3, np.zeros(5))
        # values must be one vector of the layout's length (6 rows at n=3, m=2)
        for values in (np.ones((6, 2)), np.ones((1, 6)), 1.0):
            with pytest.raises(ValueError, match="expected 6 entries"):
                SymTensor(3, 2, values)
        with pytest.raises(ValueError):
            SymTensor(0, 3, np.zeros(1))
        for n, m in [(0, 3), (3, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                SymTensor.zeros(n, m)
        with pytest.raises(KeyError):
            SymTensor.zeros(3, 2).at_power((3, 0))

    def test_layout_is_shared_and_read_only(self):
        a, b = SymTensor.zeros(5, 3), random_sym(5, 3, seed=2)
        assert a.powers is b.powers and a.weights is b.weights
        assert a.powers is power_table(4, 3)[0] and a.weights is power_table(4, 3)[1]
        with pytest.raises(ValueError):
            a.powers[0, 0] = 1
        with pytest.raises(ValueError):
            a.weights[0] = 2.0

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_dimension_one_is_a_single_entry(self, m):
        t = SymTensor.zeros(1, m)
        assert t.powers.shape == (1, 0) and list(t.weights) == [1.0]
        t = SymTensor(1, m, [2.0 - 1j])
        assert t.entry((1,) * m) == 2.0 - 1j
        assert np.array_equal(t.to_dense().data, np.full((1,) * m, 2.0 - 1j))
        assert np.isclose(t.norm(), abs(2.0 - 1j))
        assert sym_power([3.0], m).values[0] == 3.0**m

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(np.inf, 0)])
    def test_non_finite_rejected(self, bad):
        values = np.zeros(10, dtype=complex)
        values[4] = bad
        with pytest.raises(ValueError, match="finite"):
            SymTensor(3, 3, values)


class TestRankOne:
    def test_outer_product_entries(self):
        u = np.array([1.0, 2.0])
        v = np.array([1.0, 1j])
        w = np.array([2.0, 0.0, -1.0])
        t = outer_product([u, v, w])
        assert t.dims == (2, 2, 3)
        for i, j, k in itertools.product(range(2), range(2), range(3)):
            assert np.isclose(t.entry((i + 1, j + 1, k + 1)), u[i] * v[j] * w[k])
        with pytest.raises(ValueError, match="needs at least one vector"):
            outer_product([])

    def test_sym_power_matches_dense_outer(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        t = sym_power(v, 3)
        dense = outer_product([v, v, v])
        assert np.allclose(t.to_dense().data, dense.data)

    def test_monomial_values_bruteforce(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        t = SymTensor.zeros(3, 4)
        vals = monomial_values(v, 4)
        for alpha, got in zip(t.powers, vals):
            expect = v[0] ** (4 - alpha.sum()) * v[1] ** alpha[0] * v[2] ** alpha[1]
            assert np.isclose(got, expect)

    @pytest.mark.parametrize("n,m", [(3, 4), (8, 6), (1, 3), (1, 1)])
    def test_monomial_values_match_python_products(self, n, m):
        """Each value is m factors multiplied in a different order: within 2 m eps relative."""
        rng = np.random.default_rng(10 * n + m)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = monomial_values(v, m)
        powers = power_table(n - 1, m)[0]
        assert got.shape == (len(powers),)
        for alpha, value in zip(powers, got):
            expect = complex(v[0]) ** (m - int(alpha.sum()))
            for k, a in enumerate(alpha.tolist(), start=1):
                for _ in range(a):
                    expect *= complex(v[k])
            assert abs(value - expect) <= 2 * m * EPS * abs(expect)

    def test_monomial_values_exact_zeros_and_empty_powers(self):
        # Gaussian integers multiply exactly, so every value is exact
        v = np.array([1.0, 0.0, 2.0 - 1.0j, 0.0])
        got = monomial_values(v, 3)
        for alpha, value in zip(power_table(3, 3)[0], got):
            expect = (2.0 - 1.0j) ** int(alpha[1]) if alpha[0] == alpha[2] == 0 else 0.0
            assert value == expect
        # 0^0 = 1: only x0^m survives at the first unit vector
        e0 = monomial_values(np.eye(4)[0], 3)
        assert e0[0] == 1.0 and not e0[1:].any()
        assert np.array_equal(monomial_values(v, 0), [1.0])

    def test_factor_table_is_shared_and_read_only(self):
        idx = factor_table(4, 3)
        assert idx is factor_table(4, 3)
        assert idx.shape == (len(power_table(4, 3)[0]), 3)
        # row alpha: its variables in ascending order, variable k repeated alpha_k times
        full = np.column_stack([3 - power_table(4, 3)[0].sum(axis=1), power_table(4, 3)[0]])
        assert np.array_equal(np.sort(idx, axis=1), idx)
        assert all(np.array_equal(np.bincount(row, minlength=5), f) for row, f in zip(idx, full))
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 4), (5, 2)])
    def test_batched_monomial_values_equal_per_row_calls(self, n, m):
        rng = np.random.default_rng(n + m)
        powers = power_table(n - 1, m)[0]
        U = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
        U[0, 1, -1] = 0.0  # a zero coordinate
        got = monomial_values(U, m)
        assert got.shape == (2, 3, len(powers))
        for idx in np.ndindex(2, 3):
            # numpy rounds a complex product differently at different array lengths
            expect = monomial_values(U[idx], m)
            assert np.all(np.abs(got[idx] - expect) <= 2 * m * EPS * np.abs(expect))

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_khatri_rao_columns_are_raveled_outer_products(self, order):
        rng = np.random.default_rng(order)
        dims, r = (4, 3, 2, 3, 2)[:order], 3
        factors = [rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r)) for d in dims]
        K = khatri_rao(factors)
        assert K.shape == (int(np.prod(dims)), r)
        for s in range(r):
            expect = reduce(np.multiply.outer, [f[:, s] for f in factors]).ravel()
            assert np.array_equal(K[:, s], expect)
        assert np.array_equal(khatri_rao(factors[:1]), factors[0])
        with pytest.raises(ValueError):
            khatri_rao([])


def gather_loop_monomial_values(v, m):
    """Oracle: the m factors of every `factor_table` row gathered from v and multiplied in turn."""
    v = np.asarray(v, dtype=np.complex128)
    idx = factor_table(v.shape[-1] - 1, m)
    if m == 0:
        return np.ones(v.shape[:-1] + (len(idx),), dtype=np.complex128)
    out = v[..., idx[:, 0]]
    for j in range(1, m):
        out *= v[..., idx[:, j]]
    return out


def memory_order(a):
    """The strides of the axes longer than 1, which alone place the entries in memory."""
    return [s for s, d in zip(a.strides, a.shape) if d > 1]


@st.composite
def point_stacks(draw):
    """(V, m): an (r, n) complex stack with n in 1..6, m in 1..5, r in 1..4, some coordinates zero."""
    n, m, r = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    V[rng.uniform(size=(r, n)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return V, m


class TestPrefixKernels:
    """Rank-r sums of degree-m values from the degree-(m-1) table."""

    def test_prefix_table_is_shared_and_read_only(self):
        prefix, last = prefix_table(4, 3)
        assert all(a is b for a, b in zip(prefix_table(4, 3), (prefix, last)))
        assert prefix.dtype == last.dtype == np.int64
        for a in (prefix, last):
            with pytest.raises(ValueError):
                a[0] = 1
        with pytest.raises(ValueError):
            prefix_table(4, 0)

    @pytest.mark.parametrize("nvars,m", [(0, 1), (0, 4), (1, 3), (3, 1), (4, 3), (5, 5)])
    def test_prefix_row_and_last_factor_give_back_the_row(self, nvars, m):
        prefix, last = prefix_table(nvars, m)
        rows = np.column_stack([factor_table(nvars, m - 1)[prefix], last])
        assert np.array_equal(rows, factor_table(nvars, m))

    @settings(max_examples=60, deadline=None)
    @given(stack=point_stacks(), batch=st.sampled_from([(), (1,), (2,)]), m0=st.booleans())
    def test_monomial_values_equal_the_gather_loop(self, stack, batch, m0):
        V, m = stack
        m = 0 if m0 else m
        # 1-D rows, an (r, n) stack and a batch of stacks; a sum over the rows (as
        # `gen_random_sym` takes) rounds by the memory order, so that must match too
        for v in (V[0], V, np.broadcast_to(V, batch + V.shape)):
            got, want = monomial_values(v, m), gather_loop_monomial_values(v, m)
            assert got.shape == v.shape[:-1] + (len(power_table(v.shape[-1] - 1, m)[0]),)
            assert np.array_equal(got, want) and memory_order(got) == memory_order(want)

    @settings(max_examples=80, deadline=None)
    @given(stack=point_stacks(), seed=st.integers(0, 2**32 - 1))
    def test_combination_and_contraction_match_the_full_table(self, stack, seed):
        V, m = stack
        rng = np.random.default_rng(seed)
        D = monomial_values(V, m)
        c = rng.standard_normal(len(V)) + 1j * rng.standard_normal(len(V))
        y = rng.standard_normal(D.shape[1]) + 1j * rng.standard_normal(D.shape[1])
        # relative to the same sums taken in absolute values
        assert np.all(np.abs(sym_combination(V, c, m) - c @ D) <= 1e-13 * (np.abs(c) @ np.abs(D)))
        assert np.all(np.abs(sym_contract(V, y, m) - D @ y) <= 1e-13 * (np.abs(D) @ np.abs(y)))


def test_power_lookup_consistent_with_multiindex():
    t = random_sym(4, 3, seed=9)
    for idx in [(1, 1, 2), (4, 4, 4), (2, 3, 4)]:
        assert t.entry(idx) == t.at_power(multiindex_to_power(idx, 4))
