import numpy as np
import pytest

from gptensor.generate import gen_random_ns, gen_random_sym, named_tensor
from gptensor.rank import (
    catalecticant_ns,
    catalecticant_sym,
    default_split,
    estimate_rank,
    spectrum_ns,
    spectrum_sym,
)
from gptensor.tensors import DenseTensor, SymTensor


class TestCatalecticantSym:
    def test_entries_match_definition(self):
        t = SymTensor.from_function(3, 3, lambda i, j, k: i * 100 + j * 10 + k)
        cat = catalecticant_sym(t)
        # rows: |alpha| <= 1 -> 3 rows; cols: |beta| <= 2 -> 6 cols
        assert cat.shape == (3, 6)
        assert cat[0, 0] == t.at_power((0, 0))
        # row x1, col x2 -> F_{x1 x2}
        assert cat[1, 2] == t.at_power((1, 1))
        # row x2, col x2^2 -> F_{x2^3}
        assert cat[2, 5] == t.at_power((0, 3))

    def test_additive(self):
        rng = np.random.default_rng(0)
        a = SymTensor(4, 3, rng.standard_normal(20) + 1j * rng.standard_normal(20))
        b = SymTensor(4, 3, rng.standard_normal(20))
        assert np.allclose(catalecticant_sym(a + b), catalecticant_sym(a) + catalecticant_sym(b))

    def test_numerical_rank_matches_generation_rank(self):
        """Random rank-r symmetric tensors flatten to numerical rank r, 20/20 trials."""
        for seed in range(20):
            r = 2 + seed % 3
            F, _, _ = gen_random_sym(6, 4, r, 0.0, seed=seed)
            s = np.linalg.svd(catalecticant_sym(F), compute_uv=False)
            assert np.sum(s > 1e-8 * s[0]) == r


class TestSplit:
    def test_default_split_balances_products(self):
        assert default_split((8, 7, 6, 5)) == ((1, 4), (2, 3))
        assert default_split((7, 6, 5)) == ((1,), (2, 3))
        assert default_split((5, 4, 4)) == ((1,), (2, 3))

    def test_catalecticant_ns_shapes_and_entries(self):
        t = DenseTensor(np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4))
        cat = catalecticant_ns(t, split=((1, 2), (3,)))
        assert cat.shape == (6, 4)
        assert cat[0, 0] == t.entry((1, 1, 1))
        assert cat[5, 3] == t.entry((2, 3, 4))
        # most balanced bipartition for dims (2,3,4) is {1,2}|{3}: 6 x 4
        assert catalecticant_ns(t).shape == (6, 4)

    def test_split_transpose_invariance_of_spectrum(self):
        rng = np.random.default_rng(4)
        t = DenseTensor(rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5)))
        s1 = np.linalg.svd(catalecticant_ns(t, split=((1, 2), (3,))), compute_uv=False)
        s2 = np.linalg.svd(catalecticant_ns(t, split=((3,), (1, 2))), compute_uv=False)
        assert np.allclose(s1, s2)

    def test_bad_split_rejected(self):
        t = DenseTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            catalecticant_ns(t, split=((1,), (2,)))
        with pytest.raises(ValueError):
            catalecticant_ns(t, split=((1, 2), (2, 3)))
        with pytest.raises(ValueError, match="needs order >= 2"):
            catalecticant_ns(DenseTensor(np.ones(3)))
        with pytest.raises(ValueError, match="needs order >= 2"):
            catalecticant_sym(SymTensor.zeros(3, 1))


class TestEstimateRank:
    def test_gap_after_two_values(self):
        rep = estimate_rank(np.array([5.7857, 5.4357, 7e-16]))
        assert rep.suggested_rank == 2

    def test_exact_rank_one(self):
        rep = estimate_rank(np.array([1.0, 0.0, 0.0]))
        assert rep.suggested_rank == 1

    def test_plateau_is_undetermined(self):
        rep = estimate_rank(np.array([1.0, 0.9, 0.8]))
        assert rep.suggested_rank is None
        assert "undetermined" in rep.describe()

    def test_smallest_qualifying_rank_wins(self):
        rep = estimate_rank(np.array([1.0, 0.5, 1e-3, 1e-12]))
        assert rep.suggested_rank == 2  # 0.5 / 1e-3 = 500 >= 100

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_rank(np.array([]))

    def test_spectra_are_the_singular_values_of_the_flattenings(self):
        F, _, _ = gen_random_sym(4, 4, 2, 0.1, seed=5)
        s = np.linalg.svd(catalecticant_sym(F), compute_uv=False)
        assert np.allclose(spectrum_sym(F).singular_values, s, rtol=1e-14, atol=0)
        D, _, _ = gen_random_ns((4, 3, 5), 2, 0.1, seed=5)
        s = np.linalg.svd(catalecticant_ns(D), compute_uv=False)
        assert np.allclose(spectrum_ns(D).singular_values, s, rtol=1e-14, atol=0)

    def test_rank1_tensor_suggests_one(self):
        F, _, _ = gen_random_sym(5, 3, 1, 0.0, seed=3)
        assert spectrum_sym(F).suggested_rank == 1


class TestSpectraGolden:
    def test_sin3_spectrum(self):
        sv = spectrum_sym(named_tensor("sin3", 6)).singular_values
        assert np.allclose(sv[:2], [5.7857, 5.4357], atol=5.1e-5)
        assert sv[2] < 1e-10

    def test_recip3_spectrum(self):
        sv = spectrum_sym(named_tensor("recip3")).singular_values
        assert np.allclose(sv[:4], [1.7660, 0.1675, 0.0135, 0.0009], atol=5.1e-5)

    def test_expsum3_spectrum_pinned_split(self):
        sv = spectrum_ns(named_tensor("expsum3"), split=((1, 2), (3,))).singular_values
        assert np.allclose(sv[:2], [0.1542, 0.0010], atol=5.1e-5)

    def test_nonsym_rank_recovery(self):
        F, _, _ = gen_random_ns((6, 5, 4), 3, 0.0, seed=8)
        assert spectrum_ns(F).suggested_rank == 3
