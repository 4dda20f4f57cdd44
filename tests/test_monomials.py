import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptensor.monomials import (
    grlex_position,
    multiindex_to_power,
    multiplicities,
    multiplicity,
    power_table,
)


def brute_force_upto(nvars, deg):
    """Oracle: enumerate exponent boxes and sort by the graded-lex key."""
    all_tuples = [
        t for t in itertools.product(range(deg + 1), repeat=nvars) if sum(t) <= deg
    ]
    return sorted(all_tuples, key=lambda t: (sum(t), tuple(-a for a in t)))


@pytest.mark.parametrize("nvars,deg", [(1, 3), (2, 3), (3, 4), (4, 2), (5, 3)])
def test_monomials_upto_matches_bruteforce(nvars, deg):
    powers = power_table(nvars, deg)[0]
    assert powers.dtype == np.int64 and not powers.flags.writeable
    assert list(map(tuple, powers.tolist())) == brute_force_upto(nvars, deg)
    assert len(powers) == math.comb(nvars + deg, deg)


def test_listing_starts_with_constant_and_linears():
    mons = power_table(3, 2)[0]
    assert np.array_equal(mons[0], (0, 0, 0))
    assert np.array_equal(mons[1:4], ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # degree-2 block: x1^2, x1 x2, x1 x3, x2^2, x2 x3, x3^2
    assert np.array_equal(mons[4:], ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)))


def test_multiindex_to_power_examples():
    # (1,1,1) in n=4 -> constant; (2,3,4) -> x1 x2 x3
    assert multiindex_to_power((1, 1, 1), 4) == (0, 0, 0)
    assert multiindex_to_power((2, 3, 4), 4) == (1, 1, 1)
    assert multiindex_to_power((2, 2, 1), 3) == (2, 0)
    with pytest.raises(ValueError):
        multiindex_to_power((0, 1), 3)
    with pytest.raises(ValueError):
        multiindex_to_power((4, 1), 3)


def test_multiindex_to_power_permutation_invariant_exhaustive():
    """Every permutation of a multi-index maps to the same power vector (n<=4, m<=3)."""
    for n in range(2, 5):
        for m in range(1, 4):
            for idx in itertools.product(range(1, n + 1), repeat=m):
                alpha = multiindex_to_power(idx, n)
                for perm in itertools.permutations(idx):
                    assert multiindex_to_power(perm, n) == alpha


@given(st.integers(2, 5), st.integers(1, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_multiplicity_counts_permutations(n, m, data):
    mons = list(map(tuple, power_table(n - 1, m)[0].tolist()))
    alpha = data.draw(st.sampled_from(mons))
    count = sum(
        multiindex_to_power(idx, n) == alpha for idx in itertools.product(range(1, n + 1), repeat=m)
    )
    assert multiplicity(alpha, m) == count
    with pytest.raises(ValueError):
        multiplicity((m + 1,) + (0,) * (n - 2), m)  # |alpha| > m


def test_multiplicities_vectorized_matches_scalar():
    mons = power_table(3, 4)[0]
    vec = multiplicities(mons, 4)
    for row, alpha in zip(vec, mons):
        assert row == multiplicity(tuple(alpha), 4)


@given(st.integers(1, 6), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_grlex_position_matches_enumeration(nvars, m):
    rows = grlex_position(nvars, m, power_table(nvars, m)[0])
    assert np.array_equal(rows, np.arange(math.comb(nvars + m, m)))
    unit = np.eye(1, nvars, dtype=np.int64)
    with pytest.raises(KeyError):
        grlex_position(nvars, m, np.zeros((1, nvars + 1), dtype=np.int64))  # wrong width
    with pytest.raises(KeyError):
        grlex_position(nvars, m, -unit)  # negative entry
    with pytest.raises(KeyError):
        grlex_position(nvars, m, (m + 1) * unit)  # degree above m
    big = np.full((1, nvars), 2**62, dtype=np.int64)  # int64 suffix sums of these wrap for nvars >= 2
    with pytest.raises(KeyError, match=f"degree {nvars * 2**62} exceeds"):
        grlex_position(nvars, m, big)
    with pytest.raises(KeyError, match=f"degree {2 * nvars * 2**62} exceeds"):
        grlex_position(nvars, m, big, big)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8])
def test_grlex_position_reads_narrow_terms(dtype):
    # order 127: every exponent fits int8, but degrees and suffix sums need not
    nvars, m = 2, 127
    table = power_table(nvars, m)[0]
    assert np.array_equal(grlex_position(nvars, m, table.astype(dtype)), np.arange(len(table)))
    half = table[table.sum(axis=1) <= 63]
    got = grlex_position(nvars, m, half.astype(dtype)[:, None], half.astype(dtype)[None])
    assert got.dtype == np.int64
    assert np.array_equal(got, grlex_position(nvars, m, half[:, None], half[None]))
    with pytest.raises(KeyError, match="degree 200 exceeds order 127"):
        grlex_position(nvars, m, np.array([[100, 100]], dtype=dtype))
    with pytest.raises(KeyError, match="degree 254 exceeds order 127"):
        grlex_position(nvars, m, np.array([[127, 0]], dtype=dtype), np.array([[0, 127]], dtype=dtype))


@pytest.mark.parametrize("nvars", [1, 2, 3, 5])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_grlex_position_sum_gather_matches_dict_oracle(nvars, m):
    oracle = {tuple(alpha): row for row, alpha in enumerate(power_table(nvars, m)[0].tolist())}
    for m1 in range(m + 1):
        rows, cols = power_table(nvars, m1)[0], power_table(nvars, m - m1)[0]
        got = grlex_position(nvars, m, rows[:, None], cols[None])
        expect = [[oracle[tuple(a + b)] for b in cols] for a in rows]
        assert np.array_equal(got, expect)
    with pytest.raises(KeyError):
        grlex_position(nvars, m, rows[:, None], rows[None])  # degrees add up past m
