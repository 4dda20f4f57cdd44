"""Graded-lexicographic monomial enumeration and index translation.

Symmetric tensors of order m and dimension n are addressed by power vectors
alpha in N^{n-1} with |alpha| <= m: the multi-index (i1,...,im), 1 <= ij <= n,
maps to the monomial x_{i1-1} * ... * x_{im-1} with x0 := 1, and alpha records
the exponent of each of x1,...,x_{n-1}.  Monomials of equal degree are ordered
with x1 > x2 > ... > x_{n-1}, so listing starts 1, x1, ..., x_{n-1}, x1^2,
x1*x2, ...
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "monomials_exact",
    "monomials_upto",
    "grlex_key",
    "multiindex_to_power",
    "multiplicity",
    "multiplicities",
]


@lru_cache(maxsize=None)
def monomials_exact(nvars: int, deg: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples in `nvars` variables of total degree `deg`, grlex order."""
    if nvars == 0:
        return ((),) if deg == 0 else ()
    out = []
    for a in range(deg, -1, -1):
        for rest in monomials_exact(nvars - 1, deg - a):
            out.append((a,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomials_upto(nvars: int, deg: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= `deg`, graded-lex order."""
    out = []
    for d in range(deg + 1):
        out.extend(monomials_exact(nvars, d))
    return tuple(out)


def grlex_key(alpha):
    """Sort key realizing the graded-lex order with x1 > x2 > ...  ."""
    return (sum(alpha), tuple(-a for a in alpha))


def multiindex_to_power(idx, n: int) -> tuple[int, ...]:
    """Power vector of the multi-index (i1,...,im) with 1 <= ij <= n.

    Entry k (k = 1..n-1) counts how often the index value k+1 occurs;
    occurrences of 1 contribute to the implicit constant x0.
    """
    alpha = [0] * (n - 1)
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        if i >= 2:
            alpha[i - 2] += 1
    return tuple(alpha)


def multiplicity(alpha, m: int) -> int:
    """Number of order-m multi-indices mapping to the power vector `alpha`."""
    total = sum(alpha)
    if total > m:
        raise ValueError(f"|alpha| = {total} exceeds order {m}")
    count = math.factorial(m) // math.factorial(m - total)
    for a in alpha:
        count //= math.factorial(a)
    return count


def multiplicities(powers: np.ndarray, m: int) -> np.ndarray:
    """Vectorized `multiplicity` for a (N, nvars) array of power vectors."""
    powers = np.asarray(powers, dtype=np.int64)
    fact = np.array([math.factorial(k) for k in range(m + 1)], dtype=np.float64)
    a0 = m - powers.sum(axis=1)
    denom = fact[a0] * np.prod(fact[powers], axis=1)
    return fact[m] / denom
