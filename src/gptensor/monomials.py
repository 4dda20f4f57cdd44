"""Graded-lexicographic monomial enumeration and index translation.

Symmetric tensors of order m and dimension n are addressed by power vectors
alpha in N^{n-1} with |alpha| <= m: the multi-index (i1,...,im), 1 <= ij <= n,
maps to the monomial x_{i1-1} * ... * x_{im-1} with x0 := 1, and alpha records
the exponent of each of x1,...,x_{n-1}.  Monomials of equal degree are ordered
with x1 > x2 > ... > x_{n-1}, so listing starts 1, x1, ..., x_{n-1}, x1^2,
x1*x2, ...  `power_table(n - 1, m)` is this listing as read-only int64 rows,
the one form power vectors take in the package, and `grlex_position` maps
rows (and sums of rows) back to their positions in it.

Written as its m factors in ascending order (x0 padding the degree to m), a
monomial is a sorted m-tuple, and this listing is the lexicographic order of
those tuples, as `itertools.combinations_with_replacement(range(n), m)` yields
them: `factor_table` is that enumeration, and `power_table` counts its factors.
Dropping a tuple's last (largest) factor leaves a tuple of degree m - 1, so
every degree-m monomial is a degree-(m-1) one times a single variable, and
`prefix_table` records which.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "grlex_position",
    "multiindex_to_power",
    "multiplicity",
    "multiplicities",
    "power_table",
    "factor_table",
    "prefix_table",
]


def grlex_position(nvars: int, m: int, *terms) -> np.ndarray:
    """Row of the power vector `sum(terms)` in `power_table(nvars, m)`.

    Terms are integer arrays of shape (..., nvars) whose leading axes broadcast:
    `grlex_position(nvars, m, rows[:, None], cols[None])` indexes the Hankel
    gather F_{rows_i + cols_j}.  With suffix sums S_k = alpha_k + ... , the row
    is sum_k [S_k >= 1] C(S_k - 1 + nvars - k, nvars - k), which counts for
    k = 0 the monomials of lower degree and for k >= 1 those of equal degree
    that are larger at coordinate k - 1 and agree before it.  Suffix sums add
    over terms, so the sum is never formed.  Raises KeyError for a wrong width,
    a negative entry or a degree above m.
    """
    arrays = []
    for term in terms:
        term = np.asarray(term, dtype=np.int64)
        if term.shape[-1:] != (nvars,):
            raise KeyError(f"power vectors of shape {term.shape} do not have {nvars} entries")
        if term.size and term.min() < 0:
            flat = term.reshape(-1, nvars)
            bad = tuple(flat[(flat < 0).any(axis=1).argmax()].tolist())
            raise KeyError(f"negative exponent in power vector {bad}")
        arrays.append(term)
    if any(a.size and a.max() > m for a in arrays):
        # the int64 suffix sums of such exponents can wrap, so add the degrees as Python ints
        degree = sum(a.astype(object).sum(axis=-1) for a in arrays)
        raise KeyError(f"power vector of degree {np.max(degree)} exceeds order {m}")
    # every exponent is at most m now, so no suffix sum below can wrap
    suffix = [np.cumsum(a[..., ::-1], axis=-1)[..., ::-1] for a in arrays]
    # below[s, j]: number of monomials in j variables of degree < s
    grid = [[math.comb(s - 1 + j, j) if s else 0 for j in range(nvars + 1)] for s in range(m + 1)]
    below = np.array(grid, dtype=np.int64)
    pos = np.zeros(np.broadcast_shapes(*(S.shape[:-1] for S in suffix)), dtype=np.int64)
    for k in range(nvars):
        s = sum(S[..., k] for S in suffix)
        if k == 0 and s.size and s.max() > m:
            raise KeyError(f"power vector of degree {int(s.max())} exceeds order {m}")
        pos += below[s, nvars - k]
    return pos


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


@lru_cache(maxsize=None)
def power_table(nvars: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared read-only (N, nvars) int64 graded-lex listing of degree <= m, and its counts.

    Row i counts each variable's factors in row i of `factor_table(nvars, m)`.
    The counts are the multi-index counts of the rows (`multiplicities`).
    """
    factors = factor_table(nvars, m)
    bins = np.arange(len(factors))[:, None] * (nvars + 1) + factors
    full = np.bincount(bins.ravel(), minlength=len(factors) * (nvars + 1))
    powers = np.ascontiguousarray(full.reshape(len(factors), nvars + 1)[:, 1:])
    counts = multiplicities(powers, m)
    powers.flags.writeable = False
    counts.flags.writeable = False
    return powers, counts


@lru_cache(maxsize=None)
def factor_table(nvars: int, m: int) -> np.ndarray:
    """Shared read-only (N, m) table of the factors of every `power_table(nvars, m)` row.

    Row alpha lists, in ascending order, the variable of each of the m factors of
    x0^(m-|alpha|) * x1^a1 * ..., with 0 for the implicit x0, so the monomial's
    value at v is the product of v[row[j]] over j.
    """
    if nvars < 0 or m < 0:
        raise ValueError(f"invalid (n, m) = ({nvars + 1}, {m})")
    size = math.comb(nvars + m, m)
    rows = itertools.combinations_with_replacement(range(nvars + 1), m)
    idx = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=size * m)
    idx = idx.reshape(size, m)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def prefix_table(nvars: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared read-only int64 pair (prefix, last) splitting each degree-m monomial in two.

    Row i of `power_table(nvars, m)` is row prefix[i] of `power_table(nvars, m - 1)`
    times x_last[i]: `last` is the last (largest) factor of row i of `factor_table`,
    and the prefix row lists the m - 1 factors before it.
    """
    if nvars < 0 or m < 1:
        raise ValueError(f"no degree-{m - 1} prefixes for (n, m) = ({nvars + 1}, {m})")
    last = factor_table(nvars, m)[:, -1].copy()
    # e_0 = 0: dropping the implicit x0 leaves the power vector as it is
    unit = np.eye(nvars + 1, nvars, k=-1, dtype=np.int64)
    prefix = grlex_position(nvars, m - 1, power_table(nvars, m)[0] - unit[last])
    for a in (prefix, last):
        a.flags.writeable = False
    return prefix, last
