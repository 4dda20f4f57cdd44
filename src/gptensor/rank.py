"""Catalecticant flattenings and the singular-value gap rank heuristic."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import svd
from .monomials import monomials_upto
from .tensors import DenseTensor, SymTensor

__all__ = [
    "SpectrumReport",
    "catalecticant_sym",
    "catalecticant_ns",
    "default_split",
    "estimate_rank",
    "GAP_FACTOR",
    "FLOOR",
]

# The suggested rank r is the first where the spectrum drops by at least
# GAP_FACTOR or falls to at most FLOOR times the largest singular value.
GAP_FACTOR = 100.0
FLOOR = 1e-10


@dataclass(frozen=True)
class SpectrumReport:
    """Singular values of a flattening plus the suggested approximating rank."""

    singular_values: np.ndarray
    suggested_rank: int | None
    shape: tuple[int, int]

    def describe(self) -> str:
        if self.suggested_rank is None:
            return "no clear singular-value gap; rank undetermined"
        return f"suggested rank {self.suggested_rank}"


def catalecticant_sym(t: SymTensor) -> np.ndarray:
    """Hankel-structured flattening (F_{alpha+beta}) of a symmetric tensor.

    Rows run over |alpha| <= floor(m/2), columns over |beta| <= ceil(m/2),
    both graded-lex ordered.
    """
    if t.m < 2:
        raise ValueError("catalecticant needs order >= 2")
    m1 = t.m // 2
    m2 = t.m - m1
    return t.hankel(monomials_upto(t.nbar, m1), monomials_upto(t.nbar, m2))


def default_split(dims) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Mode bipartition minimizing |prod(S1 dims) - prod(S2 dims)|.

    Modes are 1-based.  Candidates are enumerated with mode 1 in S1; ties are
    broken by the lexicographically smallest S1.
    """
    m = len(dims)
    best = None
    for size in range(1, m):
        for s1 in itertools.combinations(range(1, m + 1), size):
            if 1 not in s1:
                continue
            s2 = tuple(j for j in range(1, m + 1) if j not in s1)
            p1 = int(np.prod([dims[j - 1] for j in s1]))
            p2 = int(np.prod([dims[j - 1] for j in s2]))
            key = (abs(p1 - p2), s1)
            if best is None or key < best[0]:
                best = (key, (s1, s2))
    return best[1]


def catalecticant_ns(t: DenseTensor, split=None) -> np.ndarray:
    """Matrix flattening of a dense tensor over a mode bipartition.

    `split` is a pair of 1-based mode tuples; by default the most square
    flattening is used (see :func:`default_split`).
    """
    if t.order < 2:
        raise ValueError("catalecticant needs order >= 2")
    if split is None:
        s1, s2 = default_split(t.dims)
    else:
        s1, s2 = tuple(split[0]), tuple(split[1])
        if sorted(s1 + s2) != list(range(1, t.order + 1)):
            raise ValueError(f"split {split} is not a bipartition of modes 1..{t.order}")
    perm = [j - 1 for j in s1] + [j - 1 for j in s2]
    rows = int(np.prod([t.dims[j - 1] for j in s1]))
    return np.transpose(t.data, perm).reshape(rows, -1)


def estimate_rank(eta: np.ndarray, shape: tuple[int, int] = (0, 0)) -> SpectrumReport:
    """Pick the smallest r with eta_{r+1} <= FLOOR * eta_1 or a >= GAP_FACTOR drop."""
    eta = np.asarray(eta, dtype=np.float64)
    if eta.size == 0:
        raise ValueError("empty singular value list")
    suggested = None
    if eta[0] > 0:
        for r in range(1, eta.size):
            if eta[r] <= FLOOR * eta[0] or eta[r - 1] / eta[r] >= GAP_FACTOR:
                suggested = r
                break
    return SpectrumReport(singular_values=eta, suggested_rank=suggested, shape=shape)


def spectrum_sym(t: SymTensor) -> SpectrumReport:
    cat = catalecticant_sym(t)
    return estimate_rank(svd(cat), shape=cat.shape)


def spectrum_ns(t: DenseTensor, split=None) -> SpectrumReport:
    cat = catalecticant_ns(t, split=split)
    return estimate_rank(svd(cat), shape=cat.shape)
