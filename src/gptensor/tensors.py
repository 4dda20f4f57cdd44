"""Complex dense and compact-symmetric tensor containers.

A :class:`DenseTensor` stores every entry of an order-m tensor with dimensions
(n1,...,nm) in a row-major complex array.  A :class:`SymTensor` stores a
symmetric tensor of order m and dimension n compactly: one entry per power
vector alpha with |alpha| <= m, in graded-lex order.  Both are immutable in
intent: operations return new objects and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monomials import factor_table, grlex_position, multiindex_to_power, power_table

__all__ = [
    "DenseTensor",
    "SymTensor",
    "outer_product",
    "khatri_rao",
    "sym_power",
    "monomial_values",
]


@dataclass(frozen=True)
class DenseTensor:
    """Order-m complex tensor with explicit dimensions, row-major storage."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        if arr.ndim < 1 or any(d < 1 for d in arr.shape):
            raise ValueError(f"invalid tensor shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    def entry(self, idx) -> complex:
        """Entry at the 1-based multi-index (i1,...,im)."""
        if len(idx) != self.order or not all(1 <= i <= n for i, n in zip(idx, self.dims)):
            raise ValueError(f"index {tuple(idx)} out of range for dims {self.dims}")
        return complex(self.data[tuple(i - 1 for i in idx)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        self._check_compatible(other)
        return DenseTensor(self.data + other.data)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        self._check_compatible(other)
        return DenseTensor(self.data - other.data)

    def __mul__(self, c) -> "DenseTensor":
        return DenseTensor(self.data * c)

    __rmul__ = __mul__

    def _check_compatible(self, other: "DenseTensor"):
        if self.dims != other.dims:
            raise ValueError(f"incompatible dense tensors: dims {self.dims} vs {other.dims}")


class SymTensor:
    """Symmetric order-m tensor over C^n, stored one entry per power vector."""

    def __init__(self, n: int, m: int, values: np.ndarray):
        if n < 1 or m < 1:
            raise ValueError(f"invalid (n, m) = ({n}, {m})")
        self.n = n
        self.m = m
        self.nbar = n - 1
        # shared read-only rows of `monomials_upto(n - 1, m)` and their multi-index counts
        self.powers, self.weights = power_table(self.nbar, m)
        self.values = np.array(values, dtype=np.complex128)
        if self.values.shape != (len(self.powers),):
            raise ValueError(
                f"expected {len(self.powers)} entries for n={n}, m={m}, got shape {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("tensor entries must be finite")

    @classmethod
    def zeros(cls, n: int, m: int) -> "SymTensor":
        return cls(n, m, np.zeros(len(power_table(n - 1, m)[0]), dtype=np.complex128))

    @classmethod
    def from_function(cls, n: int, m: int, fn) -> "SymTensor":
        """Build from a symmetric entry formula fn(i1,...,im), 1-based indices."""
        t = cls.zeros(n, m)
        # row alpha of the factor table, shifted to 1-based, is a multi-index of alpha
        t.values[:] = [fn(*idx) for idx in (factor_table(n - 1, m) + 1).tolist()]
        return t

    @classmethod
    def from_dense(cls, dense: DenseTensor, tol: float = 0.0) -> "SymTensor":
        """Compact a dense symmetric tensor; checks symmetry when tol > 0."""
        dims = dense.dims
        n, m = dims[0], dense.order
        if any(d != n for d in dims):
            raise ValueError(f"dims {dims} are not cubic")
        pos = _dense_positions(n, m).ravel()
        flat = dense.data.ravel()
        # each power vector keeps the value of its first multi-index in row-major order
        t = cls(n, m, flat[np.unique(pos, return_index=True)[1]])
        if tol > 0:
            bad = np.abs(flat - t.values[pos]) > tol
            if bad.any():
                idx = tuple(int(i) + 1 for i in np.unravel_index(bad.argmax(), dims))
                raise ValueError(f"tensor is not symmetric at index {idx}")
        return t

    def to_dense(self) -> DenseTensor:
        return DenseTensor(self.values[_dense_positions(self.n, self.m)])

    def at_power(self, alpha) -> complex:
        return complex(self.values[self.position(alpha)])

    def position(self, alpha) -> int:
        """Row of the power vector alpha in `values`; KeyError if not stored."""
        return int(grlex_position(self.nbar, self.m, alpha))

    def hankel(self, rows, cols) -> np.ndarray:
        """Matrix (F_{rows_i + cols_j}) for two sequences of power vectors."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        return self.values[grlex_position(self.nbar, self.m, rows[:, None], cols[None])]

    def entry(self, idx) -> complex:
        """Entry at the 1-based multi-index; invariant under permutations."""
        if len(idx) != self.m:
            raise ValueError(f"expected {self.m} indices, got {len(idx)}")
        return self.at_power(multiindex_to_power(idx, self.n))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))

    def __add__(self, other: "SymTensor") -> "SymTensor":
        self._check_compatible(other)
        return SymTensor(self.n, self.m, self.values + other.values)

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        self._check_compatible(other)
        return SymTensor(self.n, self.m, self.values - other.values)

    def __mul__(self, c) -> "SymTensor":
        return SymTensor(self.n, self.m, self.values * c)

    __rmul__ = __mul__

    def _check_compatible(self, other: "SymTensor"):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError(
                f"incompatible symmetric tensors: ({self.n},{self.m}) vs ({other.n},{other.m})"
            )


def _dense_positions(n: int, m: int) -> np.ndarray:
    """Compact row of every entry of an (n,)*m array; index i > 0 adds e_i."""
    unit = np.eye(n, n - 1, k=-1, dtype=np.int64)
    terms = [unit.reshape((1,) * j + (n,) + (1,) * (m - 1 - j) + (n - 1,)) for j in range(m)]
    return grlex_position(n - 1, m, *terms)


def outer_product(vectors) -> DenseTensor:
    """Rank-1 tensor u^1 (x) ... (x) u^m from m complex vectors."""
    vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if not vectors:
        raise ValueError("outer_product needs at least one vector")
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return DenseTensor(out)


def khatri_rao(factors) -> np.ndarray:
    """Column-wise Kronecker product of (n_t, r) factor matrices.

    Column s is the raveled outer product of column s of every factor, so
    A_1 @ khatri_rao([A_2, ..., A_m]).T unfolds the tensor with factors A_t.
    """
    factors = [np.asarray(f, dtype=np.complex128) for f in factors]
    if not factors:
        raise ValueError("khatri_rao needs at least one factor")
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, out.shape[1])
    return out


def monomial_values(v: np.ndarray, m: int) -> np.ndarray:
    """Evaluate v0^(m-|alpha|) * v1^a1 * ... for every stored power vector alpha.

    `v` has shape (..., n) and the result (..., N): row i is the compact storage
    of v[i]^(x)m.  Each value is the product of the m factors that
    `factor_table(n - 1, m)` lists, taken as m gathers of v.
    """
    v = np.asarray(v, dtype=np.complex128)
    idx = factor_table(v.shape[-1] - 1, m)
    if m == 0:
        return np.ones(v.shape[:-1] + (len(idx),), dtype=np.complex128)
    out = v[..., idx[:, 0]]
    for j in range(1, m):
        out *= v[..., idx[:, j]]
    return out


def sym_power(v, m: int) -> SymTensor:
    """m-th symmetric tensor power of a vector v in C^n, stored compactly."""
    v = np.asarray(v, dtype=np.complex128)
    return SymTensor(len(v), m, monomial_values(v, m))
