"""Complex dense and compact-symmetric tensor containers.

A :class:`DenseTensor` stores every entry of an order-m tensor with dimensions
(n1,...,nm) in a row-major complex array.  A :class:`SymTensor` stores a
symmetric tensor of order m and dimension n compactly: one entry per power
vector alpha with |alpha| <= m, in graded-lex order.  Both are immutable in
intent: operations return new objects and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .monomials import factor_table, grlex_position, multiindex_to_power, power_table, prefix_table

__all__ = [
    "DenseTensor",
    "SymTensor",
    "outer_product",
    "khatri_rao",
    "sym_power",
    "monomial_values",
    "sym_combination",
    "sym_contract",
]


class _Tensor:
    """`+` and `-` of two tensors of one kind and shape, scalar `*` and the finiteness check, for both
    kinds; each names the field of its entries (`_ENTRIES`) and its shape-mismatch message."""

    def _freeze(self, **fields):
        """Set fields of the frozen tensor, once its entries are known finite."""
        if not np.isfinite(fields[self._ENTRIES]).all():
            raise ValueError("tensor entries must be finite")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, c):
        return replace(self, **{self._ENTRIES: getattr(self, self._ENTRIES) * c})

    __rmul__ = __mul__

    def _combine(self, other, op):
        # NotImplemented for any other operand, so Python raises TypeError
        if type(other) is not type(self):
            return NotImplemented
        if self.dims != other.dims:
            raise ValueError(self._INCOMPATIBLE.format(self, other))
        entries = op(getattr(self, self._ENTRIES), getattr(other, self._ENTRIES))
        return replace(self, **{self._ENTRIES: entries})


@dataclass(frozen=True, eq=False)
class DenseTensor(_Tensor):
    """Order-m complex tensor with explicit dimensions, row-major storage; compared by identity."""

    kind = "dense"
    _ENTRIES = "data"
    _INCOMPATIBLE = "incompatible dense tensors: dims {0.dims} vs {1.dims}"
    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        if arr.ndim < 1 or any(d < 1 for d in arr.shape):
            raise ValueError(f"invalid tensor shape {arr.shape}")
        self._freeze(data=arr)

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
        return float(np.sqrt(np.vdot(self.data, self.data).real))


@dataclass(frozen=True, eq=False)
class SymTensor(_Tensor):
    """Symmetric order-m tensor over C^n, one entry per power vector; compared by identity.

    `values` is a copy of the array given; `powers` and `weights` are the shared read-only
    rows of `power_table(n - 1, m)`: power vectors and multi-index counts."""

    kind = "sym"
    _ENTRIES = "values"
    _INCOMPATIBLE = "incompatible symmetric tensors: ({0.n},{0.m}) vs ({1.n},{1.m})"
    n: int
    m: int
    values: np.ndarray
    nbar: int = field(init=False, repr=False)
    powers: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = self.n, self.m
        if n < 1 or m < 1:
            raise ValueError(f"invalid (n, m) = ({n}, {m})")
        powers, weights = power_table(n - 1, m)
        values = np.array(self.values, dtype=np.complex128)
        if values.shape != (len(powers),):
            raise ValueError(f"expected {len(powers)} entries for n={n}, m={m}, got shape {values.shape}")
        self._freeze(values=values, nbar=n - 1, powers=powers, weights=weights)

    @property
    def order(self) -> int:
        return self.m

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.n,) * self.m

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
    of v[i]^(x)m.  Degree d is built from degree d - 1 by one gather of the
    prefixes and one of the last factors (`prefix_table`), so each value is
    the product of its m `factor_table` factors taken in ascending order.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape[-1] < 1 or m < 0:
        raise ValueError(f"invalid (n, m) = ({v.shape[-1]}, {m})")
    if m == 0:
        return np.ones(v.shape[:-1] + (1,), dtype=np.complex128)
    nvars = v.shape[-1] - 1
    # index gathers, not np.take, and degree 1 gathered too when it is the result:
    # the memory order, which sets how a later sum over the rows rounds, stays as before
    out = v if m > 1 else v[..., prefix_table(nvars, 1)[1]]
    for d in range(2, m + 1):
        prefix, last = prefix_table(nvars, d)
        out = out[..., prefix]
        out *= v[..., last]
    return out


@lru_cache(maxsize=None)
def _flat_prefix(n: int, m: int) -> np.ndarray:
    """Read-only prefix * n + last of `prefix_table(n - 1, m)`: each degree-m row's (N', n) entry."""
    prefix, last = prefix_table(n - 1, m)
    flat = prefix * n + last
    flat.flags.writeable = False
    return flat


def _prefix_split(V: np.ndarray, m: int):
    """The (r, n) stack V, its (r, N') degree-(m-1) values P and `_flat_prefix(n, m)`.

    The degree-m value of row i at alpha is P[i, prefix] * V[i, last], so a sum
    over the rows fills entry flat[alpha] = prefix * n + last of an (N', n) table.
    """
    V = np.asarray(V, dtype=np.complex128)
    return V, monomial_values(V, m - 1), _flat_prefix(V.shape[-1], m)


def sym_combination(V: np.ndarray, c: np.ndarray, m: int) -> np.ndarray:
    """`c @ monomial_values(V, m)`: compact values of sum_i c_i V[i]^(x)m for an (r, n) V.

    With P the degree-(m-1) values, ((c o P)^T V)[beta, k] sums the rank-1 terms
    at beta + e_k, so the result is one (N', r) x (r, n) product and one gather;
    the r x N table of degree-m values is never formed.
    """
    return _combination(*_prefix_split(V, m), c)


def sym_contract(V: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """`monomial_values(V, m) @ y` for an (r, n) V and an N-vector y, without the r x N table.

    Scattering y into the (N', n) table S at (prefix, last), row i of the
    result is sum_beta,k P[i, beta] S[beta, k] V[i, k]: the row sums of
    (P S) o V, one (r, N') x (N', n) product.
    """
    return _contract(*_prefix_split(V, m), y)


def _combination(V, P, flat, c) -> np.ndarray:
    """`sym_combination` from the `_prefix_split` of V."""
    return ((np.asarray(c)[:, None] * P).T @ V).ravel()[flat]


def _contract(V, P, flat, y) -> np.ndarray:
    """`sym_contract` from the `_prefix_split` of V."""
    S = np.zeros(P.shape[-1] * V.shape[-1], dtype=np.complex128)
    S[flat] = y
    return ((P @ S.reshape(P.shape[-1], V.shape[-1])) * V).sum(axis=1)


def sym_power(v, m: int) -> SymTensor:
    """m-th symmetric tensor power of a vector v in C^n, stored compactly."""
    v = np.asarray(v, dtype=np.complex128)
    return SymTensor(len(v), m, monomial_values(v, m))
