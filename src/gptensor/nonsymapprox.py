"""Nonsymmetric rank-r approximation via generating matrices.

The tensor is first permuted so the largest dimension is mode 1.  One shared
least-squares matrix per mode j >= 2 yields the generating-matrix columns;
the r x r matrices assembled from those columns are jointly (approximately)
diagonalized through one Schur decomposition, giving the mode-2..m vectors of
every rank-1 term.  The first-mode vectors come from a final least squares
with one shared design matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .linalg import DEFAULT_RCOND, joint_eigenvalues, lstsq_min_norm, positive_combination, schur
from .refine import refine_if_helps, refine_nonsym
from .tensors import DenseTensor

__all__ = [
    "NsGenMatrix",
    "NsApproxResult",
    "mode_permute",
    "assemble_system_ns",
    "solve_generating_matrix_ns",
    "build_mjk",
    "extract_modes",
    "solve_first_mode",
    "reconstruct_ns",
    "rank1_closed_form_ns",
    "approx_nonsym",
]


@dataclass(frozen=True)
class NsGenMatrix:
    """Generating matrix for a dense tensor, grouped by mode.

    blocks[j] has shape (r, r, n_j - 1); blocks[j][ell, i, k-1] is the
    coefficient of x_{1,ell} in the relation for the pair (x_{1,i}, x_{j,k}).
    Mode keys run over j = 2..m.
    """

    rank: int
    dims: tuple[int, ...]
    blocks: dict[int, np.ndarray]
    column_residuals: dict[int, np.ndarray] = field(default=None)


@dataclass
class NsApproxResult:
    rank: int
    tuples: list  # r tuples of m vectors each, original mode order
    X_gp: DenseTensor
    residual_gp: float
    mode_permutation: tuple[int, ...]
    refined: bool = False
    tuples_opt: list | None = None
    X_opt: DenseTensor | None = None
    residual_opt: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def best_residual(self) -> float:
        return self.residual_opt if self.refined else self.residual_gp


def mode_permute(F: DenseTensor):
    """Reorder modes so the first dimension is the largest.

    Returns (permuted tensor, perm) where perm lists the original mode of each
    new position; the relative order of the remaining modes is preserved.
    """
    if F.order < 3:
        raise ValueError("nonsymmetric pipeline needs order >= 3")
    first = int(np.argmax(F.dims))
    perm = (first,) + tuple(j for j in range(F.order) if j != first)
    return DenseTensor(np.transpose(F.data, perm)), perm


def _other_modes_slice(data: np.ndarray, j: int, mode1_index, modej_index) -> np.ndarray:
    """Flatten over all modes except 1 and j, with those two fixed or sliced."""
    idx = [slice(None)] * data.ndim
    idx[0] = mode1_index
    idx[j - 1] = modej_index
    return data[tuple(idx)]


def assemble_system_ns(F: DenseTensor, j: int, r: int):
    """Shared matrix A[F, j] and all right-hand sides for relations in mode j.

    A has one row per multi-linear monomial constant in modes 1 and j, and one
    column per ell = 0..r-1.  The right-hand sides are returned as an array
    B[i, k-1] of column vectors, i = 0..r-1, k = 1..n_j - 1.
    """
    m = F.order
    if not 2 <= j <= m:
        raise ValueError(f"mode j must be in 2..{m}, got {j}")
    if r > F.dims[0]:
        raise ValueError(f"rank {r} exceeds leading dimension {F.dims[0]}")
    data = F.data
    # rows: all indices of the modes other than 1 and j, raveled row-major
    A = _other_modes_slice(data, j, slice(0, r), 0)
    A = A.reshape(r, -1).T
    nj = F.dims[j - 1]
    B = np.empty((r, nj - 1, A.shape[0]), dtype=np.complex128)
    for i in range(r):
        for k in range(1, nj):
            B[i, k - 1] = _other_modes_slice(data, j, i, k).ravel()
    return A, B


def solve_generating_matrix_ns(F: DenseTensor, r: int, rcond: float = DEFAULT_RCOND) -> NsGenMatrix:
    """Least-squares generating matrix; one factorization per mode j."""
    m = F.order
    blocks = {}
    residuals = {}
    for j in range(2, m + 1):
        A, B = assemble_system_ns(F, j, r)
        nj = F.dims[j - 1]
        rhs = B.reshape(r * (nj - 1), -1).T  # columns: (i, k) pairs
        X = lstsq_min_norm(A, rhs, rcond=rcond)
        residuals[j] = np.linalg.norm(A @ X - rhs, axis=0).reshape(r, nj - 1)
        blocks[j] = X.reshape(r, r, nj - 1)  # axes (ell, i, k-1)
    return NsGenMatrix(rank=r, dims=F.dims, blocks=blocks, column_residuals=residuals)


def build_mjk(gm: NsGenMatrix, j: int, k: int) -> np.ndarray:
    """r x r matrix whose (i, ell) entry is the relation coefficient G(ell, (i,j,k))."""
    block = gm.blocks.get(j)
    if block is None or not 1 <= k <= block.shape[2]:
        raise ValueError(f"(j, k) = ({j}, {k}) outside the index set")
    return block[:, :, k - 1].T  # rows i, columns ell


def _pairs(dims) -> list:
    """The (j, k) index set of the matrices M_{j,k}, j = 2..m, k = 1..n_j - 1."""
    return [(j, k) for j in range(2, len(dims) + 1) for k in range(1, dims[j - 1])]


def extract_modes(gm: NsGenMatrix, xi: dict):
    """Mode-2..m vectors of each rank-1 term from one Schur decomposition.

    `xi` maps every (j, k) pair to a strictly positive weight, the weights
    summing to 1.  Returns (modes, diagnostics) where modes[s][j] (j = 2..m)
    is a vector with leading entry 1.
    """
    pairs = _pairs(gm.dims)
    if set(xi) != set(pairs):
        raise ValueError("xi must weight exactly the (j, k) pairs of the generating matrix")
    mats = np.stack([build_mjk(gm, j, k) for (j, k) in pairs])
    pair = schur(positive_combination(mats, [xi[p] for p in pairs]))
    values, diagnostics = joint_eigenvalues(mats, pair)
    m = len(gm.dims)
    sizes = [gm.dims[j - 1] - 1 for j in range(2, m + 1)]
    ones = np.ones((gm.rank, 1), dtype=np.complex128)
    blocks = np.split(values, np.cumsum(sizes)[:-1], axis=1)
    per_mode = {j: np.concatenate([ones, b], axis=1) for j, b in zip(range(2, m + 1), blocks)}
    modes = [{j: v[s] for j, v in per_mode.items()} for s in range(gm.rank)]
    return modes, diagnostics


def solve_first_mode(F: DenseTensor, modes, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """First-mode vectors minimizing the joint reconstruction error.

    One design matrix (columns: flattened outer products of the mode-2..m
    vectors) is shared by the independent least squares of every first-mode
    slice.  Returns an (r, n1) array.
    """
    r = len(modes)
    m = F.order
    D = np.column_stack(
        [reduce(np.multiply.outer, [modes[s][j] for j in range(2, m + 1)]).ravel() for s in range(r)]
    )
    rhs = F.data.reshape(F.dims[0], -1).T
    Z = lstsq_min_norm(D, rhs, rcond=rcond)
    return Z  # shape (r, n1): row s is the first-mode vector of term s


def reconstruct_ns(tuples) -> DenseTensor:
    """Sum of the rank-1 outer products of the given tuples."""
    out = None
    for tup in tuples:
        term = reduce(np.multiply.outer, [np.asarray(v, dtype=np.complex128) for v in tup])
        out = term if out is None else out + term
    return DenseTensor(out)


def rank1_closed_form_ns(F: DenseTensor):
    """Closed-form rank-1 tuple; equals the full pipeline at r = 1."""
    m = F.order
    if m < 3:
        raise ValueError("nonsymmetric rank-1 closed form needs order >= 3")
    tup = [None] * m
    for j in range(2, m + 1):
        a = _other_modes_slice(F.data, j, 0, 0).ravel()
        denom = np.sum(np.abs(a) ** 2)
        if denom == 0:
            raise ValueError(f"degenerate slice: all entries constant in modes 1,{j} vanish")
        nj = F.dims[j - 1]
        v = np.empty(nj, dtype=np.complex128)
        v[0] = 1.0
        for k in range(1, nj):
            v[k] = np.sum(a.conj() * _other_modes_slice(F.data, j, 0, k).ravel()) / denom
        tup[j - 1] = v
    d = reduce(np.multiply.outer, tup[1:]).ravel()
    scale = np.prod([np.sum(np.abs(v) ** 2) for v in tup[1:]])
    tup[0] = (F.data.reshape(F.dims[0], -1) @ d.conj()) / scale
    return tup


def _draw_xi(dims, rng) -> dict:
    pairs = _pairs(dims)
    w = rng.uniform(size=len(pairs))
    w /= w.sum()
    return dict(zip(pairs, w))


def approx_nonsym(
    F: DenseTensor,
    r: int,
    refine: bool = True,
    seed: int = 0,
    rcond: float = DEFAULT_RCOND,
    refine_options=None,
) -> NsApproxResult:
    """Rank-r approximation of a dense tensor of order >= 3.

    The result's tuples and tensors are reported in the original mode order;
    `mode_permutation` records the internal reordering.  When `refine` is set,
    a local nonlinear least-squares polish is kept if it does not worsen the
    residual (see `refine.refine_if_helps`).
    """
    Fp, perm = mode_permute(F)
    if r > Fp.dims[0]:
        raise ValueError(f"rank {r} exceeds the largest dimension {Fp.dims[0]}")
    rng = np.random.default_rng(seed)
    m = F.order

    gm = solve_generating_matrix_ns(Fp, r, rcond)
    xi = _draw_xi(Fp.dims, rng)
    modes, diagnostics = extract_modes(gm, xi)
    first = solve_first_mode(Fp, modes, rcond)
    tuples_p = [[first[s]] + [modes[s][j] for j in range(2, m + 1)] for s in range(r)]

    inv = np.argsort(perm)
    tuples = [[tup[inv[t]] for t in range(m)] for tup in tuples_p]
    X_gp = reconstruct_ns(tuples)
    residual_gp = (F - X_gp).norm()
    diagnostics = dict(diagnostics, xi_seed=seed)

    result = NsApproxResult(
        rank=r,
        tuples=tuples,
        X_gp=X_gp,
        residual_gp=residual_gp,
        mode_permutation=perm,
        diagnostics=diagnostics,
    )
    polished = (
        refine_if_helps(refine_nonsym, F, tuples, residual_gp, refine_options) if refine else None
    )
    if polished is not None:
        result.refined = True
        result.tuples_opt, result.residual_opt = polished
        result.X_opt = reconstruct_ns(result.tuples_opt)
    return result
