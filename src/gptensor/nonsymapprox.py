"""Nonsymmetric rank-r approximation via generating matrices.

The tensor is first permuted so the largest dimension is mode 1.  One shared
least-squares matrix per mode j >= 2 yields the generating-matrix columns;
the r x r matrices assembled from those columns are jointly (approximately)
diagonalized through one Schur decomposition, giving the mode-2..m vectors of
every rank-1 term.  The first-mode vectors come from a final least squares
with one shared design matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_RCOND, joint_eigenvalues, lstsq_min_norm, positive_combination, schur
from .refine import refine_if_helps, refine_nonsym
from .tensors import DenseTensor, khatri_rao

__all__ = [
    "NsGenMatrix",
    "NsApproxResult",
    "check_shape_ns",
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


def _check_mode_rows(dims, r: int) -> None:
    """Raise ValueError when the system of some mode j >= 2 has fewer rows than r.

    The system of mode j has one row per index of the modes other than 1 and j.
    """
    total = math.prod(dims)
    for j in range(2, len(dims) + 1):
        rows = total // (dims[0] * dims[j - 1])
        if rows < r:
            raise ValueError(
                f"rank {r} exceeds the {rows} rows of the system for mode {j}; "
                f"the least squares would be underdetermined"
            )


def check_shape_ns(dims, r: int) -> None:
    """Raise ValueError unless `approx_nonsym` can fit rank r to a tensor of these dims.

    It needs order >= 3, r in 1..max(dims), every mode of dimension >= 2, and at
    least r rows in the system of every mode once the largest mode is first.
    """
    dims = tuple(dims)
    if len(dims) < 3:
        raise ValueError("nonsymmetric pipeline needs order >= 3")
    if not 1 <= r <= max(dims):
        raise ValueError(f"rank must be in 1..{max(dims)} (the largest dimension), got {r}")
    if 1 in dims:
        raise ValueError(f"mode {dims.index(1) + 1} has dimension 1; every mode needs >= 2")
    first = int(np.argmax(dims))
    _check_mode_rows((dims[first],) + dims[:first] + dims[first + 1 :], r)


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
    # axes (i, k, rows): rows run over the indices of the modes other than 1 and j, row-major
    slices = np.moveaxis(F.data[:r], j - 1, 1).reshape(r, F.dims[j - 1], -1)
    return slices[:, 0].T, slices[:, 1:]


def solve_generating_matrix_ns(F: DenseTensor, r: int, rcond: float = DEFAULT_RCOND) -> NsGenMatrix:
    """Least-squares generating matrix; one factorization per mode j."""
    m = F.order
    _check_mode_rows(F.dims, r)
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
    D = khatri_rao([np.array([mode[j] for mode in modes]).T for j in range(2, F.order + 1)])
    return lstsq_min_norm(D, F.data.reshape(F.dims[0], -1).T, rcond=rcond)


def reconstruct_ns(tuples) -> DenseTensor:
    """Sum of the rank-1 outer products of the given tuples, as A_1 @ khatri_rao(A_2..A_m).T."""
    A = [np.column_stack(vectors) for vectors in zip(*tuples)]
    return DenseTensor((A[0] @ khatri_rao(A[1:]).T).reshape([len(a) for a in A]))


def rank1_closed_form_ns(F: DenseTensor):
    """Closed-form rank-1 tuple; equals the full pipeline at r = 1.

    The r = 1 system of mode j has one column A, and entry k of the mode-j
    vector is the ratio A^H b_k / A^H A.
    """
    m = F.order
    if m < 3:
        raise ValueError("nonsymmetric rank-1 closed form needs order >= 3")
    tup = [None] * m
    for j in range(2, m + 1):
        A, B = assemble_system_ns(F, j, 1)
        denom = np.vdot(A, A).real
        if denom == 0:
            raise ValueError(f"degenerate slice: all entries constant in modes 1,{j} vanish")
        tup[j - 1] = np.concatenate([[1.0], B[0] @ A[:, 0].conj() / denom])
    d = khatri_rao([v[:, None] for v in tup[1:]])[:, 0]
    tup[0] = (F.data.reshape(F.dims[0], -1) @ d.conj()) / np.vdot(d, d).real
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
    check_shape_ns(F.dims, r)
    Fp, perm = mode_permute(F)
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
