"""Nonsymmetric rank-r approximation via generating matrices.

The tensor is first permuted so the largest dimension is mode 1, then
compressed to a sequentially truncated MLSVD core: every mode of dimension
above r is projected onto the leading r eigenvectors of the Gram of its
unfolding (De Lathauwer, De Moor & Vandewalle, SIAM J. Matrix Anal. Appl.
2000; Vannieuwenhoven, Vandebril & Meerbergen, SIAM J. Sci. Comput. 2012).
On the core, one shared least-squares matrix per mode j >= 2 yields the
generating-matrix columns; the r x r matrices assembled from those columns
are jointly (approximately) diagonalized through one Schur decomposition,
giving the mode-2..m vectors of every rank-1 term, which the mode bases map
back.  The first-mode vectors come from a final least squares with one
shared design matrix, on the core with mode 1 kept whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg.blas

from .linalg import draw_weights, joint_points, lstsq_min_norm, positive_combination, schur
from .refine import ApproxResult, refine_if_helps, refine_nonsym
from .tensors import DenseTensor, khatri_rao

__all__ = [
    "NsGenMatrix",
    "NsApproxResult",
    "check_shape_ns",
    "mode_permute",
    "assemble_system_ns",
    "solve_generating_matrix_ns",
    "truncated_core",
    "build_mjk",
    "extract_modes",
    "solve_first_mode",
    "reconstruct_ns",
    "rank1_closed_form_ns",
    "approx_nonsym",
]

# bytes of one slab of the residual's difference: a few slabs at 60^3, one at 40^3
RESIDUAL_SLAB_BYTES = 1 << 20


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


@dataclass(kw_only=True)
class NsApproxResult(ApproxResult):
    """Dense result; `X_gp` and `X_opt` are built from the tuples on first access."""

    tuples: list  # r tuples of m vectors each, original mode order
    mode_permutation: tuple[int, ...]
    tuples_opt: list | None = None

    @cached_property
    def X_gp(self) -> DenseTensor:
        return reconstruct_ns(self.tuples)

    @cached_property
    def X_opt(self) -> DenseTensor | None:
        return None if self.tuples_opt is None else reconstruct_ns(self.tuples_opt)


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

    It needs order >= 3, every mode of dimension >= 2, r in 1..max(dims), and at
    least r rows in the system of every mode once the largest mode is first.
    """
    dims = tuple(dims)
    if len(dims) < 3:
        raise ValueError("nonsymmetric pipeline needs order >= 3")
    for j, n in enumerate(dims, 1):
        if n < 2:
            raise ValueError(f"mode {j} has dimension {n}; every mode needs >= 2")
    if not 1 <= r <= max(dims):
        raise ValueError(f"rank must be in 1..{max(dims)} (the largest dimension), got {r}")
    first = int(np.argmax(dims))
    _check_mode_rows((dims[first],) + dims[:first] + dims[first + 1 :], r)


def mode_permute(F: DenseTensor):
    """Reorder modes so the first dimension is the largest.

    Returns (permuted tensor, perm) where perm lists the original mode of each
    new position; the relative order of the remaining modes is preserved.
    When the largest mode is already first, the tensor is F itself.
    """
    if F.order < 3:
        raise ValueError("nonsymmetric pipeline needs order >= 3")
    first = int(np.argmax(F.dims))
    perm = (first,) + tuple(j for j in range(F.order) if j != first)
    if first == 0:
        return F, perm
    return DenseTensor(np.transpose(F.data, perm)), perm


def truncated_core(Fp: DenseTensor, r: int):
    """Sequentially truncated MLSVD of a mode-permuted tensor, for 2 <= r.

    Modes t = m, ..., 2 of dimension n_t > r are projected onto U_t, the
    leading r eigenvectors of the Gram of the mode-t unfolding of the
    shrinking partial core, each column's largest entry made real positive;
    this gives P, whose mode 1 is whole.  Mode 1 of P is then truncated the
    same way, giving the core C.  Returns (P, C, bases) with bases[t] the
    n_t x r matrix U_t, or None for a mode kept whole.  At r = 1, or when no
    mode exceeds r, P and C are Fp itself.
    """
    m = Fp.order
    bases = [None] * m
    if r < 2 or max(Fp.dims) <= r:
        return Fp, Fp, bases
    core = Fp.data
    # the mode handled next is always the last axis, and each handled mode
    # moves to the front, so after modes m..2 the axes run (2, ..., m, 1)
    for t in [*range(m - 1, 0, -1), 0]:
        n = core.shape[-1]
        X = core.reshape(-1, n)  # the transposed mode-t unfolding
        if r < n:
            gram = scipy.linalg.blas.zherk(1.0, X.T)  # upper triangle of X^T conj(X)
            # leading eigenvector first: the core's points are scaled to a unit
            # coordinate along it
            U = np.linalg.eigh(gram, UPLO="U")[1][:, ::-1][:, :r]
            # fixed phases, the largest entry of each column real positive: the
            # eigensolver's own phase choice would move the positive combination
            piv = U[np.argmax(np.abs(U), axis=0), np.arange(r)]
            bases[t] = U * (piv.conj() / np.abs(piv))
            front = bases[t].conj().T @ X.T
        else:
            front = X.T
        core = front.reshape(front.shape[0], *core.shape[:-1])
        if t == 1:
            P = DenseTensor(np.moveaxis(core, -1, 0))
    return P, DenseTensor(core), bases


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


def solve_generating_matrix_ns(F: DenseTensor, r: int) -> NsGenMatrix:
    """Least-squares generating matrix; one factorization per mode j."""
    m = F.order
    _check_mode_rows(F.dims, r)
    blocks = {}
    residuals = {}
    for j in range(2, m + 1):
        A, B = assemble_system_ns(F, j, r)
        nj = F.dims[j - 1]
        rhs = B.reshape(r * (nj - 1), -1).T  # columns: (i, k) pairs
        X = lstsq_min_norm(A, rhs)
        residuals[j] = np.linalg.norm(A @ X - rhs, axis=0).reshape(r, nj - 1)
        blocks[j] = X.reshape(r, r, nj - 1)  # axes (ell, i, k-1)
    return NsGenMatrix(rank=r, dims=F.dims, blocks=blocks, column_residuals=residuals)


def build_mjk(gm: NsGenMatrix, j: int, k: int) -> np.ndarray:
    """r x r matrix whose (i, ell) entry is the relation coefficient G(ell, (i,j,k))."""
    block = gm.blocks.get(j)
    if block is None or not 1 <= k <= block.shape[2]:
        raise ValueError(f"(j, k) = ({j}, {k}) outside the index set")
    return block[:, :, k - 1].T  # rows i, columns ell


def extract_modes(gm: NsGenMatrix, xi: np.ndarray):
    """Mode-2..m factor matrices of the rank-1 terms from one Schur decomposition.

    `xi` holds one strictly positive weight per matrix M_{j,k}, in (j, k)
    order (j = 2..m, k = 1..n_j - 1), the weights summing to 1.  Returns
    (factors, diagnostics) where factors[j - 2] (j = 2..m) is the (n_j, r)
    matrix whose column s is the mode-j vector of term s, with leading entry 1.
    """
    mats = np.stack([build_mjk(gm, j, k) for j, n in enumerate(gm.dims[1:], 2) for k in range(1, n)])
    sizes = [n - 1 for n in gm.dims[1:]]
    blocks, diagnostics = joint_points(mats, schur(positive_combination(mats, xi)), sizes)
    return [b.T for b in blocks], diagnostics


def solve_first_mode(F: DenseTensor, factors) -> np.ndarray:
    """First-mode vectors minimizing the joint reconstruction error.

    One design matrix, khatri_rao of the mode-2..m factor matrices, is shared
    by the independent least squares of every first-mode slice.  Returns an
    (r, n1) array.
    """
    return lstsq_min_norm(khatri_rao(factors), F.data.reshape(F.dims[0], -1).T)


def reconstruct_ns(tuples) -> DenseTensor:
    """Sum of the rank-1 outer products of the given tuples, as A_1 @ khatri_rao(A_2..A_m).T."""
    A = [np.column_stack(vectors) for vectors in zip(*tuples)]
    return DenseTensor((A[0] @ khatri_rao(A[1:]).T).reshape([len(a) for a in A]))


def _slab_residual(F: DenseTensor, factors) -> float:
    """||F - A_1 @ khatri_rao(A_2..A_m).T|| for the (n_t, r) factors A_t of F's modes.

    The difference is formed over slabs of mode-1 rows of at most
    RESIDUAL_SLAB_BYTES each, so no temporary is as large as F.
    """
    unfolded = F.data.reshape(F.dims[0], -1)
    kr_t = khatri_rao(factors[1:]).T
    step = max(1, RESIDUAL_SLAB_BYTES // (kr_t.shape[1] * kr_t.itemsize))
    total = 0.0
    for lo in range(0, F.dims[0], step):
        D = factors[0][lo : lo + step] @ kr_t
        D -= unfolded[lo : lo + step]
        total += np.vdot(D, D).real
    return math.sqrt(total)


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


def _draw_xi(dims, rng) -> np.ndarray:
    """The weights of `extract_modes` for a core of these dims: one per M_{j,k}."""
    return draw_weights(rng, sum(n - 1 for n in dims[1:]))


def approx_nonsym(F: DenseTensor, r: int, refine: bool = True, seed: int = 0) -> NsApproxResult:
    """Rank-r approximation of a dense tensor of order >= 3.

    The result's tuples are reported in the original mode order;
    `mode_permutation` records the internal reordering.  `residual_gp` is
    computed from the factors, and the full tensors `X_gp` / `X_opt` only
    when first read.  When `refine` is set, a local nonlinear least-squares
    polish is kept if it does not worsen the residual (see
    `refine.refine_if_helps`).
    """
    check_shape_ns(F.dims, r)
    Fp, perm = mode_permute(F)

    P, C, bases = truncated_core(Fp, r)
    gm = solve_generating_matrix_ns(C, r)
    W, diagnostics = extract_modes(gm, _draw_xi(C.dims, np.random.default_rng(seed)))
    # U_2 (x) ... (x) U_m has orthonormal columns, so the fit on P is the fit on Fp
    modes = [w if U is None else U @ w for U, w in zip(bases[1:], W)]
    permuted = [solve_first_mode(P, W).T, *modes]
    factors = [permuted[t] for t in np.argsort(perm)]
    tuples = [[a[:, s] for a in factors] for s in range(r)]
    residual_gp = _slab_residual(F, factors)
    diagnostics = dict(diagnostics, xi_seed=seed)

    result = NsApproxResult(
        rank=r,
        tuples=tuples,
        residual_gp=residual_gp,
        mode_permutation=perm,
        diagnostics=diagnostics,
    )
    polished = refine_if_helps(refine_nonsym, F, tuples, residual_gp) if refine else None
    if polished is not None:
        result.refined = True
        result.tuples_opt, result.residual_opt = polished
    return result
