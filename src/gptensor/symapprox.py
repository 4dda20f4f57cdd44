"""Symmetric rank-r approximation via generating matrices.

Pipeline: solve one least-squares system per shift degree for the generating
matrix, form multiplication (companion) matrices for each variable, extract
candidate points from a Schur decomposition of a random positive combination,
then fit coefficients by weighted linear least squares, solved from the r x r
Gram matrix of the normalized points.  An optional nonlinear
refinement polishes the resulting rank-1 terms.

All compact least-squares rows carry the square root of the multi-index count
of their power vector, so minimizing the compact objective minimizes the true
(full-tensor) norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .linalg import draw_weights, eigh, joint_points, lstsq_min_norm, positive_combination, schur
from .monomials import grlex_position, power_table
from .refine import ApproxResult, refine_sym
from .tensors import SymTensor, _combination, _contract, _prefix_split, monomial_values, sym_combination

__all__ = [
    "MonomialBasisPair",
    "SymGenMatrix",
    "SymApproxResult",
    "build_bases",
    "check_shape_sym",
    "assemble_system",
    "solve_generating_matrix",
    "companion_matrices",
    "extract_points",
    "solve_coefficients",
    "reconstruct_sym",
    "rank1_closed_form",
    "approx_sym",
    "FIT_COND_LIMIT",
]

# The coefficient fit solves its r x r Gram system when the Gram's condition
# number is at most this, and falls back to an SVD least squares otherwise.
FIT_COND_LIMIT = 1e8


@dataclass(frozen=True, eq=False)
class MonomialBasisPair:
    """B0: the first r power vectors in graded-lex order; B1: their one-step shifts outside B0.

    Both are read-only int64 rows of `power_table`, B1 in graded-lex order too.
    `shift_index[i-1, k]` locates x_i * B0[k] as B0[index] or B1[index - r].
    """

    nbar: int
    B0: np.ndarray  # (r, nbar)
    B1: np.ndarray  # (|B1|, nbar)
    shift_index: np.ndarray  # (nbar, r)

    @property
    def rank(self) -> int:
        return len(self.B0)

    @cached_property
    def degrees(self) -> MappingProxyType:
        """Read-only map from the distinct degrees of B1, lowest first, to their (contiguous) columns."""
        sums = self.B1.sum(axis=1)
        return MappingProxyType(
            {int(d): slice(*np.searchsorted(sums, [d, d + 1]).tolist()) for d in np.unique(sums)}
        )


@dataclass(frozen=True, eq=False)
class SymGenMatrix:
    """Generating-matrix candidate: one column per shift monomial in B1."""

    bases: MonomialBasisPair
    G: np.ndarray  # shape (r, |B1|)
    column_residuals: np.ndarray = field(default=None)


@dataclass(kw_only=True, eq=False)
class SymApproxResult(ApproxResult):
    """Symmetric result; `X_opt` is built from `u_opt` on first access."""

    points: np.ndarray  # (r, n), first coordinate 1
    coefficients: np.ndarray  # (r,)
    u_ls: np.ndarray  # (r, n): lambda^(1/m) scaled points
    X_gp: SymTensor
    u_opt: np.ndarray | None = None

    @cached_property
    def X_opt(self) -> SymTensor | None:
        X = self.X_gp
        return None if self.u_opt is None else reconstruct_sym(self.u_opt, np.ones(self.rank), X.n, X.m)


@lru_cache(maxsize=None)
def build_bases(n: int, r: int) -> MonomialBasisPair:
    """Monomial bases for rank r in n-1 variables.

    Cached: every call for one (n, r) returns the same object, so its tables
    (`shift_index`, `degrees`) are built once per shape.
    """
    if n < 2 or r < 1:
        raise ValueError(f"need n >= 2 and r >= 1, got n={n}, r={r}")
    nbar = n - 1
    deg = 0
    while math.comb(nbar + deg, deg) < r:
        deg += 1
    b0 = power_table(nbar, deg)[0][:r]
    # B0 is rows 0..r-1 of the graded-lex listing, so a shift row below r is its
    # B0 index, and the rank of any other among the distinct shift rows its B1 index
    shifts = grlex_position(nbar, deg + 1, np.eye(nbar, dtype=np.int64)[:, None], b0[None])
    outside = np.unique(shifts[shifts >= r])
    shift_index = np.where(shifts < r, shifts, r + np.searchsorted(outside, shifts))
    b1 = power_table(nbar, deg + 1)[0][outside]
    for a in (b1, shift_index):
        a.flags.writeable = False
    return MonomialBasisPair(nbar=nbar, B0=b0, B1=b1, shift_index=shift_index)


def check_shape_sym(n: int, m: int, r: int) -> None:
    """Raise ValueError unless `approx_sym` can fit rank r to a symmetric (n, m) tensor.

    It needs order m >= 2, n >= 2, r in 1..C(n-1+m, m), shift monomials of
    degree <= m, and at least r rows in the system of every shift degree d:
    one row per monomial of degree <= m - d in the n - 1 variables.
    """
    if m < 2:
        raise ValueError("approximation needs order >= 2")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    nmon = math.comb(n - 1 + m, m)
    if not 1 <= r <= nmon:
        raise ValueError(f"rank must be in 1..{nmon}, got {r}")
    bases = build_bases(n, r)
    top = max(bases.degrees)
    if top > m:
        raise ValueError(
            f"rank {r} needs shift monomials of degree {top} > order {m}; "
            f"their least-squares columns would be unconstrained"
        )
    for d in bases.degrees:
        rows = math.comb(bases.nbar + m - d, bases.nbar)
        if rows < r:
            raise ValueError(
                f"rank {r} exceeds the {rows} rows of the system for shift "
                f"monomials of degree {d}; the least squares would be underdetermined"
            )


def assemble_system(F: SymTensor, r: int, d: int):
    """Shared matrix A and right-hand sides B for the rank-r shift monomials of degree d.

    Rows run over gamma with |gamma| <= m - d: A[gamma, j] = F_{B0[j]+gamma} and
    B[gamma, k] = F_{alpha_k+gamma} over the B1 rows alpha_k of degree d, both
    scaled by the row weight; column k of the least-squares solution is the
    generating-matrix column of alpha_k.  The gather indices come from
    `_system_index`, built once per shape.
    """
    index_A, index_B, w = _system_index(F.n, F.m, r, d)
    return F.values[index_A] * w, F.values[index_B] * w


@lru_cache(maxsize=None)
def _system_index(n: int, m: int, r: int, d: int):
    """Read-only compact rows of A and B in `assemble_system`, and the row weights."""
    bases = build_bases(n, r)
    if d not in bases.degrees or d > m:
        shifts = list(bases.degrees)
        raise ValueError(f"need a shift degree of rank {r} (one of {shifts}) <= order {m}, got {d}")
    gammas, counts = power_table(bases.nbar, m - d)
    rows = gammas[:, None]
    index_A = grlex_position(bases.nbar, m, rows, bases.B0[None])
    index_B = grlex_position(bases.nbar, m, rows, bases.B1[bases.degrees[d]][None])
    w = np.sqrt(counts)[:, None]
    for a in (index_A, index_B, w):
        a.flags.writeable = False
    return index_A, index_B, w


def solve_generating_matrix(F: SymTensor, r: int) -> SymGenMatrix:
    """Generating matrix by minimum-norm least squares, one solve per shift degree.

    The column residuals ||A x - b|| come with the solve (`lstsq_min_norm`),
    from its factorization; A X - B is never formed.
    """
    check_shape_sym(F.n, F.m, r)
    bases = build_bases(F.n, r)
    G = np.empty((r, len(bases.B1)), dtype=np.complex128)
    residuals = np.empty(len(bases.B1))
    for d, cols in bases.degrees.items():
        G[:, cols], residuals[cols] = lstsq_min_norm(*assemble_system(F, r, d))
    return SymGenMatrix(bases=bases, G=G, column_residuals=residuals)


def companion_matrices(gm: SymGenMatrix) -> np.ndarray:
    """(nbar, r, r) stack of the multiplication-by-x_i matrices on the span of B0.

    Column k of M_{x_i} is the unit vector of x_i * B0[k] when that shift lies
    in B0 and its generating-matrix column otherwise, so the stack is one
    gather of [I | G] by `shift_index`.
    """
    r = gm.bases.rank
    basis = np.concatenate([np.eye(r, dtype=np.complex128), gm.G], axis=1)
    return np.ascontiguousarray(basis[:, gm.bases.shift_index].transpose(1, 0, 2))


def extract_points(gm: SymGenMatrix, xi: np.ndarray):
    """Approximate common zeros of the generating polynomials.

    Reads the joint eigenvalues of the companion matrices M_{x_1..x_nbar} off
    one Schur decomposition of sum_i xi_i M_{x_i}; row s is the point of the
    s-th Schur vector.  Returns (points, diagnostics); points have first
    coordinate 1.
    """
    Ms = companion_matrices(gm)
    (points,), diagnostics = joint_points(Ms, schur(positive_combination(Ms, xi)), [gm.bases.nbar])
    return points, diagnostics


def solve_coefficients(F: SymTensor, points: np.ndarray):
    """Coefficients minimizing the true tensor norm of the rank-r combination.

    The fit runs on the normalized points q_i = p_i / ||p_i||: their rank-1
    terms have unit norm and the Gram matrix G[i, j] = (q_i^H q_j)^m (Phan,
    Tichavsky & Cichocki, SIAM J. Matrix Anal. Appl. 2013), so it is an
    r x r solve.  The right-hand side (as `sym_contract`) and the fitted
    values (as `sym_combination`) each take one product with the one table
    of degree-(m-1) values of the points.  Only when cond(G) exceeds
    FIT_COND_LIMIT (duplicate points, say) is the r x N weighted design
    matrix built, for `lstsq_min_norm`.  Returns (lam, values, cond): the
    coefficients, the compact entries of sum_i lam_i v_i^(x)m, and cond(G)
    (inf for a singular G).
    """
    split = _prefix_split(points, F.m)
    norms = np.linalg.norm(points, axis=1)  # >= 1: the first coordinate is 1
    unit, scale = points / norms[:, None], norms**F.m
    # conj(D) @ (c F) as conj(D @ conj(c F)) for the (r, N) degree-m values D
    rhs = _contract(*split, np.conj(F.weights * F.values)).conj() / scale
    evals, evecs = eigh((unit.conj() @ unit.T) ** F.m, lower=True)
    cond = evals[-1] / evals[0] if evals[0] > 0 else np.inf
    if cond <= FIT_COND_LIMIT:
        lam = evecs @ ((evecs.conj().T @ rhs) / evals)
    else:
        w = np.sqrt(F.weights)
        D = monomial_values(points, F.m)
        lam = lstsq_min_norm((D / scale[:, None]).T * w[:, None], F.values * w)[0]
    lam = lam / scale
    return lam, _combination(*split, lam), float(cond)


def reconstruct_sym(points: np.ndarray, coefficients: np.ndarray, n: int, m: int) -> SymTensor:
    """Compact tensor sum of lambda_i * (v_i)^(x) m, by `sym_combination`."""
    return SymTensor(n, m, sym_combination(points, coefficients, m))


def rank1_closed_form(F: SymTensor):
    """Closed-form best rank-1 candidate (lambda, v) with v_0 = 1.

    Equals the full pipeline at r = 1: the system for B0 = {1}, B1 = {x_1..x_nbar}
    has one column A, each trailing coordinate is the ratio A^H b_i / A^H A,
    and lambda is the coefficient fit.
    """
    if F.m < 2:
        raise ValueError("rank-1 closed form needs order >= 2")
    A, B = assemble_system(F, 1, 1)
    denom = np.vdot(A, A).real
    if denom == 0:
        raise ValueError("degenerate leading slice: all degree <= m-1 entries vanish")
    v = np.concatenate([[1.0], A[:, 0].conj() @ B / denom])
    mono = monomial_values(v, F.m)
    lam = np.sum(F.weights * mono.conj() * F.values) / np.sum(F.weights * np.abs(mono) ** 2)
    return complex(lam), v


def _principal_roots(lam: np.ndarray, m: int) -> np.ndarray:
    """exp(log(lam) / m) on the principal branch, elementwise; 0 where lam = 0."""
    roots = np.zeros(len(lam), dtype=np.complex128)
    nonzero = lam != 0
    roots[nonzero] = np.exp(np.log(lam[nonzero]) / m)
    return roots


def approx_sym(F: SymTensor, r: int, refine: bool = True, seed: int = 0) -> SymApproxResult:
    """Symmetric rank-r approximation of F.

    Runs the generating-matrix pipeline; when `refine` is set, a local
    nonlinear least-squares polish of the rank-1 terms is kept as `u_opt` if
    it does not worsen the residual (see `ApproxResult.polishes` and
    `ApproxResult.keep`).  `X_opt` is built from `u_opt` only when first read.
    """
    check_shape_sym(F.n, F.m, r)
    gm = solve_generating_matrix(F, r)
    points, diagnostics = extract_points(gm, draw_weights(np.random.default_rng(seed), F.nbar))
    lam, fitted, fit_cond = solve_coefficients(F, points)
    X_gp = SymTensor(F.n, F.m, fitted)
    u_ls = _principal_roots(lam, F.m)[:, None] * points
    result = SymApproxResult(
        rank=r,
        points=points,
        coefficients=lam,
        u_ls=u_ls,
        X_gp=X_gp,
        residual_gp=(F - X_gp).norm(),
        diagnostics=dict(diagnostics, fit_cond=fit_cond, xi_seed=seed),
    )
    if refine and result.polishes(F):
        result.u_opt = result.keep(*refine_sym(F, u_ls))
    return result
