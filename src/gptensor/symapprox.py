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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .linalg import draw_weights, joint_points, lstsq_min_norm, positive_combination, schur
from .monomials import grlex_position, monomials_upto, power_table
from .refine import ApproxResult, refine_if_helps, refine_sym
from .tensors import SymTensor, monomial_values

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


@dataclass(frozen=True)
class MonomialBasisPair:
    """B0: the first r monomials in graded-lex order; B1: their one-step shifts."""

    nbar: int
    B0: tuple[tuple[int, ...], ...]
    B1: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.B0)

    @cached_property
    def max_degree(self) -> int:
        return max(sum(a) for a in self.B1)

    @cached_property
    def shift_index(self) -> np.ndarray:
        """(nbar, r) table: entry [i-1, k] locates x_i * B0[k] as B0[index] or B1[index - r].

        B0 is rows 0..r-1 of the graded-lex listing and B1 the other shift rows in
        order, so a shift row below r is its B0 index and the rank of any other
        among the distinct shift rows is its B1 index.
        """
        r, nbar = self.rank, self.nbar
        eye = np.eye(nbar, dtype=np.int64)[:, None]
        rows = grlex_position(nbar, self.max_degree, np.array(self.B0)[None], eye)
        outside = rows >= r
        rows[outside] = r + np.searchsorted(np.unique(rows[outside]), rows[outside])
        rows.flags.writeable = False
        return rows

    @cached_property
    def shift_blocks(self) -> tuple[tuple[slice, tuple[tuple[int, ...], ...]], ...]:
        """B1 cut by degree, lowest first: the columns and power vectors of each degree."""
        blocks, start = [], 0
        for _, group in itertools.groupby(self.B1, key=sum):
            alphas = tuple(group)
            blocks.append((slice(start, start + len(alphas)), alphas))
            start += len(alphas)
        return tuple(blocks)


@dataclass(frozen=True)
class SymGenMatrix:
    """Generating-matrix candidate: one column per shift monomial in B1."""

    bases: MonomialBasisPair
    G: np.ndarray  # shape (r, |B1|)
    column_residuals: np.ndarray = field(default=None)


@dataclass(kw_only=True)
class SymApproxResult(ApproxResult):
    points: np.ndarray  # (r, n), first coordinate 1
    coefficients: np.ndarray  # (r,)
    u_ls: np.ndarray  # (r, n): lambda^(1/m) scaled points
    X_gp: SymTensor
    u_opt: np.ndarray | None = None
    X_opt: SymTensor | None = None


@lru_cache(maxsize=None)
def build_bases(n: int, r: int) -> MonomialBasisPair:
    """Monomial bases for rank r in n-1 variables.

    Cached: every call for one (n, r) returns the same object, so its index
    tables (`shift_index`, `shift_blocks`) are built once per shape.
    """
    if n < 2 or r < 1:
        raise ValueError(f"need n >= 2 and r >= 1, got n={n}, r={r}")
    nbar = n - 1
    deg = 0
    while math.comb(nbar + deg, deg) < r:
        deg += 1
    b0 = monomials_upto(nbar, deg)[:r]
    # B0 holds rows 0..r-1 of the graded-lex listing; B1 is every other shift, in order
    shifts = grlex_position(nbar, deg + 1, np.array(b0)[:, None], np.eye(nbar, dtype=np.int64))
    b1 = tuple(monomials_upto(nbar, deg + 1)[row] for row in np.unique(shifts) if row >= r)
    return MonomialBasisPair(nbar=nbar, B0=b0, B1=b1)


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
    if bases.max_degree > m:
        raise ValueError(
            f"rank {r} needs shift monomials of degree {bases.max_degree} > order {m}; "
            f"their least-squares columns would be unconstrained"
        )
    for _, alphas in bases.shift_blocks:
        d = sum(alphas[0])
        rows = math.comb(bases.nbar + m - d, bases.nbar)
        if rows < r:
            raise ValueError(
                f"rank {r} exceeds the {rows} rows of the system for shift "
                f"monomials of degree {d}; the least squares would be underdetermined"
            )


def assemble_system(F: SymTensor, alphas, B0):
    """Shared matrix A and right-hand sides B for shift monomials of one degree.

    Rows run over gamma with |gamma| <= m - |alpha|: A[gamma, beta] = F_{beta+gamma}
    and B[gamma, k] = F_{alphas_k+gamma}, both scaled by the row weight; column k
    of the least-squares solution is the generating-matrix column of alphas_k.
    The gather indices come from `_system_index`, built once per shape.
    """
    index_A, index_B, w = _system_index(F.nbar, F.m, tuple(map(tuple, alphas)), tuple(map(tuple, B0)))
    return F.values[index_A] * w, F.values[index_B] * w


@lru_cache(maxsize=None)
def _system_index(nbar: int, m: int, alphas: tuple, B0: tuple):
    """Read-only compact rows of A and B in `assemble_system`, and the row weights.

    Depends only on (n, m) and the two monomial lists, so the pipeline builds
    it once per (n, m, r).
    """
    degrees = sorted({int(sum(a)) for a in alphas})
    if len(degrees) != 1:
        raise ValueError(f"shift monomials must share one degree, got degrees {degrees}")
    d = m - degrees[0]
    if d < 0:
        raise ValueError(f"|alpha| = {degrees[0]} exceeds order m = {m}")
    gammas, counts = power_table(nbar, d)
    rows = gammas[:, None]
    index_A = grlex_position(nbar, m, rows, np.array(B0, dtype=np.int64)[None])
    index_B = grlex_position(nbar, m, rows, np.array(alphas, dtype=np.int64)[None])
    w = np.sqrt(counts)[:, None]
    for a in (index_A, index_B, w):
        a.flags.writeable = False
    return index_A, index_B, w


def solve_generating_matrix(F: SymTensor, r: int) -> SymGenMatrix:
    """Generating matrix by minimum-norm least squares, one solve per shift degree."""
    check_shape_sym(F.n, F.m, r)
    bases = build_bases(F.n, r)
    G = np.empty((r, len(bases.B1)), dtype=np.complex128)
    residuals = np.empty(len(bases.B1))
    for cols, alphas in bases.shift_blocks:
        A, B = assemble_system(F, alphas, bases.B0)
        X = lstsq_min_norm(A, B)
        G[:, cols] = X
        residuals[cols] = np.linalg.norm(A @ X - B, axis=0)
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
    r x r solve.  When cond(G) exceeds FIT_COND_LIMIT (duplicate points,
    say) the normalized weighted design matrix goes to `lstsq_min_norm`
    instead.  Returns (lam, values, cond): the coefficients, the compact
    entries of sum_i lam_i v_i^(x)m, both from one evaluation of the points,
    and cond(G) (inf for a singular G).
    """
    D = monomial_values(points, F.m)  # (r, N)
    norms = np.linalg.norm(points, axis=1)  # >= 1: the first coordinate is 1
    unit, scale = points / norms[:, None], norms**F.m
    # conj(D) @ (c F) as conj(D @ conj(c F)): conjugates an N-vector, not an (r, N) array
    rhs = (D @ np.conj(F.weights * F.values)).conj() / scale
    evals, evecs = np.linalg.eigh((unit.conj() @ unit.T) ** F.m)
    cond = evals[-1] / evals[0] if evals[0] > 0 else np.inf
    if cond <= FIT_COND_LIMIT:
        lam = evecs @ ((evecs.conj().T @ rhs) / evals)
    else:
        w = np.sqrt(F.weights)
        lam = lstsq_min_norm((D / scale[:, None]).T * w[:, None], F.values * w)
    lam = lam / scale
    return lam, lam @ D, float(cond)


def reconstruct_sym(points: np.ndarray, coefficients: np.ndarray, n: int, m: int) -> SymTensor:
    """Compact tensor sum of lambda_i * (v_i)^(x) m."""
    return SymTensor(n, m, np.asarray(coefficients) @ monomial_values(points, m))


def rank1_closed_form(F: SymTensor):
    """Closed-form best rank-1 candidate (lambda, v) with v_0 = 1.

    Equals the full pipeline at r = 1: the system for B0 = {1}, B1 = {x_1..x_nbar}
    has one column A, each trailing coordinate is the ratio A^H b_i / A^H A,
    and lambda is the coefficient fit.
    """
    if F.m < 2:
        raise ValueError("rank-1 closed form needs order >= 2")
    bases = build_bases(F.n, 1)
    A, B = assemble_system(F, bases.B1, bases.B0)
    denom = np.vdot(A, A).real
    if denom == 0:
        raise ValueError("degenerate leading slice: all degree <= m-1 entries vanish")
    v = np.concatenate([[1.0], A[:, 0].conj() @ B / denom])
    mono = monomial_values(v, F.m)
    lam = np.sum(F.weights * mono.conj() * F.values) / np.sum(F.weights * np.abs(mono) ** 2)
    return complex(lam), v


def _principal_root(lam: complex, m: int) -> complex:
    if lam == 0:
        return 0.0
    return np.exp(np.log(complex(lam)) / m)


def approx_sym(F: SymTensor, r: int, refine: bool = True, seed: int = 0) -> SymApproxResult:
    """Symmetric rank-r approximation of F.

    Runs the generating-matrix pipeline; when `refine` is set, a local
    nonlinear least-squares polish of the rank-1 terms is kept if it does not
    worsen the residual (see `refine.refine_if_helps`).
    """
    check_shape_sym(F.n, F.m, r)
    gm = solve_generating_matrix(F, r)
    points, diagnostics = extract_points(gm, draw_weights(np.random.default_rng(seed), F.nbar))
    lam, fitted, fit_cond = solve_coefficients(F, points)
    X_gp = SymTensor(F.n, F.m, fitted)
    residual_gp = (F - X_gp).norm()
    u_ls = np.array([_principal_root(l, F.m) * v for l, v in zip(lam, points)], dtype=np.complex128)
    result = SymApproxResult(
        rank=r,
        points=points,
        coefficients=np.asarray(lam),
        u_ls=u_ls,
        X_gp=X_gp,
        residual_gp=residual_gp,
        diagnostics=dict(diagnostics, fit_cond=fit_cond, xi_seed=seed),
    )

    polished = refine_if_helps(refine_sym, F, u_ls, residual_gp) if refine else None
    if polished is not None:
        result.refined = True
        result.u_opt, result.residual_opt = polished
        result.X_opt = reconstruct_sym(result.u_opt, np.ones(r), F.n, F.m)
    return result
