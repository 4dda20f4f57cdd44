"""Symmetric rank-r approximation via generating matrices.

Pipeline: solve one least-squares system per shift degree for the generating
matrix, form multiplication (companion) matrices for each variable, extract
candidate points from a Schur decomposition of a random positive combination,
then fit coefficients by weighted linear least squares.  An optional nonlinear
refinement polishes the resulting rank-1 terms.

All compact least-squares rows carry the square root of the multi-index count
of their power vector, so minimizing the compact objective minimizes the true
(full-tensor) norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_RCOND, joint_eigenvalues, lstsq_min_norm, positive_combination, schur
from .monomials import grlex_position, monomials_upto, power_table
from .refine import refine_if_helps, refine_sym
from .tensors import SymTensor, monomial_values

__all__ = [
    "MonomialBasisPair",
    "SymGenMatrix",
    "SymApproxResult",
    "build_bases",
    "assemble_system",
    "solve_generating_matrix",
    "companion_matrix",
    "extract_points",
    "solve_coefficients",
    "reconstruct_sym",
    "rank1_closed_form",
    "approx_sym",
]


@dataclass(frozen=True)
class MonomialBasisPair:
    """B0: the first r monomials in graded-lex order; B1: their one-step shifts."""

    nbar: int
    B0: tuple[tuple[int, ...], ...]
    B1: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.B0)

    @property
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


@dataclass(frozen=True)
class SymGenMatrix:
    """Generating-matrix candidate: one column per shift monomial in B1."""

    bases: MonomialBasisPair
    G: np.ndarray  # shape (r, |B1|)
    column_residuals: np.ndarray = field(default=None)


@dataclass
class SymApproxResult:
    rank: int
    points: np.ndarray  # (r, n), first coordinate 1
    coefficients: np.ndarray  # (r,)
    u_ls: np.ndarray  # (r, n): lambda^(1/m) scaled points
    X_gp: SymTensor
    residual_gp: float
    refined: bool = False
    u_opt: np.ndarray | None = None
    X_opt: SymTensor | None = None
    residual_opt: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def best_residual(self) -> float:
        return self.residual_opt if self.refined else self.residual_gp


def build_bases(n: int, r: int) -> MonomialBasisPair:
    """Monomial bases for rank r in n-1 variables."""
    if n < 2 or r < 1:
        raise ValueError(f"need n >= 2 and r >= 1, got n={n}, r={r}")
    nbar = n - 1
    deg = 0
    while len(monomials_upto(nbar, deg)) < r:
        deg += 1
    b0 = monomials_upto(nbar, deg)[:r]
    # B0 holds rows 0..r-1 of the graded-lex listing; B1 is every other shift, in order
    shifts = grlex_position(nbar, deg + 1, np.array(b0)[:, None], np.eye(nbar, dtype=np.int64))
    b1 = tuple(monomials_upto(nbar, deg + 1)[row] for row in np.unique(shifts) if row >= r)
    return MonomialBasisPair(nbar=nbar, B0=b0, B1=b1)


def assemble_system(F: SymTensor, alphas, B0):
    """Shared matrix A and right-hand sides B for shift monomials of one degree.

    Rows run over gamma with |gamma| <= m - |alpha|: A[gamma, beta] = F_{beta+gamma}
    and B[gamma, k] = F_{alphas_k+gamma}, both scaled by the row weight; column k
    of the least-squares solution is the generating-matrix column of alphas_k.
    """
    degrees = np.unique(np.sum(alphas, axis=1))
    if len(degrees) != 1:
        raise ValueError(f"shift monomials must share one degree, got degrees {degrees.tolist()}")
    d = F.m - int(degrees[0])
    if d < 0:
        raise ValueError(f"|alpha| = {F.m - d} exceeds order m = {F.m}")
    gammas, counts = power_table(F.nbar, d)
    w = np.sqrt(counts)[:, None]
    return F.hankel(gammas, B0) * w, F.hankel(gammas, alphas) * w


def solve_generating_matrix(F: SymTensor, r: int, rcond: float = DEFAULT_RCOND) -> SymGenMatrix:
    """Generating matrix by minimum-norm least squares, one solve per shift degree."""
    bases = build_bases(F.n, r)
    if bases.max_degree > F.m:
        raise ValueError(
            f"rank {r} needs shift monomials of degree {bases.max_degree} > order {F.m}; "
            f"their least-squares columns would be unconstrained"
        )
    B1 = np.array(bases.B1)
    degrees = B1.sum(axis=1)
    G = np.empty((r, len(B1)), dtype=np.complex128)
    residuals = np.empty(len(B1))
    for deg in np.unique(degrees):
        cols = np.flatnonzero(degrees == deg)
        A, B = assemble_system(F, B1[cols], bases.B0)
        if A.shape[0] < r:
            raise ValueError(
                f"rank {r} exceeds the {A.shape[0]} rows of the system for shift "
                f"monomials of degree {deg}; the least squares would be underdetermined"
            )
        X = lstsq_min_norm(A, B, rcond=rcond)
        G[:, cols] = X
        residuals[cols] = np.linalg.norm(A @ X - B, axis=0)
    return SymGenMatrix(bases=bases, G=G, column_residuals=residuals)


def companion_matrix(gm: SymGenMatrix, i: int) -> np.ndarray:
    """Multiplication-by-x_i matrix on the span of B0 modulo the relations in G."""
    bases = gm.bases
    if not 1 <= i <= bases.nbar:
        raise ValueError(f"variable index {i} out of range 1..{bases.nbar}")
    r = bases.rank
    index = bases.shift_index[i - 1]
    inside = index < r
    M = np.zeros((r, r), dtype=np.complex128)
    M[index[inside], np.flatnonzero(inside)] = 1.0
    M[:, ~inside] = gm.G[:, index[~inside] - r]
    return M


def extract_points(gm: SymGenMatrix, xi: np.ndarray):
    """Approximate common zeros of the generating polynomials.

    Reads the joint eigenvalues of the companion matrices M_{x_1..x_nbar} off
    one Schur decomposition of sum_i xi_i M_{x_i}; row s is the point of the
    s-th Schur vector.  Returns (points, diagnostics); points have first
    coordinate 1.
    """
    Ms = np.stack([companion_matrix(gm, i) for i in range(1, gm.bases.nbar + 1)])
    pair = schur(positive_combination(Ms, xi))
    values, diagnostics = joint_eigenvalues(Ms, pair)
    points = np.concatenate([np.ones((len(values), 1), dtype=np.complex128), values], axis=1)
    return points, diagnostics


def solve_coefficients(F: SymTensor, points: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Coefficients minimizing the true tensor norm of the rank-r combination."""
    w = np.sqrt(F.weights)
    D = monomial_values(points, F.powers, F.m).T
    return lstsq_min_norm(D * w[:, None], F.values * w, rcond=rcond)


def reconstruct_sym(points: np.ndarray, coefficients: np.ndarray, n: int, m: int) -> SymTensor:
    """Compact tensor sum of lambda_i * (v_i)^(x) m."""
    powers = power_table(n - 1, m)[0]
    terms = np.asarray(coefficients)[:, None] * monomial_values(points, powers, m)
    return SymTensor(n, m, terms.sum(axis=0))


def rank1_closed_form(F: SymTensor):
    """Closed-form best rank-1 candidate (lambda, v) with v_0 = 1.

    Equals the full pipeline at r = 1: the system for B0 = {1}, B1 = {x_1..x_nbar}
    has one column A, each trailing coordinate is the ratio A^H b_i / A^H A,
    and lambda is the coefficient fit.
    """
    if F.m < 2:
        raise ValueError("rank-1 closed form needs order >= 2")
    A, B = assemble_system(F, np.eye(F.nbar, dtype=np.int64), np.zeros((1, F.nbar), dtype=np.int64))
    denom = np.vdot(A, A).real
    if denom == 0:
        raise ValueError("degenerate leading slice: all degree <= m-1 entries vanish")
    v = np.concatenate([[1.0], A[:, 0].conj() @ B / denom])
    mono = monomial_values(v, F.powers, F.m)
    lam = np.sum(F.weights * mono.conj() * F.values) / np.sum(F.weights * np.abs(mono) ** 2)
    return complex(lam), v


def _principal_root(lam: complex, m: int) -> complex:
    if lam == 0:
        return 0.0
    return np.exp(np.log(complex(lam)) / m)


def approx_sym(
    F: SymTensor,
    r: int,
    refine: bool = True,
    seed: int = 0,
    rcond: float = DEFAULT_RCOND,
    refine_options=None,
) -> SymApproxResult:
    """Symmetric rank-r approximation of F.

    Runs the generating-matrix pipeline; when `refine` is set, a local
    nonlinear least-squares polish of the rank-1 terms is kept if it does not
    worsen the residual (see `refine.refine_if_helps`).
    """
    if F.m < 2:
        raise ValueError("approximation needs order >= 2")
    nmon = len(F.powers)
    if not 1 <= r <= nmon:
        raise ValueError(f"rank must be in 1..{nmon}, got {r}")
    rng = np.random.default_rng(seed)

    gm = solve_generating_matrix(F, r, rcond)
    xi = rng.uniform(size=F.nbar)
    xi /= xi.sum()
    points, diagnostics = extract_points(gm, xi)
    lam = solve_coefficients(F, points, rcond)
    X_gp = reconstruct_sym(points, lam, F.n, F.m)
    residual_gp = (F - X_gp).norm()
    u_ls = np.array([_principal_root(l, F.m) * v for l, v in zip(lam, points)], dtype=np.complex128)
    result = SymApproxResult(
        rank=r,
        points=points,
        coefficients=np.asarray(lam),
        u_ls=u_ls,
        X_gp=X_gp,
        residual_gp=residual_gp,
        diagnostics=dict(diagnostics, xi_seed=seed),
    )

    polished = refine_if_helps(refine_sym, F, u_ls, residual_gp, refine_options) if refine else None
    if polished is not None:
        result.refined = True
        result.u_opt, result.residual_opt = polished
        result.X_opt = reconstruct_sym(result.u_opt, np.ones(r), F.n, F.m)
    return result
