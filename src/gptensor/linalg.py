"""Dense complex matrix kernels: minimum-norm least squares, SVD, Schur.

Thin contracts over LAPACK-backed routines so the rest of the pipeline never
touches raw factorizations.  All functions are pure and deterministic for a
fixed input bit pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "SchurPair",
    "lstsq_min_norm",
    "svd",
    "schur",
    "positive_combination",
    "joint_eigenvalues",
    "joint_points",
    "NumericalError",
    "DEFAULT_RCOND",
]

DEFAULT_RCOND = 1e-12


class NumericalError(RuntimeError):
    """A factorization failed to converge."""


@dataclass(frozen=True)
class SchurPair:
    """Unitary Q and upper-triangular T with Q T Q* equal to the input."""

    Q: np.ndarray
    T: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.T)


def lstsq_min_norm(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution x = pinv(A) b.

    Singular values below DEFAULT_RCOND * sigma_max are treated as zero.  `b`
    may be a vector or a matrix of stacked right-hand sides.
    """
    A = np.asarray(A, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has leading size {b.shape[0]}")
    try:
        x, *_ = np.linalg.lstsq(A, b, rcond=DEFAULT_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least-squares SVD did not converge: {exc}") from exc
    return x


def svd(A: np.ndarray, compute_uv: bool = True):
    """Full SVD A = U diag(s) V*; returns (U, s, V) with s nonincreasing.

    With compute_uv=False only s is computed and returned.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.size == 0:
        raise ValueError("svd of an empty matrix")
    try:
        out = np.linalg.svd(A, full_matrices=True, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if not compute_uv:
        return out
    U, s, Vh = out
    return U, s, Vh.conj().T


def schur(M: np.ndarray) -> SchurPair:
    """Complex Schur decomposition M = Q T Q* with T exactly upper triangular.

    No eigenvalue reordering is applied; diag(T) lists the eigenvalues in
    whatever order the factorization produces.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"schur requires a square matrix, got shape {M.shape}")
    try:
        T, Q = scipy.linalg.schur(M, output="complex")
    except Exception as exc:  # scipy raises LinAlgError on QR iteration failure
        raise NumericalError(f"Schur decomposition failed: {exc}") from exc
    return SchurPair(Q=Q, T=np.triu(T))


def positive_combination(mats: np.ndarray, xi) -> np.ndarray:
    """sum_k xi_k M_k for a (K, r, r) stack and K strictly positive weights summing to 1."""
    mats = np.asarray(mats, dtype=np.complex128)
    xi = np.asarray(xi, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[0] < 1:
        raise ValueError(f"need a nonempty (K, r, r) stack of matrices, got shape {mats.shape}")
    if xi.shape != mats.shape[:1] or np.any(xi <= 0) or abs(xi.sum() - 1.0) > 1e-9:
        raise ValueError(f"xi must be {mats.shape[0]} strictly positive weights summing to 1")
    return np.tensordot(xi, mats, axes=1)


def joint_eigenvalues(mats: np.ndarray, pair: SchurPair):
    """Joint eigenvalues of a (nearly) commuting family of r x r matrices.

    `pair` is the Schur decomposition of a positive combination of the
    (K, r, r) stack `mats` (see `positive_combination`).  When the family
    commutes its Schur vectors q_s triangularize every M_k, so the Rayleigh
    quotients q_s* M_k q_s are the eigenvalues of M_k belonging to the s-th
    common eigenvector (Corless, Gianni & Trager, ISSAC 1997).  Returns
    (values, diagnostics) with values of shape (r, K).  The diagnostics say
    how far to trust them:

    - commutator: max_{a<b} ||M_a M_b - M_b M_a||_F / max(1, max_k ||M_k||_F)^2;
    - eigengap: min_{a<b} |lambda_a - lambda_b| / max(1, max |lambda|) over the
      eigenvalues of the combination, inf when r = 1;
    - low_confidence: eigengap < 1e-8 or commutator > 1e-6.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    Q = pair.Q
    values = np.einsum("is,kij,js->sk", Q.conj(), mats, Q, optimize=True)

    scale = max(1.0, np.linalg.norm(mats, axis=(1, 2)).max())
    comm = 0.0
    # one row of pairs at a time keeps memory at K r^2, not the K^2 r^2 of a full batch
    for a in range(len(mats) - 1):
        rest = mats[a + 1 :]
        comm = max(comm, np.linalg.norm(mats[a] @ rest - rest @ mats[a], axis=(1, 2)).max())
    comm /= scale**2
    eig = pair.eigenvalues
    if len(eig) > 1:
        gaps = np.abs(eig[:, None] - eig[None, :])[np.triu_indices(len(eig), 1)]
        gap = gaps.min() / max(1.0, np.max(np.abs(eig)))
    else:
        gap = np.inf
    diagnostics = {
        "commutator": float(comm),
        "eigengap": float(gap),
        "low_confidence": bool(gap < 1e-8 or comm > 1e-6),
    }
    return values, diagnostics


def joint_points(mats: np.ndarray, pair: SchurPair, sizes):
    """`joint_eigenvalues` of `mats` read as affine points, one block per variable group.

    The K = sum(sizes) values of each Schur vector are cut into blocks of
    `sizes` columns, and each block gets a leading column of ones (the fixed
    first coordinate).  Returns (blocks, diagnostics); block b has shape
    (r, sizes[b] + 1).
    """
    values, diagnostics = joint_eigenvalues(mats, pair)
    ones = np.ones((len(values), 1), dtype=np.complex128)
    blocks = np.split(values, np.cumsum(sizes)[:-1], axis=1)
    return [np.concatenate([ones, b], axis=1) for b in blocks], diagnostics
