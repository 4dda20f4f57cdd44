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
    "draw_weights",
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

    Singular values at most DEFAULT_RCOND * sigma_max are treated as zero.  `b`
    may be a vector or a matrix of stacked right-hand sides.  A tall A is
    first reduced by QR, A = Q R: R has A's singular values and Q* b carries
    everything of b that A can reach, so the SVD runs on the small R.
    """
    A = np.asarray(A, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has leading size {b.shape[0]}")
    if A.shape[0] > A.shape[1]:
        try:
            Q, A = np.linalg.qr(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"least-squares QR failed: {exc}") from exc
        b = Q.conj().T @ b
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least-squares SVD did not converge: {exc}") from exc
    k = int(np.count_nonzero(s > DEFAULT_RCOND * s[0])) if s.size else 0
    y = U[:, :k].conj().T @ b
    y /= s[:k].reshape((k,) + (1,) * (b.ndim - 1))
    return Vh[:k].conj().T @ y


def svd(A: np.ndarray) -> np.ndarray:
    """Singular values of A, nonincreasing."""
    A = np.asarray(A, dtype=np.complex128)
    if A.size == 0:
        raise ValueError("svd of an empty matrix")
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


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


def draw_weights(rng, K: int) -> np.ndarray:
    """K uniform draws from `rng`, normalized to sum to 1: the weights of `positive_combination`."""
    w = rng.uniform(size=K)
    return w / w.sum()


def joint_eigenvalues(mats: np.ndarray, pair: SchurPair):
    """Joint eigenvalues of a (nearly) commuting family of r x r matrices.

    `pair` is the Schur decomposition of a positive combination of the
    (K, r, r) stack `mats` (see `positive_combination`).  When the family
    commutes its Schur vectors q_s triangularize every M_k, so the Rayleigh
    quotients q_s* M_k q_s are the eigenvalues of M_k belonging to the s-th
    common eigenvector (Corless, Gianni & Trager, ISSAC 1997).  Returns
    (values, diagnostics) with values of shape (r, K), read off the diagonals
    of the one (K, r, r) product T_k = Q* M_k Q.  The readout neglects the
    strictly lower triangles of T, so the diagnostics say how far to trust it:

    - schur_defect: max_k ||tril(T_k, -1)||_F / max(1, max_k ||M_k||_F), 0 when
      the Schur vectors triangularize every M_k;
    - eigengap: min_{a<b} |lambda_a - lambda_b| / max(1, max |lambda|) over the
      eigenvalues of the combination, inf when r = 1;
    - low_confidence: eigengap < 1e-8 or schur_defect > 1e-6.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    Q = pair.Q
    T = Q.conj().T @ mats @ Q
    values = np.diagonal(T, axis1=1, axis2=2).T.copy()
    scale = max(1.0, np.linalg.norm(mats, axis=(1, 2)).max())
    defect = np.linalg.norm(np.tril(T, -1), axis=(1, 2)).max() / scale
    eig = pair.eigenvalues
    if len(eig) > 1:
        gaps = np.abs(eig[:, None] - eig[None, :])[np.triu_indices(len(eig), 1)]
        gap = gaps.min() / max(1.0, np.max(np.abs(eig)))
    else:
        gap = np.inf
    diagnostics = {
        "schur_defect": float(defect),
        "eigengap": float(gap),
        "low_confidence": bool(gap < 1e-8 or defect > 1e-6),
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
