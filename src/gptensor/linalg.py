"""Dense complex matrix kernels: minimum-norm least squares, SVD, Schur.

Thin contracts over LAPACK routines so the rest of the pipeline never
touches raw factorizations.  The least squares and the Schur decomposition
call LAPACK directly (`zgeqrf`, `zunmqr`, `zgees`): the QR's Q is applied
to the right-hand sides, never formed, and the residual norms are read off
the factorization.  All functions are pure and deterministic for a fixed
input bit pattern.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

__all__ = [
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


def _lwork(ncols: int) -> int:
    """LAPACK workspace for a blocked pass over `ncols` columns: 64 (its largest
    block size) per column, plus the 65 x 64 buffer of a block reflector."""
    return 64 * max(1, ncols) + 65 * 64


def _check_info(info: int, what: str, routine: str) -> None:
    if info != 0:
        raise NumericalError(f"{what} failed: LAPACK {routine} returned info {info}")


def _column_sq(X: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each column of X."""
    return np.einsum("ij,ij->j", X.real, X.real) + np.einsum("ij,ij->j", X.imag, X.imag)


def lstsq_min_norm(A: np.ndarray, b: np.ndarray):
    """Minimum-norm least-squares solution x = pinv(A) b and its residual norms.

    Singular values at most DEFAULT_RCOND * sigma_max are treated as zero.  `b`
    may be a vector or a matrix of stacked right-hand sides.  A tall A is
    first reduced by the QR A = Q R of `zgeqrf`: R has A's singular values
    and Q* b carries everything of b that A can reach, so the SVD runs on the
    small R, and Q is applied to b by `zunmqr`, never formed.  Returns
    (x, residual_norms), the norms ||A x - b|| per column of b (a scalar for
    a vector b), read off the factorization: the part of Q* b below R plus
    the part of the rest along the singular directions cut at
    DEFAULT_RCOND.
    """
    A = np.asarray(A, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if A.ndim != 2 or b.ndim not in (1, 2):
        raise ValueError("A must be a matrix and b a vector or a matrix")
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has leading size {b.shape[0]}")
    B = b[:, None] if b.ndim == 1 else b
    rows, cols = A.shape
    outside = np.zeros(B.shape[1])
    if rows > cols:
        qr, tau, _, info = lapack.zgeqrf(A, lwork=_lwork(cols))
        _check_info(info, "least-squares QR", "zgeqrf")
        if cols:  # Q* b, Q never formed
            B, _, info = lapack.zunmqr("L", "C", qr, tau, B, _lwork(B.shape[1]))
            _check_info(info, "least-squares QR", "zunmqr")
        outside = _column_sq(B[cols:])
        A, B = np.triu(qr[:cols]), B[:cols]
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least-squares SVD did not converge: {exc}") from exc
    # U is square here: A has at most as many rows as columns
    k = int(np.count_nonzero(s > DEFAULT_RCOND * s[0])) if s.size else 0
    y = U.conj().T @ B
    if k < len(y):  # the part of b along the cut singular directions
        outside = outside + _column_sq(y[k:])
    residuals = np.sqrt(outside)
    x = Vh[:k].conj().T @ (y[:k] / s[:k, None])
    return (x[:, 0], residuals[0]) if b.ndim == 1 else (x, residuals)


def svd(A: np.ndarray) -> np.ndarray:
    """Singular values of A, nonincreasing."""
    A = np.asarray(A, dtype=np.complex128)
    if A.size == 0:
        raise ValueError("svd of an empty matrix")
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def schur(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur decomposition M = Q T Q*, returned as (Q, T), by one LAPACK `zgees` call.

    Q is unitary and T exactly upper triangular.  No eigenvalue reordering is
    applied; diag(T) lists the eigenvalues in whatever order the
    factorization produces.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"schur requires a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NumericalError("Schur decomposition failed: the matrix has non-finite entries")
    T, _, _, Q, _, info = lapack.zgees(_no_sort, M, lwork=_lwork(len(M)))
    _check_info(info, "Schur decomposition", "zgees")
    return Q, np.triu(T)


def _no_sort(eigenvalue):
    """`zgees`'s selection callback; never called, since no reordering is asked for."""


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


def joint_eigenvalues(mats: np.ndarray, pair):
    """Joint eigenvalues of a (nearly) commuting family of r x r matrices.

    `pair` is the Schur decomposition (Q, T) of a positive combination of the
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
    Q, T = pair
    eig = np.diagonal(T)  # the eigenvalues of the combination
    T = Q.conj().T @ mats @ Q
    values = np.diagonal(T, axis1=1, axis2=2).T.copy()
    scale = max(1.0, np.linalg.norm(mats, axis=(1, 2)).max())
    defect = np.linalg.norm(np.tril(T, -1), axis=(1, 2)).max() / scale
    gaps = np.abs(eig[:, None] - eig)
    np.fill_diagonal(gaps, np.inf)  # so r = 1 gives inf
    gap = gaps.min() / max(1.0, np.max(np.abs(eig)))
    diagnostics = {
        "schur_defect": float(defect),
        "eigengap": float(gap),
        "low_confidence": bool(gap < 1e-8 or defect > 1e-6),
    }
    return values, diagnostics


def joint_points(mats: np.ndarray, pair, sizes):
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
