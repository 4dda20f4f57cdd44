"""Levenberg-Marquardt refinement of rank-r decompositions.

The residual maps are polynomial (hence holomorphic) in the complex vector
variables.  By the Cauchy-Riemann equations their real Jacobian over (Re, Im)
coordinates is the real representation [[Re J, -Im J], [Im J, Re J]] of the
complex Jacobian J, so the real damped Gauss-Newton system is the real
representation of the complex system (J^H J + mu I) delta = -J^H r, which the
solver solves directly.  The solver is monotone: it returns the best iterate
seen, which is never worse than the starting point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monomials import grlex_position, power_table
from .tensors import DenseTensor, SymTensor, khatri_rao, monomial_values

__all__ = [
    "RefineOptions",
    "levenberg_marquardt",
    "sym_residual_map",
    "ns_residual_map",
    "refine_sym",
    "refine_nonsym",
    "refine_if_helps",
    "SKIP_REFINE_TOL",
]

# Refinement is skipped when the unrefined residual is at most this fraction
# of ||F||: the generating-polynomial fit is then already an exact
# decomposition and there is nothing left to polish.
SKIP_REFINE_TOL = 1e-10


@dataclass(frozen=True)
class RefineOptions:
    max_iterations: int = 500
    grad_tol: float = 1e-10
    step_tol: float = 1e-12
    residual_tol: float = 1e-15
    init_damping: float = 1e-3

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        tols = (self.grad_tol, self.step_tol, self.residual_tol, self.init_damping)
        if not all(t > 0 for t in tols):
            raise ValueError("all tolerances must be positive")


def levenberg_marquardt(c0: np.ndarray, residual, jacobian, options: RefineOptions | None = None):
    """Minimize ||residual(c)||^2 over complex parameter vectors c.

    `residual(c)` returns a complex vector, `jacobian(c)` its complex Jacobian.
    Returns (c_best, ||residual(c_best)||, iterations).
    """
    opts = options or RefineOptions()
    c = np.array(c0, dtype=np.complex128)
    r, J = residual(c), jacobian(c)
    cost = 0.5 * np.vdot(r, r).real
    best_c, best_cost = c, cost
    mu = opts.init_damping * max(np.max(np.sum(np.abs(J) ** 2, axis=0)), np.finfo(float).tiny)
    nu = 2.0
    iters = 0
    for iters in range(1, opts.max_iterations + 1):
        Jh = J.conj().T
        g = Jh @ r
        # the real gradient over (Re c, Im c) is (Re g, Im g)
        if np.max(np.abs(g.view(np.float64))) <= opts.grad_tol:
            break
        if np.sqrt(2.0 * cost) <= opts.residual_tol:
            break
        H = Jh @ J
        H[np.diag_indices_from(H)] += mu
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            mu *= nu
            nu *= 2.0
            continue
        if np.linalg.norm(step) <= opts.step_tol * (1.0 + np.linalg.norm(c)):
            break
        c_new = c + step
        r_new = residual(c_new)
        cost_new = 0.5 * np.vdot(r_new, r_new).real
        predicted = 0.5 * np.vdot(step, mu * step - g).real
        rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
        if cost_new < cost:
            c, r, cost = c_new, r_new, cost_new
            J = jacobian(c)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            mu = max(mu, 1e-300)
            nu = 2.0
            if cost < best_cost:
                best_c, best_cost = c, cost
        else:
            mu *= nu
            nu *= 2.0
            if mu > 1e18:
                break
    return best_c, float(np.sqrt(2.0 * best_cost)), iters


def sym_residual_map(F: SymTensor, r: int):
    """Residual and complex-Jacobian closures for the symmetric objective.

    The parameter vector is the flattened r x n array of scaled generators;
    rows of the residual are the compact entries of sum u_i^{(x)m} - F scaled
    by the square roots of their multi-index counts, so the Euclidean residual
    norm equals the true tensor norm of the error.

    d(u^alpha)/du_k = alpha_k u^gamma with gamma = alpha - e_k (alpha_0 = m - |alpha|),
    an entry of u^(x)(m-1); each (gamma, k) gives one row alpha, so a Jacobian is one
    scatter of the degree-(m-1) values of every u_i, and rows with alpha_k = 0 stay zero.
    """
    n, m, nbar = F.n, F.m, F.nbar
    w = np.sqrt(F.weights)
    lower_powers = power_table(nbar, m - 1)[0]
    # row of gamma + e_k for every gamma of degree <= m - 1; k = 0 raises the implicit x0
    rows = grlex_position(nbar, m, lower_powers[:, None], np.eye(n, nbar, k=-1, dtype=np.int64))
    full = np.column_stack([m - F.powers.sum(axis=1), F.powers])
    scale = w[rows] * full[rows, np.arange(n)]  # w_alpha * alpha_k, shape (N', n)

    def residual(c):
        return w * (monomial_values(c.reshape(r, n), F.powers, m).sum(axis=0) - F.values)

    def jacobian(c):
        lower = monomial_values(c.reshape(r, n), lower_powers, m - 1)  # (r, N')
        J = np.zeros((len(w), r, n), dtype=np.complex128)
        J[rows[:, None], np.arange(r)[:, None], np.arange(n)] = lower.T[:, :, None] * scale[:, None]
        return J.reshape(len(w), r * n)

    return residual, jacobian


def refine_sym(F: SymTensor, u, options: RefineOptions | None = None):
    """Polish scaled vectors u (r x n) so sum u_i^{(x)m} tracks F.

    The objective is the true tensor norm of the error, evaluated on compact
    storage through multiplicity weights.  Returns (u_opt, residual_opt).
    """
    U0 = np.asarray(u, dtype=np.complex128)
    r, n = U0.shape
    residual, jacobian = sym_residual_map(F, r)
    c_opt, res_opt, _ = levenberg_marquardt(U0.ravel(), residual, jacobian, options)
    return c_opt.reshape(r, n), res_opt


def ns_residual_map(F: DenseTensor, r: int):
    """Residual and complex-Jacobian closures for the dense objective.

    The parameter vector concatenates the mode vectors of every rank-1 term;
    `unpack(c)` recovers the list-of-vectors layout.  The model is
    A_1 @ khatri_rao(A_2..A_m).T, and the Jacobian block of mode t is
    left (x) I (x) right, with left and right the Khatri-Rao products of the
    modes before and after t.  Returns (residual, jacobian, unpack).
    """
    dims = F.dims
    m = F.order
    mode_off = np.cumsum((0,) + dims)
    size = int(mode_off[-1])  # parameters per term
    target = F.data.ravel()

    def factors(c):
        terms = c.reshape(r, size)
        return [terms[:, mode_off[t] : mode_off[t + 1]].T for t in range(m)]

    def unpack(c):
        return [list(term) for term in zip(*(a.T for a in factors(c)))]

    def residual(c):
        A = factors(c)
        return (A[0] @ khatri_rao(A[1:]).T).ravel() - target

    def jacobian(c):
        A = factors(c)
        ones = np.ones((1, r))
        J = np.zeros((len(target), r * size), dtype=np.complex128)
        for t in range(m):
            left = khatri_rao(A[:t]) if t else ones
            right = khatri_rao(A[t + 1 :]) if t < m - 1 else ones
            # axes (p, k, q) of the rows and (s, k') of mode t's columns; only k = k' is nonzero
            block = J.reshape(len(left), dims[t], len(right), r, size)
            block = block[..., mode_off[t] : mode_off[t + 1]]
            k = np.arange(dims[t])
            block[:, k, :, :, k] = left[:, None, :] * right[None, :, :]
        return J

    return residual, jacobian, unpack


def refine_nonsym(F: DenseTensor, tuples, options: RefineOptions | None = None):
    """Polish rank-1 tuples so their sum tracks the dense tensor F.

    Returns (tuples_opt, residual_opt) with the same list-of-vectors layout.
    """
    r = len(tuples)
    residual, jacobian, unpack = ns_residual_map(F, r)
    c0 = np.concatenate([np.concatenate([np.asarray(v) for v in tup]) for tup in tuples]).astype(
        np.complex128
    )
    c_opt, res_opt, _ = levenberg_marquardt(c0, residual, jacobian, options)
    return unpack(c_opt), res_opt


def refine_if_helps(refine_fn, F, start, residual_gp: float, options: RefineOptions | None = None):
    """Polish `start` with `refine_fn` (refine_sym or refine_nonsym) when worthwhile.

    Returns None when residual_gp <= SKIP_REFINE_TOL * ||F|| or when the
    polish ends worse than residual_gp (beyond 1e-12); otherwise returns
    refine_fn's (start_opt, residual_opt).
    """
    if residual_gp <= SKIP_REFINE_TOL * F.norm():
        return None
    start_opt, residual_opt = refine_fn(F, start, options)
    if residual_opt > residual_gp + 1e-12:
        return None
    return start_opt, residual_opt
