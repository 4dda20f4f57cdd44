"""Levenberg-Marquardt refinement of rank-r decompositions.

The residual maps are polynomial (hence holomorphic) in the complex vector
variables, so the real Jacobian over (Re, Im) coordinates is assembled from
the complex one as [[Re J, -Im J], [Im J, Re J]].  The solver is monotone: it
returns the best iterate seen, which is never worse than the starting point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .tensors import DenseTensor, SymTensor, monomial_values

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
        if min(self.grad_tol, self.step_tol, self.residual_tol, self.init_damping) <= 0:
            raise ValueError("all tolerances must be positive")


def _realize(rc: np.ndarray, Jc: np.ndarray):
    r = np.concatenate([rc.real, rc.imag])
    J = np.block([[Jc.real, -Jc.imag], [Jc.imag, Jc.real]])
    return r, J


def levenberg_marquardt(c0: np.ndarray, residual, jacobian, options: RefineOptions | None = None):
    """Minimize ||residual(c)||^2 over complex parameter vectors c.

    `residual(c)` returns a complex vector, `jacobian(c)` its complex Jacobian.
    Returns (c_best, ||residual(c_best)||, iterations).
    """
    opts = options or RefineOptions()
    h = len(c0)
    x = np.concatenate([np.asarray(c0).real, np.asarray(c0).imag])

    def unpack(xv):
        return xv[:h] + 1j * xv[h:]

    r, J = _realize(residual(unpack(x)), jacobian(unpack(x)))
    cost = 0.5 * (r @ r)
    best_x, best_cost = x.copy(), cost
    mu = opts.init_damping * max(np.max(np.sum(J * J, axis=0)), np.finfo(float).tiny)
    nu = 2.0
    iters = 0
    for iters in range(1, opts.max_iterations + 1):
        g = J.T @ r
        if np.max(np.abs(g)) <= opts.grad_tol:
            break
        if np.sqrt(2.0 * cost) <= opts.residual_tol:
            break
        H = J.T @ J
        try:
            step = np.linalg.solve(H + mu * np.eye(2 * h), -g)
        except np.linalg.LinAlgError:
            mu *= nu
            nu *= 2.0
            continue
        if np.linalg.norm(step) <= opts.step_tol * (1.0 + np.linalg.norm(x)):
            break
        x_new = x + step
        r_new = residual(unpack(x_new))
        r_new_real = np.concatenate([r_new.real, r_new.imag])
        cost_new = 0.5 * (r_new_real @ r_new_real)
        predicted = 0.5 * (step @ (mu * step - g))
        rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
        if cost_new < cost:
            x, cost = x_new, cost_new
            r, J = _realize(r_new, jacobian(unpack(x)))
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            mu = max(mu, 1e-300)
            nu = 2.0
            if cost < best_cost:
                best_x, best_cost = x.copy(), cost
        else:
            mu *= nu
            nu *= 2.0
            if mu > 1e18:
                break
    return unpack(best_x), float(np.sqrt(2.0 * best_cost)), iters


def _sym_full_powers(F: SymTensor) -> np.ndarray:
    p = F.powers
    return np.column_stack([F.m - p.sum(axis=1), p])


def sym_residual_map(F: SymTensor, r: int):
    """Residual and complex-Jacobian closures for the symmetric objective.

    The parameter vector is the flattened r x n array of scaled generators;
    rows of the residual are the compact entries of sum u_i^{(x)m} - F scaled
    by the square roots of their multi-index counts, so the Euclidean residual
    norm equals the true tensor norm of the error.
    """
    n = F.n
    full = _sym_full_powers(F)
    w = np.sqrt(F.weights.astype(np.float64))
    target = F.values

    def residual(c):
        U = c.reshape(r, n)
        return w * (sum(monomial_values(u, F.powers, F.m) for u in U) - target)

    def jacobian(c):
        U = c.reshape(r, n)
        J = np.empty((full.shape[0], r * n), dtype=np.complex128)
        for i in range(r):
            for k in range(n):
                dec = full.copy()
                dec[:, k] -= 1
                col = full[:, k].astype(np.complex128)
                live = dec[:, k] >= 0
                term = np.ones(full.shape[0], dtype=np.complex128)
                for t in range(full.shape[1]):
                    e = np.where(live, np.maximum(dec[:, t], 0), 0)
                    table = U[i, t] ** np.arange(e.max() + 1)
                    term *= table[e]
                J[:, i * n + k] = w * col * np.where(live, term, 0.0)
        return J

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
    `unpack(c)` recovers the list-of-vectors layout.  Returns
    (residual, jacobian, unpack).
    """
    dims = F.dims
    m = F.order
    sizes = [dims[t] for t in range(m)]
    offsets = np.cumsum([0] + [sum(sizes) for _ in range(r)])
    mode_off = np.cumsum([0] + sizes)
    target = F.data.ravel()

    def unpack(c):
        out = []
        for s in range(r):
            base = offsets[s]
            out.append([c[base + mode_off[t] : base + mode_off[t + 1]] for t in range(m)])
        return out

    def residual(c):
        acc = np.zeros(len(target), dtype=np.complex128)
        for tup in unpack(c):
            acc += reduce(np.multiply.outer, tup).ravel()
        return acc - target

    def jacobian(c):
        tups = unpack(c)
        J = np.empty((len(target), offsets[-1]), dtype=np.complex128)
        for s in range(r):
            for t in range(m):
                left = reduce(np.multiply.outer, tups[s][:t]).ravel() if t else np.ones(1)
                right = (
                    reduce(np.multiply.outer, tups[s][t + 1 :]).ravel() if t < m - 1 else np.ones(1)
                )
                block = np.einsum("p,q,nk->pnqk", left, right, np.eye(sizes[t]))
                cols = slice(offsets[s] + mode_off[t], offsets[s] + mode_off[t + 1])
                J[:, cols] = block.reshape(len(target), sizes[t])
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
