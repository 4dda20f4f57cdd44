"""Levenberg-Marquardt refinement of rank-r decompositions.

The residual maps are polynomial (hence holomorphic) in the complex vector
variables.  By the Cauchy-Riemann equations their real Jacobian over (Re, Im)
coordinates is the real representation [[Re J, -Im J], [Im J, Re J]] of the
complex Jacobian J, so the real damped Gauss-Newton system is the real
representation of the complex system (J^H J + mu I) delta = -J^H r, which the
solver solves directly.  The solver is monotone: it returns the best iterate
seen, which is never worse than the starting point.

For a sum of rank-1 terms, J^H J and J^H r have closed forms in the r x r
Gram matrices of the factors (Phan, Tichavsky & Cichocki, SIAM J. Matrix
Anal. Appl. 2013), so the solver takes them from `sym_normal_map` and
`ns_normal_map` and never forms J.  The materialized Jacobians of the
residual maps remain as references for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.linalg.lapack import zposv

from .monomials import grlex_position, power_table
from .tensors import DenseTensor, SymTensor, khatri_rao, monomial_values, sym_combination

__all__ = [
    "ApproxResult",
    "levenberg_marquardt",
    "sym_residual_map",
    "ns_residual_map",
    "sym_normal_map",
    "ns_normal_map",
    "refine_sym",
    "refine_nonsym",
    "SKIP_REFINE_TOL",
    "MAX_ITERATIONS",
    "FTOL",
    "STEP_TOL",
    "INIT_DAMPING",
    "FULL_FINISH_GAIN",
]

# Refinement is skipped when the unrefined residual is at most this fraction
# of ||F||: the generating-polynomial fit is then already an exact
# decomposition and there is nothing left to polish.
SKIP_REFINE_TOL = 1e-10

# Fixed Levenberg-Marquardt rules: stop after MAX_ITERATIONS iterations, when
# an accepted step's actual and predicted decreases are both at most FTOL times
# the cost (the relative-reduction test of MINPACK, More 1978) or when a step is
# at most STEP_TOL * (1 + ||c||); the first damping is INIT_DAMPING * max diag(J^H J).
MAX_ITERATIONS = 500
FTOL = 1e-8
STEP_TOL = 1e-12
INIT_DAMPING = 1e-3

# The dense polish runs on the Tucker core; it is finished on the full tensor
# only when the Gauss-Newton decrease available outside the core's subspace
# exceeds this fraction of half the squared residual.
FULL_FINISH_GAIN = 1e-6


def levenberg_marquardt(c0: np.ndarray, residual, normal):
    """Minimize ||residual(c)||^2 over complex parameter vectors c.

    `residual(c)` returns a complex vector r, and `normal(c, r)` the pair
    (J^H J, J^H r) for the complex Jacobian J of the residual at c.  It is
    called at the start and after every accepted step but a last one that
    meets the FTOL test.  A step is taken only when it lowers the cost, so the
    last iterate is the best.  Each step is one in-place Cholesky solve of a
    copy of J^H J + mu I; a matrix that is not positive definite raises mu.
    Returns (c, ||residual(c)||, iterations, stop), where stop is "ftol",
    "step" or "max_iter".
    """
    c = np.array(c0, dtype=np.complex128)
    r = residual(c)
    H, g = normal(c, r)
    cost = 0.5 * np.vdot(r, r).real
    mu = INIT_DAMPING * max(np.max(H.diagonal().real), np.finfo(float).tiny)
    nu = 2.0
    iters, stop = 0, "max_iter"
    for iters in range(1, MAX_ITERATIONS + 1):
        damped = np.array(H, order="F")
        damped[np.diag_indices_from(damped)] += mu
        # zposv factors `damped` in place, reading only its upper triangle;
        # neither the copy nor its factor outlives the solve
        step, info = zposv(damped, -g, overwrite_a=1)[1:]
        del damped
        if info > 0:
            mu *= nu
            nu *= 2.0
            continue
        if np.linalg.norm(step) <= STEP_TOL * (1.0 + np.linalg.norm(c)):
            stop = "step"
            break
        c_new = c + step
        r_new = residual(c_new)
        cost_new = 0.5 * np.vdot(r_new, r_new).real
        predicted = 0.5 * np.vdot(step, mu * step - g).real
        rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
        if cost_new < cost:
            converged = max(cost - cost_new, predicted) <= FTOL * cost
            c, r, cost = c_new, r_new, cost_new
            if converged:
                stop = "ftol"
                break
            # the old J^H J goes first, so at most two h x h matrices are alive
            del H
            H, g = normal(c, r)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            mu = max(mu, 1e-300)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return c, float(np.sqrt(2.0 * cost)), iters, stop


@lru_cache(maxsize=None)
def _sym_layout(n: int, m: int):
    """Read-only row weights and derivative tables of the compact residual.

    d(u^alpha)/du_k = alpha_k u^gamma with gamma = alpha - e_k (alpha_0 = m - |alpha|),
    an entry of u^(x)(m-1).  `rows[gamma, k]` is the row of gamma + e_k and
    `scale[gamma, k]` = w_alpha * alpha_k its factor, so the Jacobian column (i, k)
    holds u_i^gamma * scale[gamma, k] at rows[gamma, k].
    """
    nbar = n - 1
    powers, weights = power_table(nbar, m)
    w = np.sqrt(weights)
    lower_powers = power_table(nbar, m - 1)[0]
    # k = 0 raises the implicit x0
    rows = grlex_position(nbar, m, lower_powers[:, None], np.eye(n, nbar, k=-1, dtype=np.int64))
    full = np.column_stack([m - powers.sum(axis=1), powers])
    scale = w[rows] * full[rows, np.arange(n)]
    for a in (w, rows, scale):
        a.flags.writeable = False
    return w, rows, scale


def sym_residual_map(F: SymTensor, r: int):
    """Residual and complex-Jacobian closures for the symmetric objective.

    The parameter vector is the flattened r x n array of scaled generators;
    rows of the residual are the compact entries of sum u_i^{(x)m} - F scaled
    by the square roots of their multi-index counts, so the Euclidean residual
    norm equals the true tensor norm of the error.  The sum is one
    `sym_combination` of the degree-(m-1) values, never the r x N table of
    degree-m values.  The Jacobian is one scatter of the degree-(m-1) values
    of every u_i (see `_sym_layout`); rows with alpha_k = 0 stay zero.
    """
    n, m = F.n, F.m
    w, rows, scale = _sym_layout(n, m)
    ones = np.ones(r)

    def residual(c):
        return w * (sym_combination(c.reshape(r, n), ones, m) - F.values)

    def jacobian(c):
        lower = monomial_values(c.reshape(r, n), m - 1)  # (r, N')
        J = np.zeros((len(w), r, n), dtype=np.complex128)
        J[rows[:, None], np.arange(r)[:, None], np.arange(n)] = lower.T[:, :, None] * scale[:, None]
        return J.reshape(len(w), r * n)

    return residual, jacobian


def sym_normal_map(F: SymTensor, r: int):
    """`normal(c, res)` -> (J^H J, J^H res) of `sym_residual_map(F, r)`, without J.

    The residual norm is the full tensor norm, so with g_ij = u_i^H u_j,
    H[(i,k), (j,l)] = m [delta_kl g_ij^(m-1) + (m-1) u_j[k] conj(u_i[l]) g_ij^(m-2)],
    and J^H res gathers the residual at the rows of every derivative.
    """
    n, m = F.n, F.m
    _, rows, scale = _sym_layout(n, m)

    def normal(c, res):
        U = c.reshape(r, n)
        G = U.conj() @ U.T
        # axes (i, k, j, l); for m = 1 the second term is absent
        H = (G ** (m - 1))[:, None, :, None] * np.eye(n)[None, :, None, :]
        if m > 1:
            cross = U.T[None, :, :, None] * U.conj()[:, None, None, :]
            H += (m - 1) * (G ** (m - 2))[:, None, :, None] * cross
        H *= m
        lower = monomial_values(U, m - 1)
        return H.reshape(r * n, r * n), (lower.conj() @ (scale * res[rows])).ravel()

    return normal


def refine_sym(F: SymTensor, u):
    """Polish scaled vectors u (r x n) so sum u_i^{(x)m} tracks F.

    The objective is the true tensor norm of the error, evaluated on compact
    storage through multiplicity weights.  Returns (u_opt, residual_opt).
    """
    U0 = np.asarray(u, dtype=np.complex128)
    r, n = U0.shape
    residual, _ = sym_residual_map(F, r)
    c_opt, res_opt, *_ = levenberg_marquardt(U0.ravel(), residual, sym_normal_map(F, r))
    return c_opt.reshape(r, n), res_opt


def _ns_factors(dims, r: int):
    """Offsets of each mode in a term's parameters, and `factors(c)` -> [A_1..A_m].

    The parameter vector concatenates the mode vectors of every rank-1 term, so
    A_t (n_t x r) is a strided view of c.
    """
    mode_off = np.cumsum((0,) + tuple(dims))
    size = int(mode_off[-1])  # parameters per term

    def factors(c):
        terms = c.reshape(r, size)
        return [terms[:, mode_off[t] : mode_off[t + 1]].T for t in range(len(dims))]

    return mode_off, factors


def _left_right(A, t: int):
    """Khatri-Rao products of the modes before and after t (one row of ones if none)."""
    ones = np.ones((1, A[0].shape[1]))
    return (khatri_rao(A[:t]) if t else ones), (khatri_rao(A[t + 1 :]) if t < len(A) - 1 else ones)


def ns_residual_map(F: DenseTensor, r: int):
    """Residual and complex-Jacobian closures for the dense objective.

    The parameter vector concatenates the mode vectors of every rank-1 term;
    `unpack(c)` recovers the list-of-vectors layout.  The model is
    A_1 @ khatri_rao(A_2..A_m).T, and the Jacobian block of mode t is
    left (x) I (x) right, with left and right the Khatri-Rao products of the
    modes before and after t.  Returns (residual, jacobian, unpack).
    """
    dims = F.dims
    mode_off, factors = _ns_factors(dims, r)
    target = F.data.ravel()

    def unpack(c):
        return [list(term) for term in zip(*(a.T for a in factors(c)))]

    def residual(c):
        A = factors(c)
        return (A[0] @ khatri_rao(A[1:]).T).ravel() - target

    def jacobian(c):
        A = factors(c)
        J = np.zeros((len(target), r * int(mode_off[-1])), dtype=np.complex128)
        for t in range(len(dims)):
            left, right = _left_right(A, t)
            # axes (p, k, q) of the rows and (s, k') of mode t's columns; only k = k' is nonzero
            block = J.reshape(len(left), dims[t], len(right), r, -1)
            block = block[..., mode_off[t] : mode_off[t + 1]]
            k = np.arange(dims[t])
            block[:, k, :, :, k] = left[:, None, :] * right[None, :, :]
        return J

    return residual, jacobian, unpack


def ns_normal_map(F: DenseTensor, r: int):
    """`normal(c, res)` -> (J^H J, J^H res) of `ns_residual_map(F, r)`, without J.

    With the Grams G_v = A_v^H A_v, block (t, t) of J^H J is prod_{v != t} G_v (x) I,
    and block (t, u) holds (prod_{v != t, u} G_v)[s, s'] A_t[k, s'] conj(A_u[l, s])
    at rows (s, k) and columns (s', l).  Mode t of J^H res is the MTTKRP of the
    residual with conj(left) and conj(right).
    """
    dims = F.dims
    m = len(dims)
    mode_off, factors = _ns_factors(dims, r)
    size = int(mode_off[-1])

    def normal(c, res):
        A = factors(c)
        grams = [a.conj().T @ a for a in A]
        H = np.empty((r, size, r, size), dtype=np.complex128)
        g = np.empty((r, size), dtype=np.complex128)
        for t in range(m):
            st = slice(mode_off[t], mode_off[t + 1])
            left, right = _left_right(A, t)
            R = res.reshape(len(left), dims[t], len(right))
            g[:, st] = np.einsum("pks,ps->sk", R @ right.conj(), left.conj())
            for u in range(m):
                others = [grams[v] for v in range(m) if v not in (t, u)]
                rest = reduce(np.multiply, others, np.ones((r, r)))[:, None, :, None]
                # axes (s, k, s', l)
                if u == t:
                    block = rest * np.eye(dims[t])[None, :, None, :]
                else:
                    block = rest * A[t][None, :, :, None] * A[u].conj().T[:, None, None, :]
                H[:, st, :, mode_off[u] : mode_off[u + 1]] = block
        return H.reshape(r * size, r * size), g.ravel()

    return normal


def _balanced(tup):
    """A term's mode vectors rescaled to their geometric-mean norm.

    The factors multiply to 1, so the term's outer product is unchanged.  A
    term with a zero vector is returned as it is.
    """
    vs = [np.asarray(v, dtype=np.complex128) for v in tup]
    norms = np.array([np.linalg.norm(v) for v in vs])
    if not np.all(norms > 0):
        return vs
    mean = np.exp(np.log(norms).mean())
    return [v * (mean / nu) for v, nu in zip(vs, norms)]


def refine_nonsym(F: DenseTensor, tuples):
    """Polish rank-1 tuples so their sum tracks the dense tensor F.

    Each term starts balanced (see `_balanced`): the split of its scale among
    its mode vectors is arbitrary, and an unbalanced split only slows the
    solver.  Returns (tuples_opt, residual_opt) with the same list-of-vectors
    layout.
    """
    r = len(tuples)
    residual, _, unpack = ns_residual_map(F, r)
    c0 = np.concatenate([np.concatenate(_balanced(tup)) for tup in tuples])
    c_opt, res_opt, *_ = levenberg_marquardt(c0, residual, ns_normal_map(F, r))
    return unpack(c_opt), res_opt


@dataclass(kw_only=True, eq=False)
class ApproxResult:
    """Fields that both tensor kinds report, all keyword-only; results compare by identity.

    `refined` says whether `keep` kept a polish of the fit (`X_gp`,
    `residual_gp`); `residual_opt` and `X_opt` then hold the polish.  Each kind
    builds its `X_opt` (None unless refined) from its polished terms on first read.
    """

    rank: int
    residual_gp: float
    refined: bool = False
    residual_opt: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def best_residual(self) -> float:
        return self.residual_opt if self.refined else self.residual_gp

    def polishes(self, F) -> bool:
        """Whether a polish is worth running: residual_gp > SKIP_REFINE_TOL * ||F||."""
        return self.residual_gp > SKIP_REFINE_TOL * F.norm()

    def keep(self, start_opt, residual_opt):
        """Keep a polish unless it ends worse than residual_gp beyond 1e-12.

        A kept polish sets `refined` and `residual_opt` and returns `start_opt`;
        otherwise None is returned.
        """
        if residual_opt > self.residual_gp + 1e-12:
            return None
        self.refined, self.residual_opt = True, residual_opt
        return start_opt
