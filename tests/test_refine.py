import tracemalloc
from functools import reduce

import numpy as np
import pytest

from gptensor import refine
from gptensor.generate import gen_random_ns, gen_random_sym
from gptensor.nonsymapprox import approx_nonsym
from gptensor.refine import (
    levenberg_marquardt,
    ns_normal_map,
    ns_residual_map,
    refine_nonsym,
    refine_sym,
    sym_normal_map,
    sym_residual_map,
)
from gptensor.symapprox import approx_sym
from gptensor.tensors import outer_product, sym_power


def fd_jacobian(residual, c, h=1e-6):
    """Central finite differences of a holomorphic residual map."""
    r0 = residual(c)
    J = np.empty((len(r0), len(c)), dtype=complex)
    for k in range(len(c)):
        e = np.zeros(len(c), dtype=complex)
        e[k] = h
        J[:, k] = (residual(c + e) - residual(c - e)) / (2 * h)
    return J


def loop_sym_jacobian(F, r, c):
    """Column (i, k) of the symmetric Jacobian, one power table per coordinate."""
    n = F.n
    U = c.reshape(r, n)
    full = np.column_stack([F.m - F.powers.sum(axis=1), F.powers])
    w = np.sqrt(F.weights)
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


def loop_ns_jacobian(F, r, c):
    """Block (s, t) of the dense Jacobian as left (x) I (x) right of one term."""
    dims, m = F.dims, F.order
    size = sum(dims)
    off = np.cumsum((0,) + dims)
    J = np.empty((F.data.size, r * size), dtype=np.complex128)
    for s in range(r):
        tup = [c[s * size + off[t] : s * size + off[t + 1]] for t in range(m)]
        for t in range(m):
            left = reduce(np.multiply.outer, tup[:t]).ravel() if t else np.ones(1)
            right = reduce(np.multiply.outer, tup[t + 1 :]).ravel() if t < m - 1 else np.ones(1)
            block = np.einsum("p,q,nk->pnqk", left, right, np.eye(dims[t]))
            J[:, s * size + off[t] : s * size + off[t + 1]] = block.reshape(F.data.size, dims[t])
    return J


def real_embedded_lm(c0, residual, jacobian):
    """The solver on the stacked real vector (Re c, Im c) with the real Jacobian
    [[Re J, -Im J], [Im J, Re J]]; the complex solver must follow the same iterates."""
    h = len(c0)

    def realize(rc, Jc):
        Jr = np.block([[Jc.real, -Jc.imag], [Jc.imag, Jc.real]])
        return np.concatenate([rc.real, rc.imag]), Jr

    def unpack(xv):
        return xv[:h] + 1j * xv[h:]

    x = np.concatenate([np.asarray(c0).real, np.asarray(c0).imag])
    r, J = realize(residual(unpack(x)), jacobian(unpack(x)))
    cost = 0.5 * (r @ r)
    best_x, best_cost = x.copy(), cost
    mu = refine.INIT_DAMPING * max(np.max(np.sum(J * J, axis=0)), np.finfo(float).tiny)
    nu = 2.0
    iters, stop = 0, "max_iter"
    for iters in range(1, refine.MAX_ITERATIONS + 1):
        g = J.T @ r
        H = J.T @ J
        try:
            step = np.linalg.solve(H + mu * np.eye(2 * h), -g)
        except np.linalg.LinAlgError:
            mu *= nu
            nu *= 2.0
            continue
        if np.linalg.norm(step) <= refine.STEP_TOL * (1.0 + np.linalg.norm(x)):
            stop = "step"
            break
        x_new = x + step
        r_new = residual(unpack(x_new))
        r_new_real = np.concatenate([r_new.real, r_new.imag])
        cost_new = 0.5 * (r_new_real @ r_new_real)
        predicted = 0.5 * (step @ (mu * step - g))
        rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
        if cost_new < cost:
            converged = cost - cost_new <= refine.FTOL * cost and predicted <= refine.FTOL * cost
            x, cost = x_new, cost_new
            if cost < best_cost:
                best_x, best_cost = x.copy(), cost
            if converged:
                stop = "ftol"
                break
            r, J = realize(r_new, jacobian(unpack(x)))
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            mu = max(mu, 1e-300)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return unpack(best_x), float(np.sqrt(2.0 * best_cost)), iters, stop


class TestJacobians:
    @pytest.mark.parametrize("n,m,r", [(4, 2, 2), (5, 3, 3), (3, 4, 2), (6, 3, 1)])
    def test_sym_jacobian_equals_loop_oracle(self, n, m, r):
        rng = np.random.default_rng(n * m + r)
        F, _, _ = gen_random_sym(n, m, r, 0.1, seed=n)
        c = rng.standard_normal(r * n) + 1j * rng.standard_normal(r * n)
        c[0] = c[n + 1 if r > 1 else 1] = 0.0  # zero coordinates, implicit x0 included
        _, jacobian = sym_residual_map(F, r)
        J, oracle = jacobian(c), loop_sym_jacobian(F, r, c)
        # gathered factors against power tables round differently: 2 m eps relative, zeros exact
        assert np.all(np.abs(J - oracle) <= 2 * m * np.finfo(float).eps * np.abs(oracle))

    @pytest.mark.parametrize("dims,r", [((4, 3, 5), 2), ((3, 2, 4, 3), 3), ((2, 2, 2), 1)])
    def test_ns_jacobian_equals_loop_oracle(self, dims, r):
        rng = np.random.default_rng(len(dims) + r)
        F, _, _ = gen_random_ns(dims, r, 0.1, seed=r)
        c = rng.standard_normal(r * sum(dims)) + 1j * rng.standard_normal(r * sum(dims))
        residual, jacobian, unpack = ns_residual_map(F, r)
        J = jacobian(c)
        assert J.shape == (F.data.size, len(c))
        assert np.max(np.abs(J - loop_ns_jacobian(F, r, c))) <= 1e-14 * np.max(np.abs(J))
        X = sum(reduce(np.multiply.outer, tup) for tup in unpack(c))
        assert np.max(np.abs(residual(c) - (X - F.data).ravel())) <= 1e-14 * np.max(np.abs(X))
        # unpack returns views into c in the term-major layout
        assert all(np.shares_memory(v, c) for tup in unpack(c) for v in tup)

    def test_sym_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        F, _, _ = gen_random_sym(4, 3, 2, 0.05, seed=0)
        residual, jacobian = sym_residual_map(F, 2)
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        J = jacobian(c)
        Jfd = fd_jacobian(residual, c)
        assert np.linalg.norm(J - Jfd) <= 1e-6 * max(1.0, np.linalg.norm(J))

    def test_ns_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        F, _, _ = gen_random_ns((3, 3, 3), 2, 0.05, seed=1)
        residual, jacobian, _ = ns_residual_map(F, 2)
        c = rng.standard_normal(18) + 1j * rng.standard_normal(18)
        J = jacobian(c)
        Jfd = fd_jacobian(residual, c)
        assert np.linalg.norm(J - Jfd) <= 1e-6 * max(1.0, np.linalg.norm(J))

    def test_sym_jacobian_zero_coordinate(self):
        # derivative columns must stay finite when a coordinate is exactly zero
        F, _, _ = gen_random_sym(3, 3, 1, 0.0, seed=2)
        residual, jacobian = sym_residual_map(F, 1)
        c = np.array([0.0, 1.0, 2.0], dtype=complex)
        J = jacobian(c)
        assert np.all(np.isfinite(J))
        Jfd = fd_jacobian(residual, c)
        assert np.linalg.norm(J - Jfd) <= 1e-6 * max(1.0, np.linalg.norm(J))


def gram_error(normal, residual, jacobian, c):
    """Largest relative deviation of normal(c, r) from (J^H J, J^H r)."""
    r, J = residual(c), jacobian(c)
    H, g = normal(c, r)
    Jh = J.conj().T
    return max(
        np.max(np.abs(H - Jh @ J)) / np.max(np.abs(Jh @ J)),
        np.max(np.abs(g - Jh @ r)) / np.max(np.abs(Jh @ r)),
    )


class TestNormalEquations:
    @pytest.mark.parametrize(
        "n,m,r", [(4, 2, 3), (5, 3, 2), (10, 3, 5), (3, 4, 2), (6, 5, 2), (4, 3, 1), (3, 1, 2)]
    )
    def test_sym_normal_equals_jacobian_products(self, n, m, r):
        rng = np.random.default_rng(10 * n + m + r)
        F, _, _ = gen_random_sym(n, m, r, 0.1, seed=n + m)
        c = rng.standard_normal(r * n) + 1j * rng.standard_normal(r * n)
        c[0] = c[-1] = 0.0  # zero coordinates, the implicit x0 of u_0 included
        residual, jacobian = sym_residual_map(F, r)
        assert gram_error(sym_normal_map(F, r), residual, jacobian, c) <= 1e-14

    @pytest.mark.parametrize(
        "dims,r", [((4, 3, 3), 2), ((10, 10, 10), 5), ((5, 4, 3, 3), 3), ((2, 3, 2), 1)]
    )
    def test_ns_normal_equals_jacobian_products(self, dims, r):
        rng = np.random.default_rng(sum(dims) + r)
        F, _, _ = gen_random_ns(dims, r, 0.1, seed=r)
        c = rng.standard_normal(r * sum(dims)) + 1j * rng.standard_normal(r * sum(dims))
        c[1] = 0.0
        residual, jacobian, _ = ns_residual_map(F, r)
        assert gram_error(ns_normal_map(F, r), residual, jacobian, c) <= 1e-14

    def test_refinement_never_forms_the_jacobian(self, monkeypatch):
        calls = {"jacobian": 0, "residual": 0}

        def counting(make):
            def residual_map(F, r):
                residual, jacobian, *rest = make(F, r)

                def counted_jacobian(c):
                    calls["jacobian"] += 1
                    return jacobian(c)

                def counted_residual(c):
                    calls["residual"] += 1
                    return residual(c)

                return (counted_residual, counted_jacobian, *rest)

            return residual_map

        monkeypatch.setattr(refine, "sym_residual_map", counting(sym_residual_map))
        monkeypatch.setattr(refine, "ns_residual_map", counting(ns_residual_map))
        rng = np.random.default_rng(11)
        F, _, _ = gen_random_sym(4, 3, 2, 0.1, seed=11)
        refine_sym(F, rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        F, _, _ = gen_random_ns((4, 3, 3), 2, 0.1, seed=11)
        refine_nonsym(F, [[rng.standard_normal(d) + 0j for d in F.dims] for _ in range(2)])
        assert calls["residual"] > 2 and calls["jacobian"] == 0


class TestMonotonicity:
    def test_sym_never_worsens_random_starts(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            F, _, _ = gen_random_sym(4, 3, 2, 0.1, seed=seed)
            u0 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            residual, _ = sym_residual_map(F, 2)
            start = np.linalg.norm(residual(u0.ravel()))
            _, res = refine_sym(F, u0)
            assert res <= start + 1e-12

    def test_ns_never_worsens_random_starts(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            F, _, _ = gen_random_ns((4, 3, 3), 2, 0.1, seed=seed)
            tuples = [
                [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in F.dims]
                for _ in range(2)
            ]
            residual, _, _ = ns_residual_map(F, 2)
            c0 = np.concatenate([np.concatenate(t) for t in tuples])
            start = np.linalg.norm(residual(c0))
            _, res = refine_nonsym(F, tuples)
            assert res <= start + 1e-12

    def test_exact_start_unchanged(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        F = sym_power(u[0], 3) + sym_power(u[1], 3)
        u_opt, res = refine_sym(F, u)
        assert res <= 1e-10
        assert np.allclose(u_opt, u, atol=1e-8)

    def test_exact_start_unchanged_ns(self):
        rng = np.random.default_rng(5)
        vs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (4, 3, 3)]
        F = outer_product(vs)
        tup_opt, res = refine_nonsym(F, [vs])
        assert res <= 1e-10

    def test_basin_of_attraction(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        F = sym_power(u[0], 3) + sym_power(u[1], 3)
        u0 = u + 1e-3 * (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        _, res = refine_sym(F, u0)
        assert res <= 1e-8

    def test_basin_of_attraction_ns(self):
        rng = np.random.default_rng(7)
        tuples = [
            [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (4, 4, 3)]
            for _ in range(2)
        ]
        F = outer_product(tuples[0]) + outer_product(tuples[1])
        noisy = [[v + 1e-3 * rng.standard_normal(len(v)) for v in tup] for tup in tuples]
        _, res = refine_nonsym(F, noisy)
        assert res <= 1e-8


class TestBalancedStart:
    @staticmethod
    def start(seed):
        rng = np.random.default_rng(seed)
        F, _, _ = gen_random_ns((5, 4, 3), 2, 0.1, seed=seed)
        tuples = [[rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in F.dims] for _ in range(2)]
        return F, tuples

    @pytest.mark.parametrize("seed,lam", [(20, 1e3), (21, 1e-2)])
    def test_rescaled_term_reaches_same_residual(self, monkeypatch, seed, lam):
        starts = []

        def recorded(c0, *args):
            starts.append(c0)
            return levenberg_marquardt(c0, *args)

        monkeypatch.setattr(refine, "levenberg_marquardt", recorded)
        F, tuples = self.start(seed)
        (a, b, c), other = tuples
        _, res = refine_nonsym(F, tuples)
        _, res_scaled = refine_nonsym(F, [[lam * a, b / lam, c], other])
        assert abs(res_scaled - res) <= 1e-12
        # both calls hand the solver the same balanced start
        assert np.linalg.norm(starts[1] - starts[0]) <= 1e-14 * np.linalg.norm(starts[0])

    def test_zero_mode_vector_accepted(self):
        F, tuples = self.start(22)
        tuples[0][1] = np.zeros(4, dtype=complex)
        residual, _, _ = ns_residual_map(F, 2)
        start = np.linalg.norm(residual(np.concatenate([np.concatenate(t) for t in tuples])))
        tup_opt, res = refine_nonsym(F, tuples)
        assert np.isfinite(res) and res <= start + 1e-12
        assert all(np.all(np.isfinite(v)) for tup in tup_opt for v in tup)

    def test_balancing_keeps_the_product(self):
        F, (tup, _) = self.start(23)
        tup = [1e4 * tup[0], tup[1], 1e-3 * tup[2]]
        bal = refine._balanced(tup)
        norms = [np.linalg.norm(v) for v in bal]
        assert np.allclose(norms, norms[0], rtol=1e-14)
        expect = outer_product(tup).data
        assert np.linalg.norm(outer_product(bal).data - expect) <= 1e-14 * np.linalg.norm(expect)


class TestAgainstRealEmbedding:
    @staticmethod
    def start(kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "sym":
            F, _, _ = gen_random_sym(5, 3, 2, 0.1, seed=seed)
            (residual, jacobian), normal = sym_residual_map(F, 2), sym_normal_map(F, 2)
        else:
            F, _, _ = gen_random_ns((4, 3, 3), 2, 0.1, seed=seed)
            (residual, jacobian, _), normal = ns_residual_map(F, 2), ns_normal_map(F, 2)
        h = 2 * (F.n if kind == "sym" else sum(F.dims))
        return rng.standard_normal(h) + 1j * rng.standard_normal(h), residual, jacobian, normal

    # The default tolerances sit near the rounding floor, where the last few steps
    # depend on the order of the arithmetic; a looser FTOL ends both solvers
    # on the same iterate, so the iteration counts can be compared exactly.
    @pytest.mark.parametrize(
        "kind,seed,rejects", [("sym", 0, False), ("dense", 7, False), ("dense", 0, True)]
    )
    def test_same_iterates_as_real_embedding(self, monkeypatch, kind, seed, rejects):
        c0, residual, jacobian, normal = self.start(kind, seed)
        calls = {"residual": 0, "normal": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(refine, "FTOL", 1e-6)
        c_ref, res_ref, iters_ref, stop_ref = real_embedded_lm(c0, residual, jacobian)
        c, res, iters, stop = levenberg_marquardt(c0, counted("residual", residual), counted("normal", normal))
        assert (iters, stop) == (iters_ref, stop_ref) == (iters, "ftol")
        assert np.linalg.norm(c - c_ref) <= 1e-10 * np.linalg.norm(c_ref)
        assert abs(res - res_ref) <= 1e-10 * res_ref
        # every attempted step evaluates the residual, every accepted one but the
        # last the normal equations
        assert (calls["residual"] > calls["normal"] + 1) == rejects


class TestPolish:
    def test_polish_that_ends_worse_is_dropped(self):
        F, _, _ = gen_random_sym(4, 3, 2, 0.1, seed=11)
        start = np.ones((2, 4), dtype=complex)
        calls = []

        def refine_fn(G, u):
            calls.append((G, u))
            return u, residual_gp + 2e-12

        residual_gp = F.norm()
        result = refine.ApproxResult(rank=2, residual_gp=residual_gp)
        assert result.polish(refine_fn, F, start) is None
        assert calls == [(F, start)]
        assert not result.refined and result.residual_opt is None
        # within 1e-12 of residual_gp the polish is kept
        result = refine.ApproxResult(rank=2, residual_gp=residual_gp)
        assert result.polish(lambda G, u: (u, residual_gp + 5e-13), F, start) is start
        assert result.refined and result.residual_opt == residual_gp + 5e-13
        assert result.best_residual == residual_gp + 5e-13
        # at most SKIP_REFINE_TOL * ||F|| the polish is not even tried
        result = refine.ApproxResult(rank=2, residual_gp=refine.SKIP_REFINE_TOL * F.norm())
        assert result.polish(refine_fn, F, start) is None
        assert len(calls) == 1 and not result.refined


class TestSolverCore:
    def test_linear_problem_one_step(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)

        def residual(c):
            return A @ c - b

        def normal(c, r):
            return A.conj().T @ A, A.conj().T @ r

        c, res, iters, stop = levenberg_marquardt(np.zeros(3, dtype=complex), residual, normal)
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(c, x_ls, atol=1e-6)
        assert np.isclose(res, np.linalg.norm(A @ x_ls - b), atol=1e-8)

    def test_failed_step_solve_raises_damping(self, monkeypatch):
        """A Cholesky failure (info > 0) doubles mu and the solver carries on."""
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        H = A.conj().T @ A
        damping = []
        zposv = refine.zposv

        def fails_once(M, rhs, **kwargs):
            damping.append(M.diagonal() - H.diagonal())
            if len(damping) == 1:
                return M, rhs, 1
            return zposv(M, rhs, **kwargs)

        monkeypatch.setattr(refine, "zposv", fails_once)
        c, res, iters, stop = levenberg_marquardt(
            np.zeros(3, dtype=complex), lambda c: A @ c - b, lambda c, r: (H, A.conj().T @ r)
        )
        mu = refine.INIT_DAMPING * H.diagonal().real.max()
        assert np.allclose(damping[0], mu) and np.allclose(damping[1], 2 * mu)
        assert iters > 2
        assert np.isclose(res, np.linalg.norm(A @ np.linalg.lstsq(A, b, rcond=None)[0] - b))

    def test_each_stop_reason(self, monkeypatch):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        points = []

        def residual(c):
            return A @ c - b

        def normal(c, r):
            points.append(c)
            return A.conj().T @ A, A.conj().T @ r

        # the step after the near-exact first one gains nothing relative to the cost
        c, res, iters, stop = levenberg_marquardt(np.zeros(4, dtype=complex), residual, normal)
        assert stop == "ftol" and iters >= 2
        # the last point is never passed to `normal`
        assert len(points) == iters and not any(np.array_equal(p, c) for p in points)
        # at the optimum the step vanishes
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
        assert levenberg_marquardt(x_ls, residual, normal)[3] == "step"
        monkeypatch.setattr(refine, "MAX_ITERATIONS", 1)
        assert levenberg_marquardt(np.zeros(4, dtype=complex), residual, normal)[2:] == (1, "max_iter")

    def test_step_holds_at_most_two_normal_matrices(self):
        h = 400
        rng = np.random.default_rng(13)
        A = rng.standard_normal((2 * h, h)) + 1j * rng.standard_normal((2 * h, h))
        b = rng.standard_normal(2 * h) + 1j * rng.standard_normal(2 * h)
        Ah = A.conj().T

        def normal(c, r):
            return Ah @ A, Ah @ r  # a fresh J^H J on every call

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            levenberg_marquardt(np.zeros(h, dtype=complex), lambda c: A @ c - b, normal)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # J^H J and the damped copy under factorization; never a third h x h matrix
        assert peak <= 2.2 * h * h * 16

    def test_iteration_budget_returns_best(self, monkeypatch):
        rng = np.random.default_rng(9)
        F, _, _ = gen_random_sym(4, 3, 2, 0.1, seed=9)
        u0 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        monkeypatch.setattr(refine, "MAX_ITERATIONS", 1)
        residual, _ = sym_residual_map(F, 2)
        start = np.linalg.norm(residual(u0.ravel()))
        _, res = refine_sym(F, u0)
        assert res <= start + 1e-12

    def test_zero_iterations_is_identity(self, monkeypatch):
        F, _, _ = gen_random_sym(3, 3, 1, 0.1, seed=10)
        u0 = np.ones((1, 3), dtype=complex)
        residual, _ = sym_residual_map(F, 1)
        start = np.linalg.norm(residual(u0.ravel()))
        monkeypatch.setattr(refine, "MAX_ITERATIONS", 0)
        u_opt, res = refine_sym(F, u0)
        assert np.allclose(u_opt, u0)
        assert np.isclose(res, start)


class TestSymmetricMemory:
    """At (30,4,20) the r x N table of degree-m values (12.5 MiB) is never held."""

    n, m, r = 30, 4, 20

    @pytest.fixture(scope="class")
    def noisy(self):
        F, _, _ = gen_random_sym(self.n, self.m, self.r, 1e-2, seed=1)
        return F, approx_sym(F, self.r, refine=False, seed=1).u_ls

    @staticmethod
    def extra_peak(fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_residual_peaks_below_half_the_monomial_table(self, noisy):
        F, u = noisy
        residual, _ = sym_residual_map(F, self.r)
        residual(u.ravel())  # the shape's tables are built and cached on the first call
        table = self.r * len(F.values) * 16
        assert self.extra_peak(residual, u.ravel()) < 0.5 * table

    def test_polish_peak_is_set_by_the_normal_matrices(self, noisy):
        F, u = noisy
        refine_sym(F, u)  # cached tables
        h = self.r * self.n
        assert self.extra_peak(refine_sym, F, u) <= 3.5 * h * h * 16


class TestFtolStop:
    """The relative-reduction stop ends noisy polishes before the rounding floor."""

    @pytest.mark.parametrize("kind", ["sym", "dense"])
    @pytest.mark.parametrize("seed", range(5))
    def test_fewer_normal_calls_same_residual(self, monkeypatch, kind, seed):
        if kind == "sym":
            F, _, _ = gen_random_sym(10, 3, 5, 1e-2, seed=seed)
            name, normal_map, approx = "sym_normal_map", sym_normal_map, approx_sym
        else:
            F, _, _ = gen_random_ns((10, 10, 10), 5, 1e-2, seed=seed)
            name, normal_map, approx = "ns_normal_map", ns_normal_map, approx_nonsym

        def run(ftol):
            calls = []

            def counted_map(G, r):
                normal = normal_map(G, r)

                def counted(c, res):
                    calls.append(1)
                    return normal(c, res)

                return counted

            monkeypatch.setattr(refine, "FTOL", ftol)
            monkeypatch.setattr(refine, name, counted_map)
            result = approx(F, 5, seed=seed)
            assert result.refined
            return result.best_residual, len(calls)

        residual, calls = run(refine.FTOL)
        # FTOL = 0 never stops an accepted step: only the step and budget rules end it
        floor_residual, floor_calls = run(0.0)
        assert calls < floor_calls
        assert abs(residual - floor_residual) <= 1e-12 * floor_residual
