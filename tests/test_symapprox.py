import numpy as np
import pytest

from gptensor import refine, symapprox, tensors
from gptensor.generate import gen_random_ns, gen_random_sym, named_tensor
from gptensor.linalg import lstsq_min_norm
from gptensor.monomials import multiplicities, power_table
from gptensor.nonsymapprox import approx_nonsym
from gptensor.symapprox import (
    approx_sym,
    assemble_system,
    build_bases,
    companion_matrices,
    extract_points,
    rank1_closed_form,
    reconstruct_sym,
    solve_coefficients,
    solve_generating_matrix,
)
from gptensor.tensors import SymTensor, monomial_values, sym_power


class TestBases:
    def test_first_monomials_and_shifts(self):
        bases = build_bases(4, 3)
        assert bases.B0.dtype == bases.B1.dtype == np.int64
        assert np.array_equal(bases.B0, ((0, 0, 0), (1, 0, 0), (0, 1, 0)))
        # shifts of B0 minus B0: x3 and the degree-2 shifts of x1, x2
        B0, B1 = bases.B0.tolist(), bases.B1.tolist()
        assert [0, 0, 1] in B1
        assert [2, 0, 0] in B1
        assert all(b not in B0 for b in B1)
        assert max(bases.degrees) == 2

    def test_graded_lex_order_of_shifts(self):
        bases = build_bases(3, 4)
        degs = [sum(a) for a in bases.B1]
        assert degs == sorted(degs)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            build_bases(1, 1)
        with pytest.raises(ValueError):
            build_bases(3, 0)


class TestGeneratingMatrix:
    def test_assemble_system_bruteforce(self):
        rng = np.random.default_rng(0)
        F = SymTensor(4, 4, rng.standard_normal(35) + 1j * rng.standard_normal(35))
        oracle = dict(zip(map(tuple, power_table(F.nbar, F.m)[0].tolist()), F.values))
        B0, B1 = build_bases(4, 5).B0.tolist(), build_bases(4, 5).B1.tolist()
        for deg in (2, 3):
            alphas = [a for a in B1 if sum(a) == deg]
            A, B = assemble_system(F, 5, deg)
            d = F.m - deg
            gammas = power_table(F.nbar, d)[0].tolist()
            w = np.sqrt(multiplicities(np.array(gammas), d))
            assert A.shape == (len(gammas), len(B0))
            assert B.shape == (len(gammas), len(alphas))
            for g, gamma in enumerate(gammas):
                for j, beta in enumerate(B0):
                    assert A[g, j] == oracle[tuple(x + y for x, y in zip(beta, gamma))] * w[g]
                for k, alpha in enumerate(alphas):
                    assert B[g, k] == oracle[tuple(x + y for x, y in zip(alpha, gamma))] * w[g]
        # rank 5 in 3 variables shifts to degrees 2 and 3 only
        with pytest.raises(ValueError, match=r"one of \[2, 3\]\) <= order 4, got 1"):
            assemble_system(F, 5, 1)
        with pytest.raises(ValueError, match=r"one of \[2, 3\]\) <= order 2, got 3"):
            assemble_system(SymTensor(4, 2, np.ones(10)), 5, 3)

    @pytest.mark.parametrize("n,m,r,eps", [(6, 3, 2, 0.0), (10, 3, 5, 0.05), (12, 4, 10, 0.0)])
    def test_generating_matrix_matches_per_column_oracle(self, n, m, r, eps):
        """One multi-RHS solve per degree equals one least squares per B1 column."""
        F, _, _ = gen_random_sym(n, m, r, eps, seed=r)
        gm = solve_generating_matrix(F, r)
        oracle = dict(zip(map(tuple, power_table(F.nbar, F.m)[0].tolist()), F.values))
        for col, alpha in enumerate(gm.bases.B1.tolist()):
            d = F.m - sum(alpha)
            gammas = power_table(F.nbar, d)[0].tolist()
            w = np.sqrt(multiplicities(np.array(gammas), d))
            A = np.array(
                [[oracle[tuple(x + y for x, y in zip(beta, g))] for beta in gm.bases.B0.tolist()] for g in gammas]
            ) * w[:, None]
            b = np.array([oracle[tuple(x + y for x, y in zip(alpha, g))] for g in gammas]) * w
            x, _ = lstsq_min_norm(A, b)
            assert np.max(np.abs(gm.G[:, col] - x)) <= 1e-13 * np.max(np.abs(x))
            assert abs(gm.column_residuals[col] - np.linalg.norm(A @ x - b)) <= 1e-13 * F.norm()

    def test_exact_tensor_gives_zero_column_residuals(self):
        F, _, _ = gen_random_sym(5, 3, 2, 0.0, seed=2)
        gm = solve_generating_matrix(F, 2)
        assert np.max(gm.column_residuals) <= 1e-10 * F.norm()

    def test_rank_too_large_for_degree(self):
        # n=3, m=2: rank 2 shifts reach degree 2 = m (fine), rank 4 reaches 3 > m
        F, _, _ = gen_random_sym(3, 2, 1, 0.0, seed=0)
        with pytest.raises(ValueError, match="degree"):
            solve_generating_matrix(F, 4)


def dict_companion_matrix(gm, i):
    """Multiplication by x_i through position dicts of B0 and B1, one column at a time."""
    pos0 = {tuple(a): k for k, a in enumerate(gm.bases.B0.tolist())}
    pos1 = {tuple(a): k for k, a in enumerate(gm.bases.B1.tolist())}
    r = gm.bases.rank
    M = np.zeros((r, r), dtype=np.complex128)
    for col, nu in enumerate(gm.bases.B0.tolist()):
        shifted = tuple(v + (k == i - 1) for k, v in enumerate(nu))
        if shifted in pos0:
            M[pos0[shifted], col] = 1.0
        else:
            M[:, col] = gm.G[:, pos1[shifted]]
    return M


class TestCompanionMatrices:
    @pytest.mark.parametrize(
        "n,m,r", [(2, 3, 2), (4, 3, 3), (5, 3, 4), (4, 5, 6), (6, 5, 10), (15, 4, 10)]
    )
    def test_equals_position_dict_oracle(self, n, m, r):
        F, _, _ = gen_random_sym(n, m, r, 0.1, seed=r)
        gm = solve_generating_matrix(F, r)
        Ms = companion_matrices(gm)
        assert Ms.shape == (n - 1, r, r) and Ms.flags.c_contiguous
        assert np.array_equal(Ms, np.stack([dict_companion_matrix(gm, i) for i in range(1, n)]))

    def test_commute_and_recover_points_for_exact_tensor(self):
        F, _, _ = gen_random_sym(5, 3, 3, 0.0, seed=4)
        gm = solve_generating_matrix(F, 3)
        Ms = companion_matrices(gm)
        scale = max(np.linalg.norm(M) for M in Ms)
        for a in range(4):
            for b in range(a + 1, 4):
                comm = np.linalg.norm(Ms[a] @ Ms[b] - Ms[b] @ Ms[a])
                assert comm <= 1e-8 * scale**2

    def test_identity_shift_when_target_in_b0(self):
        F, _, _ = gen_random_sym(4, 3, 3, 0.0, seed=1)
        gm = solve_generating_matrix(F, 3)
        # B0 = {1, x1, x2}; multiplying 1 by x1 lands on x1 (a basis element)
        Ms = companion_matrices(gm)
        assert Ms.shape == (3, 3, 3)
        assert Ms[0, 1, 0] == 1.0

    def test_extract_points_validates_xi(self):
        F, _, _ = gen_random_sym(4, 3, 2, 0.0, seed=3)
        gm = solve_generating_matrix(F, 2)
        with pytest.raises(ValueError):
            extract_points(gm, np.array([0.5, 0.5]))  # wrong length
        with pytest.raises(ValueError):
            extract_points(gm, np.array([0.7, 0.2, 0.3]))  # not summing to 1
        with pytest.raises(ValueError):
            extract_points(gm, np.array([1.2, -0.1, -0.1]))  # not positive


class TestPipeline:
    @pytest.mark.parametrize("n,m,r,seed", [(5, 3, 2, 0), (6, 3, 4, 1), (5, 4, 3, 2)])
    def test_exact_recovery(self, n, m, r, seed):
        F, _, _ = gen_random_sym(n, m, r, 0.0, seed=seed)
        res = approx_sym(F, r, refine=False, seed=seed)
        assert res.residual_gp <= 1e-8 * F.norm()
        assert np.allclose(res.points[:, 0], 1.0)

    def test_reconstruction_matches_x_gp(self):
        F, _, _ = gen_random_sym(5, 3, 2, 0.0, seed=5)
        res = approx_sym(F, 2, refine=False)
        X = reconstruct_sym(res.points, res.coefficients, F.n, F.m)
        assert np.allclose(X.values, res.X_gp.values)

    @pytest.mark.parametrize("case", ["polished", "exact", "unrefined"])
    def test_x_opt_built_on_first_access(self, monkeypatch, case):
        # the exact tensor skips the polish; refine=False never tries it
        F = named_tensor("recip3") if case == "polished" else gen_random_sym(5, 3, 2, 0.0, seed=8)[0]

        def forbidden(*args):
            raise AssertionError("approx_sym built a full tensor")

        monkeypatch.setattr(symapprox, "reconstruct_sym", forbidden)
        res = approx_sym(F, 2, refine=case != "unrefined")
        monkeypatch.undo()
        assert res.refined == (case == "polished")
        if res.refined:
            want = reconstruct_sym(res.u_opt, np.ones(2), F.n, F.m)
            assert res.X_opt.values.tobytes() == want.values.tobytes()
            assert res.X_opt is res.X_opt
        else:
            assert res.X_opt is None

    def test_coefficient_fit_is_optimal_projection(self):
        # residual orthogonal to the span of the weighted monomial columns
        F, _, _ = gen_random_sym(4, 3, 2, 0.01, seed=6)
        res = approx_sym(F, 2, refine=False)
        diff = F.values - res.X_gp.values
        from gptensor.tensors import monomial_values

        for v in res.points:
            col = monomial_values(v, F.m)
            assert abs(np.sum(F.weights * col.conj() * diff)) <= 1e-8 * F.norm()

    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("kind", ["sym", "dense"])
    def test_refinement_improves_or_keeps(self, kind, refine):
        # best_residual is a property of the shared result base, so both kinds check it
        if kind == "sym":
            res = approx_sym(named_tensor("recip3"), 2, refine=refine)
        else:
            F, _, _ = gen_random_ns((5, 4, 3), 2, 0.05, seed=2)
            res = approx_nonsym(F, 2, refine=refine)
        assert res.refined == refine
        if refine:
            assert res.residual_opt <= res.residual_gp + 1e-12
            assert res.best_residual == res.residual_opt
        else:
            assert res.residual_opt is None
            assert res.best_residual == res.residual_gp

    def test_exact_skips_refinement(self):
        F, _, _ = gen_random_sym(5, 3, 2, 0.0, seed=8)
        res = approx_sym(F, 2, refine=True)
        assert not res.refined
        assert res.residual_gp <= 1e-10 * F.norm()
        # the zero tensor: a zero coefficient, whose principal root is 0
        res = approx_sym(SymTensor.zeros(4, 3), 1)
        assert res.coefficients.tolist() == [0] and not res.u_ls.any()
        assert res.residual_gp == 0 and not res.refined

    def test_u_ls_scales_points_by_principal_roots(self):
        F, _, _ = gen_random_sym(6, 3, 3, 0.01, seed=4)
        res = approx_sym(F, 3, refine=False)
        roots = res.u_ls[:, 0]  # the points' first coordinate is 1
        assert np.array_equal(res.u_ls, roots[:, None] * res.points)
        assert np.allclose(roots**3, res.coefficients, rtol=1e-12, atol=0)
        assert np.all(np.abs(np.angle(roots)) <= np.pi / 3 + 1e-12)

    def test_rank_validation(self):
        F, _, _ = gen_random_sym(4, 3, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            approx_sym(F, 0)
        with pytest.raises(ValueError):
            approx_sym(F, 10**6)

    def test_diagnostics_edge_cases(self):
        # n = 2: a single companion matrix, which its own Schur vectors triangularize
        # up to the rounding of recomputing Q* M Q
        F, _, _ = gen_random_sym(2, 4, 2, 0.0, seed=1)
        diag = approx_sym(F, 2).diagnostics
        assert set(diag) == {"schur_defect", "eigengap", "low_confidence", "fit_cond", "xi_seed"}
        assert diag["schur_defect"] <= 1e-14 and not diag["low_confidence"]
        # r = 1: a single eigenvalue has no gap to another, and a 1 x 1 T nothing below it
        F, _, _ = gen_random_sym(4, 3, 1, 0.0, seed=2)
        diag = approx_sym(F, 1).diagnostics
        assert diag["eigengap"] == np.inf and diag["schur_defect"] == 0.0

    def test_deterministic_per_seed(self):
        F, _, _ = gen_random_sym(5, 3, 3, 1e-2, seed=9)
        a = approx_sym(F, 3, refine=False, seed=42)
        b = approx_sym(F, 3, refine=False, seed=42)
        assert np.array_equal(a.points, b.points)
        assert a.residual_gp == b.residual_gp


class TestRankOneClosedForm:
    def test_matches_pipeline_20_cases(self):
        """Closed form and full pipeline agree at r = 1 to 1e-10."""
        for seed in range(20):
            n = 3 + seed % 4
            m = 3 + seed % 2
            F, _, _ = gen_random_sym(n, m, 2, 0.05, seed=seed)
            lam, v = rank1_closed_form(F)
            X_direct = reconstruct_sym(v[None, :], np.array([lam]), F.n, F.m)
            res = approx_sym(F, 1, refine=False, seed=seed)
            direct = (F - X_direct).norm()
            assert abs(direct - res.residual_gp) <= 1e-10 * max(1.0, F.norm())

    def test_exact_rank_one(self):
        rng = np.random.default_rng(3)
        v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        F = sym_power(v0, 3)
        lam, v = rank1_closed_form(F)
        X = reconstruct_sym(v[None, :], np.array([lam]), 4, 3)
        assert (F - X).norm() <= 1e-10 * F.norm()

    def test_degenerate_slice_rejected(self):
        F = SymTensor.zeros(3, 3)
        F.values[-1] = 1.0  # only the top-degree entry is nonzero
        with pytest.raises(ValueError):
            rank1_closed_form(F)
        with pytest.raises(ValueError, match="needs order >= 2"):
            rank1_closed_form(SymTensor.zeros(3, 1))


def count_lstsq_calls(monkeypatch):
    calls = []

    def counted(A, b):
        calls.append(A.shape)
        return lstsq_min_norm(A, b)

    monkeypatch.setattr(symapprox, "lstsq_min_norm", counted)
    return calls


def test_duplicate_points_split_coefficient(monkeypatch):
    # two identical points: the Gram is singular, so the fit falls back to the
    # minimum-norm least squares, which splits the weight; the reconstruction
    # still matches the optimal single-point projection
    rng = np.random.default_rng(7)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = v / v[0]
    F = sym_power(v, 3)
    pts = np.vstack([v, v])
    calls = count_lstsq_calls(monkeypatch)
    lam, _, cond = solve_coefficients(F, pts)
    assert calls == [(len(F.values), 2)]
    assert cond > symapprox.FIT_COND_LIMIT
    assert np.allclose(lam[0], lam[1], atol=1e-8)
    X = reconstruct_sym(pts, lam, 4, 3)
    assert (F - X).norm() <= 1e-8 * F.norm()


@pytest.mark.parametrize("n,m,r,eps", [(6, 3, 2, 0.0), (10, 3, 5, 0.05), (15, 4, 10, 0.0), (5, 4, 3, 1e-2)])
def test_gram_fit_matches_lstsq_oracle(monkeypatch, n, m, r, eps):
    """A well-conditioned fit solves the r x r Gram system and makes no least-squares call.

    Oracle: numpy's SVD least squares on the weighted design matrix of the
    normalized points.  The Gram entries carry (n + m) eps and the
    right-hand side log2(N) eps of rounding, and cond(G) amplifies both.
    """
    F, _, _ = gen_random_sym(n, m, r, eps, seed=r)
    points = approx_sym(F, r, refine=False, seed=1).points
    calls = count_lstsq_calls(monkeypatch)
    lam, _, cond = solve_coefficients(F, points)
    assert calls == []
    scale = np.linalg.norm(points, axis=1) ** m
    unit = monomial_values(points, m) / scale[:, None]
    w = np.sqrt(F.weights)
    want, *_ = np.linalg.lstsq(unit.T * w[:, None], F.values * w, rcond=None)
    bound = (n + m + np.log2(len(F.values))) * np.finfo(float).eps * cond
    assert np.linalg.norm(lam * scale - want) <= bound * np.linalg.norm(want)


def test_small_first_coordinate_needs_no_refinement():
    """The fit keeps the far point of a generator with a small first coordinate.

    On exact (5, 4) rank-3 tensors whose first generator has u_0 = 1e-3, that
    point has norm ~1e3, so its raw design column is ~1e12 times larger than
    the others; on normalized points none is cut.
    """
    for seed in range(20):
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        U[0, 0] = 1e-3
        F = SymTensor(5, 4, monomial_values(U, 4).sum(axis=0))
        res = approx_sym(F, 3, refine=False, seed=seed)
        assert res.residual_gp <= 1e-8 * F.norm(), seed


@pytest.mark.parametrize("seed", [4253377796, 466621082])
def test_benchmark_instances_with_small_first_coordinate(seed):
    """Two exact (15, 4, 10) instances whose unnormalized fit dropped a needed term."""
    F, _, _ = gen_random_sym(15, 4, 10, 0.0, seed)
    res = approx_sym(F, 10, refine=False, seed=seed)
    assert res.residual_gp <= 1e-8 * F.norm()


def test_fitted_values_are_the_reconstruction():
    F, _, _ = gen_random_sym(5, 3, 2, 0.01, seed=3)
    res = approx_sym(F, 2, refine=False)
    lam, values, _ = solve_coefficients(F, res.points)
    assert np.array_equal(lam, res.coefficients)
    assert np.array_equal(values, res.X_gp.values)
    assert np.array_equal(values, reconstruct_sym(res.points, lam, F.n, F.m).values)


def test_repeated_shape_reuses_its_index_tables(monkeypatch):
    """No power-vector lookup on a second solve of one (n, m, r); one assembly per shift degree."""
    from gptensor import monomials, refine, symapprox, tensors

    lookups = []

    def counted(*args):
        lookups.append(args[:2])
        return monomials.grlex_position(*args)

    for module in (tensors, symapprox, refine):
        monkeypatch.setattr(module, "grlex_position", counted)
    assembled = []
    assemble = symapprox.assemble_system
    monkeypatch.setattr(symapprox, "assemble_system", lambda *a: assembled.append(a) or assemble(*a))
    for cache in (symapprox.build_bases, symapprox._system_index, refine._sym_layout):
        cache.cache_clear()

    n, m, r = 7, 3, 5
    for seed in (1, 2):
        lookups.clear()
        assembled.clear()
        res = approx_sym(gen_random_sym(n, m, r, 0.05, seed=seed)[0], r)
        rank1_closed_form(gen_random_sym(n, m, 1, 0.05, seed=seed)[0])
        assert res.refined
        # a cold shape builds its tables through the counter; the second solve builds none
        assert bool(lookups) == (seed == 1)
        degrees = {sum(alpha) for alpha in build_bases(n, r).B1}
        assert len(assembled) == len(degrees) + 1  # the rank-1 closed form assembles once


def spy_monomial_degrees(monkeypatch):
    """Record the degree of every `monomial_values` call, under each name it is bound to."""
    degrees, real = [], tensors.monomial_values

    def spied(v, m):
        degrees.append(m)
        return real(v, m)

    for module in (tensors, symapprox, refine):
        monkeypatch.setattr(module, "monomial_values", spied)
    return degrees


@pytest.mark.parametrize("n,m,r,eps", [(10, 3, 5, 1e-2), (15, 4, 10, 0.0)])
def test_solve_never_builds_the_degree_m_table(monkeypatch, n, m, r, eps):
    # fit, reconstruction and every LM residual go through the degree-(m-1) values
    F, _, _ = gen_random_sym(n, m, r, eps, seed=3)
    degrees = spy_monomial_degrees(monkeypatch)
    result = approx_sym(F, r, seed=1)
    assert result.refined == (eps > 0) and (result.X_opt is not None) == (eps > 0)
    assert degrees and m not in degrees


def test_fit_fallback_builds_the_design_matrix(monkeypatch):
    # the spy above sees a degree-m table when one is built: duplicate points force it
    v = np.array([1.0, 0.5 - 0.25j, 2.0, -1.0j])
    degrees = spy_monomial_degrees(monkeypatch)
    _, _, cond = solve_coefficients(sym_power(v, 3), np.vstack([v, v]))
    assert cond > symapprox.FIT_COND_LIMIT and 3 in degrees
