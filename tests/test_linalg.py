import numpy as np
import pytest
import scipy.linalg

from gptensor.linalg import (
    DEFAULT_RCOND,
    NumericalError,
    draw_weights,
    joint_eigenvalues,
    lstsq_min_norm,
    positive_combination,
    schur,
    svd,
)


def random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def check_lstsq_invariants(rng):
    rows = int(rng.integers(1, 12))
    cols = int(rng.integers(1, 12))
    A = random_matrix(rng, rows, cols)
    b = random_matrix(rng, rows, 1)[:, 0]
    x, res = lstsq_min_norm(A, b)
    # the residual norm read off the factorization is the one of A x - b
    assert abs(res - np.linalg.norm(A @ x - b)) <= 1e-12 * max(1.0, np.linalg.norm(b))
    # normal equations: A*(Ax - b) = 0
    resid = A.conj().T @ (A @ x - b)
    scale = max(1.0, np.linalg.norm(A) ** 2 * np.linalg.norm(b))
    assert np.linalg.norm(resid) <= 1e-9 * scale
    # minimum norm: x has no component in the numerical null space of A
    _, s, Vh = np.linalg.svd(A)
    null = Vh[np.sum(s > DEFAULT_RCOND * (s[0] if s.size else 0)) :]
    if null.shape[0]:
        assert np.linalg.norm(null @ x) <= 1e-8 * max(1.0, np.linalg.norm(x))


def check_svd_invariants(rng):
    rows = int(rng.integers(1, 12))
    cols = int(rng.integers(1, 12))
    A = random_matrix(rng, rows, cols)
    s = svd(A)
    assert s.shape == (min(rows, cols),)
    assert np.all(np.diff(s) <= 1e-13 * max(1.0, s[0]))
    assert np.allclose(s, np.linalg.svd(A, compute_uv=False), rtol=1e-12, atol=0)


def check_schur_invariants(rng):
    dim = int(rng.integers(1, 10))
    M = random_matrix(rng, dim, dim)
    Q, T = schur(M)
    assert np.allclose(Q @ Q.conj().T, np.eye(dim), atol=1e-10)
    assert np.array_equal(T, np.triu(T))
    assert np.allclose(Q @ T @ Q.conj().T, M, atol=1e-9 * max(1.0, np.linalg.norm(M)))
    # eigenvalues on the diagonal match the spectrum as a multiset
    got = np.sort_complex(np.diag(T))
    expect = np.sort_complex(np.linalg.eigvals(M))
    assert np.allclose(got, expect, atol=1e-8 * max(1.0, np.max(np.abs(expect))))


def test_kernel_invariants_200_random_cases():
    """200 random instances split across the three kernels."""
    rng = np.random.default_rng(2024)
    for _ in range(70):
        check_lstsq_invariants(rng)
    for _ in range(65):
        check_svd_invariants(rng)
    for _ in range(65):
        check_schur_invariants(rng)


def test_schur_eigenvalues_against_characteristic_roots():
    """Companion-matrix oracle: Schur eigenvalues are the polynomial's roots."""
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)  # monic degree-5
    C = np.zeros((5, 5), dtype=complex)
    C[1:, :-1] = np.eye(4)
    C[:, -1] = -coeffs
    _, T = schur(C)
    got = np.sort_complex(np.diag(T))
    expect = np.sort_complex(np.roots(np.concatenate([[1.0], coeffs[::-1]])))
    assert np.allclose(got, expect, atol=1e-8)


def test_lstsq_matrix_rhs():
    rng = np.random.default_rng(1)
    A = random_matrix(rng, 8, 4)
    B = random_matrix(rng, 8, 3)
    X, res = lstsq_min_norm(A, B)
    assert res.shape == (3,)
    for j in range(3):
        x, r = lstsq_min_norm(A, B[:, j])
        assert np.allclose(X[:, j], x) and r == pytest.approx(res[j], rel=1e-12)


def test_lstsq_exact_square_system():
    rng = np.random.default_rng(2)
    A = random_matrix(rng, 5, 5)
    x = random_matrix(rng, 5, 1)[:, 0]
    assert np.allclose(lstsq_min_norm(A, A @ x)[0], x, atol=1e-9)


def test_lstsq_rcond_truncates_small_singular_values():
    # second column is a 1e-15 perturbation of the first: numerically rank 1
    A = np.array([[1.0, 1.0 + 1e-15], [1.0, 1.0]])
    b = np.array([1.0, 1.0])
    x, _ = lstsq_min_norm(A, b)
    assert np.allclose(x, [0.5, 0.5], atol=1e-6)


def test_validation_errors():
    with pytest.raises(ValueError):
        lstsq_min_norm(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        lstsq_min_norm(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        schur(np.zeros((2, 3)))


def test_numerical_error_is_runtime_error():
    assert issubclass(NumericalError, RuntimeError)


def readout_oracle(Ms, pair):
    """Per-Schur-vector readout and per-matrix diagnostics, one loop per quantity."""
    Q, T = pair
    r = Q.shape[0]
    values = np.empty((r, len(Ms)), dtype=np.complex128)
    for s in range(r):
        q = Q[:, s]
        for j, Mj in enumerate(Ms):
            values[s, j] = q.conj() @ Mj @ q
    scale = max(1.0, max(np.linalg.norm(Mi) for Mi in Ms))
    defect = 0.0
    for Mk in Ms:
        defect = max(defect, np.linalg.norm(np.tril(Q.conj().T @ Mk @ Q, -1)))
    eig = np.diag(T)
    gap = np.inf
    for a in range(len(eig)):
        for b in range(a + 1, len(eig)):
            gap = min(gap, abs(eig[a] - eig[b]))
    gap_rel = gap / max(1.0, np.max(np.abs(eig))) if len(eig) > 1 else np.inf
    return values, defect / scale, gap_rel


def commuting_stack(rng, K, eigenvalues):
    """K matrices V diag(eigenvalues[:, k]) V^-1 sharing a random eigenbasis V."""
    r = eigenvalues.shape[0]
    V = random_matrix(rng, r, r)
    return np.stack([V @ np.diag(eigenvalues[:, k]) @ np.linalg.inv(V) for k in range(K)])


def random_weights(rng, K):
    xi = rng.uniform(0.1, 1.0, size=K)
    return xi / xi.sum()


class TestJointEigenvalues:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for case in range(30):
            K, r = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            if case % 2:
                Ms = np.stack([random_matrix(rng, r, r) for _ in range(K)])
            else:
                Ms = commuting_stack(rng, K, random_matrix(rng, r, K))
            pair = schur(positive_combination(Ms, random_weights(rng, K)))
            values, diag = joint_eigenvalues(Ms, pair)
            want_values, want_defect, want_gap = readout_oracle(list(Ms), pair)
            assert values.shape == (r, K)
            assert np.allclose(values, want_values, rtol=1e-12, atol=1e-12 * np.abs(want_values).max())
            assert diag["eigengap"] == pytest.approx(want_gap, rel=1e-12)
            if r == 1:
                assert diag["schur_defect"] == 0.0 and want_defect == 0.0
            elif case % 2 and K > 1:
                assert diag["schur_defect"] == pytest.approx(want_defect, rel=1e-12)
                assert diag["schur_defect"] > 1e-6
            else:
                # one matrix, or a commuting family: both are rounding
                assert diag["schur_defect"] <= 1e-12 and want_defect <= 1e-12

    def test_commuting_family_recovers_joint_eigenvalues(self):
        rng = np.random.default_rng(3)
        points = random_matrix(rng, 5, 4)
        Ms = commuting_stack(rng, 4, points)
        pair = schur(positive_combination(Ms, random_weights(rng, 4)))
        values, diag = joint_eigenvalues(Ms, pair)
        # rows come out in Schur order: match each to its nearest true point
        for row in values:
            assert np.min(np.linalg.norm(points - row, axis=1)) <= 1e-9
        assert not diag["low_confidence"]

    def test_low_confidence_on_non_commuting_stack(self):
        rng = np.random.default_rng(4)
        Ms = np.stack([random_matrix(rng, 4, 4) for _ in range(3)])
        _, diag = joint_eigenvalues(Ms, schur(positive_combination(Ms, random_weights(rng, 3))))
        assert diag["schur_defect"] > 1e-6 and diag["low_confidence"]

    def test_schur_defect_is_first_order_in_the_perturbation(self):
        # a commuting family plus delta times a fixed unit-norm perturbation per matrix:
        # the neglected lower triangles grow linearly in delta, and the flag follows at 1e-6
        rng = np.random.default_rng(10)
        Ms = commuting_stack(rng, 3, random_matrix(rng, 5, 3))
        P = np.stack([random_matrix(rng, 5, 5) for _ in range(3)])
        P /= np.linalg.norm(P, axis=(1, 2))[:, None, None]
        xi = random_weights(rng, 3)
        deltas = (1e-9, 1e-7, 1e-4, 1e-3)
        diags = []
        for delta in deltas:
            D = Ms + delta * P
            diags.append(joint_eigenvalues(D, schur(positive_combination(D, xi)))[1])
        slopes = [d["schur_defect"] / delta for d, delta in zip(diags, deltas)]
        assert max(slopes) <= 1.01 * min(slopes)
        assert [d["low_confidence"] for d in diags] == [False, False, True, True]

    def test_low_confidence_on_repeated_eigenvalue(self):
        rng = np.random.default_rng(5)
        points = random_matrix(rng, 4, 3)
        points[1] = points[0]  # two identical joint eigenvalues
        Ms = commuting_stack(rng, 3, points)
        _, diag = joint_eigenvalues(Ms, schur(positive_combination(Ms, random_weights(rng, 3))))
        assert diag["schur_defect"] <= 1e-10
        assert diag["eigengap"] < 1e-8 and diag["low_confidence"]

    def test_single_matrix_has_rounding_level_schur_defect(self):
        # T = Q* M Q is recomputed from the Schur vectors, so only rounding is left below the diagonal
        rng = np.random.default_rng(6)
        Ms = random_matrix(rng, 4, 4)[None]
        values, diag = joint_eigenvalues(Ms, schur(positive_combination(Ms, [1.0])))
        assert diag["schur_defect"] <= 1e-14 * np.linalg.norm(Ms[0]) / max(1.0, np.linalg.norm(Ms[0]))
        assert np.allclose(np.sort_complex(values[:, 0]), np.sort_complex(np.linalg.eigvals(Ms[0])))

    def test_rank_one_has_infinite_eigengap(self):
        Ms = np.array([[[2.0]], [[-3.0 + 1j]]])
        values, diag = joint_eigenvalues(Ms, schur(positive_combination(Ms, [0.25, 0.75])))
        assert np.allclose(values, [[2.0, -3.0 + 1j]])
        assert diag["eigengap"] == np.inf and diag["schur_defect"] == 0.0
        assert not diag["low_confidence"]

    def test_positive_combination(self):
        rng = np.random.default_rng(8)
        Ms = np.stack([random_matrix(rng, 3, 3) for _ in range(3)])
        xi = np.array([0.2, 0.3, 0.5])
        assert np.allclose(positive_combination(Ms, xi), 0.2 * Ms[0] + 0.3 * Ms[1] + 0.5 * Ms[2])
        for bad in ([0.5, 0.5], [0.7, 0.2, 0.3], [1.2, -0.1, -0.1], [1.0, 0.0, 0.0]):
            with pytest.raises(ValueError):
                positive_combination(Ms, bad)
        with pytest.raises(ValueError):
            positive_combination(Ms[0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            positive_combination(np.zeros((2, 3, 4)), [0.5, 0.5])

    def test_draw_weights_are_normalized_uniform_draws(self):
        xi = draw_weights(np.random.default_rng(9), 6)
        w = np.random.default_rng(9).uniform(size=6)
        assert np.array_equal(xi, w / w.sum())
        # accepted by positive_combination: positive and summing to 1
        assert positive_combination(np.ones((6, 2, 2)), xi) == pytest.approx(np.ones((2, 2)))


@pytest.mark.parametrize("shape", [(5, 3), (3, 7), (1, 1)])
def test_svd_values_only_match_numpy(shape):
    rng = np.random.default_rng(sum(shape))
    A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = svd(A)
    assert np.allclose(s, np.linalg.svd(A, compute_uv=False), rtol=1e-14, atol=0)


def test_svd_failure_is_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError, match="SVD did not converge"):
        svd(np.eye(2))


def lstsq_oracle_bound(A, b, x):
    """First-order perturbation bound (Wedin) on two backward-stable least-squares solutions.

    Each solver's answer is exact for A and b perturbed by about max(rows, cols) * eps
    relative, so two answers differ by at most twice the change that perturbation
    can cause: eps' * (kappa + kappa^2 ||r|| / (||A|| ||x||)) * ||x||, per column, with
    kappa = sigma_max / sigma_min over the singular values above the cutoff.
    """
    s = np.linalg.svd(A, compute_uv=False)
    kept = s[s > DEFAULT_RCOND * s[0]]
    kappa = kept[0] / kept[-1]
    eps = max(A.shape) * np.finfo(float).eps
    X, B = x.reshape(len(x), -1), b.reshape(len(b), -1)
    xnorm = np.linalg.norm(X, axis=0)
    rnorm = np.linalg.norm(A @ X - B, axis=0)
    return 2 * eps * (kappa * xnorm + kappa**2 * rnorm / kept[0])


def lapack_info(monkeypatch, name, info=1):
    """Make `scipy.linalg.lapack.<name>` return `info` in place of its own."""
    real = getattr(scipy.linalg.lapack, name)

    def wrapped(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, info)

    monkeypatch.setattr(scipy.linalg.lapack, name, wrapped)


class TestLstsqAgainstNumpy:
    """`lstsq_min_norm` against `np.linalg.lstsq` at the same cutoff."""

    @pytest.mark.parametrize("rows,cols", [(40, 6), (200, 10), (7, 7), (3, 9), (1, 5)])
    @pytest.mark.parametrize("nrhs", [None, 1, 4])
    def test_random_full_rank(self, rows, cols, nrhs):
        rng = np.random.default_rng(rows * 100 + cols + (nrhs or 0))
        A = random_matrix(rng, rows, cols)
        b = random_matrix(rng, rows, nrhs or 1)
        if nrhs is None:
            b = b[:, 0]
        x, res = lstsq_min_norm(A, b)
        want, *_ = np.linalg.lstsq(A, b, rcond=DEFAULT_RCOND)
        assert x.shape == want.shape and np.shape(res) == b.shape[1:]
        err = np.linalg.norm((x - want).reshape(cols, -1), axis=0)
        assert np.all(err <= lstsq_oracle_bound(A, b, want))
        direct = np.linalg.norm((A @ x - b).reshape(rows, -1), axis=0)
        assert np.allclose(res, direct.reshape(np.shape(res)), rtol=1e-12, atol=1e-13 * np.linalg.norm(b))

    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_rank_deficient_tall_is_minimum_norm(self, nrhs):
        rng = np.random.default_rng(11)
        rows, cols, rank = 30, 8, 5
        A = random_matrix(rng, rows, rank) @ random_matrix(rng, rank, cols)
        b = random_matrix(rng, rows, nrhs or 1)
        if nrhs is None:
            b = b[:, 0]
        want, *_ = np.linalg.lstsq(A, b, rcond=DEFAULT_RCOND)
        bound = lstsq_oracle_bound(A, b, want)
        _, _, Vh = np.linalg.svd(A)
        null = Vh[rank:]  # rows v_k^H of the null-space vectors
        x, res = lstsq_min_norm(A, b)
        assert np.all(np.linalg.norm((x - want).reshape(cols, -1), axis=0) <= bound)
        # no component in the null space of A, beyond what the same bound allows
        assert np.all(np.linalg.norm((null @ x).reshape(cols - rank, -1), axis=0) <= bound)
        # the residual counts the part of b along the cut singular directions too
        direct = np.linalg.norm((A @ x - b).reshape(rows, -1), axis=0)
        assert np.allclose(res, direct.reshape(np.shape(res)), rtol=1e-10, atol=0)

    def test_reflectors_that_are_the_identity(self):
        # columns already upper triangular, and an exactly zero column, give tau = 0
        rng = np.random.default_rng(12)
        A = np.zeros((9, 4), dtype=np.complex128)
        A[:4] = np.triu(random_matrix(rng, 4, 4))
        A[:, 2] = 0
        b = random_matrix(rng, 9, 6)
        want, *_ = np.linalg.lstsq(A, b, rcond=DEFAULT_RCOND)
        x, res = lstsq_min_norm(A, b)
        assert np.allclose(x, want, rtol=0, atol=1e-13 * np.abs(want).max())
        assert np.allclose(res, np.linalg.norm(A @ x - b, axis=0), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape,nrhs", [((5, 0), 2), ((0, 3), 2), ((5, 3), 0), ((3, 5), 0)])
    def test_empty_systems(self, shape, nrhs):
        b = np.arange(1.0, shape[0] * nrhs + 1).reshape(shape[0], nrhs)
        x, res = lstsq_min_norm(np.ones(shape), b)
        assert x.shape == (shape[1], nrhs) and not x.any()
        assert np.allclose(res, np.linalg.norm(b, axis=0), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name", ["zgeqrf", "zunmqr"])
    def test_lapack_failures_are_numerical_errors(self, monkeypatch, name):
        tall, square = np.ones((5, 2)), np.eye(3)
        b = np.ones((5, 3))
        lapack_info(monkeypatch, name, info=-1)
        with pytest.raises(NumericalError, match=f"least-squares QR failed: LAPACK {name} returned info -1"):
            lstsq_min_norm(tall, b)
        assert np.allclose(lstsq_min_norm(square, np.ones(3))[0], 1.0)  # no QR for a square A

    def test_factorization_failures_are_numerical_errors(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        tall, square = np.ones((5, 2)), np.eye(3)
        lapack_info(monkeypatch, "zgeqrf")
        with pytest.raises(NumericalError, match="QR"):
            lstsq_min_norm(tall, np.ones(5))
        assert np.allclose(lstsq_min_norm(square, np.ones(3))[0], 1.0)  # no QR for a square A
        monkeypatch.undo()
        monkeypatch.setattr(np.linalg, "svd", fails)
        for A in (tall, square):
            with pytest.raises(NumericalError, match="SVD did not converge"):
                lstsq_min_norm(A, np.ones(len(A)))


def test_schur_failure_is_numerical_error(monkeypatch):
    with pytest.raises(NumericalError, match="Schur decomposition failed: .*non-finite"):
        schur(np.array([[1.0, np.nan], [0.0, 1.0]]))
    lapack_info(monkeypatch, "zgees", info=3)
    with pytest.raises(NumericalError, match="Schur decomposition failed: LAPACK zgees returned info 3"):
        schur(np.eye(2))


def test_schur_is_scipys():
    rng = np.random.default_rng(13)
    for dim in (1, 2, 10, 40):
        M = random_matrix(rng, dim, dim)
        T, Q = scipy.linalg.schur(M, output="complex")
        got_Q, got_T = schur(M)
        assert np.array_equal(got_Q, Q) and np.array_equal(got_T, np.triu(T))
