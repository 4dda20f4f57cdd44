import numpy as np
import pytest

from gptensor.linalg import (
    DEFAULT_RCOND,
    NumericalError,
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
    x = lstsq_min_norm(A, b)
    # normal equations: A*(Ax - b) = 0
    resid = A.conj().T @ (A @ x - b)
    scale = max(1.0, np.linalg.norm(A) ** 2 * np.linalg.norm(b))
    assert np.linalg.norm(resid) <= 1e-9 * scale
    # minimum norm: x has no component in the numerical null space of A
    U, s, V = svd(A)
    null = V[:, np.sum(s > DEFAULT_RCOND * (s[0] if s.size else 0)) :]
    if null.shape[1]:
        assert np.linalg.norm(null.conj().T @ x) <= 1e-8 * max(1.0, np.linalg.norm(x))


def check_svd_invariants(rng):
    rows = int(rng.integers(1, 12))
    cols = int(rng.integers(1, 12))
    A = random_matrix(rng, rows, cols)
    U, s, V = svd(A)
    k = min(rows, cols)
    assert np.all(np.diff(s) <= 1e-13 * max(1.0, s[0]))
    assert np.allclose(U.conj().T @ U, np.eye(rows), atol=1e-10)
    assert np.allclose(V.conj().T @ V, np.eye(cols), atol=1e-10)
    assert np.allclose(U[:, :k] @ np.diag(s) @ V[:, :k].conj().T, A, atol=1e-9 * max(1.0, s[0]))


def check_schur_invariants(rng):
    dim = int(rng.integers(1, 10))
    M = random_matrix(rng, dim, dim)
    pair = schur(M)
    assert np.allclose(pair.Q @ pair.Q.conj().T, np.eye(dim), atol=1e-10)
    assert np.allclose(np.tril(pair.T, -1), 0)
    assert np.allclose(pair.Q @ pair.T @ pair.Q.conj().T, M, atol=1e-9 * max(1.0, np.linalg.norm(M)))
    # eigenvalues on the diagonal match the spectrum as a multiset
    got = np.sort_complex(pair.eigenvalues)
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
    pair = schur(C)
    got = np.sort_complex(pair.eigenvalues)
    expect = np.sort_complex(np.roots(np.concatenate([[1.0], coeffs[::-1]])))
    assert np.allclose(got, expect, atol=1e-8)


def test_lstsq_matrix_rhs():
    rng = np.random.default_rng(1)
    A = random_matrix(rng, 8, 4)
    B = random_matrix(rng, 8, 3)
    X = lstsq_min_norm(A, B)
    for j in range(3):
        assert np.allclose(X[:, j], lstsq_min_norm(A, B[:, j]))


def test_lstsq_exact_square_system():
    rng = np.random.default_rng(2)
    A = random_matrix(rng, 5, 5)
    x = random_matrix(rng, 5, 1)[:, 0]
    assert np.allclose(lstsq_min_norm(A, A @ x), x, atol=1e-9)


def test_lstsq_rcond_truncates_small_singular_values():
    # second column is a 1e-15 perturbation of the first: numerically rank 1
    A = np.array([[1.0, 1.0 + 1e-15], [1.0, 1.0]])
    b = np.array([1.0, 1.0])
    x = lstsq_min_norm(A, b)
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
    """Per-Schur-vector readout and all-pairs diagnostics, one loop per quantity."""
    r = pair.Q.shape[0]
    values = np.empty((r, len(Ms)), dtype=np.complex128)
    for s in range(r):
        q = pair.Q[:, s]
        for j, Mj in enumerate(Ms):
            values[s, j] = q.conj() @ Mj @ q
    scale = max(1.0, max(np.linalg.norm(Mi) for Mi in Ms))
    comm = 0.0
    for a in range(len(Ms)):
        for b in range(a + 1, len(Ms)):
            comm = max(comm, np.linalg.norm(Ms[a] @ Ms[b] - Ms[b] @ Ms[a]))
    eig = pair.eigenvalues
    gap = np.inf
    for a in range(len(eig)):
        for b in range(a + 1, len(eig)):
            gap = min(gap, abs(eig[a] - eig[b]))
    gap_rel = gap / max(1.0, np.max(np.abs(eig))) if len(eig) > 1 else np.inf
    return values, comm / scale**2, gap_rel


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
            want_values, want_comm, want_gap = readout_oracle(list(Ms), pair)
            assert values.shape == (r, K)
            assert np.allclose(values, want_values, rtol=1e-12, atol=1e-12 * np.abs(want_values).max())
            assert diag["eigengap"] == pytest.approx(want_gap, rel=1e-12)
            if case % 2:
                assert diag["commutator"] == pytest.approx(want_comm, rel=1e-12)
            else:
                assert diag["commutator"] <= 1e-12 and want_comm <= 1e-12

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
        assert diag["commutator"] > 1e-6 and diag["low_confidence"]

    def test_low_confidence_on_repeated_eigenvalue(self):
        rng = np.random.default_rng(5)
        points = random_matrix(rng, 4, 3)
        points[1] = points[0]  # two identical joint eigenvalues
        Ms = commuting_stack(rng, 3, points)
        _, diag = joint_eigenvalues(Ms, schur(positive_combination(Ms, random_weights(rng, 3))))
        assert diag["commutator"] <= 1e-10
        assert diag["eigengap"] < 1e-8 and diag["low_confidence"]

    def test_single_matrix_has_zero_commutator(self):
        rng = np.random.default_rng(6)
        Ms = random_matrix(rng, 4, 4)[None]
        values, diag = joint_eigenvalues(Ms, schur(positive_combination(Ms, [1.0])))
        assert diag["commutator"] == 0.0
        assert np.allclose(np.sort_complex(values[:, 0]), np.sort_complex(np.linalg.eigvals(Ms[0])))

    def test_rank_one_has_infinite_eigengap(self):
        Ms = np.array([[[2.0]], [[-3.0 + 1j]]])
        values, diag = joint_eigenvalues(Ms, schur(positive_combination(Ms, [0.25, 0.75])))
        assert np.allclose(values, [[2.0, -3.0 + 1j]])
        assert diag["eigengap"] == np.inf and diag["commutator"] == 0.0
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


@pytest.mark.parametrize("shape", [(5, 3), (3, 7), (1, 1)])
def test_svd_values_only_match_numpy(shape):
    rng = np.random.default_rng(sum(shape))
    A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = svd(A, compute_uv=False)
    assert np.allclose(s, np.linalg.svd(A, compute_uv=False), rtol=1e-14, atol=0)
    assert np.allclose(s, svd(A)[1], rtol=1e-14, atol=0)


@pytest.mark.parametrize("compute_uv", [True, False])
def test_svd_failure_is_numerical_error(monkeypatch, compute_uv):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError, match="SVD did not converge"):
        svd(np.eye(2), compute_uv=compute_uv)
