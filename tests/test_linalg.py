import numpy as np
import pytest
import scipy.linalg

from conftest import NORM_KINDS, norm_matrix, norm_of_kind

from tensoropt.linalg import FactorizationError, NormOperator, sym_eig


class TestPrimalDualNorms:
    def test_identity_pythagorean(self):
        B = NormOperator.identity(2)
        assert B.primal(np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert B.dual(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_identity_norms_equal_numpy_bit_for_bit(self):
        rng = np.random.default_rng(3)
        B = NormOperator.identity(150)
        for scale in (1e-200, 1e-8, 1.0, 1e8, 1e150):
            x = scale * rng.normal(size=150)
            assert B.primal(x) == float(np.linalg.norm(x))
            assert B.dual(x) == float(np.linalg.norm(x))
        assert type(B.primal(x)) is float and type(B.dual(x)) is float

    def test_diagonal(self):
        B = NormOperator.dense(np.diag([4.0, 1.0]))
        assert B.primal(np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert B.dual(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_gram_norm_equals_row_inner_products(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(-1.0, 1.0, size=(30, 5))
        B = NormOperator.gram(A)
        for _ in range(10):
            x = rng.normal(size=5)
            direct = np.sqrt(np.sum((A @ x) ** 2))
            assert B.primal(x) == pytest.approx(direct, rel=1e-12)

    def test_duality_identity(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(6, 6))
        B = NormOperator.dense(M @ M.T + 6 * np.eye(6))
        for _ in range(10):
            h = rng.normal(size=6)
            assert B.dual(B.apply(h)) == pytest.approx(B.primal(h), rel=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        B = NormOperator.dense(np.diag(rng.uniform(0.5, 2.0, 4)))
        x = rng.normal(size=4)
        for t in (-3.0, -0.5, 0.0, 0.25, 7.0):
            assert B.primal(t * x) == pytest.approx(abs(t) * B.primal(x), abs=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        B = NormOperator.dense(M @ M.T + 5 * np.eye(5))
        for _ in range(50):
            s = rng.normal(size=5)
            x = rng.normal(size=5)
            assert abs(s @ x) <= B.dual(s) * B.primal(x) * (1 + 1e-12)

    def test_zero_iff_zero_vector(self):
        B = NormOperator.dense(np.diag([2.0, 3.0]))
        assert B.primal(np.zeros(2)) == 0.0
        assert B.primal(np.array([1e-150, 0.0])) > 0.0

    def test_dimension_mismatch(self):
        B = NormOperator.identity(3)
        with pytest.raises(ValueError):
            B.primal(np.ones(4))

    def test_not_symmetric_rejected(self):
        with pytest.raises(ValueError):
            NormOperator.dense(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_singular_rejected(self):
        with pytest.raises(FactorizationError):
            NormOperator.dense(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_nonpositive_diagonal_rejected(self):
        for entries in ([1.0, 0.0], [1.0, -1.0]):
            with pytest.raises(FactorizationError):
                NormOperator.dense(np.diag(entries))

    def test_inv_sqrt_consistency(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(5, 5))
        B = NormOperator.dense(M @ M.T + 5 * np.eye(5))
        x = rng.normal(size=5)
        # ||B^{-1/2} s||_2 should equal the dual norm of s
        assert np.linalg.norm(B.inv_sqrt_apply(x)) == pytest.approx(B.dual(x), rel=1e-10)

    def test_dense_solve_equals_cho_solve_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n in (1, 7, 100):
            A = rng.uniform(-1.0, 1.0, size=(6 * n, n))
            B = NormOperator.gram(A)
            factor = scipy.linalg.cho_factor(norm_matrix(B), lower=True)
            for scale in (1e-8, 1.0, 1e8):
                s = scale * rng.normal(size=n)
                x = B.solve(s)
                assert x.shape == (n,)
                assert np.array_equal(x, scipy.linalg.cho_solve(factor, s))
            s_before = s.copy()
            B.solve(s)
            assert np.array_equal(s, s_before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_solve_rejects_non_finite_input(self, bad):
        B = NormOperator.dense(np.array([[2.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError):
            B.solve(np.array([1.0, bad]))

    def test_dense_solve_rejects_a_wrong_shape(self):
        B = NormOperator.dense(np.array([[2.0, 0.5], [0.5, 1.0]]))
        for s in (np.ones(3), np.ones((2, 1)), np.ones((2, 2))):
            with pytest.raises(ValueError):
                B.solve(s)


class TestFactorCoordinates:
    """``whiten`` and ``factor_solve`` against the Cholesky factor L of B = L Lᵀ."""

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_whiten_is_the_congruence_by_the_factor(self, kind):
        rng = np.random.default_rng(6)
        n = 9
        B = norm_of_kind(kind, rng, n)
        L = np.linalg.cholesky(norm_matrix(B))
        M = rng.normal(size=(n, n))
        A = M + M.T
        ref = scipy.linalg.solve_triangular(L, scipy.linalg.solve_triangular(L, A, lower=True).T,
                                            lower=True)
        C = B.whiten(A.copy())
        assert np.abs(np.tril(C) - np.tril(ref)).max() <= 1e-13 * np.abs(ref).max()
        w_ref = np.linalg.eigvalsh(0.5 * (ref + ref.T))
        np.testing.assert_allclose(np.linalg.eigvalsh(C, UPLO="L"), w_ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_whiten_works_in_place(self, kind):
        rng = np.random.default_rng(7)
        B = norm_of_kind(kind, rng, 6)
        M = rng.normal(size=(6, 6))
        A = M @ M.T
        assert np.shares_memory(B.whiten(A), A)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_factor_solves(self, kind):
        rng = np.random.default_rng(8)
        n = 7
        B = norm_of_kind(kind, rng, n)
        L = np.linalg.cholesky(norm_matrix(B))
        for _ in range(5):
            x = rng.normal(size=n)
            np.testing.assert_allclose(B.factor_solve(x),
                                       scipy.linalg.solve_triangular(L, x, lower=True),
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(B.factor_solve(x, trans=True),
                                       scipy.linalg.solve_triangular(L, x, lower=True, trans=1),
                                       rtol=1e-13, atol=0)
            # ||L^{-1} s|| is the dual norm of s, and ||L^{-T} v||_B = ||v||
            assert np.linalg.norm(B.factor_solve(x)) == pytest.approx(B.dual(x), rel=1e-12)
            assert B.primal(B.factor_solve(x, trans=True)) == pytest.approx(
                np.linalg.norm(x), rel=1e-12)
            x_before = x.copy()
            B.factor_solve(x)
            B.factor_solve(x, trans=True)
            assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, kind, bad):
        B = norm_of_kind(kind, np.random.default_rng(9), 3)
        A = np.eye(3)
        A[2, 1] = A[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            B.whiten(A)
        for trans in (False, True):
            for x in (np.array([1.0, bad, 0.0]), A):  # a vector, and rows
                with pytest.raises(np.linalg.LinAlgError):
                    B.factor_solve(x, trans=trans)

    @pytest.mark.parametrize("kind", NORM_KINDS + ("gram",))
    def test_factor_apply_is_the_transposed_factor(self, kind):
        rng = np.random.default_rng(10)
        n = 7
        B = norm_of_kind(kind, rng, n)
        Lt = np.linalg.cholesky(norm_matrix(B)).T
        for _ in range(5):
            x = rng.normal(size=n)
            z = B.factor_apply(x)
            np.testing.assert_allclose(z, Lt @ x, rtol=1e-13, atol=1e-14 * np.abs(z).max())
            np.testing.assert_allclose(B.factor_solve(z, trans=True), x, rtol=1e-13, atol=1e-15)
            # ||Lᵀ x|| is the primal norm of x
            assert np.linalg.norm(z) == pytest.approx(B.primal(x), rel=1e-12)
        with pytest.raises(ValueError):
            B.factor_apply(np.ones(n + 1))

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("trans", [False, True])
    def test_factor_solve_maps_every_row(self, kind, trans):
        rng = np.random.default_rng(11)
        B = norm_of_kind(kind, rng, 6)
        Z = rng.normal(size=(9, 6))
        Z_before = Z.copy()
        X = B.factor_solve(Z, trans=trans)
        assert X.shape == Z.shape and X.flags.c_contiguous and np.array_equal(Z, Z_before)
        for x, z in zip(X, Z):
            np.testing.assert_allclose(x, B.factor_solve(z, trans=trans), rtol=1e-13, atol=1e-15)
        # the zero point maps to zero exactly
        assert np.array_equal(B.factor_solve(np.zeros((2, 6)), trans=trans), np.zeros((2, 6)))

    def test_factor_solve_rejects_a_wrong_shape(self):
        B = NormOperator.dense(np.array([[2.0, 0.5], [0.5, 1.0]]))
        for x in (np.ones(3), np.ones((2, 1)), np.ones((4, 3)), np.ones((3, 2, 2)), np.float64(1)):
            for trans in (False, True):
                with pytest.raises(ValueError):
                    B.factor_solve(x, trans=trans)


class TestSymEig:
    def test_diagonal_matrix(self):
        w, V = sym_eig(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(w, [2.0, 5.0])
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=1e-14)

    def test_two_by_two_exchange(self):
        w, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(10, 10))
        A = 0.5 * (A + A.T)
        w, V = sym_eig(A)
        assert np.abs(V @ np.diag(w) @ V.T - A).max() <= 1e-9
        assert np.abs(V @ V.T - np.eye(10)).max() <= 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
