import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import NORM_KINDS, forbid_oracle_calls, norm_matrix, norm_of_kind

from tensoropt import linalg, problems
from tensoropt.accel import ContractedOracle, ScaledComposite
from tensoropt.linalg import SYRK_BLOCK_ENTRIES, NormOperator, tridiagonal_form
from tensoropt.methods import CountingOracle
from tensoropt.model import TensorModel
from tensoropt.problems import (
    LogisticOracle,
    LogSumExpOracle,
    PowerComposite,
    PoweredChainOracle,
    ProblemInstance,
    QuadraticOracle,
    ZeroComposite,
    check_derivatives,
    fd_directional_hessian,
    generate_shifted_logsumexp,
    logistic_oracle,
    parse_libsvm,
    powered_chain_oracle,
    synthetic_logistic,
)

MUSHROOMS = os.path.join(os.path.dirname(__file__), "data", "mushrooms")


def _dataset(rng, m=40, n=6):
    X = rng.uniform(-1.0, 1.0, size=(m, n))
    y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return X, y


def _full(hess):
    """The symmetric matrix whose lower triangle is that of ``hess``, the triangle a
    dense Hessian is returned in."""
    return np.tril(hess) + np.tril(hess, -1).T


def _sparse_dataset(rng):
    """60 examples over 6 features, about 10 % nonzero; column 2 and row 0 all zero."""
    X = rng.uniform(-1.0, 1.0, size=(60, 6)) * (rng.random((60, 6)) < 0.12)
    X[:, 2] = 0.0
    X[0] = 0.0
    y = np.where(rng.random(60) < 0.5, -1.0, 1.0)
    return scipy.sparse.csr_matrix(X), y


class TestLogistic:
    def test_value_at_zero_is_log_two(self):
        rng = np.random.default_rng(0)
        oracle = logistic_oracle(*_dataset(rng))
        assert oracle.value(np.zeros(6)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_scalar_identity(self):
        oracle = logistic_oracle(scipy.sparse.csr_matrix(np.array([[1.0]])), np.array([1.0]))
        for t in (-2.0, -0.3, 0.0, 1.5, 4.0):
            x = np.array([t])
            assert oracle.value(x) == pytest.approx(math.log(1.0 + math.exp(-t)), rel=1e-12)
            assert oracle.gradient(x)[0] == pytest.approx(-1.0 / (1.0 + math.exp(t)), rel=1e-10)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(1)
        oracle = logistic_oracle(*_dataset(rng), l2=0.1)
        report = check_derivatives(oracle, trials=25, seed=2, tol=1e-5)
        assert report.passed, (report.max_gradient_error, report.max_hessian_vec_error)

    def test_convexity_sampled(self):
        rng = np.random.default_rng(3)
        oracle = logistic_oracle(*_dataset(rng))
        for _ in range(30):
            x = rng.normal(size=6)
            y = rng.normal(size=6)
            lower = oracle.value(x) + oracle.gradient(x) @ (y - x)
            assert oracle.value(y) >= lower - 1e-10

    def test_lipschitz_constant_dominates_sampled_third_derivative(self):
        rng = np.random.default_rng(4)
        oracle = logistic_oracle(*_dataset(rng, m=60, n=8))
        L2 = oracle.lipschitz[2]
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=8)
            h = rng.normal(size=8)
            h /= np.linalg.norm(h)
            t = 1e-5
            d3 = (h @ oracle.hessian_vec(x + t * h, h)
                  - h @ oracle.hessian_vec(x - t * h, h)) / (2 * t)
            worst = max(worst, abs(d3))
        assert worst <= L2 * (1 + 1e-6)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            LogisticOracle(scipy.sparse.csr_matrix((0, 3)), np.zeros(0))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            LogisticOracle(np.ones((2, 2)), np.array([0.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("form", [np.array, scipy.sparse.csr_matrix])
    def test_non_finite_features_rejected(self, bad, form):
        # a NaN used to reach value() and the Lipschitz constant; an inf gave finite garbage
        with pytest.raises(ValueError, match="features contain non-finite entries"):
            LogisticOracle(form(np.array([[bad, 1.0], [1.0, 2.0]])), np.array([1.0, -1.0]))

    def test_owns_its_matrices(self):
        rng = np.random.default_rng(5)
        X, y = _sparse_dataset(rng)
        oracle = logistic_oracle(X, y, l2=0.1)
        x, h = rng.normal(size=6), rng.normal(size=6)
        before = oracle.value(x), oracle.gradient(x), oracle.hessian_vec(x, h)
        X.data *= -3.0
        after = oracle.value(x), oracle.gradient(x), oracle.hessian_vec(x, h)
        assert after[0] == before[0]
        assert np.array_equal(after[1], before[1]) and np.array_equal(after[2], before[2])

    def test_no_transpose_per_call(self, monkeypatch):
        rng = np.random.default_rng(6)
        oracle = logistic_oracle(*_sparse_dataset(rng), l2=0.1)
        x, h = rng.normal(size=6), rng.normal(size=6)

        def forbidden(*args, **kwargs):
            raise AssertionError("transpose built per call")

        monkeypatch.setattr(type(oracle.X), "transpose", forbidden)
        monkeypatch.setattr(type(oracle.X), "T", property(forbidden))
        oracle.gradient(x)
        state = oracle.value_gradient_state(x)[2]
        oracle.hessian_vec(x, h)
        oracle.hessian_vec(x, h, state)
        oracle.hessian(x)
        oracle.hessian(x, state)

    def test_cached_transpose_is_bit_identical_to_a_fresh_one(self, tmp_path):
        # 40 rows over 12 columns at about 10 % density; row 3 and column 5 are empty
        rng = np.random.default_rng(7)
        lines = []
        for i in range(40):
            cols = [] if i == 3 else [j for j in range(12) if j != 5 and rng.random() < 0.1]
            if i == 0:
                cols = sorted(set(cols) | {11})  # the last column fixes the width
            entries = " ".join(f"{j + 1}:{rng.uniform(-2.0, 2.0)!r}" for j in cols)
            lines.append(f"{1 if rng.random() < 0.5 else 2} {entries}")
        path = tmp_path / "sparse.txt"
        path.write_text("\n".join(lines) + "\n")
        X, labels = parse_libsvm(path)
        assert X.shape == (40, 12) and X[3].nnz == 0 and X[:, 5].nnz == 0
        assert 0.05 < X.nnz / 480 < 0.15
        oracle = logistic_oracle(X, labels, l2=0.1)
        m, y, l2 = oracle.m, oracle.y, oracle.l2
        for _ in range(5):
            x, h = rng.normal(size=12), rng.normal(size=12)
            t = y * (X @ x)
            log_s = np.logaddexp(0.0, t)
            w = oracle._curvature(x)
            g = -(X.T @ (y * np.exp(-log_s))) / m + l2 * x
            hv = (X.T @ (w * (X @ h))) / m + l2 * h
            H = (X.multiply(w[:, None]).T @ X).toarray() / m + l2 * np.eye(12)
            assert np.array_equal(oracle.gradient(x), g)
            assert np.array_equal(oracle.value_gradient_state(x)[1], g)
            assert np.array_equal(oracle.hessian_vec(x, h), hv)
            assert np.array_equal(oracle.hessian(x), H)

    def test_keeps_the_form_its_data_comes_in(self):
        rng = np.random.default_rng(8)
        X, y = _dataset(rng)
        dense = logistic_oracle(X, y, l2=0.1)
        assert isinstance(dense.X, np.ndarray) and dense.XT.base is dense.X
        # a CSR matrix stays CSR, even one with no zero entry
        assert np.all(X != 0.0)
        for data in ((scipy.sparse.csr_matrix(X), y), _sparse_dataset(rng)):
            sparse = logistic_oracle(*data, l2=0.1)
            assert scipy.sparse.isspmatrix_csr(sparse.X) and scipy.sparse.isspmatrix_csr(sparse.XT)
        assert isinstance(synthetic_logistic(50, 300, 1e-3, seed=0).smooth.X, np.ndarray)

    @pytest.mark.parametrize("m, n", [(1, 7), (40, 6), (300, 50), (97, 1)])
    def test_lipschitz_constant_has_the_same_bits_in_either_form(self, m, n):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1.0, 1.0, size=(m, n))
        y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        assert np.all(X != 0.0)
        dense, sparse = logistic_oracle(X, y), logistic_oracle(scipy.sparse.csr_matrix(X), y)
        assert dense.lipschitz[2] == sparse.lipschitz[2]

    def test_a_dense_input_that_is_not_a_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="features must be a matrix of rows"):
            LogisticOracle(np.ones(3), np.ones(3))

    def test_dense_construction_makes_no_csr_round_trip(self):
        # X is 20000 × 40, 6.4 MB: the oracle's copy and the squares its row norms sum
        # take two such arrays; a CSR pair and a dense copy back took more than four
        rng = np.random.default_rng(13)
        X = rng.uniform(-1.0, 1.0, size=(20000, 40))
        y = np.where(rng.random(20000) < 0.5, -1.0, 1.0)
        tracemalloc.start()
        try:
            LogisticOracle(X, y, l2=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * X.nbytes

    def test_dense_storage_matches_the_csr_formulas(self):
        # both forms sum the same terms in different orders: agreement within a few ulps
        # of the summed magnitudes, entry by entry
        rng = np.random.default_rng(9)
        X, labels = _dataset(rng, m=50, n=6)
        oracle = logistic_oracle(X, labels, l2=0.1)
        assert isinstance(oracle.X, np.ndarray)
        Xs = scipy.sparse.csr_matrix(X)
        XT, A = Xs.T.tocsr(), abs(X)
        m, y, eps = oracle.m, oracle.y, np.finfo(float).eps

        def close(got, want, scale):
            assert np.all(np.abs(got - want) <= 8 * eps * scale)

        for _ in range(10):
            x, h = 2.0 * rng.normal(size=6), rng.normal(size=6)
            t = y * (X @ x)
            log_s = np.logaddexp(0.0, t)
            w = np.exp(-log_s - np.logaddexp(0.0, -t))
            r = y * np.exp(-log_s)
            f = float(np.mean(np.logaddexp(0.0, -t))) + 0.05 * float(x @ x)
            g = -(XT @ r) / m + 0.1 * x
            XTw = XT.copy()
            XTw.data *= w[XTw.indices]
            H = (XTw @ Xs).toarray() / m + 0.1 * np.eye(6)
            g_scale = A.T @ np.abs(r) / m + 0.1 * np.abs(x)
            H_scale = (A.T * w) @ A / m + 0.1 * np.eye(6)
            value, joint, state = oracle.value_gradient_state(x)
            close(oracle.value(x), f, abs(f))
            close(value, f, abs(f))
            close(oracle.gradient(x), g, g_scale)
            close(joint, g, g_scale)
            close(oracle.hessian_vec(x, h, state), (XT @ (w * (X @ h))) / m + 0.1 * h,
                  H_scale @ np.abs(h))
            close(_full(oracle.hessian(x)), H, H_scale)

    def test_dense_hessian_is_a_fortran_lower_triangle(self):
        rng = np.random.default_rng(10)
        oracle = synthetic_logistic(50, 300, 1e-3, seed=0).smooth
        X = oracle.X
        for _ in range(3):
            x = rng.normal(size=50)
            H = oracle.hessian(x)
            assert H.flags.f_contiguous
            w = oracle.value_gradient_state(x)[2]
            assert np.array_equal(np.tril(oracle.hessian(x, w)), np.tril(H))
            want = (X.T * w) @ X / oracle.m + oracle.l2 * np.eye(50)
            assert np.abs(np.tril(H - want)).max() <= 1e-14 * np.abs(want).max()

    def test_owns_its_dense_matrix(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1.0, 1.0, size=(40, 6))
        oracle = LogisticOracle(X, np.where(rng.random(40) < 0.5, -1.0, 1.0), l2=0.1)
        assert isinstance(oracle.X, np.ndarray)
        x, h = rng.normal(size=6), rng.normal(size=6)
        before = oracle.value(x), oracle.gradient(x), oracle.hessian_vec(x, h), oracle.hessian(x)
        X *= -3.0
        after = oracle.value(x), oracle.gradient(x), oracle.hessian_vec(x, h), oracle.hessian(x)
        assert after[0] == before[0]
        assert all(np.array_equal(a, b) for a, b in zip(after[1:], before[1:]))


class TestLogSumExp:
    def test_single_zero_row_is_identically_zero(self):
        oracle = LogSumExpOracle(np.zeros((1, 3)), mu=1.0, norm=NormOperator.identity(3))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=3)
            assert oracle.value(x) == pytest.approx(0.0, abs=1e-15)
            np.testing.assert_allclose(oracle.gradient(x), 0.0, atol=1e-15)

    def test_two_rows_give_logistic_loss(self):
        oracle = LogSumExpOracle(np.array([[0.0], [1.0]]), mu=1.0,
                                 norm=NormOperator.identity(1))
        for t in (-3.0, -0.5, 0.0, 1.0, 2.5):
            assert oracle.value(np.array([t])) == pytest.approx(math.log(1 + math.exp(t)),
                                                                rel=1e-12)

    def test_overflow_free(self):
        oracle = LogSumExpOracle(np.array([[1.0], [-1.0]]), mu=1e-3,
                                 norm=NormOperator.identity(1))
        v = oracle.value(np.array([500.0]))
        assert np.isfinite(v) and v == pytest.approx(500.0, rel=1e-9)

    # n = 64 takes blocks of SYRK_BLOCK_ENTRIES // 64 = 512 rows: m = 300 is less than
    # one block, 1024 two whole blocks and 1100 two and a short one
    @pytest.mark.parametrize("m,n,mu", [(40, 6, 1.0), (300, 50, 0.3), (300, 64, 0.5),
                                        (1024, 64, 0.5), (1100, 64, 0.5)])
    def test_dense_hessian_lower_triangle_matches_the_weighted_formula(self, m, n, mu):
        assert SYRK_BLOCK_ENTRIES // 64 == 512
        rng = np.random.default_rng(6)
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        oracle = LogSumExpOracle(A, b=rng.uniform(-1, 1, m), mu=mu)
        for _ in range(5):
            x = rng.normal(size=n)
            hess = oracle.hessian(x)
            assert hess.shape == (n, n) and hess.flags.f_contiguous
            _, grad, state = oracle.value_gradient_state(x)
            pi, g = state
            # the state carries the gradient itself, and the stateless call its bits
            assert g is grad and np.array_equal(g, oracle.gradient(x))
            assert np.array_equal(hess, oracle.hessian(x, state))
            # sum_i pi_i a_i a_i^T - g g^T, the formula without square roots
            ref = ((A * pi[:, None]).T @ A - np.outer(g, g)) / mu
            assert np.abs(np.tril(hess - ref)).max() <= 1e-14 * max(1.0, np.abs(ref).max())

    def test_hessian_quadratic_form_bounded_by_gram_norm(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1.0, 1.0, size=(40, 6))
        oracle = LogSumExpOracle(A, b=rng.uniform(-1, 1, 40), mu=1.0)
        for _ in range(100):
            x = rng.normal(size=6)
            h = rng.normal(size=6)
            lhs = h @ oracle.hessian_vec(x, h)
            assert lhs <= oracle.norm.primal(h) ** 2 * (1 + 1e-8)

    def test_lipschitz_scaling_in_mu(self):
        A = np.eye(3)
        for mu in (1.0, 0.25, 0.05):
            oracle = LogSumExpOracle(A, mu=mu)
            assert oracle.lipschitz[1] == pytest.approx(1.0 / mu)
            assert oracle.lipschitz[2] == pytest.approx(2.0 / mu**2)
            assert oracle.lipschitz[3] == pytest.approx(4.0 / mu**3)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(-1, 1, size=(30, 5))
        oracle = LogSumExpOracle(A, b=rng.uniform(-1, 1, 30), mu=0.5)
        report = check_derivatives(oracle, trials=25, seed=7, tol=1e-5)
        assert report.passed

    def test_hessian_matrix_matches_hessian_vec(self):
        rng = np.random.default_rng(8)
        A = rng.uniform(-1, 1, size=(20, 4))
        oracle = LogSumExpOracle(A, mu=1.0)
        x = rng.normal(size=4)
        Hmat = _full(oracle.hessian(x))
        for _ in range(5):
            h = rng.normal(size=4)
            np.testing.assert_allclose(Hmat @ h, oracle.hessian_vec(x, h), atol=1e-12)


class TestSoftmaxCache:
    """The smoothed max keeps its last point's softmax, keyed on the point's bytes."""

    @staticmethod
    def _oracle(rng, n=5, m=30):
        return LogSumExpOracle(rng.normal(size=(m, n)), b=rng.normal(size=m), mu=0.7,
                               norm=NormOperator.identity(n))

    @staticmethod
    def _count_softmaxes(monkeypatch):
        calls = []
        exp = np.exp
        monkeypatch.setattr(problems.np, "exp", lambda *a, **k: calls.append(1) or exp(*a, **k))
        return calls

    @staticmethod
    def _assert_same_bits(got, want):
        # the value, the gradient and the state's parts (pi, gradient)
        assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
        assert len(got[2]) == len(want[2]) == 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip((got[1], *got[2]),
                                                             (want[1], *want[2])))

    def test_a_value_and_then_the_state_share_one_softmax_with_a_fresh_oracles_bits(
            self, monkeypatch):
        rng = np.random.default_rng(30)
        oracle = self._oracle(rng)
        x = rng.normal(size=5)
        calls = self._count_softmaxes(monkeypatch)
        f = oracle.value(x)
        got = oracle.value_gradient_state(x)
        assert len(calls) == 1
        fresh = self._oracle(np.random.default_rng(30))
        want = fresh.value_gradient_state(x)
        assert len(calls) == 2
        assert f == got[0] and np.asarray(f).tobytes() == np.asarray(want[0]).tobytes()
        self._assert_same_bits(got, want)
        h = rng.normal(size=5)
        assert oracle.hessian_vec(x, h).tobytes() == fresh.hessian_vec(x, h, want[2]).tobytes()
        assert len(calls) == 2

    def test_an_edited_point_a_flipped_zero_and_a_nan_point_miss(self, monkeypatch):
        rng = np.random.default_rng(31)
        oracle = self._oracle(rng)
        x = rng.normal(size=5)
        x[2] = 0.0
        x_edited = x + np.eye(5)[0]
        want = self._oracle(np.random.default_rng(31)).value_gradient_state(x_edited)
        calls = self._count_softmaxes(monkeypatch)
        oracle.value(x)
        x[0] += 1.0  # edited in place after the call
        self._assert_same_bits(oracle.value_gradient_state(x), want)
        flipped = x.copy()
        flipped[2] = -0.0  # equal to x, with other bytes
        oracle.value(flipped)
        assert len(calls) == 3
        nan = np.full(5, np.nan)
        assert math.isnan(oracle.value(nan)) and math.isnan(oracle.value(nan))
        assert len(calls) == 5


class TestInPlaceProducts:
    """The Hessian-vector products update their m-vector temporaries in place,
    with the bits of the expressions written out of place."""

    def test_smoothed_max_equals_the_out_of_place_expression(self):
        rng = np.random.default_rng(32)
        for m, n, mu in ((30, 5, 1.0), (600, 100, 0.3)):
            A = rng.normal(size=(m, n))
            oracle = LogSumExpOracle(A, b=rng.normal(size=m), mu=mu)
            for _ in range(10):
                x, h = rng.normal(size=n), rng.normal(size=n)
                state = oracle.value_gradient_state(x)[2]
                pi = state[0]
                u = A @ h
                want = (A.T @ (pi * (u - float(pi @ u)))) / mu
                assert oracle.hessian_vec(x, h, state).tobytes() == want.tobytes()
                assert oracle.hessian_vec(x, h).tobytes() == want.tobytes()

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_logistic_equals_the_out_of_place_expression(self, storage):
        rng = np.random.default_rng(33)
        X = rng.uniform(-1.0, 1.0, size=(300, 50))
        if storage == "csr":
            X *= rng.random(X.shape) < 0.05
        y = np.where(rng.random(300) < 0.5, -1.0, 1.0)
        oracle = logistic_oracle(X if storage == "dense" else scipy.sparse.csr_matrix(X), y,
                                 l2=1e-3)
        assert isinstance(oracle.X, np.ndarray) == (storage == "dense")
        for _ in range(10):
            x, h = rng.normal(size=oracle.dim), rng.normal(size=oracle.dim)
            w = oracle.value_gradient_state(x)[2]
            want = (oracle.XT @ (w * (oracle.X @ h))) / oracle.m + oracle.l2 * h
            assert oracle.hessian_vec(x, h, w).tobytes() == want.tobytes()
            assert oracle.hessian_vec(x, h).tobytes() == want.tobytes()


class TestShiftedGenerator:
    def test_gradient_vanishes_at_origin_across_seeds(self):
        for seed in range(6):
            prob = generate_shifted_logsumexp(8, 48, 1.0, seed)
            g = prob.gradient(np.zeros(8))
            assert prob.norm.dual(g) <= 1e-12

    def test_known_optimum_is_origin(self):
        prob = generate_shifted_logsumexp(2, 12, 0.5, seed=0)
        x_star, f_star = prob.known_optimum
        np.testing.assert_array_equal(x_star, np.zeros(2))
        assert f_star == pytest.approx(prob.value(np.zeros(2)))

    def test_full_size_instance_dimensions(self):
        prob = generate_shifted_logsumexp(100, 600, 0.05, seed=1)
        assert prob.smooth.A.shape == (600, 100)
        assert prob.norm.dim == 100

    @pytest.mark.parametrize("n, m, mu, seed", [(8, 48, 1.0, 0), (5, 30, 0.5, 3),
                                                (50, 300, 1.0, 1)])
    def test_in_place_shift_matches_an_out_of_place_construction(self, n, m, mu, seed):
        prob = generate_shifted_logsumexp(n, m, mu, seed)
        # the generator's first draw, shifted into a new array
        rng = np.random.default_rng(seed)
        A_raw = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(-1.0, 1.0, size=m)
        pre = LogSumExpOracle(A_raw, b=b, mu=mu, norm=NormOperator.identity(n))
        A = A_raw - pre.gradient(np.zeros(n))[None, :]
        assert np.array_equal(prob.smooth.A, A)
        assert np.array_equal(prob.smooth.b, b)
        x_star, f_star = prob.known_optimum
        assert np.array_equal(x_star, np.zeros(n))
        assert f_star == LogSumExpOracle(A, b=b, mu=mu).value(np.zeros(n))

    def test_requires_m_at_least_n(self):
        # m == n too: the shift leaves rank(A) <= m - 1, so the Gram norm is singular
        for n, m in ((10, 5), (10, 10), (1, 1)):
            with pytest.raises(ValueError):
                generate_shifted_logsumexp(n, m, 1.0, seed=0)


def _chain_matrix(n, c):
    """The dense differencing matrix M of the chain: u = M x, u_i = x_i - c x_{i-1}."""
    M = np.eye(n)
    M[np.arange(1, n), np.arange(n - 1)] = -c
    return M


class TestPoweredChain:
    def test_minimum_at_origin(self):
        prob = powered_chain_oracle(7, 3.0, 2.0)
        assert prob.value(np.zeros(7)) == 0.0
        np.testing.assert_allclose(prob.gradient(np.zeros(7)), 0.0)

    def test_level_set_values(self):
        n = 20
        prob = powered_chain_oracle(n, 3.0, 2.0)
        x0 = np.ones(n)
        x1 = np.array([2.0 ** (i + 1) - 1.0 for i in range(n)])
        assert prob.value(x0) == pytest.approx(float(n), rel=1e-12)
        assert prob.value(x1) == pytest.approx(float(n), rel=1e-12)

    def test_level_set_geometry(self):
        n = 20
        prob = powered_chain_oracle(n, 3.0, 2.0)
        x1 = np.array([2.0 ** (i + 1) - 1.0 for i in range(n)])
        assert prob.norm.primal(np.ones(n)) == pytest.approx(math.sqrt(n))
        assert prob.norm.primal(x1) >= 2.0 ** (n - 1)

    def test_derivatives_match_finite_differences(self):
        prob = powered_chain_oracle(9, 3.0, 1.0)
        report = check_derivatives(prob.smooth, trials=25, seed=9, tol=1e-5)
        assert report.passed

    def test_quadratic_boundary_exact(self):
        prob = powered_chain_oracle(5, 2.0, 1.0)
        rng = np.random.default_rng(10)
        x = rng.normal(size=5)
        M = _chain_matrix(5, 1.0)
        np.testing.assert_allclose(prob.smooth.hessian(x), 2.0 * M.T @ M, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 150])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_matches_the_dense_differencing_matrix(self, n, c):
        oracle = powered_chain_oracle(n, 3.0, c).smooth
        M = _chain_matrix(n, c)
        rng = np.random.default_rng(13)
        rel = dict(rtol=1e-12, atol=0.0)
        # x = ones has zero differences on the c = 1 chain
        for x in [np.ones(n)] + [rng.normal(size=n) for _ in range(5)]:
            h = rng.normal(size=n)
            u = M @ x
            phi2 = 6.0 * np.abs(u)
            assert oracle.value(x) == pytest.approx(float(np.sum(np.abs(u) ** 3)), rel=1e-12)
            np.testing.assert_allclose(oracle.gradient(x), M.T @ (3.0 * u * np.abs(u)), **rel)
            np.testing.assert_allclose(oracle.hessian_vec(x, h), M.T @ (phi2 * (M @ h)), **rel)
            np.testing.assert_allclose(oracle.hessian(x), M.T @ (phi2[:, None] * M), **rel)
        smax = np.linalg.norm(M, ord=2)
        assert oracle.lipschitz[2] == pytest.approx(6.0 * smax**3, rel=1e-13)
        if n == 1:
            assert oracle.lipschitz[2] == 6.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            powered_chain_oracle(5, 1.5, 1.0)
        with pytest.raises(ValueError):
            powered_chain_oracle(5, 3.0, 3.0)


class TestComposites:
    def test_power_uniform_convexity_sampled(self):
        # degree-3 power term: gap lower bound with parameter mu/2
        rng = np.random.default_rng(11)
        norm = NormOperator.identity(4)
        mu = 1.0
        psi = PowerComposite(mu, 3.0, np.zeros(4), norm)
        sigma = psi.uniform_convexity(3)
        assert sigma == pytest.approx(mu / 2.0)
        for _ in range(60):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            gap = psi.value(y) - psi.value(x) - psi.gradient(x) @ (y - x)
            assert gap >= sigma / 3.0 * norm.primal(y - x) ** 3 - 1e-12

    def test_value_zero_at_center_nonnegative_elsewhere(self):
        norm = NormOperator.identity(3)
        psi = PowerComposite(2.0, 4.0, np.ones(3), norm)
        assert psi.value(np.ones(3)) == 0.0
        rng = np.random.default_rng(12)
        for _ in range(20):
            assert psi.value(rng.normal(size=3)) >= 0.0

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_unit_power_is_the_prox_function_bit_for_bit(self, p, kind):
        # d(x) = ||x - x0||^{p+1} / (p+1), the accelerated scheme's prox-function
        rng = np.random.default_rng(13)
        norm = norm_of_kind(kind, rng, 5)
        anchor = rng.normal(size=5)
        prox = PowerComposite(1.0, p + 1, anchor, norm)
        for _ in range(10):
            x = rng.normal(size=5)
            d = x - anchor
            r = norm.primal(d)
            assert prox.value(x) == r ** (p + 1) / (p + 1.0)
            assert np.array_equal(prox.gradient(x), r ** (p - 1) * norm.apply(d))
        assert prox.uniform_convexity(p + 1) == 2.0 ** (1 - p)

    @pytest.mark.parametrize("kind", ["zero", "power-identity", "power-diagonal",
                                      "power-dense", "quadratic", "scaled"])
    def test_joint_value_and_gradient_is_bit_identical(self, kind):
        rng = np.random.default_rng(14)
        norm = norm_of_kind(kind.split("-")[-1] if kind.startswith("power") else "dense", rng, 5)
        if kind == "zero":
            comp = ZeroComposite(5)
        elif kind.startswith("power"):
            comp = PowerComposite(0.7, 3.0, rng.normal(size=5), norm)
        elif kind == "quadratic":
            comp = PowerComposite(0.7, 2.0, rng.normal(size=5), norm)
        else:
            base = PowerComposite(0.4, 2.5, rng.normal(size=5), norm)
            comp = ScaledComposite(base, 1.7, PowerComposite(1.0, 3.0, rng.normal(size=5), norm),
                                   rng.normal(size=5))
        for x in [rng.normal(size=5) for _ in range(10)]:
            f, g = comp.value_and_gradient(x)
            assert type(f) is type(comp.value(x)) and f == comp.value(x)
            assert np.array_equal(g, comp.gradient(x))

    def test_quadratic_coeff_detection(self):
        norm = NormOperator.identity(2)
        quad = PowerComposite(0.7, 2.0, np.zeros(2), norm)
        mu, center = quad.quadratic_coeff
        assert mu == 0.7
        cubic = PowerComposite(0.7, 3.0, np.zeros(2), norm)
        assert cubic.quadratic_coeff is None


def test_power_composite_on_the_identity_calls_no_operator_with_its_bits(monkeypatch):
    rng = np.random.default_rng(34)
    norm = NormOperator.identity(5)
    for mu, q in ((0.7, 3.0), (1.3, 2.0), (0.4, 4.5)):
        comp = PowerComposite(mu, q, rng.normal(size=5), norm)
        points = [comp.center + t * rng.normal(size=5) for t in (0.0, 1e-9, 0.5, 7.0)]
        want = []
        for x in points:
            bd, r = norm.apply_and_primal(x - comp.center)
            want.append((mu * norm.primal(x - comp.center) ** q / q,
                         mu * r**q / q, mu * r ** (q - 2.0) * bd))
        calls = []
        monkeypatch.setattr(NormOperator, "primal", lambda *a: calls.append("primal"))
        monkeypatch.setattr(NormOperator, "apply_and_primal", lambda *a: calls.append("apply"))
        for x, (f, f2, g2) in zip(points, want):
            got_f, got_g = comp.value_and_gradient(x)
            assert comp.value(x) == f and got_f == f2
            assert got_g.tobytes() == g2.tobytes() == comp.gradient(x).tobytes()
        assert calls == []
        monkeypatch.undo()


class TestParseLibsvm:
    def test_basic_lines(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("1 3:0.5 7:1\n-1\n")
        X, labels = parse_libsvm(path)
        assert X.shape == (2, 7)
        assert labels.tolist() == [1.0, -1.0]
        row = X.getrow(0).toarray().ravel()
        assert row[2] == 0.5 and row[6] == 1.0
        assert X.getrow(1).nnz == 0

    def test_label_mapping_two_classes(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("2 1:1\n1 1:2\n2 2:1\n")
        _, labels = parse_libsvm(path)
        assert sorted(set(labels.tolist())) == [-1.0, 1.0]
        assert labels[1] == -1.0  # smaller label value maps to -1

    def test_malformed_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 3:0.5\n-1 x7:1\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_libsvm(path)

    def test_nonascending_indices_rejected(self, tmp_path):
        path = tmp_path / "order.txt"
        path.write_text("1 5:1 3:1\n")
        with pytest.raises(ValueError, match="ascending"):
            parse_libsvm(path)

    @pytest.mark.parametrize("entry", ["2:nan", "2:inf", "2:-inf"])
    def test_non_finite_value_rejected(self, tmp_path, entry):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"1 1:0.5\n-1 1:1 {entry}\n")
        with pytest.raises(ValueError, match=f"line 2: bad entry '{entry}'"):
            parse_libsvm(path)

    def test_non_finite_label_rejected(self, tmp_path):
        path = tmp_path / "nanlabel.txt"
        path.write_text("1 1:0.5\nnan 1:1\n")
        with pytest.raises(ValueError, match="line 2: bad label"):
            parse_libsvm(path)

    @pytest.mark.skipif(not os.path.exists(MUSHROOMS), reason="dataset file not present")
    def test_mushrooms_dimensions(self):
        X, _ = parse_libsvm(MUSHROOMS)
        assert X.shape == (8124, 112)


class TestFamilies:
    @pytest.mark.parametrize("stanza", [
        *({"name": "chain", "n": 6, "q": q, "c": c} for q in (2, 2.5, 3) for c in (1, 2)),
        {"name": "logsumexp", "n": 4, "m": 24, "mu": 0.5},
        {"name": "logistic-synth", "n": 4, "m": 20},
        {"name": "logistic-synth", "n": 4, "m": 20, "scale": 0},
        {"name": "logistic", "l2": 0.1},
    ], ids=lambda stanza: ",".join(f"{k}={v}" for k, v in stanza.items()))
    def test_orders_are_the_built_instances_positive_constants(self, tmp_path, stanza):
        if stanza["name"] == "logistic":
            path = tmp_path / "tiny.txt"
            path.write_text("1 1:0.5 3:1\n-1 2:2\n1 1:-1 2:0.25\n")
            stanza = {**stanza, "path": str(path)}
        name, params = problems.problem_params(stanza)
        lipschitz = problems.build_problem(stanza, seed=0).smooth.lipschitz
        assert set(problems.FAMILIES[name][3](params)) == {p for p, L in lipschitz.items() if L > 0}


class TestCheckDerivatives:
    def test_quadratic_nearly_exact(self):
        rng = np.random.default_rng(13)
        M = rng.normal(size=(5, 5))
        oracle = QuadraticOracle(M @ M.T + np.eye(5))
        report = check_derivatives(oracle, trials=10, seed=14)
        assert report.max_gradient_error <= 1e-8
        assert report.max_hessian_vec_error <= 1e-8

    def test_synthetic_logistic_instance(self):
        prob = synthetic_logistic(10, 50, 1e-2, seed=15)
        report = check_derivatives(prob.smooth, trials=20, seed=16, tol=1e-5)
        assert report.passed

    def test_trials_validated(self):
        prob = synthetic_logistic(4, 20, 0.0, seed=17)
        with pytest.raises(ValueError):
            check_derivatives(prob.smooth, trials=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("make,reason", [
    (lambda v: PowerComposite(v, 3.0, np.zeros(2), NormOperator.identity(2)), "mu must be finite"),
    (lambda v: PowerComposite(1.0, v, np.zeros(2), NormOperator.identity(2)), "q must be finite"),
    (lambda v: LogisticOracle(np.eye(2), np.array([1.0, -1.0]), l2=v), "l2 must be finite"),
    (lambda v: LogSumExpOracle(np.eye(2), mu=v), "mu must be finite"),
    (lambda v: PoweredChainOracle(3, q=v), "q must be finite"),
], ids=["composite-mu", "composite-q", "logistic-l2", "logsumexp-mu", "chain-q"])
def test_non_finite_parameter_rejected_at_construction(make, reason, value):
    # a NaN used to pass every sign check and fail late, inside a factorization or a solve
    with pytest.raises(ValueError, match=reason):
        make(value)


def test_fd_directional_hessian_on_quadratic():
    rng = np.random.default_rng(18)
    M = rng.normal(size=(4, 4))
    A = M @ M.T
    oracle = QuadraticOracle(A)
    x = rng.normal(size=4)
    h = rng.normal(size=4)
    np.testing.assert_allclose(fd_directional_hessian(oracle.gradient, x, h), A @ h,
                               rtol=1e-7, atol=1e-9)


def _oracle_family(kind, rng):
    if kind == "logistic":
        oracle = logistic_oracle(*_dataset(rng, m=50, n=6), l2=0.1)
        assert isinstance(oracle.X, np.ndarray)  # the dense storage path
        return oracle
    if kind == "logistic-sparse":
        oracle = logistic_oracle(*_sparse_dataset(rng), l2=0.1)
        assert scipy.sparse.isspmatrix_csr(oracle.X)  # the CSR storage path
        return oracle
    if kind == "logsumexp":
        return generate_shifted_logsumexp(6, 36, 0.5, seed=5).smooth
    if kind == "chain-q3":
        return powered_chain_oracle(6, 3.0, 2.0).smooth
    if kind == "chain-q2.5":
        return powered_chain_oracle(6, 2.5, 1.0).smooth
    if kind.startswith("contracted-"):
        # the accelerated subproblem's smooth part around a random outer state
        base = _oracle_family(kind.split("-", 1)[1], rng)
        return ContractedOracle(base, 3.0, 0.6, rng.normal(size=6))
    M = rng.normal(size=(6, 6))
    return QuadraticOracle(M @ M.T)


FAMILIES = ["logistic", "logistic-sparse", "logsumexp", "chain-q3", "chain-q2.5", "quadratic",
            "contracted-chain-q3", "contracted-logsumexp"]


class TestHessianState:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_product_with_the_state_is_bit_identical(self, kind):
        rng = np.random.default_rng(30)
        oracle = _oracle_family(kind, rng)
        for _ in range(10):
            x = 2.0 * rng.normal(size=6)
            state = oracle.value_gradient_state(x)[2]
            assert (state is None) == (kind == "quadratic")
            for _ in range(3):
                h = rng.normal(size=6)
                assert np.array_equal(oracle.hessian_vec(x, h, state), oracle.hessian_vec(x, h))

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_counting_oracle_counts_a_stateful_product_as_one(self, kind):
        rng = np.random.default_rng(31)
        inner = _oracle_family(kind, rng)
        oracle = CountingOracle(inner)
        x, h = rng.normal(size=6), rng.normal(size=6)
        state = inner.value_gradient_state(x)[2]
        assert oracle.counts() == {"value": 0, "gradient": 0, "hessian_vec": 0, "hessian": 0}
        assert np.array_equal(oracle.hessian_vec(x, h, state), inner.hessian_vec(x, h))
        assert oracle.n_hvp == 1

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_joint_evaluation_is_bit_identical(self, kind):
        rng = np.random.default_rng(35)
        oracle = _oracle_family(kind, rng)
        for _ in range(5):
            x = 2.0 * rng.normal(size=6)
            f, g, state = oracle.value_gradient_state(x)
            assert type(f) is type(oracle.value(x)) and f == oracle.value(x)
            assert np.array_equal(g, oracle.gradient(x))
            if kind == "quadratic":
                assert state is None
            else:
                h = rng.normal(size=6)
                assert np.array_equal(oracle.hessian_vec(x, h, state), oracle.hessian_vec(x, h))

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_counting_oracle_counts_a_joint_evaluation_as_a_value_and_a_gradient(self, kind):
        rng = np.random.default_rng(36)
        inner = _oracle_family(kind, rng)
        oracle = CountingOracle(inner)
        x = rng.normal(size=6)
        for _ in range(2):
            f, g, _ = oracle.value_gradient_state(x)
            assert f == inner.value(x) and np.array_equal(g, inner.gradient(x))
        assert oracle.counts() == {"value": 2, "gradient": 2, "hessian_vec": 0, "hessian": 0}

    @pytest.mark.parametrize("kind, shared", [("logsumexp", "_weights"),
                                              ("logistic", "_margins")])
    @pytest.mark.parametrize("reduce", [False, True])
    def test_a_model_build_evaluates_the_center_once(self, monkeypatch, kind, shared, reduce):
        rng = np.random.default_rng(37)
        oracle = _oracle_family(kind, rng)
        calls = []
        inner = getattr(oracle, shared)
        monkeypatch.setattr(oracle, shared, lambda x: calls.append(1) or inner(x))
        model = TensorModel(CountingOracle(oracle), ZeroComposite(6), rng.normal(size=6),
                            H=2.0, p=2)
        if reduce:
            assert model.reduction is not None
        # the dense Hessian reuses the center state
        assert len(calls) == 1
        assert model.oracle.counts()["value"] == model.oracle.counts()["gradient"] == 1

    @staticmethod
    def _spied(monkeypatch, oracle):
        """One entry per state fetch through ``value_gradient_state``."""
        calls = []
        joint = oracle.value_gradient_state

        def spy(x):
            calls.append(1)
            return joint(x)

        monkeypatch.setattr(oracle, "value_gradient_state", spy)
        return calls

    @pytest.mark.parametrize("kind", ["logistic", "logsumexp", "chain-q3"])
    def test_a_model_fetches_the_state_once(self, monkeypatch, kind):
        rng = np.random.default_rng(32)
        oracle = _oracle_family(kind, rng)
        center = rng.normal(size=6)
        dirs = rng.normal(size=(3, 6))
        products = [oracle.hessian_vec(center, d) for d in dirs]
        calls = self._spied(monkeypatch, oracle)
        model = TensorModel(oracle, ZeroComposite(6), center, H=2.0, p=2)
        assert len(calls) == 1
        for d, hd in zip(dirs, products):
            model.value(center + d)
            model.gradient(center + d)
            model.value_and_gradient(center + d)
            assert np.array_equal(model.hess_action(d), hd)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_a_dense_hessian_build_fetches_the_state_once(self, monkeypatch, kind):
        rng = np.random.default_rng(39)
        oracle = _oracle_family(kind, rng)
        center = rng.normal(size=6)
        fresh = tridiagonal_form(oracle.norm.whiten(np.asfortranarray(oracle.hessian(center))))
        calls = self._spied(monkeypatch, oracle)
        model = TensorModel(CountingOracle(oracle), ZeroComposite(6), center, H=2.0, p=2)
        assert model.oracle.counts()["hessian"] == 0
        assert all(np.array_equal(a, b) for a, b in zip(model.reduction, fresh))
        assert len(calls) == 1
        assert model.oracle.counts() == {"value": 1, "gradient": 1, "hessian_vec": 0,
                                         "hessian": 1}

    @pytest.mark.parametrize("q", [3.0, 2.5])
    def test_chain_joint_evaluation_forms_the_differences_once(self, monkeypatch, q):
        rng = np.random.default_rng(38)
        oracle = powered_chain_oracle(6, q, 2.0).smooth
        x = rng.normal(size=6)
        f, g = oracle.value(x), oracle.gradient(x)
        calls = []
        inner = oracle._u
        monkeypatch.setattr(oracle, "_u", lambda x: calls.append(1) or inner(x))
        joint = oracle.value_gradient_state(x)
        assert len(calls) == 1
        assert type(joint[0]) is float and joint[0] == f
        assert np.array_equal(joint[1], g)
        h = rng.normal(size=6)
        assert np.array_equal(oracle.hessian_vec(x, h, joint[2]), oracle.hessian_vec(x, h))

    def test_with_weight_makes_no_oracle_call(self, monkeypatch):
        rng = np.random.default_rng(34)
        oracle = _oracle_family("logsumexp", rng)
        model = TensorModel(oracle, ZeroComposite(6), rng.normal(size=6), H=2.0, p=2)
        d = rng.normal(size=6)
        hd = model.hess_action(d)
        forbid_oracle_calls(monkeypatch, oracle)
        heavier = model.with_weight(8.0)
        monkeypatch.undo()
        assert np.array_equal(heavier.hess_action(d), hd)


def _whitened_family(kind, rng):
    """Oracles under every kind of norm whose whitened Hessian has its own path."""
    if kind.startswith("logsumexp-"):
        norm_kind = kind.split("-", 1)[1]
        if norm_kind == "gram":
            return generate_shifted_logsumexp(6, 36, 0.5, seed=5).smooth
        A = rng.uniform(-1.0, 1.0, size=(30, 6))
        return LogSumExpOracle(A, b=rng.uniform(-1.0, 1.0, size=30), mu=0.5,
                               norm=norm_of_kind(norm_kind, rng, 6))
    if kind == "quadratic-dense":
        M = rng.normal(size=(6, 6))
        return QuadraticOracle(M @ M.T, norm=norm_of_kind("dense", rng, 6))
    return _oracle_family(kind, rng)


class TestHessian:
    """``hessian``, the one Hessian an oracle has: what the model whitens by its
    norm's factor and reduces."""

    @pytest.mark.parametrize("kind", ["logsumexp-gram", "logsumexp-dense", "logsumexp-identity",
                                      "logistic", "logistic-sparse", "chain-q3",
                                      "quadratic-dense", "contracted-logsumexp"])
    def test_whitened_by_the_norm_matches_the_congruence_by_the_cholesky_factor(self, kind):
        rng = np.random.default_rng(50)
        oracle = _whitened_family(kind, rng)
        L = _factor(oracle.norm)
        for _ in range(5):
            x = 0.5 * rng.normal(size=6)
            hess = oracle.hessian(x)
            full = _full(hess)
            ref = scipy.linalg.solve_triangular(
                L, scipy.linalg.solve_triangular(L, full, lower=True).T, lower=True)
            got = oracle.norm.whiten(np.asfortranarray(hess))
            assert np.abs(np.tril(got) - np.tril(ref)).max() <= 1e-13 * np.abs(ref).max()
            # the state gives the same matrix, and the caller owns what it gets
            state = oracle.value_gradient_state(x)[2]
            hess[:] = np.nan
            assert np.array_equal(oracle.hessian(x, state), oracle.hessian(x))

    def test_smoothed_max_blocks_of_rows_add_up_to_one_pass(self, monkeypatch):
        # 36 rows in blocks of 7 (the last one short): the syrk updates run block by block
        rng = np.random.default_rng(52)
        oracle = _whitened_family("logsumexp-dense", rng)
        x = 0.5 * rng.normal(size=6)
        whole = oracle.hessian(x)
        monkeypatch.setattr(linalg, "SYRK_BLOCK_ENTRIES", 7 * 6)
        got = oracle.hessian(x)
        assert np.abs(np.tril(got - whole)).max() <= 1e-14 * np.abs(np.tril(whole)).max()
        assert got.flags.f_contiguous and whole.flags.f_contiguous

    def test_dense_logistic_blocks_of_rows_add_up_to_one_pass(self, monkeypatch):
        # 50 rows in blocks of 7 (the last one short), through the kernel the smoothed
        # max uses
        rng = np.random.default_rng(54)
        oracle = _oracle_family("logistic", rng)
        x = 0.5 * rng.normal(size=6)
        whole = oracle.hessian(x)
        monkeypatch.setattr(linalg, "SYRK_BLOCK_ENTRIES", 7 * 6)
        got = oracle.hessian(x)
        assert np.abs(np.tril(got - whole)).max() <= 1e-14 * np.abs(np.tril(whole)).max()
        assert got.flags.f_contiguous and whole.flags.f_contiguous

    @pytest.mark.parametrize("norm_kind", ["gram", "dense"])
    def test_whitened_rows_in_blocks_add_up_to_one_pass(self, monkeypatch, norm_kind):
        # 36 rows in blocks of 7 (the last one short): the triangular solves that
        # build W for the whitened view run block by block
        rng = np.random.default_rng(52)
        oracle = _whitened_family(f"logsumexp-{norm_kind}", rng)
        whole = oracle.norm.factor_solve(oracle.A)
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 7 * 6)
        got = oracle.whitened(0.5 * rng.normal(size=6)).A
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-14 * np.abs(whole).max())
        # W feeds BLAS matrix-vector products, whose summation order its layout sets
        assert got.flags.c_contiguous and whole.flags.c_contiguous

    def test_smoothed_max_hessian_allocates_no_array_of_its_rows(self):
        # A is 20000 × 40, 6.4 MB; the blocks of sqrt(pi)·A take one reused buffer of
        # SYRK_BLOCK_ENTRIES entries (256 KB), and the result 40 × 40 more
        rng = np.random.default_rng(53)
        A = rng.uniform(-1.0, 1.0, size=(20000, 40))
        oracle = LogSumExpOracle(A, b=rng.uniform(-1.0, 1.0, 20000), mu=1.0,
                                 norm=NormOperator.identity(40))
        x = rng.normal(size=40)
        state = oracle.value_gradient_state(x)[2]
        tracemalloc.start()
        try:
            oracle.hessian(x, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = SYRK_BLOCK_ENTRIES // 40
        # the buffer, the result, one block's square roots, the buffer numpy takes for
        # a broadcast product and 4 KB of Python objects: 343 KB
        assert peak <= 8 * (SYRK_BLOCK_ENTRIES + 40 * 40 + rows + np.getbufsize()) + 4096

    def test_dense_logistic_hessian_allocates_no_array_of_its_rows(self):
        # X is 20000 × 40, 6.4 MB; scaling all of it by √w at once took one more such
        # array per call
        rng = np.random.default_rng(55)
        X = rng.uniform(-1.0, 1.0, size=(20000, 40))
        oracle = LogisticOracle(X, np.where(rng.random(20000) < 0.5, -1.0, 1.0), l2=0.1)
        assert isinstance(oracle.X, np.ndarray)
        x = rng.normal(size=40)
        state = oracle.value_gradient_state(x)[2]
        tracemalloc.start()
        try:
            H = oracle.hessian(x, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.flags.f_contiguous
        assert peak < X.nbytes

    def test_smoothed_max_builds_the_whitened_rows_once_and_never_uses_them_elsewhere(self):
        rng = np.random.default_rng(51)
        oracle = generate_shifted_logsumexp(6, 36, 0.5, seed=5).smooth
        x, h = rng.normal(size=6), rng.normal(size=6)
        before = (oracle.value(x), oracle.gradient(x), oracle.hessian_vec(x, h),
                  oracle.hessian(x))
        assert oracle._rows is None
        view = oracle.whitened(x)
        rows = oracle._rows
        assert view.A is rows
        # W = A L⁻ᵀ: the whitened Gram matrix of the rows is the identity
        np.testing.assert_allclose(rows.T @ rows, np.eye(6), atol=1e-13)
        assert oracle.whitened(h).A is rows
        after = (oracle.value(x), oracle.gradient(x), oracle.hessian_vec(x, h),
                 oracle.hessian(x))
        assert before[0] == after[0]
        assert all(np.array_equal(u, v) for u, v in zip(before[1:], after[1:]))


def _factor(norm):
    """The Cholesky factor L of the norm's matrix B = L Lᵀ, formed in the test."""
    return np.linalg.cholesky(norm_matrix(norm))


class TestWhitenedView:
    """``ProblemInstance.whitened(origin)``: z ↦ F(origin + L⁻ᵀz) under the identity
    norm, checked against L from ``np.linalg.cholesky`` of the norm's matrix."""

    @pytest.mark.parametrize("kind", ["logsumexp-gram", "logsumexp-dense"])
    def test_matches_the_change_of_variables(self, kind):
        rng = np.random.default_rng(60)
        oracle = _whitened_family(kind, rng)
        L = _factor(oracle.norm)
        origin = 0.5 * rng.normal(size=6)
        view = ProblemInstance(oracle, ZeroComposite(6)).whitened(origin).smooth
        assert view.norm.kind == "identity" and view.lipschitz == oracle.lipschitz
        assert isinstance(view, LogSumExpOracle)

        def rel(got, ref):
            return np.abs(got - ref).max() / max(1.0, np.abs(ref).max())

        for _ in range(5):
            z, h = 0.5 * rng.normal(size=6), rng.normal(size=6)
            x = origin + scipy.linalg.solve_triangular(L, z, lower=True, trans=1)
            hess = _full(oracle.hessian(x))
            back = scipy.linalg.solve_triangular(L, h, lower=True, trans=1)
            assert view.value(z) == pytest.approx(oracle.value(x), rel=1e-12)
            assert rel(view.gradient(z),
                       scipy.linalg.solve_triangular(L, oracle.gradient(x), lower=True)) <= 1e-12
            ref_hv = scipy.linalg.solve_triangular(L, hess @ back, lower=True)
            assert rel(view.hessian_vec(z, h), ref_hv) <= 1e-12
            ref_wh = scipy.linalg.solve_triangular(
                L, scipy.linalg.solve_triangular(L, hess, lower=True).T, lower=True)
            assert rel(np.tril(view.hessian(z)), np.tril(ref_wh)) <= 1e-12
            # the joint evaluation and its state give the same numbers
            f, g, state = view.value_gradient_state(z)
            assert f == view.value(z) and np.array_equal(g, view.gradient(z))
            assert np.array_equal(view.hessian_vec(z, h, state), view.hessian_vec(z, h))
            assert np.array_equal(view.hessian(z, state), view.hessian(z))
        assert check_derivatives(view, trials=10).passed

    @pytest.mark.parametrize("make", [
        lambda: powered_chain_oracle(5),
        lambda: synthetic_logistic(5, 30, 0.1, seed=0),
        lambda: ProblemInstance(LogSumExpOracle(np.eye(5), norm=NormOperator.identity(5)),
                                ZeroComposite(5)),
    ])
    def test_an_identity_norm_instance_is_its_own_view(self, make):
        prob = make()
        assert prob.whitened(np.ones(5)) is prob

    @pytest.mark.parametrize("composite", ["zero", "quadratic"])
    def test_an_oracle_without_a_view_leaves_the_instance_as_it_is(self, composite):
        rng = np.random.default_rng(63)
        oracle = _whitened_family("quadratic-dense", rng)
        psi = (ZeroComposite(6) if composite == "zero"
               else PowerComposite(0.5, 2.0, rng.normal(size=6), oracle.norm))
        assert psi.whitened(oracle.norm, np.ones(6)) is not None
        prob = ProblemInstance(oracle, psi)
        assert prob.whitened(np.ones(6)) is prob

    def test_a_composite_without_a_view_leaves_the_instance_as_it_is(self):
        # the composite is asked first, so the smoothed max whitens no rows
        prob = generate_shifted_logsumexp(6, 36, 0.5, seed=2)
        other = NormOperator.gram(prob.smooth.A)
        prob = ProblemInstance(prob.smooth, PowerComposite(0.5, 2.0, np.zeros(6), other))
        assert prob.whitened(np.ones(6)) is prob
        assert prob.smooth._rows is None

    def test_smoothed_max_view_starts_at_the_value_of_the_origin_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for seed in range(4):
            prob = generate_shifted_logsumexp(8, 48, 0.5, seed=seed)
            for origin in (np.ones(8), rng.normal(size=8), np.eye(8)[0]):
                view = prob.whitened(origin)
                assert view.value(np.zeros(8)) == prob.value(origin)

    def test_known_optimum_maps_into_the_factor_coordinates(self):
        prob = generate_shifted_logsumexp(6, 36, 0.5, seed=3)
        origin = np.linspace(-1.0, 1.0, 6)
        view = prob.whitened(origin)
        z_star, f_star = view.known_optimum
        L = _factor(prob.norm)
        np.testing.assert_allclose(z_star, L.T @ (prob.known_optimum[0] - origin), rtol=1e-13)
        assert f_star == prob.known_optimum[1]
        assert view.value(z_star) == pytest.approx(f_star, rel=1e-14)
        # the view is the smoothed max over the rows the instance's oracle caches
        assert view.smooth.A is prob.smooth._rows

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_power_composite_keeps_value_gradient_and_convexity(self, q):
        rng = np.random.default_rng(62)
        norm = norm_of_kind("dense", rng, 5)
        psi = PowerComposite(0.7, q, rng.normal(size=5), norm)
        origin = rng.normal(size=5)
        view = psi.whitened(norm, origin)
        assert isinstance(view, PowerComposite) and view.norm.kind == "identity"
        L = _factor(norm)
        for _ in range(5):
            z = rng.normal(size=5)
            x = origin + scipy.linalg.solve_triangular(L, z, lower=True, trans=1)
            assert view.value(z) == pytest.approx(psi.value(x), rel=1e-12)
            np.testing.assert_allclose(
                view.gradient(z), scipy.linalg.solve_triangular(L, psi.gradient(x), lower=True),
                rtol=1e-11, atol=1e-13)
            v, g = view.value_and_gradient(z)
            assert v == view.value(z) and np.array_equal(g, view.gradient(z))
        for degree in (2, 3, 4):
            assert view.uniform_convexity(degree) == psi.uniform_convexity(degree)
        if q == 2.0:
            mu, center = view.quadratic_coeff
            assert mu == psi.mu
            np.testing.assert_allclose(center, L.T @ (psi.center - origin), rtol=1e-13)
        else:
            assert view.quadratic_coeff is None
        zero = ZeroComposite(5)
        assert zero.whitened(norm, origin) is zero

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_a_power_composite_on_another_norm_has_no_view(self, q):
        # an equal operator built apart is another norm object
        rng = np.random.default_rng(62)
        A = rng.normal(size=(10, 5))
        psi = PowerComposite(0.7, q, rng.normal(size=5), NormOperator.gram(A))
        assert psi.whitened(NormOperator.gram(A), rng.normal(size=5)) is None
