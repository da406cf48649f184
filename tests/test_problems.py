import math
import os

import numpy as np
import pytest
import scipy.sparse

from tensoropt.linalg import NormOperator
from tensoropt.problems import (
    Dataset,
    LogisticOracle,
    LogSumExpOracle,
    PowerComposite,
    QuadraticComposite,
    QuadraticOracle,
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
    return Dataset(scipy.sparse.csr_matrix(X), y)


class TestLogistic:
    def test_value_at_zero_is_log_two(self):
        rng = np.random.default_rng(0)
        oracle = logistic_oracle(_dataset(rng))
        assert oracle.value(np.zeros(6)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_scalar_identity(self):
        data = Dataset(scipy.sparse.csr_matrix(np.array([[1.0]])), np.array([1.0]))
        oracle = logistic_oracle(data)
        for t in (-2.0, -0.3, 0.0, 1.5, 4.0):
            x = np.array([t])
            assert oracle.value(x) == pytest.approx(math.log(1.0 + math.exp(-t)), rel=1e-12)
            assert oracle.gradient(x)[0] == pytest.approx(-1.0 / (1.0 + math.exp(t)), rel=1e-10)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(1)
        oracle = logistic_oracle(_dataset(rng), l2=0.1)
        report = check_derivatives(oracle, trials=25, seed=2, tol=1e-5)
        assert report.passed, (report.max_gradient_error, report.max_hessian_vec_error)

    def test_convexity_sampled(self):
        rng = np.random.default_rng(3)
        oracle = logistic_oracle(_dataset(rng))
        for _ in range(30):
            x = rng.normal(size=6)
            y = rng.normal(size=6)
            lower = oracle.value(x) + oracle.gradient(x) @ (y - x)
            assert oracle.value(y) >= lower - 1e-10

    def test_lipschitz_constant_dominates_sampled_third_derivative(self):
        rng = np.random.default_rng(4)
        oracle = logistic_oracle(_dataset(rng, m=60, n=8))
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
        Hmat = oracle.hessian(x)
        for _ in range(5):
            h = rng.normal(size=4)
            np.testing.assert_allclose(Hmat @ h, oracle.hessian_vec(x, h), atol=1e-12)


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

    def test_requires_m_at_least_n(self):
        with pytest.raises(ValueError):
            generate_shifted_logsumexp(10, 5, 1.0, seed=0)


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
        M = prob.smooth.M
        np.testing.assert_allclose(prob.smooth.hessian(x), 2.0 * M.T @ M, atol=1e-12)

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

    def test_quadratic_coeff_detection(self):
        norm = NormOperator.identity(2)
        quad = QuadraticComposite(0.7, np.zeros(2), norm)
        mu, center = quad.quadratic_coeff
        assert mu == 0.7
        cubic = PowerComposite(0.7, 3.0, np.zeros(2), norm)
        assert cubic.quadratic_coeff is None


class TestParseLibsvm:
    def test_basic_lines(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("1 3:0.5 7:1\n-1\n")
        data = parse_libsvm(path)
        assert data.m == 2 and data.n == 7
        assert data.labels.tolist() == [1.0, -1.0]
        row = data.features.getrow(0).toarray().ravel()
        assert row[2] == 0.5 and row[6] == 1.0
        assert data.features.getrow(1).nnz == 0

    def test_label_mapping_two_classes(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("2 1:1\n1 1:2\n2 2:1\n")
        data = parse_libsvm(path)
        assert sorted(set(data.labels.tolist())) == [-1.0, 1.0]
        assert data.labels[1] == -1.0  # smaller label value maps to -1

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

    @pytest.mark.skipif(not os.path.exists(MUSHROOMS), reason="dataset file not present")
    def test_mushrooms_dimensions(self):
        data = parse_libsvm(MUSHROOMS)
        assert data.m == 8124 and data.n == 112


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


def test_fd_directional_hessian_on_quadratic():
    rng = np.random.default_rng(18)
    M = rng.normal(size=(4, 4))
    A = M @ M.T
    oracle = QuadraticOracle(A)
    x = rng.normal(size=4)
    h = rng.normal(size=4)
    np.testing.assert_allclose(fd_directional_hessian(oracle.gradient, x, h), A @ h,
                               rtol=1e-7, atol=1e-9)
