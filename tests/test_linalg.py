import warnings

import numpy as np
import pytest

from agenda import linalg
from agenda.errors import DimensionError, NumericError, ValidationError


def naive_covariance(x):
    # independent two-pass double-loop oracle
    n, d = x.shape
    mean = [sum(x[i][j] for i in range(n)) / n for j in range(d)]
    cov = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            cov[a, b] = sum(
                (x[i][a] - mean[a]) * (x[i][b] - mean[b]) for i in range(n)
            ) / (n - 1)
    return cov, np.asarray(mean)


class TestCovariance:
    def test_two_symmetric_points(self):
        cov, mean = linalg.covariance(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(cov, [[2.0, 0.0], [0.0, 0.0]])
        assert np.allclose(mean, [0.0, 0.0])

    def test_identical_rows_zero_matrix(self):
        cov, _ = linalg.covariance(np.tile([3.0, -1.0, 2.0], (4, 1)))
        assert np.all(cov == 0.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 3))
        cov, mean = linalg.covariance(x)
        ocov, omean = naive_covariance(x)
        assert np.max(np.abs(cov - ocov)) < 1e-12
        assert np.max(np.abs(mean - omean)) < 1e-12

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cov, _ = linalg.covariance(rng.normal(size=(20, 6)))
            eigvals = linalg.eigh(cov).eigenvalues
            assert eigvals.min() >= -1e-9

    def test_single_row_rejected(self):
        with pytest.raises(DimensionError):
            linalg.covariance(np.ones((1, 3)))


class TestEigh:
    def test_analytic_2x2(self):
        d = linalg.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(d.eigenvalues, [3.0, 1.0])
        v0, v1 = d.eigenvectors
        assert np.allclose(np.abs(v0), [1, 1] / np.sqrt(2))
        assert np.allclose(np.abs(v1), [1, 1] / np.sqrt(2))
        assert abs(abs(v0 @ v1)) < 1e-12

    def test_identity_matrix(self):
        d = linalg.eigh(np.eye(5))
        assert np.allclose(d.eigenvalues, 1.0)
        assert np.allclose(d.eigenvectors @ d.eigenvectors.T, np.eye(5), atol=1e-8)

    def test_descending_order_and_trace(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8))
        a = (a + a.T) / 2
        d = linalg.eigh(a)
        assert np.all(np.diff(d.eigenvalues) <= 1e-12)
        assert abs(d.eigenvalues.sum() - np.trace(a)) < 1e-9

    def test_invariants_random_sizes(self):
        rng = np.random.default_rng(123)
        for n in (2, 3, 17, 64, 128):
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2
            d = linalg.eigh(a)
            v = d.eigenvectors
            assert np.max(np.abs(v @ v.T - np.eye(n))) < 1e-8
            residual = a @ v.T - v.T * d.eigenvalues
            bound = 1e-6 * np.maximum(1.0, np.abs(d.eigenvalues))
            assert np.all(np.abs(residual).max(axis=0) < bound)
            recon = (v.T * d.eigenvalues) @ v
            assert np.max(np.abs(a - recon)) < 1e-6

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            linalg.eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_numeric_error(self, bad):
        # a NaN skew compares false against the symmetry tolerance
        with pytest.raises(NumericError):
            linalg.eigh(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_lapack_failure_is_numeric_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericError):
            linalg.eigh(np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.eigh(np.ones((2, 3)))

    def test_sign_canonicalization_deterministic(self):
        a = np.diag([3.0, 2.0, 1.0])
        d = linalg.eigh(a)
        peak = np.argmax(np.abs(d.eigenvectors), axis=1)
        assert np.all(d.eigenvectors[np.arange(3), peak] > 0)


class TestAverageRanks:
    def test_matches_the_counting_definition(self):
        # A number's rank is #less + (#equal + 1) / 2 among the numbers
        # (-0.0 equals 0.0); NaNs take the ranks after them, in input order.
        rng = np.random.default_rng(13)
        pools = ([0.0, -0.0, 1.0, -2.5], [0.0, np.nan, -0.0, 3.0, np.inf, -np.inf])
        for n in (1, 2, 17, 40, 300):
            for pool in pools + (rng.normal(size=n),):
                v = rng.choice(pool, size=n)
                nan = np.isnan(v)
                numbers = v[~nan]
                expected = np.array([np.sum(numbers < x) + (np.sum(numbers == x) + 1) / 2
                                     for x in v])
                expected[nan] = len(numbers) + 1 + np.arange(np.count_nonzero(nan))
                assert np.array_equal(linalg.average_ranks(v), expected), v


class TestSpearman:
    def test_hand_computed_tie_case(self):
        assert linalg.spearman([1, 2, 3], [0, 0, 1]) == pytest.approx(1.5 / np.sqrt(3))

    def test_monotone_perfect(self):
        assert linalg.spearman([1, 2, 5], [10, 20, 500]) == pytest.approx(1.0)

    def test_constant_labels_degenerate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0.0 by convention, and silently
            assert linalg.spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) == 0.0

    def test_symmetry_and_negation(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=40)
        labels = rng.permutation(40).astype(float)  # no ties
        assert linalg.spearman(v, labels) == pytest.approx(linalg.spearman(labels, v))
        assert linalg.spearman(v, -labels) == pytest.approx(-linalg.spearman(v, labels))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            v = rng.normal(size=25)
            labels = rng.integers(0, 2, size=25).astype(float)
            base = linalg.spearman(v, labels)
            assert linalg.spearman(np.exp(v), labels) == pytest.approx(base)
            assert linalg.spearman(v**3, 10 * labels - 4) == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.spearman([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            linalg.spearman([1, 2], [1, 2])

    def test_range_clipped(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.normal(size=10)
            w = rng.normal(size=10)
            assert -1.0 <= linalg.spearman(v, w) <= 1.0
