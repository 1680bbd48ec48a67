"""Unit tests for the three normality tests, validated against SciPy."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats.anderson import CRITICAL_VALUES, anderson_darling
from repro.stats.dagostino import dagostino_k2, kurtosis_test, skewness_test
from repro.stats.shapiro import shapiro_weights, shapiro_wilk


@pytest.fixture(scope="module")
def normal_batch():
    return np.random.default_rng(7).normal(size=(150, 48))


@pytest.fixture(scope="module")
def exponential_batch():
    return np.random.default_rng(8).exponential(size=(150, 48))


class TestDAgostino:
    def test_matches_scipy_normaltest(self, normal_batch):
        result = dagostino_k2(normal_batch)
        expected = np.array([scipy_stats.normaltest(row) for row in normal_batch])
        np.testing.assert_allclose(result.statistic, expected[:, 0], rtol=1e-10)
        np.testing.assert_allclose(result.pvalue, expected[:, 1], rtol=1e-8, atol=1e-12)

    def test_component_tests_match_scipy(self, normal_batch):
        z_skew, p_skew = skewness_test(normal_batch)
        z_kurt, p_kurt = kurtosis_test(normal_batch)
        expected_skew = np.array([scipy_stats.skewtest(row) for row in normal_batch])
        expected_kurt = np.array([scipy_stats.kurtosistest(row) for row in normal_batch])
        np.testing.assert_allclose(z_skew, expected_skew[:, 0], rtol=1e-10)
        np.testing.assert_allclose(p_skew, expected_skew[:, 1], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(z_kurt, expected_kurt[:, 0], rtol=1e-10)
        np.testing.assert_allclose(p_kurt, expected_kurt[:, 1], rtol=1e-8, atol=1e-12)

    def test_pass_rate_near_alpha_for_normal_data(self, normal_batch):
        assert dagostino_k2(normal_batch).passes(0.05).mean() > 0.85

    def test_rejects_exponential_data(self, exponential_batch):
        assert dagostino_k2(exponential_batch).passes(0.05).mean() < 0.05

    def test_single_group_1d_input(self):
        data = np.random.default_rng(0).normal(size=48)
        result = dagostino_k2(data)
        assert np.isscalar(result.statistic) or result.statistic.shape == ()

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            dagostino_k2(np.zeros((2, 5)))


class TestShapiroWilk:
    def test_matches_scipy(self, normal_batch):
        result = shapiro_wilk(normal_batch)
        expected = np.array([scipy_stats.shapiro(row) for row in normal_batch])
        np.testing.assert_allclose(result.statistic, expected[:, 0], atol=5e-8)
        np.testing.assert_allclose(result.pvalue, expected[:, 1], atol=5e-6)

    def test_weights_are_antisymmetric_and_normalised(self):
        weights = shapiro_weights(48)
        np.testing.assert_allclose(weights, -weights[::-1], atol=1e-12)
        assert np.sum(weights**2) == pytest.approx(1.0, abs=5e-3)

    def test_rejects_exponential_data(self, exponential_batch):
        assert shapiro_wilk(exponential_batch).passes(0.05).mean() < 0.05

    def test_constant_group_counts_as_rejection(self):
        groups = np.vstack([np.full(48, 5.0), np.random.default_rng(0).normal(size=48)])
        result = shapiro_wilk(groups)
        assert result.pvalue[0] == 0.0
        assert result.pvalue[1] > 0.0

    def test_small_sample_branch(self):
        data = np.random.default_rng(1).normal(size=(20, 8))
        result = shapiro_wilk(data)
        expected = np.array([scipy_stats.shapiro(row) for row in data])
        np.testing.assert_allclose(result.statistic, expected[:, 0], atol=1e-3)

    def test_invalid_sample_sizes(self):
        with pytest.raises(ValueError):
            shapiro_weights(2)
        with pytest.raises(ValueError):
            shapiro_weights(5001)


class TestAndersonDarling:
    def test_raw_statistic_matches_scipy(self, normal_batch):
        result = anderson_darling(normal_batch)
        expected = np.array(
            [
                scipy_stats.anderson(row, method="interpolate").statistic
                for row in normal_batch
            ]
        )
        np.testing.assert_allclose(result.raw_statistic, expected, rtol=1e-9)

    def test_corrected_statistic_relation(self, normal_batch):
        result = anderson_darling(normal_batch)
        n = normal_batch.shape[-1]
        factor = 1.0 + 0.75 / n + 2.25 / n**2
        np.testing.assert_allclose(
            result.statistic, result.raw_statistic * factor, rtol=1e-12
        )

    def test_critical_value_table_matches_scipy(self):
        assert CRITICAL_VALUES[5.0] == pytest.approx(0.787)
        assert list(CRITICAL_VALUES) == [15.0, 10.0, 5.0, 2.5, 1.0]

    def test_pass_rate_near_alpha_for_normal_data(self, normal_batch):
        assert anderson_darling(normal_batch).passes(0.05).mean() > 0.85

    def test_rejects_exponential_data(self, exponential_batch):
        assert anderson_darling(exponential_batch).passes(0.05).mean() < 0.05

    def test_extreme_statistic_has_zero_pvalue(self):
        # two populations 1000 sigma apart: hugely non-normal
        group = np.concatenate([np.zeros(24), np.full(24, 1000.0)])
        group += np.random.default_rng(0).normal(0, 1e-3, size=48)
        result = anderson_darling(group[np.newaxis, :])
        assert result.pvalue[0] < 1e-6
        assert not result.passes(0.05)[0]

    def test_pvalue_monotone_in_statistic(self):
        rng = np.random.default_rng(3)
        batch = np.vstack(
            [rng.normal(size=48), rng.exponential(size=48), rng.pareto(1.0, size=48)]
        )
        result = anderson_darling(batch)
        order = np.argsort(result.statistic)
        sorted_p = result.pvalue[order]
        assert np.all(np.diff(sorted_p) <= 1e-12)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            anderson_darling(np.zeros((1, 5)))
