import math

import numpy as np
import pytest

from qsts.errors import DegenerateSamples, RangeError
from qsts.harness import (
    RngStream,
    as_generator,
    ks_critical,
    ks_statistic,
    mc_run,
    normality_check,
)

from oracles import stream_correlation


class TestRngStream:
    def test_as_generator(self):
        a = as_generator(RngStream(123, 5)).standard_normal(10)
        b = RngStream(123, 5).generator().standard_normal(10)
        np.testing.assert_array_equal(a, b)
        gen = np.random.default_rng(1)
        assert as_generator(gen) is gen

    def test_reproducible(self):
        a = RngStream(123, 5).generator().standard_normal(10)
        b = RngStream(123, 5).generator().standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 1).generator().standard_normal(10)
        b = RngStream(123, 2).generator().standard_normal(10)
        assert not np.allclose(a, b)

    def test_pairwise_correlation_smoke(self):
        worst = stream_correlation(2024, ids=[1, 2, 3], n=10 ** 6)
        assert worst < 5.0 / math.sqrt(10 ** 6)


class TestMcRun:
    def test_constant_sampler(self):
        out = mc_run(lambda s: np.array([1.0]), 100, seed=1)
        assert out.mean[0] == 1.0 and out.se[0] == 0.0

    def test_standard_normal_mean(self):
        out = mc_run(lambda s: s.generator().standard_normal(1), 10 ** 4, seed=3)
        assert abs(out.mean[0]) < 4.0 / math.sqrt(10 ** 4)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_summary_is_numpy_reduction(self, dim):
        def sampler(s):
            return s.generator().standard_normal(dim) + 10.0

        out, rows = mc_run(sampler, 700, seed=19, collect=True)
        c = rows - rows.mean(0)
        np.testing.assert_array_equal(out.mean, rows.mean(0))
        np.testing.assert_array_equal(out.cov, c.T @ c / (rows.shape[0] - 1))
        # against exactly rounded column sums, to the accuracy of float64
        exact = np.array([math.fsum(col) for col in rows.T]) / rows.shape[0]
        np.testing.assert_allclose(out.mean, exact, rtol=1e-14)

    def test_covariance_psd_symmetric(self):
        out = mc_run(lambda s: s.generator().standard_normal(3), 2000, seed=5)
        np.testing.assert_allclose(out.cov, out.cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(out.cov)[0] > -1e-12

    def test_minimum_replicates(self):
        with pytest.raises(RangeError):
            mc_run(lambda s: np.array([0.0]), 1, seed=1)


class TestNormalityCheck:
    def test_samples_from_target_pass(self):
        rng = np.random.default_rng(6)
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        L = np.linalg.cholesky(cov)
        samples = rng.standard_normal((4000, 2)) @ L.T
        rep = normality_check(samples, cov)
        assert rep.passed
        assert rep.frob_rel_err < 5.0 * math.sqrt(2.0 / 4000) * 2

    def test_shifted_distribution_fails_ks(self):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-2, 2, size=(3000, 1))  # wrong shape entirely
        rep = normality_check(samples, np.array([[4.0 / 3.0]]))
        assert not rep.passed and rep.ks_stats[0] >= rep.ks_critical

    def test_zero_variance_coordinate(self):
        samples = np.zeros((1000, 2))
        samples[:, 0] = np.random.default_rng(0).standard_normal(1000)
        with pytest.raises(DegenerateSamples):
            normality_check(samples, np.eye(2))

    def test_ks_statistic_uniform(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, size=5000)
        d = ks_statistic(x, lambda t: np.clip(t, 0, 1))
        assert d < ks_critical(5000, 0.01)

    def test_coverage_of_4se_interval(self):
        # over 100 repeated audits the 4 SE interval holds >= 99% of the time
        hits = 0
        for i in range(100):
            out = mc_run(lambda s: s.generator().standard_normal(1), 400, seed=100 + i)
            hits += abs(out.mean[0]) <= 4 * out.se[0]
        assert hits >= 99


class TestSummarySerialization:
    def test_json_round_trip_fields(self):
        out = mc_run(lambda s: s.generator().standard_normal(2), 300, seed=2)
        obj = out.to_json()
        assert obj["replicates"] == 300
        assert len(obj["mean"]) == 2 and len(obj["cov"]) == 2
