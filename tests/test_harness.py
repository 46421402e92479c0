import hashlib
import math

import numpy as np
import pytest

from qsts import harness
from qsts.errors import DegenerateSamples, InputError, NonConvergence, NotPSD, RangeError
from qsts.harness import (
    RngStream,
    _norm_cdf,
    ks_critical,
    ks_statistic,
    mc_run,
    normality_check,
)

from oracles import kolmogorov_quantile_mp, norm_cdf_mp, stream_correlation


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 5).generator().standard_normal(10)
        b = RngStream(123, 5).generator().standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 1).generator().standard_normal(10)
        b = RngStream(123, 2).generator().standard_normal(10)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("path", [(-3, 0), (3, -1)])
    def test_negative_seed_or_stream_is_a_range_error(self, path):
        # SeedSequence's own refusal was a bare ValueError
        stream = RngStream(*path)
        with pytest.raises(RangeError, match="non-negative"):
            stream.generator()

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
        assert out.replicates == rows.shape[0] == 700
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

    def test_rows_of_different_lengths_refused(self):
        # numpy's own stacking error ("inhomogeneous shape") is not the documented one
        with pytest.raises(InputError, match="fixed length") as info:
            mc_run(lambda s: np.zeros(1 + s.stream_id % 2), 4, seed=1)
        assert info.value.exit_code == 1

    def test_matrix_rows_refused(self):
        with pytest.raises(InputError, match="fixed length"):
            mc_run(lambda s: np.zeros((2, 2)), 4, seed=1)

    def test_scalar_rows_are_one_column(self):
        out, rows = mc_run(lambda s: float(s.stream_id), 3, seed=1, collect=True)
        np.testing.assert_array_equal(rows, [[1.0], [2.0], [3.0]])
        assert out.mean.shape == (1,)

    def test_blocked_pipeline_rows_are_pinned(self):
        # the benchmark's chain at n = 4096 (409 blocks of m = 9), whose bytes the
        # golden corpus, pinned at n = 64, does not reach
        from qsts import estimators, measurement, spectral

        a, d = spectral.parse_density("cos:2,0.5"), 1
        scheme, space = measurement.block_scheme(4096, d), spectral.theta2prime_space(d, 5.0)
        theta = spectral.RealParam.from_density(a, d=d).theta
        m, root_rm = scheme.m, math.sqrt(scheme.r * scheme.m)

        def replicate(stream):
            pi_bar = measurement.sample_pi_blocks(a, scheme, stream).pi_bar
            projected = estimators.project_theta(
                estimators.preliminary_estimator(pi_bar, m, d), space)
            return root_rm * (estimators.improved_estimator(pi_bar, projected, m, d) - theta)

        _, rows = mc_run(replicate, 500, seed=2 ** 20, collect=True)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "09c4e63ec45b634662dc6e1f8e2d6f0b408e428d9d289a7a65c92400decb7d67")


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

    def test_one_dimensional_samples_are_one_coordinate(self):
        samples = np.random.default_rng(17).standard_normal(600)
        one = normality_check(samples, 1.0)
        column = normality_check(samples[:, None], np.eye(1))
        assert one.frob_rel_err == column.frob_rel_err and one.passed == column.passed
        np.testing.assert_array_equal(one.ks_stats, column.ks_stats)
        assert len(one.ks_stats) == 1

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


class TestNormalityCheckRefusals:
    """Each refusal names its qsts error; the CLI exits with that error's code."""

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_ks_alpha_outside_the_open_unit_interval(self, alpha):
        # three times the target's s.d.: at alpha = 0 the critical value was inf and this passed
        wide = 3.0 * np.random.default_rng(11).standard_normal((2000, 1))
        with pytest.raises(RangeError, match="0 < alpha < 1"):
            normality_check(wide, np.eye(1), frob_tol=100.0, ks_alpha=alpha)
        with pytest.raises(RangeError, match="0 < alpha < 1"):
            ks_critical(500, alpha)

    def test_too_few_samples(self):
        samples = np.random.default_rng(15).standard_normal((499, 1))
        with pytest.raises(RangeError, match="at least 500 samples"):
            normality_check(samples, np.eye(1))

    def test_target_of_the_wrong_shape(self):
        samples = np.random.default_rng(16).standard_normal((600, 2))
        with pytest.raises(InputError, match="wrong shape"):
            normality_check(samples, np.eye(3))

    @pytest.mark.parametrize("n", [0, -1])
    def test_ks_critical_needs_a_sample(self, n):
        with pytest.raises(RangeError, match="n >= 1"):
            ks_critical(n, 0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample(self, bad):
        samples = np.random.default_rng(12).standard_normal((600, 2))
        samples[17, 1] = bad
        with pytest.raises(DegenerateSamples, match="not finite"):
            normality_check(samples, np.eye(2))
        assert DegenerateSamples.exit_code == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target(self, bad):
        samples = np.random.default_rng(13).standard_normal((600, 2))
        target = np.eye(2)
        target[0, 1] = target[1, 0] = bad
        with pytest.raises(InputError, match="non-finite"):
            normality_check(samples, target)
        assert InputError.exit_code == 1

    @pytest.mark.parametrize("diagonal", [-1.0, 0.0])
    def test_target_diagonal_not_positive(self, diagonal):
        # a negative diagonal raised a bare ValueError (math domain error)
        samples = np.random.default_rng(14).standard_normal((600, 2))
        with pytest.raises(NotPSD, match="diagonal"):
            normality_check(samples, np.diag([1.0, diagonal]))
        assert NotPSD.exit_code == 2


class TestClosedForms:
    """The normal cdf and the Kolmogorov quantile against 40 digits and scipy."""

    GRID = np.linspace(-38.0, 9.0, 941)

    def test_norm_cdf_against_40_digits(self):
        # the rounding of x sqrt(1/2) costs up to x^2 ulp; below x = -37.5 the cdf is subnormal
        for x, cdf in zip(self.GRID.tolist(), _norm_cdf(self.GRID).tolist()):
            exact = norm_cdf_mp(x)
            assert abs(cdf - exact) <= 4e-16 * (1.0 + x * x) * exact + 1e-320, x

    def test_norm_cdf_against_ndtr(self):
        from scipy.special import ndtr
        grid = self.GRID[self.GRID >= -37.0]
        cdf, ref = _norm_cdf(grid), ndtr(grid)
        assert np.all(np.abs(cdf - ref) <= 8e-16 * (1.0 + grid * grid) * ref)

    def test_norm_cdf_keeps_shape_and_limits(self):
        x = np.array([[0.0, -0.0], [math.inf, -math.inf]])
        assert _norm_cdf(x).tolist() == [[0.5, 0.5], [1.0, 0.0]]
        assert math.isnan(_norm_cdf(np.array([math.nan]))[0])

    ALPHAS = (10.0 ** -np.linspace(300.0, 0.31, 61)).tolist() + \
        (1.0 - 10.0 ** -np.linspace(9.0, 0.31, 61)).tolist() + [0.5]

    def test_quantile_is_the_exact_root(self):
        from scipy.special import kolmogi
        for alpha in self.ALPHAS:
            x = ks_critical(1, alpha)
            exact = kolmogorov_quantile_mp(alpha)
            assert abs(x - exact) <= 1e-14 * exact, alpha
            assert x == pytest.approx(float(kolmogi(alpha)), rel=1e-14), alpha

    @pytest.mark.parametrize("alpha", [0.01, 1e-6])
    def test_quantile_is_kolmogi_at_the_levels_in_use(self, alpha):
        from scipy.special import kolmogi
        assert ks_critical(1, alpha) == float(kolmogi(alpha))
        assert ks_critical(2000, alpha) == float(kolmogi(alpha)) / math.sqrt(2000)

    def test_quantile_in_the_subnormal_tail(self):
        # past x = 4 the start is the root; the tail of the least double is still finite
        for alpha in (1e-310, 5e-324):
            exact = kolmogorov_quantile_mp(alpha)
            assert abs(ks_critical(1, alpha) - exact) <= 1e-15 * exact, alpha

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_exhausted_quantile_budget_raises(self, monkeypatch, steps):
        monkeypatch.setattr(harness, "_QUANTILE_STEPS", steps)
        with pytest.raises(NonConvergence, match=f"in {steps} steps"):
            ks_critical(1, 0.01)
