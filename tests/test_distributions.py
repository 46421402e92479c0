import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from qsts import distributions, spectral
from qsts.distributions import (
    chernoff_geo,
    chernoff_geo_inf,
    chernoff_quantum,
    chernoff_quantum_inf,
    geo_sample,
    geo_stats,
    hellinger_geo,
    hellinger_geo_exact,
    nb_hellinger_bound_shapes,
    nb_hellinger_bound_symbols,
    nb_sample,
    varstab_arccosh,
    varstab_ode_residual,
)
from qsts.errors import NonConvergence, NotPSD, RangeError
from qsts.spectral import SpectralDensity, eval_density

from oracles import (
    NegBinomial,
    chernoff_geo_mp,
    gaussian_square_cov,
    geo_kl_mp,
    geo_l1,
    hellinger_geo_mp,
    nb_hellinger_bound_shapes_mp,
    nb_hellinger_exact,
    score,
)


def geo_pmf(a, k):
    p = (a - 1) / (a + 1)
    return (1 - p) * p ** k


def series_bhattacharyya_geo(a0, a1, t, terms=10_000):
    """Oracle: sum_k q0(k)^t q1(k)^(1-t) by brute force."""
    k = np.arange(terms)
    return float(np.sum(geo_pmf(a0, k) ** t * geo_pmf(a1, k) ** (1 - t)))


class TestGeoStats:
    def test_a3(self):
        s = geo_stats(3.0)
        assert s.p == 0.5 and s.mean == 1.0 and s.var == 2.0
        assert s.fisher_j == pytest.approx(0.125)

    def test_sqrt2(self):
        assert geo_stats(math.sqrt(2.0)).fisher_j == pytest.approx(1.0)

    def test_empirical_variance(self):
        rng = np.random.default_rng(1234)
        draws = geo_sample(0.5, rng, size=10 ** 6)
        se = math.sqrt(stats.moment(draws, 4) / 10 ** 6)  # rough SE of var
        assert abs(np.var(draws) - 2.0) < 4 * max(se, 2.0 / math.sqrt(10 ** 6) * 3)

    def test_range(self):
        with pytest.raises(RangeError):
            geo_stats(1.0)

    def test_overflowing_fourth_moment_bound_is_refused(self):
        # (a + 1) ** 4 once ended in OverflowError
        assert geo_stats(1e70).m4_bound == pytest.approx(6.25e279)
        with pytest.raises(RangeError, match="overflows"):
            geo_stats(1e100)

    def test_tau_keeps_its_digits_at_large_symbols(self):
        # log of the rounded p lost 2.2e-5 relative at a = 1e12
        exact = mpmath.log1p(-2 / (mpmath.mpf(1e12) + 1))
        assert geo_stats(1e12).tau == pytest.approx(float(exact), rel=1e-15, abs=0.0)


class TestScore:
    def test_zero_at_mean(self):
        assert score(1.0, 3.0) == 0.0

    def test_second_moment_is_fisher(self):
        k = np.arange(0, 2000)
        pmf = geo_pmf(3.0, k)
        m2 = float(np.sum(pmf * score(k, 3.0) ** 2))
        assert m2 == pytest.approx(0.125, abs=1e-12)

    def test_mean_zero(self):
        k = np.arange(0, 2000)
        pmf = geo_pmf(3.0, k)
        assert float(np.sum(pmf * score(k, 3.0))) == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference(self):
        h = 1e-5
        x, a = 2, 3.0
        fd = (math.log(geo_pmf(a + h, x)) - math.log(geo_pmf(a - h, x))) / (2 * h)
        assert score(x, a) == pytest.approx(fd, abs=1e-6)


class TestHellingerGeo:
    def test_equal(self):
        assert hellinger_geo(2.5, 2.5) == (0.0, 0.0)

    @pytest.mark.parametrize("lam, mu", [(1.0, 2.0), (2.0, 0.5), (math.inf, 2.0),
                                         (2.0, math.nan)])
    def test_symbols_outside_one_to_inf_are_refused(self, lam, mu):
        # lam = 1 once divided by zero in the ratio bound before p_of_a checked it
        with pytest.raises(RangeError, match="1 < a < inf"):
            hellinger_geo(lam, mu)

    def test_huge_symbols_give_the_finite_bound(self):
        # (lam - mu) ** 2 once overflowed where the bound itself is about 1e308
        assert hellinger_geo(1e308, 2.0) == (2.0, pytest.approx(1e308, rel=1e-15))
        assert hellinger_geo(2.0, 1e308) == (2.0, pytest.approx(1e308, rel=1e-15))
        assert nb_hellinger_bound_symbols(1.0, 2.0, 1e308) == pytest.approx(1e308, rel=1e-15)
        # past the largest double the bound is refused, never clamped
        with pytest.raises(RangeError, match="overflows"):
            hellinger_geo(1e308, 1.5)
        with pytest.raises(RangeError, match="overflows"):
            nb_hellinger_bound_symbols(4.0, 2.0, 1e308)
        # both p round to 1, which the form in a does not need
        assert hellinger_geo(1e300, 1e301) == (0.8500808508478624, pytest.approx(8.1, rel=1e-15))

    @pytest.mark.parametrize("a1, a2", [
        (1e15, 2e15), (1e12, 3e12), (1e300, 1e301), (1e308, 2.0), (2.0, 1e308),
        (1.0, 3.0), (1.0, 1.0 + 2.0 ** -52), (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51),
        (43.53229371173461, 43.498961346488855)])
    def test_exact_against_50_digits(self, a1, a2):
        # from the rounded p the pair (1e15, 2e15) read 0.1817 against 0.1144
        got = hellinger_geo_exact(a1, a2)
        assert got == pytest.approx(float(hellinger_geo_mp(a1, a2)), rel=1e-15, abs=0.0)

    def test_exact_is_zero_at_the_vacuum_pair(self):
        assert hellinger_geo_exact(1.0, 1.0) == 0.0
        assert hellinger_geo_exact(np.ones(3), np.array([1.0, 2.0, 1.0])).tolist() == [
            0.0, float(hellinger_geo_mp(1.0, 2.0)), 0.0]

    def test_exact_on_seeded_pairs_against_50_digits(self):
        # 70% near-equal pairs, a - 1 log-uniform up to 1e15
        rng = np.random.default_rng(30)
        a1 = 1.0 + 10.0 ** rng.uniform(-15.0, 15.0, 500)
        near = a1 * (1.0 + rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-12.0, -0.5, 500))
        a2 = np.where(rng.uniform(size=500) < 0.7, np.maximum(near, 1.0),
                      1.0 + 10.0 ** rng.uniform(-15.0, 15.0, 500))
        got = hellinger_geo_exact(a1, a2)
        exact = [hellinger_geo_mp(x, y) for x, y in zip(a1.tolist(), a2.tolist())]
        worst = max(float(abs(g - e) / e) for g, e in zip(got.tolist(), exact))
        assert worst < 1e-15

    @given(st.floats(-15.0, 15.0), st.one_of(st.floats(-15.0, 15.0), st.floats(-16.0, 0.0)))
    def test_exact_properties(self, x, y):
        # a1 - 1 = 10^x; a2 - 1 = 10^y, or a2 = a1 (1 + 10^y) for y <= 0
        a1 = 1.0 + 10.0 ** x
        a2 = a1 * (1.0 + 10.0 ** y) if y <= 0.0 else 1.0 + 10.0 ** y
        h2, bound = hellinger_geo(a1, a2)
        assert h2 == hellinger_geo_exact(a2, a1) and hellinger_geo_exact(a1, a1) == 0.0
        assert h2 <= bound
        exact = hellinger_geo_mp(a1, a2)
        assert abs(h2 - exact) <= 1e-14 * exact

    def test_bound_value(self):
        h2, bound = hellinger_geo(2.0, 3.0)
        assert bound == pytest.approx(0.5)
        assert h2 < bound

    def test_exact_matches_series(self):
        h2, _ = hellinger_geo(2.0, 3.0)
        bc = series_bhattacharyya_geo(2.0, 3.0, 0.5)
        assert h2 == pytest.approx(2 * (1 - bc), abs=1e-12)

    def test_bound_tightness_ratio_vanishes(self):
        lam = 2.0
        ratios = []
        for k in (1, 2, 3):
            mu = lam * (1 + 10.0 ** -k)
            h2, bound = hellinger_geo(lam, mu)
            ratios.append(h2 / bound)
        assert ratios[0] < 0.5 and ratios[2] < 0.5
        # the bound is never violated
        for lam, mu in ((1.1, 9.0), (2.0, 2.0001), (5.0, 1.2)):
            h2, bound = hellinger_geo(lam, mu)
            assert h2 <= bound + 1e-12


class TestNegBinomial:
    def test_nb1_is_geometric(self):
        # Geo(p): P(X = k) = (1 - p) p^k
        k = np.arange(30)
        np.testing.assert_allclose(NegBinomial(1.0, 0.4).pmf(k), 0.6 * 0.4 ** k, atol=1e-14)

    def test_bound_symbols_zero_at_equal(self):
        assert nb_hellinger_bound_symbols(2.0, 3.0, 3.0) == 0.0

    def test_bound_shapes_zero_at_equal(self):
        assert nb_hellinger_bound_shapes(1.5, 1.5) == pytest.approx(0.0, abs=1e-14)

    def test_bounds_dominate_exact(self):
        # (i) same shape, different symbols
        h2 = nb_hellinger_exact(1.0, 0.5, 1.0, 2.0 / 3.0)  # doubles as Geo pair
        assert h2 <= nb_hellinger_bound_symbols(1.0, 3.0, 5.0) + 1e-12
        h2b = nb_hellinger_exact(2.5, 1 / 3, 2.5, 0.5)
        assert h2b <= nb_hellinger_bound_symbols(2.5, 2.0, 3.0) + 1e-12
        # (ii) same p, different shapes
        for r1, r2, p in ((1.0, 0.5, 0.5), (2.0, 3.0, 0.3), (0.25, 1.0, 0.6)):
            h2c = nb_hellinger_exact(r1, p, r2, p)
            assert h2c <= nb_hellinger_bound_shapes(r1, r2) + 1e-12

    def test_bound_shapes_is_exactly_zero_at_equal_shapes(self):
        for r in (0.05, 1.5, 63.5, 64.0, 1e6):
            assert nb_hellinger_bound_shapes(r, r) == 0.0

    @given(st.floats(-3.0, 4.0), st.one_of(st.floats(-3.0, 4.0), st.floats(-12.0, -0.01)))
    def test_bound_shapes_properties(self, x, y):
        # r2 = e^y, or r2 = r1 (1 + 10^y) for y < 0 so that near-equal shapes come up
        r1 = math.exp(x)
        r2 = r1 * (1.0 + 10.0 ** y) if y < 0.0 else math.exp(y)
        got = nb_hellinger_bound_shapes(r1, r2)
        assert got == nb_hellinger_bound_shapes(r2, r1) and nb_hellinger_bound_shapes(r1, r1) == 0.0
        exact = nb_hellinger_bound_shapes_mp(r1, r2)
        assert abs(got - exact) <= 2e-15 * exact

    def test_bound_shapes_against_40_digits(self):
        # near-equal shapes are where 1 - exp(D) from lgamma lost up to every digit
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(600):
            r1 = math.exp(rng.uniform(-3.0, 4.0))
            if rng.uniform() < 0.7:
                r2 = r1 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -0.01))
            else:
                r2 = math.exp(rng.uniform(-3.0, 4.0))
            exact = nb_hellinger_bound_shapes_mp(r1, r2)
            got = nb_hellinger_bound_shapes(r1, r2)
            assert got == nb_hellinger_bound_shapes(r2, r1)
            worst = max(worst, float(abs(got - exact) / exact))
        assert worst < 2e-15

    @pytest.mark.parametrize("r1, r2", [(1e-300, 1.0), (1e-10, 64.0), (1.0, 1e300),
                                        (1e20, 1e20 * (1.0 + 1e-12)), (1e300, 1.7e308)])
    def test_bound_shapes_far_from_unit_shapes(self, r1, r2):
        got = nb_hellinger_bound_shapes(r1, r2)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(float(nb_hellinger_bound_shapes_mp(r1, r2)), rel=1e-14)

    @pytest.mark.parametrize("r1, r2", [(math.nan, 1.0), (math.inf, 2.0), (1.0, math.inf),
                                        (1.0, -math.inf), (0.0, 1.0), (1.0, -2.0)])
    def test_bound_shapes_refuses_shapes_outside_the_open_half_line(self, r1, r2):
        # NaN and infinite shapes returned NaN
        with pytest.raises(RangeError, match="0 < r < inf"):
            nb_hellinger_bound_shapes(r1, r2)

    def test_exact_vs_brute_force(self):
        k = np.arange(4000)
        q1 = NegBinomial(0.7, 0.5).pmf(k)
        q2 = NegBinomial(2.3, 0.4).pmf(k)
        brute = 2 * (1 - float(np.sum(np.sqrt(q1 * q2))))
        assert nb_hellinger_exact(0.7, 0.5, 2.3, 0.4) == pytest.approx(brute, abs=1e-11)


class TestNbSample:
    def test_geometric_case_mean(self):
        rng = np.random.default_rng(99)
        draws = nb_sample(1.0, 0.5, rng, size=10 ** 6)
        se = math.sqrt(2.0 / 10 ** 6)
        assert abs(np.mean(draws) - 1.0) < 4 * se

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
    def test_refuses_shape_outside_the_open_half_line(self, r):
        # a NaN shape raised numpy's "lam value too large"
        with pytest.raises(RangeError, match="0 < r < inf"):
            nb_sample(r, 0.5, np.random.default_rng(0), size=3)

    def test_sum_of_fractional_draws_is_geometric(self):
        rng = np.random.default_rng(7)
        n = 50_000
        sums = np.sum(nb_sample(1 / 8, 0.5, rng, size=(n, 8)), axis=1)
        geo = geo_sample(0.5, rng, size=n)
        kmax = 12
        obs1 = np.bincount(np.minimum(sums, kmax), minlength=kmax + 1)
        obs2 = np.bincount(np.minimum(geo, kmax), minlength=kmax + 1)
        tot = obs1 + obs2
        keep = tot >= 10
        table = np.vstack([obs1[keep], obs2[keep]])
        chi2, p, _, _ = stats.chi2_contingency(table)[:4]
        assert p > 0.001

    def test_poisson_limit(self):
        rng = np.random.default_rng(17)
        disp = []
        for r, p in ((1.0, 0.5), (10.0, 1 / 11), (100.0, 1 / 101)):
            x = nb_sample(r, p, rng, size=200_000)  # mean 1 in each case
            disp.append(np.var(x) / np.mean(x))
        assert disp[0] > disp[1] > disp[2]
        assert disp[2] == pytest.approx(1.0, abs=0.02)


class TestChernoff:
    @pytest.mark.parametrize("a0, a1", [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0),
                                        (1.0, 2.0)])
    def test_symbols_outside_one_to_inf_are_refused(self, a0, a1):
        # a nan passed the old a <= 1 test: chernoff_geo returned nan, the infimum (t, nan)
        with pytest.raises(RangeError, match="1 < a < inf"):
            chernoff_geo(a0, a1, 0.5)
        with pytest.raises(RangeError, match="1 < a < inf"):
            chernoff_geo_inf(a0, a1)

    def test_equal_symbols_zero(self):
        for t in (0.0, 0.3, 1.0):
            assert chernoff_geo(3.0, 3.0, t) == pytest.approx(0.0, abs=1e-14)

    def test_bhattacharyya_at_half(self):
        # -log((1/2)[bracket]) equals log sum_k q0^t q1^{1-t}: the sum is
        # 2/bracket in closed form, so the exponent is <= 0
        val = chernoff_geo(2.0, 4.0, 0.5)
        bc = series_bhattacharyya_geo(2.0, 4.0, 0.5)
        assert val == pytest.approx(math.log(bc), abs=1e-12)
        assert val < 0.0

    def test_matches_series_all_t(self):
        for t in np.linspace(0.05, 0.95, 7):
            val = chernoff_geo(2.0, 4.0, float(t))
            bc = series_bhattacharyya_geo(2.0, 4.0, float(t))
            assert val == pytest.approx(math.log(bc), abs=1e-11)

    def test_convexity_on_grid(self):
        ts = np.linspace(0.0, 1.0, 101)
        vals = np.array([chernoff_geo(2.0, 4.0, float(t)) for t in ts])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.min(second) >= -1e-9

    def test_symmetry(self):
        for t in (0.2, 0.5, 0.9):
            assert chernoff_geo(2.0, 4.0, t) == pytest.approx(
                chernoff_geo(4.0, 2.0, 1.0 - t), abs=1e-13)

    def test_infimum(self):
        t_star, val = chernoff_geo_inf(2.0, 4.0)
        ts = np.linspace(0, 1, 2001)
        grid_min = min(chernoff_geo(2.0, 4.0, float(t)) for t in ts)
        assert val <= grid_min + 1e-10

    def test_quantum_constant_matches_classical(self):
        a0 = SpectralDensity.constant(2.0)
        a1 = SpectralDensity.constant(4.0)
        for t in np.linspace(0.0, 1.0, 11):
            assert chernoff_quantum(a0, a1, float(t)) == pytest.approx(
                chernoff_geo(2.0, 4.0, float(t)), abs=1e-10)

    def test_quantum_equal_densities_zero(self):
        a = SpectralDensity.cosine(2.0, 0.5)
        assert chernoff_quantum(a, a, 0.37) == pytest.approx(0.0, abs=1e-12)

    def test_quantum_quadrature_refinement(self):
        a0 = SpectralDensity.cosine(2.0, 0.5)
        a1 = SpectralDensity.cosine(3.0, 0.4)
        # the checked grid against the same rule on 8192 points, far finer
        grid = 8192
        v0, v1 = (eval_density(a, 2 * math.pi * np.arange(grid) / grid) for a in (a0, a1))
        finer = float(-np.mean(np.log(0.5 * ((v0 + 1) ** 0.3 * (v1 + 1) ** 0.7
                                             - (v0 - 1) ** 0.3 * (v1 - 1) ** 0.7))))
        assert abs(chernoff_quantum(a0, a1, 0.3) - finer) < 1e-14

    def test_quantum_infimum_constant(self):
        a0 = SpectralDensity.constant(2.0)
        a1 = SpectralDensity.constant(4.0)
        tq, vq = chernoff_quantum_inf(a0, a1)
        tg, vg = chernoff_geo_inf(2.0, 4.0)
        assert vq == pytest.approx(vg, abs=1e-9)

    def test_quantum_quadrature_grid_follows_k_max(self):
        # a0 = 2 + 0.5 cos(4096 w) is f(4096 w), so the exponent is the mean of
        # the integrand over one period of f; 4096 points saw only a0 = 2.5
        c = np.zeros(4097)
        c[0], c[4096] = 2.0, 0.25
        u = 2 * math.pi * np.arange(4096) / 4096
        v0 = 2.0 + 0.5 * np.cos(u)
        exact = float(-np.mean(np.log(0.5 * ((v0 + 1) ** 0.5 * 4.0 ** 0.5
                                             - (v0 - 1) ** 0.5 * 2.0 ** 0.5))))
        got = chernoff_quantum(SpectralDensity(c), SpectralDensity.constant(3.0), 0.5)
        # 16 points per period of f leave a trapezoid error of 3e-12
        assert got == pytest.approx(exact, abs=1e-10)

    def test_quantum_refuses_a_density_below_one_between_grid_points(self):
        # 1.6 + 1.24 cos(4096 w) reads 2.84 at every point of 4096; its minimum is 0.36
        c = np.zeros(4097)
        c[0], c[4096] = 1.6, 0.62
        with pytest.raises(RangeError, match="strictly above 1"):
            chernoff_quantum(SpectralDensity(c), SpectralDensity.constant(3.0), 0.5)

    def test_quantum_infimum_evaluates_each_density_once_per_grid(self, monkeypatch):
        a0 = SpectralDensity.cosine(2.0, 0.5)
        a1 = SpectralDensity.cosine(3.0, 0.7)
        seen, built, searched = [], [], []
        evaluate, terms = distributions._on_grid, distributions._chernoff_terms
        golden = distributions._golden_infimum

        def counted(lags, G):
            seen.append((SpectralDensity(lags), G))
            return evaluate(lags, G)

        def counted_terms(v0, v1):
            built.append(len(v0))
            return terms(v0, v1)

        def counted_search(fn, t0=None):
            before = len(built)
            out = golden(fn, t0)
            searched.append(len(built) - before)
            return out

        monkeypatch.setattr(distributions, "_on_grid", counted)
        monkeypatch.setattr(distributions, "_chernoff_terms", counted_terms)
        monkeypatch.setattr(distributions, "_golden_infimum", counted_search)
        t, v = chernoff_quantum_inf(a0, a1)
        # the grids from 16 points up, the last one checked at t = 1/2 and then
        # searched and checked at t*: each grid samples the densities once, and
        # the search builds no psi of its own
        grids = [16 << i for i in range(len(set(built)))]
        assert len(grids) >= 3 and sorted(set(built)) == grids
        assert seen == [(a, G) for G in grids for a in (a0, a1)]
        assert searched == [0]
        monkeypatch.undo()
        # chernoff_quantum checks at t* alone and stops on the same grid
        assert v == chernoff_quantum(a0, a1, t)

    def test_quantum_search_on_a_later_grid_brackets_the_last_minimizer(self, monkeypatch):
        # t = 1/2 passes on two grids here, so the infimum searches twice
        a0, a1 = SpectralDensity.cosine(1.500003, 0.5), SpectralDensity.constant(3.0)
        evaluations, sizes = [], []
        golden, evaluate = distributions._golden_infimum, distributions._on_grid

        def counted_search(fn, t0=None):
            evaluations.append(0)

            def counted(t):
                evaluations[-1] += 1
                return fn(t)
            return golden(counted, t0)

        monkeypatch.setattr(distributions, "_golden_infimum", counted_search)
        monkeypatch.setattr(distributions, "_on_grid",
                            lambda lags, G: sizes.append(G) or evaluate(lags, G))
        t, v = chernoff_quantum_inf(a0, a1)
        monkeypatch.undo()
        assert len(evaluations) == 2 and evaluations[1] < evaluations[0]
        assert v == chernoff_quantum(a0, a1, t)
        # a full [0, 1] search on the last grid finds the same minimum within its rounding
        psi, check = distributions._quantum_psi(a0, a1)(max(sizes))
        t_full, v_full = golden(lambda t: np.mean(psi(t)))
        assert abs(v - v_full) <= check(t_full)[2]

    @pytest.mark.parametrize("t0", [0.9, 0.05])
    def test_search_about_t0_widens_toward_the_minimizer(self, t0):
        # the bracket t0 -+ 1e-8 misses t* = 0.3: from 0.9 its lower end moves out
        # fourfold until it passes t*, from 0.05 its upper end
        t, v = distributions._golden_infimum(lambda t: (t - 0.3) ** 2, t0)
        assert abs(t - 0.3) <= 1e-9 and v <= 1e-18

    @pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10])
    def test_quantum_near_the_floor_matches_a_fine_rule(self, gap):
        # 4096 fixed points were off the 2^22-point rule by 8.6e-11, 6.6e-8 and
        # 1.3e-7 relative here, and nothing detected it
        grid, chunk = 1 << 22, 1 << 18
        a0, a1 = SpectralDensity.cosine(1.5 + gap, 0.5), SpectralDensity.constant(3.0)
        total = 0.0
        for start in range(0, grid, chunk):
            w = 2 * math.pi * np.arange(start, start + chunk) / grid
            v0 = 1.5 + gap + 0.5 * np.cos(w)
            total += float(np.sum(distributions._chernoff_terms(v0, np.full(chunk, 3.0))(0.5)))
        fine = total / grid
        try:
            got = chernoff_quantum(a0, a1, 0.5)
        except NonConvergence as exc:
            assert gap < 1e-8 and f"G = {spectral._GRID_CAP} points" in str(exc)
        else:
            assert abs(got - fine) <= 1e-12 * abs(fine)

    def test_quantum_grid_starts_at_the_densities_own_size(self, monkeypatch):
        # two constants need the first grid of K_max = 0, 8 points, not 4096
        sizes, evaluate = [], distributions._on_grid
        monkeypatch.setattr(distributions, "_on_grid",
                            lambda lags, G: sizes.append(G) or evaluate(lags, G))
        t, v = chernoff_quantum_inf(SpectralDensity.constant(2.0),
                                    SpectralDensity.constant(3.0))
        assert set(sizes) == {8}
        assert v == pytest.approx(chernoff_geo_inf(2.0, 3.0)[1], rel=1e-13)

    def test_quantum_grid_cap_is_a_numerical_failure(self):
        a0 = SpectralDensity.cosine(1.5 + 1e-13, 0.5)
        with pytest.raises(NonConvergence, match=f"G = {spectral._GRID_CAP} points"):
            chernoff_quantum_inf(a0, SpectralDensity.constant(3.0))


#: a - 1 = 10^x for x in [-12, 12]; the second symbol equal up to a factor 1 + 10^y, y <= 0
SYMBOL_EXPONENTS = st.floats(-12.0, 12.0)
GAP_EXPONENTS = st.one_of(st.floats(-12.0, 12.0), st.floats(-16.0, 0.0))


def symbol_pair(x, y):
    a0 = 1.0 + 10.0 ** x
    return a0, a0 * (1.0 + 10.0 ** y) if y <= 0.0 else 1.0 + 10.0 ** y


class TestChernoffKernel:
    """One kernel of terms >= 0 serves all four exponents, against the 50-digit bracket."""

    NEAR = (43.53229371173461, 43.498961346488855)

    def test_near_equal_pair_keeps_its_digits(self):
        # the bracket form read -7.338059490596002e-08 here, 3.0e-8 relative off
        got = chernoff_geo(*self.NEAR, 0.5)
        assert abs(got - -7.3380592730269170e-08) <= 1e-14 * 7.3380592730269170e-08
        assert got == pytest.approx(float(chernoff_geo_mp(*self.NEAR, 0.5)), rel=1e-14)

    def test_near_equal_pair_minimizer(self):
        # the 101-point guard grid returned t = 0.5 for this pair
        t_star, value = chernoff_geo_inf(*self.NEAR)
        assert abs(t_star - 0.50006386590347) <= 1e-7
        assert value <= chernoff_geo(*self.NEAR, 0.5)
        tq, vq = chernoff_quantum_inf(*(SpectralDensity.constant(a) for a in self.NEAR))
        assert abs(tq - 0.50006386590347) <= 1e-7 and vq == pytest.approx(value, rel=1e-14)

    def test_seeded_pairs_against_50_digits(self):
        # near-equal, distant, huge (1e15 up to 1e300) and near-1 pairs
        rng = np.random.default_rng(34)
        pairs = []
        for _ in range(60):
            a = 10.0 ** rng.uniform(-3.0, 6.0)    # a - 1, moved by a factor 1 +- 10^u
            pairs.append((1.0 + a, 1.0 + a * (1.0 + rng.choice([-1.0, 1.0])
                                              * 10.0 ** rng.uniform(-9.0, -0.5))))
            pairs.append(tuple(1.0 + 10.0 ** rng.uniform(-3.0, 6.0, 2)))
            big = 10.0 ** rng.uniform(15.0, 300.0)
            pairs.append((big, rng.choice([big * (1.0 + 10.0 ** rng.uniform(-9.0, -1.0)),
                                           3.0, 10.0 ** rng.uniform(15.0, 300.0)])))
            tiny = 1.0 + 10.0 ** rng.uniform(-15.0, -3.0)
            pairs.append((tiny, rng.choice([1.0 + 10.0 ** rng.uniform(-15.0, -3.0),
                                            tiny * (1.0 + 10.0 ** rng.uniform(-9.0, -4.0)),
                                            10.0 ** rng.uniform(0.5, 12.0)])))
        worst = 0.0
        for a0, a1 in pairs:
            t = float(rng.uniform(0.01, 0.99))
            a0, a1 = (a1, a0) if rng.uniform() < 0.5 else (a0, a1)
            exact = chernoff_geo_mp(a0, a1, t)
            worst = max(worst, float(abs(chernoff_geo(a0, a1, t) - exact) / abs(exact)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("a0, a1", [(1.7e308, 1.0001), (1.0001, 1.7e308),
                                        (1.7e308, 1.6e308)])
    def test_largest_doubles_do_not_overflow(self, a0, a1):
        # 2 (a0 - a1) overflowed; RuntimeWarnings are errors in this suite
        for t in (0.0, 1e-300, 0.3, 0.5, 1.0 - 2.0 ** -53, 1.0):
            got = chernoff_geo(a0, a1, t)
            assert math.isfinite(got) and got <= 0.0
        for t in (0.3, 0.5):
            assert chernoff_geo(a0, a1, t) == pytest.approx(
                float(chernoff_geo_mp(a0, a1, t)), rel=1e-12)
        t_star, value = chernoff_geo_inf(a0, a1)
        tq, vq = chernoff_quantum_inf(SpectralDensity.constant(a0), SpectralDensity.constant(a1))
        assert value < 0.0 and vq == pytest.approx(value, rel=1e-13)

    def test_equal_symbols_give_plus_zero(self):
        # the guard grid printed -4.4e-16 (classical) and -6.8e-17 (quantum) here
        a = SpectralDensity.cosine(2.0, 0.5)
        for _, value in (chernoff_geo_inf(2.5, 2.5), chernoff_quantum_inf(a, a)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert all(math.copysign(1.0, chernoff_geo(3.0, 3.0, t)) == 1.0 for t in (0.0, 0.4, 1.0))

    @given(SYMBOL_EXPONENTS, GAP_EXPONENTS)
    def test_half_is_the_hellinger_distance(self, x, y):
        # H^2 = 2 (1 - BC) with BC = exp psi(1/2)
        a0, a1 = symbol_pair(x, y)
        h2 = hellinger_geo_exact(a0, a1)
        assert abs(-2.0 * math.expm1(chernoff_geo(a0, a1, 0.5)) - h2) <= 1e-12 * h2

    @given(SYMBOL_EXPONENTS, GAP_EXPONENTS, st.integers(1, 63))
    def test_kernel_properties(self, x, y, k):
        # t = k/64 and 1 - t are exact, so the mirror compares the same weights
        a0, a1 = symbol_pair(x, y)
        assert chernoff_geo(a0, a1, 0.0) == 0.0 and chernoff_geo(a0, a1, 1.0) == 0.0
        t, h = k / 64.0, 1.0 / 64.0
        lo, mid, hi = (chernoff_geo(a0, a1, s) for s in (t - h, t, t + h))
        assert max(lo, mid, hi) <= 0.0
        assert chernoff_geo(a1, a0, 1.0 - t) == pytest.approx(mid, rel=1e-12, abs=0.0)
        assert lo - 2.0 * mid + hi >= -1e-14 * (abs(lo) + 2.0 * abs(mid) + abs(hi))


#: a - 1 = 10^x from about 2^-52 up to a = 1e300
KL_EXPONENTS = st.floats(-15.6, 300.0)


class TestGeoKlProperties:
    """geo_kl, the t = 1 face of the Bernoulli kernel: 0 on the diagonal, >= D_1/2 >= 0, Pinsker."""

    @given(KL_EXPONENTS)
    def test_zero_on_the_diagonal(self, x):
        a = 1.0 + 10.0 ** x
        assert distributions.geo_kl(a, a) == 0.0

    @given(KL_EXPONENTS, GAP_EXPONENTS, st.booleans())
    def test_at_least_the_order_half_divergence(self, x, y, swap):
        # KL is the Renyi divergence of order 1, at least the one of order 1/2, -2 psi(1/2)
        a1, a2 = symbol_pair(x, y)
        a1, a2 = (a2, a1) if swap else (a1, a2)
        kl = distributions.geo_kl(a1, a2)
        half = -2.0 * float(distributions._chernoff_terms(a1, a2)(0.5))
        assert math.isfinite(kl) and kl >= 0.0 and half >= 0.0
        assert kl >= half * (1.0 - 1e-12)

    @given(st.floats(-3.0, 2.0), st.one_of(st.floats(-3.0, 2.0), st.floats(-9.0, 0.0)),
           st.booleans())
    def test_classical_pinsker(self, x, y, swap):
        a1, a2 = symbol_pair(x, y)
        a1, a2 = (a2, a1) if swap else (a1, a2)
        assert distributions.geo_kl(a1, a2) >= 0.5 * geo_l1(a1, a2) ** 2


class TestVarstab:
    def test_limit_at_one(self):
        assert varstab_arccosh(1.0 + 1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_residual_tiny(self):
        for a in (1.01, 2.0, 3.0, 10.0):
            assert varstab_ode_residual(a) < 1e-12

    def test_huge_symbol_does_not_overflow(self):
        # a * a overflowed above 1.34e154: arccosh read inf and the residual 0
        assert varstab_arccosh(1e200) == 461.2101657793691
        assert math.isfinite(varstab_ode_residual(1e200))

    @pytest.mark.parametrize("a", [math.nan, math.inf, 1.0])
    def test_symbols_outside_one_to_inf_are_refused(self, a):
        # nan once mapped to nan and inf to inf, with no error
        for fn in (varstab_arccosh, varstab_ode_residual):
            with pytest.raises(RangeError, match="1 < a < inf"):
                fn(a)

    def test_finite_difference(self):
        a, h = 3.0, 1e-6
        fd = (varstab_arccosh(a + h) - varstab_arccosh(a - h)) / (2 * h)
        assert fd == pytest.approx(1.0 / math.sqrt(a * a - 1.0), abs=1e-8)


class TestGaussianSquareCov:
    def test_independent(self):
        _, cov = gaussian_square_cov(1.0, 2.0, 0.0)
        assert cov == 0.0

    def test_identical_variables(self):
        exy, cov = gaussian_square_cov(1.0, 1.0, 1.0)
        assert exy == pytest.approx(3.0) and cov == pytest.approx(2.0)

    def test_monte_carlo(self):
        rng = np.random.default_rng(5150)
        n = 10 ** 6
        cov_m = np.array([[1.0, 0.5], [0.5, 1.0]])
        xy = rng.multivariate_normal([0, 0], cov_m, size=n)
        emp = np.cov(xy[:, 0] ** 2, xy[:, 1] ** 2)[0, 1]
        se = 4.0 / math.sqrt(n)  # crude; fourth-moment scale
        assert abs(emp - 0.5) < 4 * se

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            gaussian_square_cov(1.0, 1.0, 2.0)


class TestProductInequalities:
    """Distance inequalities on products of geometrics."""

    def cases(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            yield (1.2 + rng.uniform(0, 3, size=n), 1.2 + rng.uniform(0, 3, size=n))

    @staticmethod
    def product_h2(avec, bvec):
        # Bhattacharyya multiplicativity: BC(prod) = prod BC_j
        bc = 1.0
        for a, b in zip(avec, bvec):
            h2, _ = hellinger_geo(float(a), float(b))
            bc *= 1.0 - h2 / 2.0
        return 2.0 * (1.0 - bc)

    @staticmethod
    def product_tv(avec, bvec, kmax=400):
        grids = [geo_pmf(float(a), np.arange(kmax)) for a in avec]
        grids_b = [geo_pmf(float(b), np.arange(kmax)) for b in bvec]
        pa, pb = grids[0], grids_b[0]
        for g, h in zip(grids[1:], grids_b[1:]):
            pa = np.outer(pa, g).ravel()
            pb = np.outer(pb, h).ravel()
            order = np.argsort(pa + pb)[::-1][:200_000]
            pa, pb = pa[order], pb[order]
        return 0.5 * float(np.sum(np.abs(pa - pb)))

    def test_h2_product_subadditive(self):
        for avec, bvec in self.cases():
            lhs = self.product_h2(avec, bvec)
            rhs = 2.0 * sum(hellinger_geo(float(a), float(b))[0]
                            for a, b in zip(avec, bvec))
            assert lhs <= rhs + 1e-12

    def test_l1_hellinger_and_lecam(self):
        for avec, bvec in self.cases():
            if len(avec) > 2:
                continue  # keep the exact product sum small
            h2 = self.product_h2(avec, bvec)
            tv = self.product_tv(avec, bvec)
            assert tv <= math.sqrt(h2) + 1e-9      # (1/2)||P-Q||_1 <= H
            assert tv <= math.sqrt(h2) * 1.0 + 1e-9


class TestChernoffIntervalConvention:
    def test_zero_to_2pi_equals_symmetric_interval(self, monkeypatch):
        # the rule's grid has an even number of points, so pi is a grid point and the
        # grid on [0, 2pi) and as many points from -pi coincide as sets: the same
        # kernel on the [-pi, pi) grid gives the same mean
        import math
        from qsts.spectral import eval_density

        a0 = SpectralDensity.cosine(2.0, 0.5)
        a1 = SpectralDensity.cosine(3.0, 0.4)
        t = 0.3
        sizes, evaluate = [], distributions._on_grid
        monkeypatch.setattr(distributions, "_on_grid",
                            lambda lags, G: sizes.append(G) or evaluate(lags, G))
        value = chernoff_quantum(a0, a1, t)
        grid = max(sizes)
        w_sym = -math.pi + 2 * math.pi * np.arange(grid) / grid
        v0 = np.asarray(eval_density(a0, w_sym))
        v1 = np.asarray(eval_density(a1, w_sym))
        sym_value = float(np.mean(distributions._chernoff_terms(v0, v1)(t)))
        assert value == pytest.approx(sym_value, rel=1e-15, abs=0.0)


class TestExactSeriesHelpers:
    def test_geo_kl_closed_form(self):
        from qsts.distributions import geo_kl

        assert geo_kl(3.0, 5.0) == pytest.approx(math.log(9.0 / 8.0), abs=1e-14)
        assert geo_kl(2.7, 2.7) == pytest.approx(0.0, abs=1e-15)
        # against a brute-force sum (k capped before the pmfs underflow)
        k = np.arange(500)
        q1, q2 = geo_pmf(2.0, k), geo_pmf(3.5, k)
        brute = float(np.sum(q1 * np.log(q1 / q2)))
        assert geo_kl(2.0, 3.5) == pytest.approx(brute, abs=1e-12)

    def test_geo_kl_small_gaps_against_mpmath(self):
        from qsts.distributions import geo_kl

        bs = np.array([1.001, 1.5, 2.5, 40.0])
        for rel in (1e-3, -1e-5, 1e-7, -1e-9, 1e-12):
            a = bs * (1.0 + rel)
            got = geo_kl(a, bs)
            for x, y, value in zip(a, bs, got):
                oracle = float(geo_kl_mp(x, y))
                assert abs(value - oracle) <= 1e-12 * oracle
                assert geo_kl(float(x), float(y)) == value

    @pytest.mark.parametrize("a1, a2", [(1e8, 1e7), (1e12, 1e11), (1e16, 1e15), (1e20, 1e19),
                                        (1.0001, 1e300), (1e300, 1.0001), (2.0, 3.0),
                                        (1.0 + 2.0 ** -52, 1e10), (1.0 + 2.0 ** -52, 1.7e308),
                                        (1e300, 1.0 + 2.0 ** -52), (1.0 + 1e-15, 1e10)])
    def test_geo_kl_distant_symbols_keep_their_digits(self, a1, a2):
        # [(a2 - 1) g(x) - (a2 + 1) g(y)]/2 read 7.0 for 6.6974 at (1e16, 1e15), 0.0 at
        # (1e20, 1e19) and nan where x or y rounded to -1, as at (1.0001, 1e300); with
        # a1 = 1 + 2^-52, e = p1/p2 - 1 may round to -1 unless held above it
        from qsts.distributions import geo_kl

        exact = geo_kl_mp(a1, a2)
        assert abs(geo_kl(a1, a2) - exact) <= 1e-14 * exact

    def test_g_equals_the_two_branch_form_bit_for_bit(self):
        # the series is evaluated only where |t| < 1e-2; every value keeps
        # the bits of the form that evaluates both branches everywhere
        from qsts.distributions import _G_SERIES, _g

        rng = np.random.default_rng(6)
        t = np.concatenate((rng.uniform(-0.02, 0.02, 400), rng.uniform(-0.99, 9.0, 400),
                            [0.0, -0.0, 1e-2, -1e-2, np.nextafter(1e-2, 0.0), 1e-300]))
        both = np.where(np.abs(t) < 1e-2, t * t * np.polyval(_G_SERIES, t),
                        (1.0 + t) * np.log1p(t) - t)
        assert _g(t).tobytes() == both.tobytes()
        assert _g(t.reshape(26, 31)).tobytes() == both.tobytes()
        for x, value in zip(t[::40], both[::40]):
            assert np.asarray(_g(np.asarray(x))).tobytes() == value.tobytes()

    def test_geo_kl_range(self):
        from qsts.distributions import geo_kl

        with pytest.raises(RangeError):
            geo_kl(1.0, 2.0)
        with pytest.raises(RangeError):
            geo_kl(np.array([2.0, 3.0]), np.array([2.0, 0.5]))

    @pytest.mark.parametrize("a1, a2", [
        (math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf), (-math.inf, 2.0),
        (np.array([2.0, math.nan]), 3.0), (3.0, np.array([[2.0], [math.inf]]))])
    def test_geo_kl_refuses_non_finite_symbols(self, a1, a2):
        # NaN returned NaN silently, and inf NaN with a RuntimeWarning
        from qsts.distributions import geo_kl

        with pytest.raises(RangeError, match="finite"):
            geo_kl(a1, a2)

    def test_geo_kl_broadcasts_to_its_scalar_calls(self):
        # near-equal, far (f outside [-1/2, 1]) and equal pairs in one grid
        from qsts.distributions import geo_kl

        rng = np.random.default_rng(11)
        a1 = 1.0 + rng.exponential(1.0, (5, 1))
        a2 = np.concatenate((1.0 + rng.exponential(1.0, 6), a1[:2, 0] * (1.0 + 1e-9),
                             [1e-6 + 1.0, 1e300, a1[4, 0]]))
        got = geo_kl(a1, a2)
        assert got.shape == (5, 11)
        scalar = np.array([[geo_kl(float(x), float(y)) for y in a2] for x in a1[:, 0]])
        assert got.tobytes() == scalar.tobytes()
        assert got[4, 10] == 0.0

    def test_geo_l1_series(self):
        k = np.arange(5000)
        brute = float(np.sum(np.abs(geo_pmf(3.0, k) - geo_pmf(3.2, k))))
        assert geo_l1(3.0, 3.2) == pytest.approx(brute, abs=1e-12)
        assert geo_l1(2.0, 2.0) == 0.0
