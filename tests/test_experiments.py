import io
import math
import tracemalloc
import warnings

import mpmath

import numpy as np
import pytest

from qsts import experiments
from qsts.errors import DegenerateSamples, NonConvergence, NotAdmissible, RangeError
from qsts.experiments import (
    _CHI2_TAIL,
    AuditReport,
    _chi2_critical,
    _chi2_sf,
    _merge_short_bins,
    _pearson_2xk,
    audit_hellinger_chain,
    audit_state_approximation,
    nb_sufficiency_test,
    simulate_geo_regression,
    simulate_white_noise,
)
from qsts.harness import RngStream, mc_run
from qsts.spectral import (
    SpectralDensity,
    _on_grid,
    _truncated_density,
    eval_density,
    fourier_frequencies,
    local_averages,
)
from qsts.distributions import varstab_arccosh

from oracles import chi2_quantile_mp, chi2_tail_mp, hellinger_geo_mp, merge_short_bins_loop

COS_DENSITY = SpectralDensity.cosine(2.0, 0.5)
# geometric decay lifted so the density stays above 1 (state admissible)
LIFTED_GEOM = SpectralDensity(
    np.concatenate([[2.0], [2.0 ** -k for k in range(1, 21)]]).astype(complex),
    label="geom_decay",
)


class TestGeoRegression:
    def test_constant_variants_agree_in_law(self):
        a = SpectralDensity.constant(3.0)
        x1 = simulate_geo_regression(a, 50, "averages", RngStream(1, 0))
        x2 = simulate_geo_regression(a, 50, "points", RngStream(1, 0))
        np.testing.assert_array_equal(x1, x2)

    def test_mc_mean_matches_cell_average(self):
        n = 8
        J = local_averages(COS_DENSITY, n)

        def sampler(stream):
            return simulate_geo_regression(COS_DENSITY, n, "averages", stream).astype(float)

        out = mc_run(sampler, 4000, seed=3)
        target = (J - 1.0) / 2.0
        assert np.all(np.abs(out.mean - target) < 4 * out.se)

    def test_inadmissible_rejected(self):
        with pytest.raises(NotAdmissible):
            simulate_geo_regression(SpectralDensity.constant(0.9), 5,
                                    "averages", RngStream(2, 0))

    def test_unknown_variant(self):
        with pytest.raises(RangeError):
            simulate_geo_regression(COS_DENSITY, 5, "midpoints", RngStream(2, 0))


class TestWhiteNoise:
    def test_noiseless_is_drift_quadrature(self):
        from qsts.spectral import eval_density

        n, L = 100, 1024
        path = simulate_white_noise(COS_DENSITY, n, L, "arccosh", RngStream(5, 0))
        # the same noise, regenerated from stream (5, 0), taken back out
        dt = 2 * math.pi / L
        noise = RngStream(5, 0).generator().standard_normal(L) * math.sqrt(2 * math.pi / n * dt)
        w = np.linspace(-math.pi, math.pi, 200001)[:-1]
        target = np.mean([varstab_arccosh(v)
                          for v in eval_density(COS_DENSITY, w)]) * 2 * math.pi
        assert path.cumulative[-1] - np.sum(noise) == pytest.approx(target, rel=1e-4)

    def test_terminal_mean_and_variance(self):
        n, L = 64, 256

        def sampler(stream):
            path = simulate_white_noise(COS_DENSITY, n, L, "arccosh", stream)
            return np.array([path.cumulative[-1]])

        out, rows = mc_run(sampler, 4000, seed=7, collect=True)
        w = np.linspace(-math.pi, math.pi, 100001)[:-1]
        from qsts.spectral import eval_density
        drift_integral = np.mean([varstab_arccosh(v)
                                  for v in eval_density(COS_DENSITY, w)]) * 2 * math.pi
        assert abs(out.mean[0] - drift_integral) < 4 * out.se[0] + 2e-3
        target_var = (2 * math.pi) ** 2 / n
        se_var = target_var * math.sqrt(2.0 / rows.shape[0])
        assert abs(np.var(rows) - target_var) < 4 * se_var

    def test_local_variant_noise_scales_with_center(self):
        n, L = 64, 256
        center = SpectralDensity.constant(3.0)

        def sampler(stream):
            path = simulate_white_noise(COS_DENSITY, n, L, "local", stream,
                                        a0=center)
            return np.array([path.cumulative[-1]])

        out, rows = mc_run(sampler, 3000, seed=9, collect=True)
        target_var = (2 * math.pi) ** 2 / n * (3.0 ** 2 - 1.0)
        se_var = target_var * math.sqrt(2.0 / rows.shape[0])
        assert abs(np.var(rows) - target_var) < 4 * se_var

    def test_increment_consistency(self):
        path = simulate_white_noise(COS_DENSITY, 32, 128, "arccosh", RngStream(11, 0))
        assert path.cumulative[0] == 0.0

    def test_grid_guard(self):
        with pytest.raises(RangeError):
            simulate_white_noise(COS_DENSITY, 32, 32, "arccosh", RngStream(1, 0))

    @pytest.mark.parametrize("n", [0, -1])
    def test_size_guard(self, n):
        # the noise sd sqrt(2 pi / n) once divided by zero or took a negative root
        with pytest.raises(RangeError, match="n must be >= 1"):
            simulate_white_noise(COS_DENSITY, n, 64, "arccosh", RngStream(1, 0))

    @pytest.mark.parametrize("a, transform, a0, error, match", [
        (SpectralDensity.cosine(1.2, 0.5), "arccosh", None, NotAdmissible, "a > 1"),
        (COS_DENSITY, "local", SpectralDensity.constant(0.5), NotAdmissible, "above 1"),
        (COS_DENSITY, "local", None, RangeError, "center density"),
        (COS_DENSITY, "cube", None, RangeError, "unknown transform"),
    ], ids=["drift_below_one", "center_below_one", "no_center", "unknown_transform"])
    def test_refusals(self, a, transform, a0, error, match):
        with pytest.raises(error, match=match):
            simulate_white_noise(a, 16, 64, transform, RngStream(1, 0), a0=a0)

    def test_huge_local_center_keeps_the_noise_finite(self):
        # sqrt(c^2 - 1) overflowed in c^2 above 1.34e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = simulate_white_noise(COS_DENSITY, 16, 64, "local", RngStream(1, 0),
                                        a0=SpectralDensity.constant(1e200))
        assert np.all(np.isfinite(path.cumulative))

    @pytest.mark.parametrize("transform", ["arccosh", "local"])
    def test_drift_and_noise_read_the_densities_on_the_path_grid(self, transform):
        a, center, L, n = LIFTED_GEOM, SpectralDensity.cosine(3.0, 0.4), 65, 16
        path = simulate_white_noise(a, n, L, transform, RngStream(3, 0), a0=center)
        w = path.grid[:-1]
        vals, c = eval_density(a, w), eval_density(center, w)
        drift = np.arccosh(vals) if transform == "arccosh" else vals
        sd = 1.0 if transform == "arccosh" else np.sqrt(c * c - 1.0)
        dt = 2 * math.pi / L
        noise = RngStream(3, 0).generator().standard_normal(L) * sd * math.sqrt(
            2 * math.pi / n * dt)
        np.testing.assert_allclose(np.diff(path.cumulative), drift * dt + noise,
                                   rtol=0.0, atol=1e-13)

    def test_large_grid_memory_is_bounded(self):
        # the dense (L x 513) design took 513 MB at L = 2^16, K_max = 256
        rng = np.random.default_rng(3)
        c = np.zeros(257, dtype=complex)
        c[0], c[1:] = 4.0, 0.5 * rng.normal(size=256) / np.arange(1, 257) ** 2
        a = SpectralDensity(c)
        tracemalloc.start()
        try:
            simulate_white_noise(a, 16, 1 << 16, "local", RngStream(1, 0), a0=a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_huge_symbol_drift_is_finite(self):
        # log(a + sqrt(a * a - 1)) overflowed in a * a above 1.34e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = simulate_white_noise(SpectralDensity.constant(1e200), 16, 64, "arccosh",
                                        RngStream(1, 0))
        assert np.all(np.isfinite(path.cumulative))


class TestHellingerChain:
    def test_constant_density_sums_zero(self):
        rep = audit_hellinger_chain(SpectralDensity.constant(3.0), [9, 17, 33])
        sums = [r for r in rep.rows if r.label.startswith("hellinger")]
        assert all(r.value == pytest.approx(0.0, abs=1e-13) for r in sums)

    def test_cosine_ladder_decays(self):
        rep = audit_hellinger_chain(COS_DENSITY, [65, 129, 257, 513])
        assert rep.all_passed
        s1 = [r.value for r in rep.rows if r.label == "hellinger_circulant_vs_avg"]
        s2 = [r.value for r in rep.rows if r.label == "hellinger_points_vs_avg"]
        assert all(b < a for a, b in zip(s1, s1[1:]))
        assert all(b < a for a, b in zip(s2, s2[1:]))
        assert s1[-1] < 0.05 and s2[-1] < 0.05

    def test_even_n_rejected(self):
        with pytest.raises(RangeError):
            audit_hellinger_chain(COS_DENSITY, [64, 128])

    @pytest.mark.parametrize("ns", [[], [65, 33], [65, 65]])
    def test_ladder_must_strictly_increase(self, ns):
        # an empty ladder raised IndexError; one out of order failed its decay row
        with pytest.raises(RangeError, match="strictly increasing"):
            audit_hellinger_chain(COS_DENSITY, ns)

    def test_sums_against_50_digits(self):
        # H^2 from the rounded p was off by up to 2.2e-5 relative at n = 513
        ns = [65, 129, 257, 513]
        rep = audit_hellinger_chain(COS_DENSITY, ns)
        # the audit's own levels, which are the dense design's within rounding: the
        # sums' error, not the levels', is what is checked
        for label, levels_of, points_of in (
                ("hellinger_circulant_vs_avg", lambda n: _on_grid(
                    _truncated_density(COS_DENSITY, n).coeffs, n, (1 - n) / 2),
                 fourier_frequencies),
                ("hellinger_points_vs_avg", lambda n: experiments._point_values(
                    COS_DENSITY, n), lambda n: 2 * math.pi * (np.arange(1, n + 1) / n - 0.5))):
            got = [r.value for r in rep.rows if r.label == label]
            for n, value in zip(ns, got, strict=True):
                levels = levels_of(n)
                assert np.abs(levels - eval_density(COS_DENSITY, points_of(n))).max() <= 4e-15
                pairs = zip(levels.tolist(), local_averages(COS_DENSITY, n).tolist())
                with mpmath.workdps(50):
                    exact = mpmath.fsum(hellinger_geo_mp(x, y) for x, y in pairs)
                assert abs(value - exact) <= 1e-14 * exact, (label, n)

    def test_csv_round_trip(self):
        rep = audit_hellinger_chain(COS_DENSITY, [9, 17])
        buf = io.StringIO()
        rep.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "label,n,m,value,bound,pass"
        assert len(lines) == len(rep.rows) + 1
        obj = rep.to_json()
        assert obj["meta"]["kind"] == "hellinger_chain"


class TestStateApproximation:
    @pytest.mark.parametrize("n", [0, -1])
    def test_size_guard(self, n):
        # (-1) ** (1/3) is complex, and ceil of it raised TypeError
        with pytest.raises(RangeError, match="n must be >= 1"):
            experiments.default_audit_m(n)
        with pytest.raises(RangeError, match="n must be >= 1"):
            audit_state_approximation(COS_DENSITY, n)

    def test_no_default_m_for_n_two(self):
        # n + ceil(n^(1/3)) is 4, made odd 5, and no m has 2 < m < 2 (n - 1) = 2
        with pytest.raises(RangeError, match="no valid default m for n = 2"):
            experiments.default_audit_m(2)

    def test_banded_density_gap_zero_entropy_tiny(self):
        rep = audit_state_approximation(COS_DENSITY, 16, 21)
        gap = [r for r in rep.rows if r.label == "symbol_gap_sq"][0]
        ent = [r for r in rep.rows if r.label == "relative_entropy"][0]
        assert gap.value == pytest.approx(0.0, abs=1e-15)
        assert ent.value <= 1e-10
        assert rep.all_passed

    def test_entropy_decreases_along_ladder(self):
        rep = audit_state_approximation(LIFTED_GEOM, 64, [67, 71, 79])
        assert rep.all_passed
        ents = [r.value for r in rep.rows if r.label == "relative_entropy"]
        assert ents == sorted(ents, reverse=True)

    @pytest.mark.parametrize("order", [[79, 71, 67], [71, 79, 67]])
    def test_ladder_in_any_order_is_checked_in_ascending_m(self, order):
        up = audit_state_approximation(LIFTED_GEOM, 64, [67, 71, 79])
        other = audit_state_approximation(LIFTED_GEOM, 64, order)
        assert other.all_passed
        steps = [r.as_csv() for r in up.rows if r.label == "entropy_nonincreasing"]
        assert [r.as_csv() for r in other.rows if r.label == "entropy_nonincreasing"] == steps
        assert [r.m for r in other.rows if r.label == "relative_entropy"] == order

    def test_ascending_ladder_rows_keep_their_order(self):
        # per m in the given order its gap, entropy and Pinsker rows, then one
        # step per neighbouring pair: the rows an ascending ladder always had
        rep = audit_state_approximation(LIFTED_GEOM, 64, [67, 71, 79])
        per_m = [r for r in rep.rows if r.label != "entropy_nonincreasing"]
        assert [(r.label, r.m) for r in per_m] == [
            (label, m) for m in (67, 71, 79)
            for label in ("symbol_gap_sq", "relative_entropy", "pinsker_bound")]
        ents = [r for r in per_m if r.label == "relative_entropy"]
        expect = AuditReport(rows=list(per_m))
        for r1, r2 in zip(ents, ents[1:]):
            expect.add("entropy_nonincreasing", 64, r2.m, r2.value, r1.value)
        got, want = io.StringIO(), io.StringIO()
        rep.write_csv(got)
        expect.write_csv(want)
        assert got.getvalue() == want.getvalue()

    def test_small_entropy_matches_exact_value(self):
        # mpmath 1.3 at 40 digits: eigsy of the same float A_64 and circulant
        # block, then sum_ij |V1' V2|^2_ij KL(Geo(p1_i) || Geo(p2_j))
        exact = 8.51213775573510503380729155006e-11
        rep = audit_state_approximation(LIFTED_GEOM, 64, 79)
        ent = [r.value for r in rep.rows if r.label == "relative_entropy"][0]
        assert ent == pytest.approx(exact, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("kwargs", [{"M": math.nan}, {"M": math.inf}, {"alpha": math.nan}])
    def test_non_finite_bound_parameters_refused(self, kwargs):
        # a NaN bound used to read as "no bound" and pass the gap row
        with pytest.raises(RangeError, match="finite"):
            audit_state_approximation(COS_DENSITY, 64, **kwargs)

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count of each symbol build, wherever it is called from."""
        from qsts import toeplitz

        counts = {"toeplitz_from_density": 0, "circulant_block": 0}
        for name in counts:
            original = getattr(toeplitz, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in (toeplitz, experiments):
                monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("ms", [79, [67, 71, 79], [79, 67, 71, 67]])
    def test_each_symbol_is_built_once(self, builds, ms):
        rep = audit_state_approximation(LIFTED_GEOM, 64, ms)
        assert rep.all_passed
        m_count = 1 if np.isscalar(ms) else len(ms)
        assert builds == {"toeplitz_from_density": 1, "circulant_block": m_count}

    @pytest.mark.parametrize("a, n, ms", [
        (LIFTED_GEOM, 64, [67, 71, 79, 125]), (LIFTED_GEOM, 17, [19, 21, 31]),
        (COS_DENSITY, 16, [17, 21, 29]),
        (SpectralDensity(np.array([4.0, 0.5 + 0.3j, -0.25j, 0.1])), 12, [13, 15, 21])])
    def test_gap_rows_equal_the_gap_function_bit_for_bit(self, a, n, ms):
        from qsts.spectral import sobolev_norm
        from qsts.toeplitz import toeplitz_circulant_gap

        _, M = sobolev_norm(a, 1.0)
        rep = audit_state_approximation(a, n, ms, alpha=1.0, M=M)
        rows = [(r.value, r.bound) for r in rep.rows if r.label == "symbol_gap_sq"]
        expect = [toeplitz_circulant_gap(a, n, m, 1.0, M) for m in ms]
        assert [(v.hex(), b.hex()) for v, b in rows] == [(v.hex(), b.hex()) for v, b in expect]

    def test_every_m_is_checked_before_the_first_entropy(self, builds, solves):
        with pytest.raises(RangeError, match="odd m"):
            audit_state_approximation(LIFTED_GEOM, 64, [67, 71, 80])
        assert builds == {"toeplitz_from_density": 1, "circulant_block": 2}
        assert solves == []

    def test_pinsker_row_sqrt(self):
        rep = audit_state_approximation(LIFTED_GEOM, 32, 35)
        ent = [r.value for r in rep.rows if r.label == "relative_entropy"][0]
        pin = [r.value for r in rep.rows if r.label == "pinsker_bound"][0]
        assert pin == pytest.approx(math.sqrt(2 * max(ent, 0.0)), abs=1e-12)


class TestNbSufficiency:
    def test_identical_laws_pass(self):
        chi2, crit, p = nb_sufficiency_test(0.5, 50_000, RngStream(23, 0))
        assert chi2 <= crit and p > 0.001

    def test_pearson_sum_is_scipy_chi2_contingency_bit_for_bit(self):
        from scipy import stats
        gen = np.random.default_rng(20240801)
        # 1160 tables; K = 2 (dof 1) takes the Yates branch
        for K in np.tile(np.arange(2, 31), 40):
            scale = int(gen.choice([4, 40, 400, 4000]))
            table = gen.integers(0, scale, size=(2, K)).astype(float)
            table[gen.integers(0, 2), :] += 1.0  # no empty column
            ref = stats.chi2_contingency(table)
            chi2, crit, p = _pearson_2xk(table)
            assert chi2 == float(ref[0]), table
            # the tail and quantile are closed form, not scipy's: equal to rounding
            assert crit == pytest.approx(stats.chi2.ppf(1.0 - 0.001, K - 1), rel=4e-15)
            # scipy returns 0 for a subnormal tail
            assert p == pytest.approx(ref[1], rel=2e-13, abs=1e-300), table

    def test_critical_value_is_the_exact_root(self):
        from scipy.special import chdtri
        for dof in range(1, 201):
            exact = chi2_quantile_mp(dof, _CHI2_TAIL)
            crit = _chi2_critical(dof)
            assert abs(crit - exact) <= 4e-15 * exact, dof
            assert crit == pytest.approx(chdtri(dof, _CHI2_TAIL), rel=4e-15), dof

    @pytest.mark.parametrize("dof", [4, 5, 14, 16, 20])
    def test_critical_value_stops_on_a_step_onto_the_bracket(self, dof):
        # bisecting on a Newton step that rounds onto the bracket's end left
        # these 6.1e-16 to 9.3e-16 from the root
        exact = chi2_quantile_mp(dof, _CHI2_TAIL)
        assert abs(_chi2_critical(dof) - exact) <= 2e-16 * exact

    def test_tail_against_40_digits(self):
        from scipy.special import chdtrc
        for dof in range(1, 201):
            spread = math.sqrt(2.0 * dof)
            for x in (1e-3, 0.1 * dof, 0.5 * dof, dof, dof + 3.0 * spread,
                      dof + 10.0 * spread, 8.0 * dof, 700.0, 1300.0, 2000.0, 2900.0):
                exact = chi2_tail_mp(dof, x)
                if exact < 1e-300:
                    continue
                q = _chi2_sf(dof, x)
                assert abs(q - exact) <= 2e-13 * exact, (dof, x)
                assert q == pytest.approx(chdtrc(dof, x), rel=2e-13, abs=0.0), (dof, x)

    def test_tail_limits(self):
        assert [_chi2_sf(dof, 0.0) for dof in (1, 2, 9)] == [1.0, 1.0, 1.0]
        # past the Chernoff bound's reach of the least double, at once
        assert [_chi2_sf(dof, x) for dof in (1, 2, 9) for x in (1e6, math.inf)] == [0.0] * 6
        assert _chi2_sf(10 ** 6, 1e300) == 0.0
        assert math.isnan(_chi2_sf(9, math.nan))
        # e^{-y} below the smallest normal double, paid in several factors;
        # 3317 dof is `audit sufficiency --p 0.9995 --seed 1`
        for dof, x in ((999, 3262.0), (2001, 2900.0), (2001, 4000.0),
                       (3317, 3299.0942156173987), (10001, 10443.75)):
            exact = chi2_tail_mp(dof, x)
            assert abs(_chi2_sf(dof, x) - exact) <= 2e-13 * exact, (dof, x)

    @pytest.mark.parametrize("z", [8.0, 30.0])
    def test_far_start_falls_back_to_bisection(self, monkeypatch, z):
        # a start deep in the tail, where Newton steps land below 0 or the density underflows
        expect = {dof: _chi2_critical(dof) for dof in (1, 9, 100)}
        monkeypatch.setattr(experiments, "_Z_ALPHA", z)
        for dof, crit in expect.items():
            assert _chi2_critical(dof) == pytest.approx(crit, rel=4e-15), dof

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_exhausted_quantile_budget_raises(self, monkeypatch, steps):
        monkeypatch.setattr(experiments, "_QUANTILE_STEPS", steps)
        with pytest.raises(NonConvergence, match=f"in {steps} steps"):
            _chi2_critical(9)

    @staticmethod
    def right_tail_fold(table):
        """The earlier merge: fold the last two columns while either is short."""
        while table.shape[1] > 2 and np.any(table[:, -2:].sum(axis=0) / 2.0 < 5.0):
            table = np.hstack([table[:, :-2], table[:, -2:].sum(axis=1, keepdims=True)])
        return table

    def test_merged_bins_each_hold_five_expected_counts(self):
        gen = np.random.default_rng(5)
        for K in np.tile([1, 2, 3, 8, 40, 400], 30):
            scale = gen.choice([0.2, 2.0, 20.0])
            table = gen.poisson(scale * gen.exponential(size=(2, K))).astype(float)
            merged = _merge_short_bins(table)
            expected = merged.sum(axis=0) / 2.0
            assert merged.shape[1] == 1 or np.all(expected >= 5.0), table
            # adjacent columns only: the merged boundaries are original boundaries
            for row in (0, 1):
                assert np.all(np.isin(np.cumsum(merged[row]), np.cumsum(table[row])))
            assert np.array_equal(merged.sum(axis=1), table.sum(axis=1))

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_equals_the_right_tail_fold_where_that_sufficed(self, p):
        from qsts.distributions import geo_sample, nb_sample
        for seed in range(20):
            gen = RngStream(seed, 0).generator()
            sums = np.sum(nb_sample(1.0 / 8, p, gen, size=(5000, 8)), axis=1)
            geo = geo_sample(p, gen, size=5000)
            top = int(max(sums.max(), geo.max()))
            table = np.vstack([np.bincount(sums, minlength=top + 1),
                               np.bincount(geo, minlength=top + 1)]).astype(float)
            folded = self.right_tail_fold(table)
            if np.all(folded.sum(axis=0) / 2.0 >= 5.0):
                assert np.array_equal(_merge_short_bins(table), folded)

    def test_one_pass_equals_the_merge_loop(self):
        # random tables of every kind of short/adequate pattern, K = 1..39
        gen = np.random.default_rng(29)
        for _ in range(2000):
            K = int(gen.integers(1, 40))
            kind = gen.integers(3)
            if kind == 0:
                scale = gen.choice([0.2, 2.0, 20.0])
                table = gen.poisson(scale * gen.exponential(size=(2, K)))
            elif kind == 1:
                table = gen.integers(0, 12, size=(2, K)) * (gen.random((2, K)) < 0.7)
            else:
                table = gen.choice([0, 1, 3, 6, 20], size=(2, K))
            table = table.astype(float)
            assert np.array_equal(_merge_short_bins(table), merge_short_bins_loop(table)), table

    def test_spread_out_samples_merge_in_one_pass(self):
        # at p = 0.9999 the 50000 draws spread over about 10^5 columns, on which
        # a merge of one column per pass is quadratic
        chi2, crit, p = nb_sufficiency_test(0.9999, 50_000, RngStream(3, 0))
        assert math.isfinite(chi2) and math.isfinite(crit) and 0.0 <= p <= 1.0

    @pytest.mark.parametrize("seed", [2, 7])
    def test_sparse_samples(self, seed):
        # 20 draws spread over hundreds of values: the bins are grouped among
        # themselves, not folded into one tail bin
        chi2, crit, p = nb_sufficiency_test(0.99, 20, RngStream(seed, 0))
        assert math.isfinite(crit) and 0.0 < p <= 1.0
        # every draw 0: one bin, nothing to compare
        with pytest.raises(DegenerateSamples):
            nb_sufficiency_test(0.01, 1, RngStream(seed, 0))

    @pytest.mark.parametrize("draws", [1023, 1024, 1025, 5000])
    def test_chunked_poisson_draws_are_those_of_one_nb_sample_call(self, draws):
        # the Poisson draws over the stored gammas, taken in row chunks, are the
        # draws of one nb_sample call on the same stream
        from qsts.distributions import geo_sample, nb_sample
        gen = RngStream(41, 0).generator()
        sums = np.sum(nb_sample(1.0 / 8, 0.5, gen, size=(draws, 8)), axis=1)
        geo = geo_sample(0.5, gen, size=draws)
        top = int(max(sums.max(), geo.max()))
        table = np.vstack([np.bincount(sums, minlength=top + 1),
                           np.bincount(geo, minlength=top + 1)]).astype(float)
        expect = _pearson_2xk(_merge_short_bins(table))
        assert nb_sufficiency_test(0.5, draws, RngStream(41, 0)) == expect

    def test_no_draws_refused(self):
        # zero draws once failed in numpy's max of an empty array
        with pytest.raises(RangeError, match="draws >= 1"):
            nb_sufficiency_test(0.5, 0, RngStream(2, 0))

    def test_pearson_sum_edge_tables(self):
        # one column: scipy's dof = 0 result, chi2 = 0 at p-value 1, no critical value
        chi2, crit, p = _pearson_2xk(np.array([[5.0], [7.0]]))
        assert (chi2, p) == (0.0, 1.0) and math.isnan(crit)
        with pytest.raises(RangeError):
            _pearson_2xk(np.array([[0.0, 3.0, 4.0], [0.0, 2.0, 6.0]]))


class TestAuditReport:
    def test_bound_row_logic(self):
        rep = AuditReport()
        ok = rep.add("x", 1, 1, 1.0, 2.0)
        bad = rep.add("y", 1, 1, 3.0, 2.0)
        assert ok.passed and not bad.passed and not rep.all_passed
