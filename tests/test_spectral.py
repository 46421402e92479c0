import math
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qsts import spectral
from qsts.errors import HermitianSymmetryViolation, InputError, NonConvergence, RangeError
from qsts.spectral import (
    RealParam,
    SpectralDensity,
    _certified_min,
    _grid_size,
    _on_grid,
    density_min,
    eval_density,
    fourier_frequencies,
    fourier_truncate,
    local_averages,
    membership,
    parse_density,
    sobolev_norm,
    theta1_space,
    theta2_space,
    theta2prime_space,
)

from oracles import (
    coeffs_by_lag_loop,
    density_min_oracle,
    density_by_exponentials,
    l2_distance_sq,
    local_averages_by_antiderivative,
    step_function_values,
    theta_by_lag_loop,
)

with mpmath.workdps(40):
    # the real root of M^3 - M^2 - 2M - 1, where (1 + 1/M)^2 = M
    EMPTY_BELOW = float(mpmath.findroot(lambda M: M ** 3 - M ** 2 - 2 * M - 1, 2.15))

COS_2_05 = SpectralDensity.from_coeff_map({0: 2.0, 1: 0.5})  # a(w) = 2 + cos w
GEOM = SpectralDensity(np.array([2.0 ** -k for k in range(21)], dtype=complex))
GEOM_DECAY = str(pathlib.Path(__file__).resolve().parents[1] / "demos" / "densities"
                 / "geom_decay.json")


@st.composite
def densities(draw, k_max_top=30):
    """A density with K_max <= k_max_top, a_0 in [-2, 6] and |Re a_k|, |Im a_k| <= 1."""
    part = st.floats(-1.0, 1.0, allow_nan=False)
    k_max = draw(st.integers(0, k_max_top))
    re = draw(st.lists(part, min_size=k_max, max_size=k_max))
    im = draw(st.lists(part, min_size=k_max, max_size=k_max))
    a0 = draw(st.floats(-2.0, 6.0, allow_nan=False))
    return SpectralDensity(np.array([a0] + [complex(x, y) for x, y in zip(re, im)]))


def exact_density(a, w):
    """a(w) in 40-digit arithmetic at the float w."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(w))
        return a.coeffs[0].real + 2 * mpmath.fsum(
            mpmath.mpf(c.real) * mpmath.cos(k * x) - mpmath.mpf(c.imag) * mpmath.sin(k * x)
            for k, c in enumerate(a.coeffs[1:], start=1))


def riemann_average(a, j, n, points=10 ** 6):
    """Independent oracle: J_j by brute-force Riemann sum on [-pi,pi]."""
    x = (j - 1) / n + (np.arange(points) + 0.5) / (points * n)
    return float(np.mean(eval_density(a, 2 * math.pi * (x - 0.5))))


class TestEvalDensity:
    def test_constant(self):
        a = SpectralDensity.constant(2.0)
        assert eval_density(a, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_cosine_at_zero(self):
        assert eval_density(COS_2_05, 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_cosine_at_half_pi(self):
        assert eval_density(COS_2_05, math.pi / 2) == pytest.approx(2.0, abs=1e-12)

    def test_real_on_grid(self):
        w = np.linspace(-math.pi, math.pi, 4097)
        vals = eval_density(GEOM, w)
        assert vals.dtype == float and np.all(np.isfinite(vals))

    @given(densities(), st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1,
                                 max_size=40))
    def test_matches_the_complex_exponential_sum(self, a, omega):
        tol = 1e-13 * (1.0 + float(np.sum(np.abs(a.full_coeffs()))))
        np.testing.assert_allclose(eval_density(a, np.array(omega)),
                                   density_by_exponentials(a, omega), rtol=0, atol=tol)

    @pytest.mark.parametrize("spec, bound", [(GEOM_DECAY, 1.2e-15), ("cos:2,0.5", 2.1e-16)])
    def test_relative_error_against_40_digits(self, spec, bound):
        a = parse_density(spec)
        w = np.linspace(-math.pi, math.pi, 513)
        worst = max(abs((v - exact_density(a, x)) / exact_density(a, x))
                    for v, x in zip(eval_density(a, w), w))
        assert worst <= bound

    def test_reduction_mod_2pi(self):
        assert eval_density(COS_2_05, 2 * math.pi + 0.3) == pytest.approx(
            eval_density(COS_2_05, 0.3), abs=1e-12)

    def test_symmetry_violation_rejected(self):
        with pytest.raises(HermitianSymmetryViolation):
            SpectralDensity.from_coeff_map({0: 2.0, 1: 0.5, -1: 0.4})

    def test_complex_a0_rejected(self):
        with pytest.raises(HermitianSymmetryViolation):
            SpectralDensity(np.array([2.0 + 0.1j]))


class TestSobolevNorm:
    def test_constant(self):
        semi, norm = sobolev_norm(SpectralDensity.constant(2.0), 1.0)
        assert semi == 0.0 and norm == 4.0

    def test_cosine(self):
        semi, norm = sobolev_norm(COS_2_05, 1.0)
        assert semi == pytest.approx(0.5, abs=1e-14)
        assert norm == pytest.approx(4.5, abs=1e-14)

    def test_lag_two_alpha_two(self):
        # hand check: 2 * 2^4 * 0.0625 = 2
        a = SpectralDensity.from_coeff_map({0: 2.0, 2: 0.25})
        semi, norm = sobolev_norm(a, 2.0)
        assert semi == pytest.approx(2.0, abs=1e-13)
        assert norm == pytest.approx(6.0, abs=1e-13)


class TestMembership:
    def test_constant_in_theta1(self):
        w = membership(SpectralDensity.constant(2.0), theta1_space(1.0, 4.0))
        assert w.member

    def test_constant_one_fails_lower_bound(self):
        w = membership(SpectralDensity.constant(1.0), theta1_space(1.0, 4.0))
        assert not w.member and w.constraint == "lower_bound"

    def test_cosine_in_theta2(self):
        # min of 2 + 0.5 cos is 1.5 >= 1.2, norm 4.125 <= 5 (grid oracle below)
        a = SpectralDensity.cosine(2.0, 0.5)
        w = membership(a, theta2_space(1, 5.0))
        assert w.member
        grid = eval_density(a, np.linspace(-math.pi, math.pi, 100001))
        assert grid.min() == pytest.approx(1.5, abs=1e-8)

    def test_support_violation(self):
        w = membership(GEOM, theta2_space(3, 50.0))
        assert not w.member and w.constraint == "support"

    def test_sobolev_norm_above_M_fails_theta1(self):
        # a > 1 + 1/M everywhere, but a_0^2 = 9 alone exceeds M = 4
        a = SpectralDensity.cosine(3.0, 1.0)
        w = membership(a, theta1_space(1.0, 4.0))
        assert not w.member and w.constraint == "norm" and math.isnan(w.location)
        assert (w.value, w.limit) == (sobolev_norm(a, 1.0)[1], 4.0)

    def test_minimum_inside_the_slack_below_the_floor_is_not_certified(self):
        # min a = 100 - b lies 0.5e-12 below 1 + 1/M: no grid value is below the floor
        # by the 1e-12 slack, and no lower bound clears it, up to _CERTIFY_GRID points
        M = 1e5
        b = 100.0 - (1.0 + 1.0 / M) + 0.5e-12
        with pytest.raises(NonConvergence, match=f"on {spectral._CERTIFY_GRID} points"):
            membership(SpectralDensity.cosine(100.0, -b), theta2_space(1, M))

    def test_monotone_in_M(self):
        a = SpectralDensity.cosine(2.0, 0.5)
        for M in (4.2, 5.0, 8.0, 50.0):
            assert membership(a, theta2_space(1, M)).member

    def test_nan_radius_or_smoothness_rejected(self):
        # a NaN M or alpha once passed the M <= 1 and alpha <= 0 checks
        with pytest.raises(RangeError, match="M > 1"):
            theta2_space(1, float("nan"))
        with pytest.raises(RangeError, match="alpha > 0"):
            theta1_space(float("nan"), 5.0)

    @pytest.mark.parametrize("M", [1.5, 2.0, 2.1, math.nextafter(EMPTY_BELOW, 0.0)])
    def test_empty_space_refused(self, M):
        # a >= 1 + 1/M forces a_0^2 >= (1 + 1/M)^2 > M: no density is a member
        for make in (theta2_space, theta2prime_space):
            with pytest.raises(RangeError, match="empty"):
                make(1, M)
        with pytest.raises(RangeError, match="empty"):
            theta1_space(1.0, M)

    def test_negative_bandwidth_refused(self):
        # d = -1 once built a space whose support check flagged lag 0
        for make in (theta2_space, theta2prime_space):
            with pytest.raises(RangeError, match="d >= 0"):
                make(-1, 5.0)

    def test_boundary_space_holds_the_constant(self):
        space = theta2prime_space(1, EMPTY_BELOW)
        assert space.M == 2.1478990357047874
        # the one member: a = 1 + 1/M, whose a_0^2 is M
        assert membership(SpectralDensity.constant(1.0 + 1.0 / EMPTY_BELOW), space).member
        assert not membership(SpectralDensity.constant(1.0 + 1.1 / EMPTY_BELOW), space).member

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_coefficients_rejected(self, bad):
        # a NaN coefficient once made every comparison False: member=True
        with pytest.raises(InputError, match="finite"):
            membership(SpectralDensity([2.0, bad, 0.1, 0.1]), theta2_space(3, 50.0))
        with pytest.raises(InputError, match="finite"):
            SpectralDensity.from_json({"K_max": 1, "coeffs": [
                {"k": 0, "re": 2.0, "im": 0.0},
                {"k": 1, "re": complex(bad).real, "im": complex(bad).imag}]})
        with pytest.raises(InputError, match="finite"):
            SpectralDensity.from_coeff_map({0: bad})

    def test_exact_min_small_support(self):
        # min of 2 + cos is 1 at w = pi, found exactly
        amin, at = density_min(COS_2_05)
        assert amin == pytest.approx(1.0, abs=1e-10)
        assert abs(abs(at) - math.pi) < 1e-6

    @given(densities())
    def test_density_min_against_the_oracle(self, a):
        # the grid surrogate for K_max > 2 sat up to 1e-3 above the minimum
        amin, at = density_min(a)
        scale, exact = float(np.abs(a.full_coeffs()).sum()), density_min_oracle(a.coeffs)[0]
        assert abs(amin - float(exact)) <= 1e-13 * scale
        assert eval_density(a, at) == pytest.approx(amin, abs=1e-13 * scale)
        # the certified bound, on the first grid and a refined one
        for G in (_grid_size(a.k_max), 4 * _grid_size(a.k_max)):
            assert _certified_min(a.full_coeffs(), G)[0] <= exact

    @given(densities(), st.floats(-8.9, -1.0), st.booleans())
    def test_membership_agrees_with_the_oracle(self, a, exponent, above):
        # a_0 puts the floor 10^exponent above or below the 40-digit minimum
        space = theta2_space(a.k_max, 1e4)
        floor = 1.0 + 1.0 / space.M
        base = density_min_oracle(np.r_[0.0, a.coeffs[1:]])[0]
        c = a.coeffs.copy()
        c[0] = floor - float(base) + (1.0 if above else -1.0) * 10.0 ** exponent
        true_min = base + mpmath.mpf(c[0].real)
        assume(abs(true_min - floor) > 1e-9)
        assert membership(SpectralDensity(c), space).member == (true_min >= floor)


class TestOnGrid:
    def test_lag_at_half_the_grid_is_folded_not_cropped(self):
        # a = 3 + cos(8 w) reads 4 at every one of 8 points; cropping lag 8 read 3
        c = np.zeros(9, dtype=complex)
        c[0], c[8] = 3.0, 0.5
        w = 2 * math.pi * np.arange(8) / 8
        np.testing.assert_allclose(_on_grid(c, 8), eval_density(SpectralDensity(c), w),
                                   rtol=1e-14)
        np.testing.assert_allclose(_on_grid(c, 8), 4.0, rtol=1e-14)

    @pytest.mark.parametrize("G", [8, 9, 16])
    def test_lags_past_the_grid_fold_onto_k_mod_g(self, G):
        # K = 3G/2 (rounded up for odd G): lags K, G + 1 and G - 1 alias the low ones
        rng = np.random.default_rng(G)
        K = (3 * G + 1) // 2
        c = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
        c[0] = c[0].real
        a = SpectralDensity(c)
        for start in (0.0, -G / 2):
            w = 2 * math.pi * (np.arange(G) + start) / G
            np.testing.assert_allclose(_on_grid(a.coeffs, G, start), eval_density(a, w),
                                       rtol=0.0, atol=1e-14 * np.abs(c).sum())

    @given(densities(), st.integers(1, 64))
    def test_equals_the_dense_design_at_each_grid_start(self, a, n):
        # the starts in use: -pi, -pi + 2 pi / n, the centred Fourier frequencies of
        # odd n and the cell centres -pi + pi / n; n <= 2 K_max folds
        starts = [-n / 2, 1.0 - n / 2, 0.5 - n / 2] + ([(1 - n) / 2] if n % 2 else [])
        scale = 2.0 * float(np.abs(a.coeffs).sum())
        for start in starts:
            w = 2 * math.pi * (np.arange(n) + start) / n
            assert np.abs(_on_grid(a.coeffs, n, start) - eval_density(a, w)).max() <= (
                1e-14 * scale)


class TestLocalAverages:
    @given(densities(), st.integers(1, 64))
    def test_equals_the_antiderivative_closed_form(self, a, n):
        scale = 2.0 * float(np.abs(a.coeffs).sum())
        assert np.abs(local_averages(a, n)
                      - local_averages_by_antiderivative(a, n)).max() <= 1e-14 * scale

    def test_constant(self):
        out = local_averages(SpectralDensity.constant(3.0), 5)
        np.testing.assert_allclose(out, 3.0, atol=1e-14)

    def test_full_period_mean(self):
        out = local_averages(COS_2_05, 1)
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_against_riemann_oracle(self):
        n = 4
        out = local_averages(COS_2_05, n)
        for j in range(1, n + 1):
            assert out[j - 1] == pytest.approx(riemann_average(COS_2_05, j, n),
                                               abs=1e-8)

    def test_mean_preservation(self):
        for n in (3, 7, 16):
            out = local_averages(GEOM, n)
            assert np.mean(out) == pytest.approx(float(GEOM.coeffs[0].real), abs=1e-10)

    def test_projection_rate(self):
        # || a - abar_n ||^2 decreases by at least factor 3.9 per doubling
        def dist_sq(n):
            heights = local_averages(COS_2_05, n)
            return l2_distance_sq(
                COS_2_05, lambda w: step_function_values(heights, w, n),
                grid=200000)

        prev = dist_sq(8)
        for n in (16, 32, 64):
            cur = dist_sq(n)
            assert cur <= prev / 3.9
            prev = cur


class TestFourierTruncate:
    def test_no_op_beyond_support(self):
        kept, err = fourier_truncate(COS_2_05, 5)
        np.testing.assert_array_equal(kept.coeffs, COS_2_05.coeffs)
        assert err == pytest.approx(0.0, abs=1e-13)

    def test_band_kept(self):
        a = SpectralDensity(np.array([2.0, 0.3, 0.2, 0.1], dtype=complex))
        kept, _ = fourier_truncate(a, 3)
        assert kept.k_max == 1

    def test_tail_bound(self):
        kept, err = fourier_truncate(GEOM, 9)
        tail = 2 * sum(2.0 ** -k for k in range(5, 21))
        assert err <= tail + 1e-12

    def test_monotone_sup_error(self):
        errs = [fourier_truncate(GEOM, m).sup_error for m in (3, 5, 9, 17, 33)]
        assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(errs, errs[1:]))

    def test_sup_error_between_the_points_of_a_fixed_grid(self):
        # a = 3 + 0.1 cos(4096 w) - 0.1 cos(8192 w): both cosines are 1 at every point
        # of a 4097-point grid, which read 0.0 from two dense designs of about 1 GB;
        # the tail's sup is 0.2, at w = pi/4096
        c = np.zeros(8193, dtype=complex)
        c[0], c[4096], c[8192] = 3.0, 0.05, -0.05
        tracemalloc.start()
        try:
            kept, err = fourier_truncate(SpectralDensity(c), 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(kept.coeffs, [3.0, 0.0, 0.0, 0.0, 0.0])
        assert err == pytest.approx(0.2, rel=1e-12)
        assert peak < 100e6

    def test_even_m_rejected(self):
        with pytest.raises(RangeError):
            fourier_truncate(GEOM, 4)

    def test_density_without_sup_report_is_the_same(self):
        # the Hellinger audit builds the truncation without the sup-error grid
        from qsts.spectral import _truncated_density

        for m in (1, 3, 9, 41, 65):
            kept = _truncated_density(GEOM, m)
            np.testing.assert_array_equal(kept.coeffs, fourier_truncate(GEOM, m).density.coeffs)
        with pytest.raises(RangeError):
            _truncated_density(GEOM, 4)


class TestGrids:
    """The Fourier grid w_{j,m} of ``fourier_frequencies``."""

    def test_frequencies_m3(self):
        np.testing.assert_allclose(fourier_frequencies(3),
                                   [-2 * math.pi / 3, 0.0, 2 * math.pi / 3], atol=1e-15)

    def test_midpoints_are_fourier_frequencies(self):
        # midpoint of cell W_{j,5} equals w_{j-3,5}
        m = 5
        w = fourier_frequencies(m)
        j = np.arange(1, m + 1)
        mid = 2 * math.pi * ((j - 0.5) / m - 0.5)
        np.testing.assert_allclose(mid, w, atol=1e-12)

    @pytest.mark.parametrize("m", [0, -1, 4])
    def test_even_or_nonpositive_m_rejected(self, m):
        with pytest.raises(RangeError, match="odd"):
            fourier_frequencies(m)


class TestRealParam:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(0, 4))
            c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            c[0] = c[0].real
            a = SpectralDensity(c)
            back = RealParam.from_density(a).to_density()
            np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-14)
            theta = RealParam.from_density(a)
            again = RealParam.from_density(theta.to_density())
            np.testing.assert_allclose(again.theta, theta.theta, atol=1e-14)


class TestRealParamBits:
    """The array forms of RealParam's maps give the lag loops' bits, signed zeros included."""

    @given(densities(k_max_top=8), st.integers(0, 10))
    def test_from_density(self, a, d):
        assert RealParam.from_density(a, d).theta.tobytes() == theta_by_lag_loop(a, d).tobytes()

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -0.25]) | st.floats(-3.0, 3.0),
                    min_size=1, max_size=9).filter(lambda v: len(v) % 2 == 1))
    def test_to_density(self, theta):
        d = (len(theta) - 1) // 2
        assert RealParam(d, theta).to_density().coeffs.tobytes() == coeffs_by_lag_loop(
            np.array(theta)).tobytes()


class TestSerialization:
    def test_json_round_trip(self):
        a = SpectralDensity.from_coeff_map({0: 2.0, 1: 0.3 + 0.1j, 3: -0.05j})
        b = SpectralDensity.from_json(a.to_json())
        np.testing.assert_allclose(b.coeffs, a.coeffs, atol=0)

    @pytest.mark.parametrize("coeffs", [[{"k": 0, "re": 2.0}], [3], [{"k": "x", "re": 2.0, "im": 0.0}],
                                        None])
    def test_malformed_entries_rejected(self, coeffs):
        # a missing key, a bare number, a non-numeric lag, no list at all
        with pytest.raises(InputError, match="malformed density JSON"):
            SpectralDensity.from_json({"K_max": 1, "coeffs": coeffs})

    @pytest.mark.parametrize("kmax, stored", [(-5, 1), (1, 1), (10 ** 14, 0)])
    def test_k_max_outside_the_stored_lags_rejected(self, kmax, stored):
        # every lag 0..K_max is stored, so K_max < len(coeffs); checked before allocating
        coeffs = [{"k": k, "re": 1.0, "im": 0.0} for k in range(stored)]
        with pytest.raises(InputError, match="K_max"):
            SpectralDensity.from_json({"K_max": kmax, "coeffs": coeffs})


    @pytest.mark.parametrize("ks", [[0, 0], [0, 2], [1, 0, 1], [1]])
    def test_each_lag_stored_exactly_once(self, ks):
        # a lag twice (the second would overwrite the first) or one missing
        coeffs = [{"k": k, "re": 2.0 + k, "im": 0.0} for k in ks]
        with pytest.raises(InputError, match="exactly once"):
            SpectralDensity.from_json({"K_max": 1, "coeffs": coeffs})

    def test_lags_in_any_order(self):
        coeffs = [{"k": 1, "re": 0.25, "im": 0.5}, {"k": 0, "re": 2.0, "im": 0.0}]
        assert SpectralDensity.from_json({"K_max": 1, "coeffs": coeffs}) == SpectralDensity(
            [2.0, 0.25 + 0.5j])


class TestConstruction:
    def test_equality_and_hash_follow_coefficient_bytes(self):
        a = SpectralDensity.cosine(2.0, 0.5)
        same = SpectralDensity([2.0, 0.25], label="other")
        assert a == same and hash(a) == hash(same)
        assert len({a, same}) == 1
        assert a != SpectralDensity([2.0, 0.25, 0.0])
        assert a != SpectralDensity([2.0, 0.5])
        assert a.__eq__(a.coeffs) is NotImplemented

    def test_angle_tie_maps_to_pi(self):
        from qsts.spectral import reduce_angle

        assert reduce_angle(-math.pi) == math.pi
        assert reduce_angle(math.pi) == math.pi
        assert reduce_angle(3 * math.pi) == math.pi
        assert abs(reduce_angle(2 * math.pi + 0.25) - 0.25) < 1e-12
