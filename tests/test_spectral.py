import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsts.errors import HermitianSymmetryViolation, InputError, RangeError
from qsts.spectral import (
    RealParam,
    SpectralDensity,
    density_min,
    eval_density,
    fourier_truncate,
    grids,
    local_averages,
    membership,
    parse_density,
    sobolev_norm,
    theta1_space,
    theta2_space,
)

from oracles import (
    coeffs_by_lag_loop,
    density_by_exponentials,
    l2_distance_sq,
    step_function_values,
    theta_by_lag_loop,
)

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
        amin, at = density_min(COS_2_05, 1024)
        assert amin == pytest.approx(1.0, abs=1e-10)
        assert abs(abs(at) - math.pi) < 1e-6


class TestLocalAverages:
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
    def test_points_n2(self):
        t, _ = grids(2, 3)
        np.testing.assert_allclose(t, [0.0, math.pi], atol=1e-15)

    def test_frequencies_m3(self):
        _, w = grids(1, 3)
        np.testing.assert_allclose(w, [-2 * math.pi / 3, 0.0, 2 * math.pi / 3],
                                   atol=1e-15)

    def test_midpoints_are_fourier_frequencies(self):
        # midpoint of cell W_{j,5} equals w_{j-3,5}
        m = 5
        _, w = grids(1, m)
        j = np.arange(1, m + 1)
        mid = 2 * math.pi * ((j - 0.5) / m - 0.5)
        np.testing.assert_allclose(mid, w, atol=1e-12)


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
