import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsts import estimators, spectral
from qsts.errors import (
    DimensionError,
    NonConvergence,
    NotAdmissible,
    SingularSystem,
)
from qsts.estimators import (
    design_matrices,
    exact_pi_bar_mean,
    improved_estimator,
    nonparametric_estimate,
    onestep_estimator,
    phi_matrices,
    preliminary_estimator,
    project_theta,
)
from qsts.harness import RngStream, mc_run
from qsts.measurement import block_scheme, pi_moments, sample_pi_blocks
from qsts.spectral import (
    RealParam,
    SpectralDensity,
    density_min,
    membership,
    psi_matrix,
    theta2prime_space,
)
from qsts.toeplitz import toeplitz_from_density

from oracles import (
    density_min_oracle,
    fisher_by_basis_change,
    phi_cosine_closed_form,
    project_ball_cone,
)

COS_DENSITY = SpectralDensity.cosine(2.0, 0.5)
COS_THETA = RealParam.from_density(COS_DENSITY, d=1).theta  # (0, 2, sqrt2/4)


def quad_project_oracle(x, space):
    """Oracle: projection by dense SLSQP onto the set ``membership`` accepts.

    For d <= 1 that set is {||v||^2 <= M} and the exact minimum
    v_0 - sqrt(2) ||(v_-1, v_1)|| of a_v being at least 1 + 1/M.
    """
    from scipy.optimize import minimize

    d = (len(x) - 1) // 2
    assert d <= 1
    floor = 1.0 + 1.0 / space.M

    def lowest(v):
        return v[d] - math.sqrt(2.0) * np.linalg.norm(np.delete(v, d))

    def lowest_jac(v):
        r = np.linalg.norm(np.delete(v, d))
        g = -math.sqrt(2.0) * v / r if r > 0.0 else np.zeros_like(v)
        g[d] = 1.0
        return g

    cons = [
        {"type": "ineq", "fun": lambda v: space.M - v @ v,
         "jac": lambda v: -2 * v},
        {"type": "ineq", "fun": lambda v: lowest(v) - floor, "jac": lowest_jac},
    ]
    res = minimize(lambda v: np.sum((v - x) ** 2), x0=np.asarray(x, float),
                   jac=lambda v: 2 * (v - x), constraints=cons,
                   method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
    return res.x


class TestDesignMatrices:
    def test_d0(self):
        W, F, _ = design_matrices(7, 0, np.array([2.0]))
        np.testing.assert_allclose(W, np.full((7, 1), 1 / math.sqrt(7)), atol=1e-14)
        np.testing.assert_allclose(F, [1.0], atol=0)

    def test_constant_delta(self):
        _, _, Delta = design_matrices(9, 0, np.array([3.0]))
        np.testing.assert_allclose(Delta, 8.0, atol=1e-12)

    def test_orthonormal_columns(self):
        W, _, _ = design_matrices(7, 1, COS_THETA)
        np.testing.assert_allclose(W.T @ W, np.eye(3), atol=1e-12)
        W2, _, _ = design_matrices(21, 2, np.array([0.0, 0.0, 2.0, 0.1, 0.0]))
        np.testing.assert_allclose(W2.T @ W2, np.eye(5), atol=1e-12)

    def test_f_entries(self):
        _, F, _ = design_matrices(9, 1, COS_THETA)
        np.testing.assert_allclose(F, [9 / 8, 1.0, 9 / 8], atol=0)

    def test_inadmissible_rejected(self):
        with pytest.raises(NotAdmissible):
            design_matrices(7, 0, np.array([1.0]))

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            design_matrices(3, 2, np.zeros(5))

    def test_negative_bandwidth_rejected(self):
        # d = -1 once reached numpy's "negative dimensions are not allowed"
        with pytest.raises(DimensionError, match="d >= 0"):
            design_matrices(9, -1, np.zeros(0))
        with pytest.raises(DimensionError, match="d >= 0"):
            nonparametric_estimate(np.full(65, 3.0), -1)

    def test_theta_of_another_bandwidth_rejected(self):
        with pytest.raises(DimensionError):
            design_matrices(9, 1, np.array([0.0, 0.0, 2.0, 0.0, 0.0]))

    def test_estimator_inputs_of_the_wrong_length_rejected(self):
        from qsts.estimators import weighted_estimator

        with pytest.raises(DimensionError, match="pi_bar must have length m = 9"):
            preliminary_estimator(np.full(8, 2.0), 9, 1)
        with pytest.raises(DimensionError, match="pi_bar and delta must have length m = 9"):
            weighted_estimator(np.full(9, 2.0), np.ones(8), 9, 1)

    def test_nan_theta_rejected(self):
        # NaN <= 0 is False, so only a test for positivity catches a NaN Delta
        with pytest.raises(NotAdmissible):
            design_matrices(9, 1, np.array([0.0, np.nan, 0.1]))


class TestFixedPoints:
    @pytest.mark.parametrize("m,d", [(7, 1), (21, 2)])
    def test_preliminary_fixed_point(self, m, d):
        theta = np.zeros(2 * d + 1)
        theta[d] = 2.0
        theta[d + 1] = 0.35
        if d >= 2:
            theta[d + 2] = -0.1
        mean = exact_pi_bar_mean(theta, m)
        out = preliminary_estimator(mean, m, d)
        np.testing.assert_allclose(out, theta, atol=1e-12)

    @pytest.mark.parametrize("m,d", [(7, 1), (21, 2)])
    def test_improved_fixed_point(self, m, d):
        theta = np.zeros(2 * d + 1)
        theta[d] = 2.0
        theta[d + 1] = 0.35
        theta_bar = theta + 0.01  # any admissible weight parameter works
        mean = exact_pi_bar_mean(theta, m)
        out = improved_estimator(mean, theta_bar, m, d)
        np.testing.assert_allclose(out, theta, atol=1e-12)

    def test_d0_average(self):
        out = preliminary_estimator(np.full(7, 3.0), 7, 0)
        assert out[0] == pytest.approx(3.0, abs=1e-12)

    def test_constant_weights_reduce_to_preliminary(self):
        m, d = 9, 1
        rng = np.random.default_rng(4)
        pi_bar = rng.uniform(1.5, 3.0, size=m)
        prelim = preliminary_estimator(pi_bar, m, d)
        onestep = improved_estimator(pi_bar, np.array([0.0, 2.0, 0.0]), m, d)
        np.testing.assert_allclose(onestep, prelim, atol=1e-12)

    def test_gls_scale_invariance(self):
        from qsts.estimators import design_matrices, weighted_estimator

        m, d = 9, 1
        rng = np.random.default_rng(14)
        pi_bar = rng.uniform(1.5, 3.0, size=m)
        _, _, Delta = design_matrices(m, d, COS_THETA)
        base = weighted_estimator(pi_bar, Delta, m, d)
        for c in (1e-3, 0.5, 7.0, 1e4):
            scaled = weighted_estimator(pi_bar, c * Delta, m, d)
            np.testing.assert_allclose(scaled, base, atol=1e-10)


class TestExactAtTheAnalyticMean:
    """Both estimators return theta from exact_pi_bar_mean(theta, m), for any admissible theta."""

    @given(st.data())
    def test_exact_at_the_analytic_mean(self, data):
        d = data.draw(st.integers(0, 3))
        m = data.draw(st.integers(d, 15)) * 2 + 1                  # odd, 2d + 1 <= m <= 31
        coef = st.floats(-1.0, 1.0)
        theta = np.array(data.draw(st.lists(coef, min_size=2 * d + 1, max_size=2 * d + 1)))
        # a_theta >= theta_0 - sqrt(2) sum_{j != 0} |theta_j| > 1
        slack = data.draw(st.floats(0.1, 5.0))
        theta[d] = 1.0 + math.sqrt(2.0) * (np.abs(theta).sum() - abs(theta[d])) + slack
        # theta_0 + 0.1 outweighs the at most 0.006 (1 + 6 sqrt(2)) < 0.06 that eps takes off
        eps = np.array(data.draw(st.lists(st.floats(-0.006, 0.006), min_size=2 * d + 1,
                                          max_size=2 * d + 1)))
        theta_bar = theta + eps
        theta_bar[d] += 0.1
        mean = exact_pi_bar_mean(theta, m)
        tol = 1e-11 * (1.0 + np.linalg.norm(theta))
        assert np.max(np.abs(preliminary_estimator(mean, m, d) - theta)) <= tol
        assert np.max(np.abs(improved_estimator(mean, theta_bar, m, d) - theta)) <= tol


class TestWeightedGate:
    """The 1e12 gate on cond(W' D^-1 W), read off its eigenvalues."""

    M, D = 9, 1

    def normal_matrix(self, delta):
        from qsts.estimators import _design

        W, _ = _design(self.M, self.D)
        return W.T @ (W / delta[:, None])

    def test_sweep_across_the_gate(self):
        from qsts.estimators import weighted_estimator

        # weight 1 on two frequencies and eps elsewhere: cond ~ 0.43 / eps
        pi_bar = np.random.default_rng(8).uniform(1.5, 3.0, size=self.M)
        sides = []
        for eps in np.logspace(-10, -15, 41):
            delta = np.full(self.M, 1.0 / eps)
            delta[[0, 4]] = 1.0
            G = self.normal_matrix(delta)
            lams = np.linalg.eigvalsh(G)
            above = bool(lams[-1] / lams[0] > 1e12)
            assert above == bool(np.linalg.cond(G) > 1e12)
            sides.append(above)
            if above:
                with pytest.raises(SingularSystem):
                    weighted_estimator(pi_bar, delta, self.M, self.D)
            else:
                assert np.all(np.isfinite(weighted_estimator(pi_bar, delta, self.M, self.D)))
        assert 5 < sum(sides) < len(sides) - 5

    def test_indefinite_weights_refused(self):
        from qsts.estimators import weighted_estimator

        # D = -I gives G = -I: condition number 1, but lambda_min < 0
        delta = -np.ones(self.M)
        assert np.linalg.cond(self.normal_matrix(delta)) == pytest.approx(1.0)
        with pytest.raises(SingularSystem):
            weighted_estimator(np.full(self.M, 2.0), delta, self.M, self.D)

    def test_eigensolve_only_where_the_weight_ratio_can_trip_the_gate(self, solves):
        # W has orthonormal columns, so cond(W' D^-1 W) <= max delta / min delta; the
        # blocked replicates of n = 4096 (409 blocks of m = 9) never come near 1e9
        from qsts.estimators import weighted_estimator

        a, scheme, space = SpectralDensity.cosine(2.0, 0.5), block_scheme(4096, 1), \
            theta2prime_space(1, 5.0)
        for i in range(1, 201):
            pi_bar = sample_pi_blocks(a, scheme, RngStream(37, i)).pi_bar
            projected = project_theta(preliminary_estimator(pi_bar, scheme.m, 1), space)
            assert np.all(np.isfinite(improved_estimator(pi_bar, projected, scheme.m, 1)))
        assert [call for call in solves if call[0] == "eigvalsh"] == []
        delta = np.ones(self.M)
        delta[0] = 2e9
        assert np.all(np.isfinite(weighted_estimator(np.full(self.M, 2.0), delta, self.M, self.D)))
        assert [call for call in solves if call[0] == "eigvalsh"] == [("eigvalsh", (3, 3))]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_refused(self, bad):
        from qsts.estimators import weighted_estimator

        delta = np.full(self.M, 2.0)
        delta[3] = bad
        with pytest.raises(SingularSystem):
            weighted_estimator(np.full(self.M, 2.0), delta, self.M, self.D)


def test_onestep_is_the_three_stage_chain():
    scheme = block_scheme(2048, 1)
    pi_bar = sample_pi_blocks(COS_DENSITY, scheme, RngStream(9, 1)).pi_bar
    space = theta2prime_space(1, 5.0)
    chain = improved_estimator(
        pi_bar, project_theta(preliminary_estimator(pi_bar, scheme.m, 1), space),
        scheme.m, 1)
    np.testing.assert_array_equal(onestep_estimator(pi_bar, scheme.m, 1, space), chain)


class TestProjection:
    SPACE = theta2prime_space(1, 5.0)
    # this point's projection adds 23 rows: 2 grid rows, then 15 tangent cuts
    # of the ball interleaved with 6 witness rows from ``density_min``
    SLOW_X, SLOW_SPACE = np.array([0.2, 3.0, -3.0]), theta2prime_space(1, 10.0)

    def test_feasible_unchanged(self):
        out = project_theta(COS_THETA, self.SPACE)
        np.testing.assert_allclose(out, COS_THETA, atol=0)

    def test_norm_violation_ray_scaling(self):
        x = COS_THETA * 4.0
        out = project_theta(x, self.SPACE)
        # scaled point stays feasible for the floor, so the ball projection
        # is the answer; cross-check with the QP oracle
        oracle = quad_project_oracle(x, self.SPACE)
        np.testing.assert_allclose(out, oracle, atol=1e-6)
        assert np.linalg.norm(out) == pytest.approx(math.sqrt(5.0), abs=1e-9)

    def test_floor_violation(self):
        x = np.array([0.0, 1.0, 0.0])  # constant density 1.0 < 1.2
        out = project_theta(x, self.SPACE)
        vals = psi_matrix(1, np.linspace(-math.pi, math.pi, 2001)) @ out
        assert vals.min() >= 1.0 + 1.0 / 5.0 - 1e-8
        oracle = quad_project_oracle(x, self.SPACE)
        np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_joint_violation_vs_oracle(self):
        x = np.array([1.8, 0.9, -2.2])
        out = project_theta(x, self.SPACE)
        oracle = quad_project_oracle(x, self.SPACE)
        np.testing.assert_allclose(out, oracle, atol=5e-6)

    def test_input_membership_cannot_decide_is_projected(self):
        # min a lies 9.76e-13 below the floor, inside membership's 1e-12 slack, and
        # _certified_min's bound stays ~1e-12 below it on every grid: membership
        # raised NonConvergence at _CERTIFY_GRID, and the projection with it
        x = np.array([0.39698851206326063, 2.3223229630202953, 0.7500072617860729])
        space = theta2prime_space(1, 8.181253576197452)
        with pytest.raises(NonConvergence):
            membership(RealParam(1, x).to_density(), space)
        out = project_theta(x, space)
        a = RealParam(1, out).to_density()
        assert membership(a, space).member
        assert 0.0 < np.linalg.norm(out - x) < 1e-9
        assert density_min(a)[0] >= 1.0 + 1.0 / space.M

    def test_idempotent(self):
        x = np.array([1.8, 0.9, -2.2])
        once = project_theta(x, self.SPACE)
        twice = project_theta(once, self.SPACE)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    @pytest.mark.parametrize("cuts", [0, 1, 2])
    def test_exhausted_cut_budget_raises(self, cuts, monkeypatch):
        # the budget stops the loop after its 2 grid rows and ``cuts`` tangent
        # cuts, while it still cuts the ball
        steps = 2 + cuts
        monkeypatch.setattr(estimators, "_PROJECTION_STEPS", steps)
        with pytest.raises(NonConvergence, match=f"_PROJECTION_STEPS = {steps} added rows; "
                                                 "next would be a tangent cut of the ball"):
            project_theta(self.SLOW_X, self.SLOW_SPACE)

    @pytest.mark.parametrize("steps, kind", [(5, "witness row")], ids=["witness"])
    def test_exhausted_step_budget_raises(self, steps, kind, monkeypatch):
        # stopped while the loop still adds witness rows
        monkeypatch.setattr(estimators, "_PROJECTION_STEPS", steps)
        with pytest.raises(NonConvergence, match=f"_PROJECTION_STEPS = {steps} added rows; "
                                                 f"next would be a {kind}"):
            project_theta(self.SLOW_X, self.SLOW_SPACE)

    @pytest.mark.parametrize("x, M, rows", [
        ((0.0, 2.0, 0.0, 0.0, 0.0), 3.0, 29),
        ((0.2, 3.0, -3.0), 10.0, 23),
        ((1.8, 0.9, -2.2), 5.0, 16),
    ])
    def test_rows_added_per_projection(self, x, M, rows, added_rows):
        # each step adds one row; slower cut or witness convergence shows up here
        project_theta(np.array(x), theta2prime_space((len(x) - 1) // 2, M))
        assert len(added_rows) == rows

    def test_default_sweep_budget_converges(self):
        out = project_theta(self.SLOW_X, self.SLOW_SPACE)
        oracle = quad_project_oracle(self.SLOW_X, self.SLOW_SPACE)
        np.testing.assert_allclose(out, oracle, atol=5e-6)

    def test_result_clears_the_exact_minimum(self):
        # the 512-point grid alone left an exact minimum of 1.09997 < 1.1 here
        # and ||theta||^2 = M + 2.4e-10
        out = project_theta(self.SLOW_X, self.SLOW_SPACE)
        assert out @ out <= self.SLOW_SPACE.M
        lowest = out[1] - math.sqrt(2.0) * math.hypot(out[0], out[2])
        assert lowest >= 1.0 + 1.0 / self.SLOW_SPACE.M
        assert membership(RealParam(1, out).to_density(), self.SLOW_SPACE).member

    def test_feasible_input_skips_membership_when_the_grid_clears_the_floor(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("membership called")

        monkeypatch.setattr(estimators, "membership", refuse)
        out = project_theta(COS_THETA, self.SPACE)
        assert out.tobytes() == COS_THETA.tobytes()

    def test_feasible_input_near_the_floor_unchanged(self):
        # an exact minimum 1e-9 above the floor: the grid cannot tell; the lag
        # bound, exact at d = 1, can
        x = np.array([0.3, 0.0, 0.4])
        x[1] = 1.2 + 1e-9 + math.sqrt(2.0) * 0.5
        assert project_theta(x, self.SPACE).tobytes() == x.tobytes()

    @given(st.integers(0, 3), st.sampled_from([5.0, 10.0]),
           st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           st.sampled_from(["floor", "near floor", "ball"]), st.floats(-1.0, 1.0))
    @example(0, 5.0, [0.0] * 6, "near floor", 1.0)
    @example(3, 5.0, [0.1, -0.2, 0.05, 0.0, 0.3, -0.1], "near floor", -1.0)
    @example(1, 5.0, [0.2, 0.1] + [0.0] * 4, "floor", 0.001)
    @example(1, 10.0, [0.2, 0.1] + [0.0] * 4, "ball", -0.05)
    def test_lag_bound_accepts_only_members(self, d, M, coords, where, offset):
        # theta_0 puts the lag bound theta_0 - sqrt(2) sum_j hypot(theta_j, theta_-j)
        # at floor + delta, or ||theta||^2 at M (1 + 1e-11 offset).  Within
        # 1e-13 of the floor (delta in [-1e-13, 1e-14], below the rounding allowance,
        # which exceeds 1.3e-14 here) the bound must leave the answer to the grid
        space, floor = theta2prime_space(d, M), 1.0 + 1.0 / M
        pairs = 0.3 * np.array(coords[:2 * d])
        lag = float(np.hypot(pairs[:d][::-1], pairs[d:]).sum())   # theta_-j, theta_j
        if where == "floor":
            theta0 = floor + math.sqrt(2.0) * lag + 0.5 * offset
        elif where == "near floor":
            theta0 = floor + math.sqrt(2.0) * lag - 1e-13 + 0.55e-13 * (offset + 1.0)
        else:
            theta0 = math.sqrt(M * (1.0 + 1e-11 * offset) - float(pairs @ pairs))
        x = np.concatenate((pairs[:d], [theta0], pairs[d:]))
        member = membership(RealParam(d, x).to_density(), space).member
        grid = estimators._grid_design.cache_info()
        admissible = estimators._admissible(x, space)
        after = estimators._grid_design.cache_info()
        quick = after.hits + after.misses == grid.hits + grid.misses
        assert admissible == member
        if quick:
            assert member
            assert project_theta(x, space).tobytes() == x.tobytes()
        if where == "near floor":
            assert not quick

    def assert_near_exact(self, x, M):
        """A member, within 2e-5 of the exact projection and no farther from x."""
        d = (len(x) - 1) // 2
        space = theta2prime_space(d, M)
        out = project_theta(x, space)
        exact = project_ball_cone(x, M)
        assert membership(RealParam(d, out).to_density(), space).member
        assert np.linalg.norm(out - exact) <= 2e-5
        assert np.linalg.norm(out - x) <= np.linalg.norm(exact - x) + 1e-9

    @pytest.mark.parametrize("x, M", [
        ((1.8, 0.9, -2.2), 5.0), ((0.2, 3.0, -3.0), 10.0), ((0.0, 1.0, 0.0), 5.0),
        ((0.0, -4.0, 0.0), 5.0), ((3.0, 0.5, 0.0), 3.0), ((0.5,), 4.0), ((7.0,), 4.0)])
    def test_exact_oracle_agrees_with_slsqp(self, x, M):
        x = np.array(x)
        exact = project_ball_cone(x, M)
        np.testing.assert_allclose(exact, quad_project_oracle(x, theta2prime_space(len(x) // 2, M)),
                                   atol=1e-6)

    def test_sweep_against_the_exact_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, M = rng.uniform(-5.0, 5.0, 3), rng.uniform(3.0, 20.0)
            self.assert_near_exact(x, M)

    def test_iterates_that_agree_do_not_stop_short(self):
        # an alternating projection that stops once two iterates agree
        # returned the apex (0, 1.32823, 0) here, 0.034 farther from x than
        # the exact projection (-0.16192, 1.72300, 0.22739)
        x = np.array([-3.0484047840301374, -1.5832481588165939, 4.281134210145737])
        self.assert_near_exact(x, 3.0466685089400434)

    @given(st.integers(0, 3), st.floats(3.0, 20.0),
           st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=7, max_size=7))
    def test_result_is_a_member(self, d, M, coords):
        space = theta2prime_space(d, M)
        out = project_theta(np.array(coords[:2 * d + 1]), space)
        assert membership(RealParam(d, out).to_density(), space).member


@pytest.mark.parametrize("d", [2, 3])
def test_projection_sweep_above_d1_gives_members(d):
    # inputs on which nested cut loops over a least-squares solver can stop 5-8e-11
    # outside the ball
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, space = rng.uniform(-5.0, 5.0, 2 * d + 1), theta2prime_space(d, rng.uniform(3.0, 20.0))
        out = project_theta(x, space)
        assert membership(RealParam(d, out).to_density(), space).member


@pytest.mark.parametrize("d", [0, 1])
def test_projection_far_outside_the_ball_gives_a_member(d):
    # at ||x|| ~ 1e6 a met floor row rounds to -1e-10 and was added again and again
    space = theta2prime_space(d, 1e4)
    out = project_theta(np.full(2 * d + 1, 1e6), space)
    assert membership(RealParam(d, out).to_density(), space).member


def test_projection_far_outside_the_ball_at_d3_exhausts_its_rows():
    # a member takes 355 rows here, as the ball's tangent cuts converge linearly;
    # a 1024-step grid once let 12 rows return a result 1.99e-3 below the floor
    with pytest.raises(NonConvergence, match="_PROJECTION_STEPS = 256 added rows"):
        project_theta(np.full(7, 1e6), theta2prime_space(3, 1e4))


def oracle_min_of(theta):
    """The 40-digit minimum of a_theta."""
    return float(density_min_oracle(RealParam((len(theta) - 1) // 2, theta).to_density().coeffs)[0])


def test_projection_at_d3_clears_the_floor_between_grid_points():
    # a 1024-step grid passed a result 4.4e-5 below the floor 1.1 here
    space = theta2prime_space(3, 10.0)
    out = project_theta(np.array([-2.2, 1.7, 1.0, 0.1, 1.9, 0.3, 2.9]), space)
    assert oracle_min_of(out) >= 1.0 + 1.0 / space.M - 1e-12


def test_projection_sweep_at_d3_clears_the_oracle_floor():
    # ||x|| = 10^U(-2, 1) and M = 2.148 + 10^U(-4, 3); a 1024-step grid
    # passed results up to 9.3e-4 below the floor on such inputs
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.normal(size=7)
        x *= 10.0 ** rng.uniform(-2.0, 1.0) / np.linalg.norm(x)
        space = theta2prime_space(3, 2.148 + 10.0 ** rng.uniform(-4.0, 3.0))
        out = project_theta(x, space)
        assert out @ out <= space.M
        assert oracle_min_of(out) >= 1.0 + 1.0 / space.M - 1e-12


def phi_on_grid(theta, d, grid):
    """phi0 and phi by the trapezoid rule on ``grid`` points, the design rebuilt.

    Each entry is one pairwise ``np.sum`` over the grid, whose rounding grows
    like log(grid); a BLAS product's grows like grid (2.4e-12 relative for a
    constant weight on 2^16 points).
    """
    psi = psi_matrix(d, -math.pi + 2.0 * math.pi * np.arange(grid) / grid).T.copy()
    weight = (theta @ psi) ** 2 - 1.0
    out = []
    for f in (weight, 1.0 / weight):
        m = np.array([(psi[j] * f * psi).sum(axis=-1) for j in range(2 * d + 1)]) / grid
        out.append(0.5 * (m + m.T))
    return tuple(out)


def with_floor_gap(theta, gap):
    """theta with theta_0 set so that min a_theta = 1 + gap."""
    d = (len(theta) - 1) // 2
    theta = np.array(theta, dtype=float)
    theta[d] = 0.0
    theta[d] = 1.0 + gap - density_min(RealParam(d, theta).to_density())[0]
    return theta


class TestPhiMatrices:
    def test_constant_density(self):
        c = 3.0
        phi0, phi = phi_matrices(np.array([0.0, c, 0.0]), 1)
        np.testing.assert_allclose(phi0, (c * c - 1) * np.eye(3), atol=1e-10)
        np.testing.assert_allclose(phi, np.eye(3) / (c * c - 1), atol=1e-10)

    def test_cosine_phi0_closed_form(self):
        # hand integrals for a = 2 + 0.5 cos: a^2-1 = 3.125 + 2 cos + 0.125 cos 2w
        phi0, _ = phi_matrices(COS_THETA, 1)
        expect = np.array([
            [3.0625, 0.0, 0.0],
            [0.0, 3.125, math.sqrt(2.0)],
            [0.0, math.sqrt(2.0), 3.1875],
        ])
        np.testing.assert_allclose(phi0, expect, atol=1e-10)

    def test_quadrature_doubling(self):
        p1 = phi_matrices(COS_THETA, 1)
        phi0, phi = phi_on_grid(COS_THETA, 1, 1 << 14)
        assert np.max(np.abs(p1.phi0 - phi0)) < 1e-13
        assert np.max(np.abs(p1.phi - phi)) < 1e-13

    def test_phi0_is_exact_above_the_quadrature_grid(self):
        # a^2 - 1 = 8.09 + 1.8 sqrt2 cos(1100 w) + 0.09 cos(2200 w), and phi0's
        # integrand reaches degree 4d = 4400: 4096 points aliased it by 0.045.
        # The dense 8192 x 2201 design took 3.6 s, 387 MB, and stayed cached.
        d = 1100
        theta = np.zeros(2 * d + 1)
        theta[d], theta[d + 1100] = 3.0, 0.3
        cached = estimators._grid_design.cache_info().currsize
        tracemalloc.start()
        try:
            phi0, phi = phi_matrices(theta, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two returned matrices are 77.5 MB; the work around them stays small
        assert peak - phi0.nbytes - phi.nbytes < 64e6
        assert estimators._grid_design.cache_info().currsize == cached
        # F[m] = (1/2 pi) int (a^2 - 1) cos(m w) dw
        F = np.zeros(4 * d + 1)
        F[0], F[1100], F[2200] = 8.09, 0.9 * math.sqrt(2.0), 0.045
        j = np.arange(1, d + 1)
        diff, total = F[np.abs(j[:, None] - j)], F[j[:, None] + j]
        exact = np.zeros((2 * d + 1, 2 * d + 1))
        exact[d, d] = F[0]
        exact[d, d + 1:] = exact[d + 1:, d] = math.sqrt(2.0) * F[j]
        exact[d + 1:, d + 1:] = diff + total            # cos j w cos k w
        exact[:d, :d] = (diff - total)[::-1, ::-1]      # sin j w sin k w
        assert np.max(np.abs(phi0 - exact)) < 1e-12

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5, 10])
    def test_phi0_is_the_autoconvolution_of_the_lags(self, d):
        # a^2 - 1 has the lags of a convolved with themselves, less 1 at lag 0
        rng = np.random.default_rng(40 + d)
        for _ in range(10):
            theta = rng.normal(size=2 * d + 1)
            theta *= rng.uniform(0.1, 2.0) / max(np.linalg.norm(theta), 1.0)
            theta = with_floor_gap(theta, 10.0 ** rng.uniform(-6.0, 0.0))
            full = RealParam(d, theta).to_density().full_coeffs()
            lags = np.convolve(full, full)
            lags[2 * d] -= 1.0
            exact = fisher_by_basis_change(lags, d)
            assert np.max(np.abs(phi_matrices(theta, d).phi0 - exact)) <= (
                1e-14 * np.max(np.abs(exact)))

    @pytest.mark.parametrize("d", [0, 1, 2, 5])
    def test_toeplitz_plus_hankel_is_the_basis_change(self, d):
        # sine lags too: random Hermitian lags, against the dense U C U^H
        rng = np.random.default_rng(50 + d)
        c = rng.normal(size=(2, 4 * d + 1)) + 1j * rng.normal(size=(2, 4 * d + 1))
        c += np.conj(c[:, ::-1])
        got = estimators._fisher_from_lags(c, d)
        for g, lags in zip(got, c):
            exact = fisher_by_basis_change(lags, d)
            assert np.max(np.abs(g - exact)) <= 1e-15 * np.max(np.abs(exact)) * (2 * d + 1)
            assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("a0", [1.500001, 1.5000001])
    def test_phi_near_the_floor_matches_the_closed_form(self, a0):
        # 4096 fixed points missed phi by 5.6e-4 and 0.16 relative here; the rounding
        # of a near 1 alone moves 1/(a^2 - 1) by about eps / (a_min - 1) relative
        theta = RealParam.from_density(SpectralDensity.cosine(a0, 0.5), d=1).theta
        exact = phi_cosine_closed_form(a0, 0.5)
        tol = 4.0 * np.finfo(float).eps / (a0 - 1.5)
        assert np.max(np.abs(phi_matrices(theta, 1).phi - exact)) <= tol * np.max(np.abs(exact))

    @settings(max_examples=20)
    @given(st.integers(0, 3), st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
           st.floats(-1.0, 0.5), st.integers(-5, 0), st.floats(1.0, 10.0))
    @example(3, [0.3, -0.2, 0.5, 0.0, 1.0, 0.1, -0.7], 0.5, -5, 1.0)
    def test_phi_matches_a_fine_dense_rule(self, d, direction, log_norm, log_gap, scale):
        # the dense rule's own rounding near the floor is about eps / (a_min - 1)
        theta = np.array(direction[:2 * d + 1])
        theta[d] = 0.0
        if np.linalg.norm(theta) > 0.0:
            theta *= 10.0 ** log_norm / np.linalg.norm(theta)
        gap = scale * 10.0 ** log_gap / 10.0
        theta = with_floor_gap(theta, gap)
        got = phi_matrices(theta, d)
        ref = phi_on_grid(theta, d, 1 << 18 if gap < 1e-4 else 1 << 16)
        tol = 1e-13 + 16.0 * np.finfo(float).eps / gap
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= tol * np.max(np.abs(r))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(8)
        space = theta2prime_space(1, 4.0)
        count = 0
        while count < 20:
            theta = rng.uniform(-0.5, 0.5, size=3)
            theta[1] = rng.uniform(1.6, 1.9)
            vals = psi_matrix(1, np.linspace(-math.pi, math.pi, 512)) @ theta
            if vals.min() < 1.0 + 1.0 / 4.0 or theta @ theta > 4.0:
                continue
            count += 1
            phi0, phi = phi_matrices(theta, 1)
            for M in (phi0, phi):
                np.testing.assert_allclose(M, M.T, atol=1e-12)
                assert np.linalg.eigvalsh(M)[0] > 0
            # eigenvalue brackets: 1/(M(2d+1)) <= lambda(phi) <= M
            lams = np.linalg.eigvalsh(phi)
            assert lams[0] >= 1.0 / (4.0 * 3.0) - 1e-9
            assert lams[-1] <= 4.0 + 1e-9

    def test_inadmissible(self):
        with pytest.raises(NotAdmissible):
            phi_matrices(np.array([0.0, 1.0, 0.0]), 1)

    @pytest.mark.parametrize("theta", [
        [0.0, -3.0, 0.0],                  # a^2 - 1 = 8 > 0, yet a < 1 everywhere
        [0.0, 2.0, math.sqrt(2.0)],        # a = 2 + 2 cos w reaches 0
        [0.0, 1.5 + 1e-15, 0.25 * math.sqrt(2.0)],   # within rounding of 1
        [0.0, math.nan, 0.0],
        [0.0, math.inf, 0.0],
    ])
    def test_a_theta_must_be_certified_above_one(self, theta):
        # a^2 - 1 > 0 on the grid once accepted a = -3 and returned phi0 = 8 I
        with pytest.raises(NotAdmissible):
            phi_matrices(np.array(theta), 1)

    def test_grid_cap_is_a_numerical_failure(self):
        theta = RealParam.from_density(SpectralDensity.cosine(1.5 + 1e-12, 0.5), d=1).theta
        with pytest.raises(NonConvergence, match=f"G = {spectral._GRID_CAP} points"):
            phi_matrices(theta, 1)

    @pytest.mark.parametrize("d, grid", [(0, 17), (1, 4096), (3, 4096), (3, 1000)])
    def test_cached_design_gives_the_uncached_bytes(self, d, grid):
        # reference: the design rebuilt on every call; phi_matrices reads no
        # design and agrees with the trapezoid rule on 2^14 points
        theta = np.zeros(2 * d + 1)
        theta[d] = 2.5
        theta[d + 1:] = 0.1
        phi0, phi = phi_on_grid(theta, d, 1 << 14)
        for _ in range(2):
            got = phi_matrices(theta, d)
            assert np.max(np.abs(got.phi0 - phi0)) <= 1e-13 * np.max(np.abs(phi0))
            assert np.max(np.abs(got.phi - phi)) <= 1e-13 * np.max(np.abs(phi))
        psi = psi_matrix(d, -math.pi + 2.0 * math.pi * np.arange(grid) / grid)
        design = estimators._grid_design(d, grid)
        assert design.tobytes() == psi.tobytes()
        with pytest.raises(ValueError):
            design[0, 0] = 0.0


class TestMonteCarloCalibration:
    def test_preliminary_unbiased(self):
        scheme = block_scheme(512, 1)

        def sampler(stream):
            pi_bar = sample_pi_blocks(COS_DENSITY, scheme, stream).pi_bar
            return preliminary_estimator(pi_bar, scheme.m, 1)

        out = mc_run(sampler, 3000, seed=31)
        assert np.all(np.abs(out.mean - COS_THETA) < 4 * out.se)

    def test_preliminary_covariance_structure(self):
        # rm Cov(theta_hat) = F (W' CovPi W) F exactly, by block independence
        scheme = block_scheme(512, 1)
        m, r, d = scheme.m, scheme.r, 1
        A = toeplitz_from_density(COS_DENSITY, m)
        _, cov_pi = pi_moments(A)
        from qsts.estimators import _design
        W, F = _design(m, d)
        target = np.diag(F) @ W.T @ cov_pi @ W @ np.diag(F)

        def sampler(stream):
            pi_bar = sample_pi_blocks(COS_DENSITY, scheme, stream).pi_bar
            return preliminary_estimator(pi_bar, m, d)

        out, rows = mc_run(sampler, 4000, seed=37, collect=True)
        emp = np.cov(rows.T) * (r * m)
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.10


def test_finite_block_covariances_miss_the_limits_of_criteria_9_and_10():
    """Structural: at the block sizes m = 2 floor(log(n)/2) + 1 of n <= 4096, the
    exact finite-block covariances are still more than 0.15 (relative Frobenius)
    from their limits, so no seed can pass acceptance criteria 9 and 10."""
    phi0, phi = phi_matrices(COS_THETA, 1)
    limits = (phi0, np.linalg.inv(phi))
    errors = []
    for n in (256, 1024, 4096):
        m = block_scheme(n, 1).m
        _, cov_pi = pi_moments(toeplitz_from_density(COS_DENSITY, m))
        W, F, delta = design_matrices(m, 1, COS_THETA)
        Wd = W / delta[:, None]
        G = np.linalg.solve(W.T @ Wd, Wd.T)   # (W' D^-1 W)^-1 W' D^-1
        # rm Cov of the preliminary and of the one-step estimator linearized at theta
        covs = (np.diag(F) @ W.T @ cov_pi @ W @ np.diag(F),
                np.diag(F) @ G @ cov_pi @ G.T @ np.diag(F))
        errors.append([np.linalg.norm(c - lim) / np.linalg.norm(lim)
                       for c, lim in zip(covs, limits)])
    errors = np.array(errors)
    assert np.all(np.diff(errors, axis=0) < 0.0)
    assert np.all(errors[-1] > 0.15)


class TestNonparametric:
    def test_exact_mean_recovers_band(self):
        n, d_n = 49, 3
        a = SpectralDensity.from_coeff_map({0: 2.0, 1: 0.3 + 0.1j, 2: 0.05})
        mean, _ = pi_moments(toeplitz_from_density(a, n))
        density, theta = nonparametric_estimate(mean, d_n)
        for j in range(-2, 3):
            assert density.coeff(j) == pytest.approx(a.coeff(j), abs=1e-12)

    def test_bandwidth_guard(self):
        with pytest.raises(DimensionError):
            nonparametric_estimate(np.ones(49), 4)

    def test_is_preliminary_estimator_at_full_length(self):
        pi = np.random.default_rng(5).uniform(1.0, 4.0, size=101)
        density, theta = nonparametric_estimate(pi, 5)
        np.testing.assert_array_equal(theta, preliminary_estimator(pi, 101, 5))
        np.testing.assert_array_equal(
            density.coeffs, RealParam(5, theta).to_density().coeffs)

    def test_mc_l2_error_shrinks(self):
        from qsts.measurement import NumberOpSampler

        truth = 3.0

        def make_sampler(n):
            draw = NumberOpSampler(
                toeplitz_from_density(SpectralDensity.constant(truth), n))

            def sampler(stream):
                N = draw.draw(stream)
                _, theta = nonparametric_estimate(2.0 * N + 1.0, 4)
                # L2 error^2 of the estimate against the constant truth
                err = (theta[4] - truth) ** 2 + np.sum(theta[:4] ** 2) + np.sum(theta[5:] ** 2)
                return np.array([err])

            return sampler

        e257 = mc_run(make_sampler(257), 400, seed=41).mean[0]
        e513 = mc_run(make_sampler(513), 400, seed=43).mean[0]
        assert e513 < e257

    def test_variance_bound(self):
        # n Var(theta_hat_j) <= 2 lambda_max(A_n)^2 over an MC suite
        n, d_n = 257, 4
        a = COS_DENSITY
        A = toeplitz_from_density(a, n)
        lam_max = float(np.linalg.eigvalsh(A.entries)[-1])
        from qsts.measurement import NumberOpSampler
        draw = NumberOpSampler(A)

        def sampler(stream):
            N = draw.draw(stream)
            _, theta = nonparametric_estimate(2.0 * N + 1.0, d_n)
            return theta

        out, rows = mc_run(sampler, 2000, seed=47, collect=True)
        worst = float(np.max(np.var(rows, axis=0, ddof=1))) * n
        assert worst <= 2.0 * lam_max ** 2
