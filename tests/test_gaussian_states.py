import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from qsts.distributions import geo_kl
from qsts.errors import NotFaithful, RangeError, SpectralRangeError
from qsts.experiments import audit_state_approximation
from qsts.gaussian_states import (
    EPS_FAITHFUL,
    covariance_from_symbol,
    entropy_symbol_bound,
    pinsker_trace_bound,
    r_from_symbol,
    relative_entropy,
    thermal_pmf,
)
from qsts.measurement import pi_moments
from qsts.spectral import SpectralDensity
from qsts.toeplitz import (
    SymbolMatrix,
    abs_square,
    circulant_block,
    circulant_from_density,
    eigen_bracket_check,
    hs_distance,
    toeplitz_from_density,
)

from oracles import entropy_per_block, geo_kl_mp, geo_l1, s2_matrix


def random_faithful_symbol(n, rng, spread=1.0):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = 0.5 * (M + M.conj().T) * spread / math.sqrt(n)
    lam = np.linalg.eigvalsh(H)[0]
    return H + (1.5 - lam) * np.eye(n)


def random_unitary(n, rng):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class TestCovariance:
    def test_one_mode_thermal(self):
        S = covariance_from_symbol(np.array([[3.0]], dtype=complex))
        np.testing.assert_allclose(S, 1.5 * np.eye(2), atol=0)

    def test_real_symbol_block_diagonal(self):
        A = toeplitz_from_density(SpectralDensity.from_coeff_map({0: 2.0, 1: 0.5}), 3)
        S = covariance_from_symbol(A)
        np.testing.assert_allclose(S[:3, 3:], 0.0, atol=0)
        np.testing.assert_allclose(S[3:, :3], 0.0, atol=0)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        A = random_faithful_symbol(3, rng)
        S = covariance_from_symbol(A)
        np.testing.assert_allclose(S, S.T, atol=1e-14)
        assert np.linalg.eigvalsh(S)[0] >= 0.0


class TestRelativeEntropy:
    def test_zero_for_equal(self):
        A = np.diag([3.0, 5.0]).astype(complex)
        assert relative_entropy(A, A) == pytest.approx(0.0, abs=1e-10)

    def test_one_mode_matches_geometric_kl(self):
        S = relative_entropy(np.array([[3.0]], dtype=complex),
                             np.array([[5.0]], dtype=complex))
        assert S == pytest.approx(float(geo_kl_mp(3.0, 5.0)), abs=1e-12)
        assert S == pytest.approx(math.log(9.0 / 8.0), abs=1e-12)

    def test_diagonal_additivity(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            d1 = 1.2 + rng.uniform(0.2, 4.0, size=n)
            d2 = 1.2 + rng.uniform(0.2, 4.0, size=n)
            S = relative_entropy(np.diag(d1).astype(complex),
                                 np.diag(d2).astype(complex))
            expect = float(sum(geo_kl_mp(x, y) for x, y in zip(d1, d2)))
            assert S == pytest.approx(expect, abs=1e-10)

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            A1 = random_faithful_symbol(n, rng)
            A2 = random_faithful_symbol(n, rng)
            S = relative_entropy(A1, A2)
            assert S >= -1e-10

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(13)
        A1 = random_faithful_symbol(4, rng)
        A2 = A1 + 0.01 * np.eye(4)
        assert relative_entropy(A1, A2) > 1e-7

    def test_unitary_invariance(self):
        rng = np.random.default_rng(21)
        A1 = random_faithful_symbol(5, rng)
        A2 = random_faithful_symbol(5, rng)
        S0 = relative_entropy(A1, A2)
        for _ in range(5):
            U = random_unitary(5, rng)
            S = relative_entropy(U.conj().T @ A1 @ U, U.conj().T @ A2 @ U)
            assert S == pytest.approx(S0, abs=1e-9)

    def test_not_faithful_rejected(self):
        with pytest.raises(NotFaithful):
            relative_entropy(np.array([[1.0]], dtype=complex),
                             np.array([[3.0]], dtype=complex))

    def test_dimension_mismatch(self):
        with pytest.raises(SpectralRangeError):
            relative_entropy(np.eye(2) * 3, np.eye(3) * 3)


class TestSpectralEntropy:
    """The spectral form against the operator trace formula and an mpmath oracle."""

    def test_matches_operator_trace_formula(self):
        rng = np.random.default_rng(31)
        for n in range(1, 13):
            for _ in range(3):
                A1 = random_faithful_symbol(n, rng, spread=2.0)
                A2 = random_faithful_symbol(n, rng, spread=2.0)
                eye = np.eye(n)
                R1 = np.linalg.solve(A1 + eye, A1 - eye)
                R2 = np.linalg.solve(A2 + eye, A2 - eye)
                R1, R2 = 0.5 * (R1 + R1.conj().T), 0.5 * (R2 + R2.conj().T)
                Q1 = 0.5 * (A1 - eye)
                expect = np.trace((eye + Q1) @ s2_matrix(R1, R2)).real
                assert relative_entropy(A1, A2) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("delta", [1e-5, 1e-6])
    def test_near_equal_pair_keeps_relative_accuracy(self, delta):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        d = 1.5 + rng.uniform(0.0, 3.0, size=6)
        U = random_unitary(6, rng)
        S = relative_entropy(U @ np.diag(d) @ U.conj().T,
                             U @ np.diag(d + delta) @ U.conj().T)
        with mp.workdps(50):
            oracle = mp.mpf(0)
            for x, y in zip(d, d + delta):
                p1 = (mp.mpf(x) - 1) / (mp.mpf(x) + 1)
                p2 = (mp.mpf(y) - 1) / (mp.mpf(y) + 1)
                oracle += mp.log((1 - p1) / (1 - p2)) + p1 / (1 - p1) * mp.log(p1 / p2)
            oracle = float(oracle)
        assert abs(S - oracle) <= 1e-6 * oracle


class TestOneEigensolvePerSymbol:
    """Each symbol takes at most one solve, ``eigh``, whatever its consumers read."""

    def test_relative_entropy_reuses_each_spectrum(self, solves):
        rng = np.random.default_rng(4)
        A1 = SymbolMatrix(random_faithful_symbol(5, rng))
        A2 = SymbolMatrix(random_faithful_symbol(5, rng))
        solves.clear()  # the test symbols are built with eigvalsh
        S = relative_entropy(A1, A2)
        assert solves == [("eigh", (5, 5))] * 2
        assert relative_entropy(A1, A2) == S
        assert solves == [("eigh", (5, 5))] * 2

    def test_relative_entropy_reuses_each_split_toeplitz_spectrum(self, solves):
        # a real Toeplitz symbol is solved once, as two half-size real problems
        T1 = toeplitz_from_density(SpectralDensity([3.0, 0.5, 0.25]), 7)
        T2 = toeplitz_from_density(SpectralDensity([3.5, -0.4]), 7)
        S = relative_entropy(T1, T2)
        halves = [("eigh", (4, 4)), ("eigh", (3, 3))]
        assert solves == halves * 2
        assert relative_entropy(T1, T2) == S
        assert relative_entropy(T2, T1) > 0.0
        assert solves == halves * 2

    def test_audit_ladder_solves_the_toeplitz_symbol_once(self, solves):
        # A_64 and the three circulant blocks: each decomposed once, as two
        # real 32 x 32 solves
        a = SpectralDensity(
            np.concatenate([[2.0], [2.0 ** -k for k in range(1, 21)]]).astype(complex))
        audit_state_approximation(a, 64, [67, 71, 79])
        assert solves == [("eigh", (32, 32))] * 8

    def test_descending_ladder_solves_the_toeplitz_symbol_once(self, solves):
        # K_max = 5: the block at m = 73 equals A_64 and comes first, the one
        # at m = 67 does not; A_64 still takes one vector solve and no other
        a = SpectralDensity([2.0, 0.2, 0.1, 0.05, 0.02, 0.01])
        down = audit_state_approximation(a, 64, [73, 67])
        assert solves == [("eigh", (32, 32))] * 4
        up = audit_state_approximation(a, 64, [67, 73])
        entropy = {r.m: r.value for r in down.rows if r.label == "relative_entropy"}
        assert entropy[73] == 0.0 and entropy[67] > 0.0
        assert entropy == {r.m: r.value for r in up.rows if r.label == "relative_entropy"}

    def test_equal_pair_gates_on_values_only(self, solves):
        # the lag floor of 2 + 0.5 cos w clears the gate: no solve at all
        a = SpectralDensity.cosine(2.0, 0.5)
        A1, A2 = toeplitz_from_density(a, 256), toeplitz_from_density(a, 256)
        assert relative_entropy(A1, A2) == 0.0
        assert solves == []
        assert unsolved(A1) and unsolved(A2)

    def test_bracket_and_pi_moments_read_values_only(self, solves):
        # symbol bracket prints lambda_min, so it takes the symbol's one
        # solve; the pi_moments gate is cleared by the lag floor
        a = SpectralDensity.cosine(2.0, 0.5)
        assert eigen_bracket_check(a, 64)[-1]
        pi_moments(toeplitz_from_density(a, 65))
        assert solves == [("eigh", (32, 32))] * 2

    def test_gate_inside_the_floor_allowance_solves_and_passes(self, solves):
        # lambda_min = a_0 lies 1e-15 above the gate, inside the lag floor's
        # allowance 4 (n + log2 G) eps a_0 (about 1.2e-14 at n = 8), so the
        # gate falls back to A1's one solve, which clears it
        a = SpectralDensity([1.0 + EPS_FAITHFUL + 1e-15])
        A1, A2 = toeplitz_from_density(a, 8), toeplitz_from_density(a, 8)
        assert relative_entropy(A1, A2) == 0.0
        assert solves == [("eigh", (4, 4))] * 2

    def test_gate_solve_serves_a_later_unequal_pair(self, solves):
        # an equal pair at the gate's rounding edge solves A, then an unequal
        # pair with the same A reuses that solve: each symbol solved once
        a = SpectralDensity([1.0 + EPS_FAITHFUL + 1e-15])
        A, same = toeplitz_from_density(a, 8), toeplitz_from_density(a, 8)
        other = toeplitz_from_density(SpectralDensity([3.0, 0.5]), 8)
        assert relative_entropy(A, same) == 0.0
        assert relative_entropy(A, other) > 0.0
        assert solves == [("eigh", (4, 4))] * 4
        assert unsolved(same)

    def test_gate_just_below_raises_the_solved_message(self):
        a = SpectralDensity([1.0 + EPS_FAITHFUL - 1e-15])
        A1, A2 = toeplitz_from_density(a, 8), toeplitz_from_density(a, 8)
        with pytest.raises(NotFaithful) as err:
            relative_entropy(A1, A2)
        assert str(err.value) == "lambda_min(A) = 1.00000001 is not above 1 + 1e-08"

    def test_one_mode_symbols_take_no_empty_solve(self, solves):
        # n = 1 has no skew half: one (1, 1) solve per symbol and no (0, 0) one
        A1 = toeplitz_from_density(SpectralDensity([2.0]), 1)
        A2 = toeplitz_from_density(SpectralDensity([3.0]), 1)
        S = relative_entropy(A1, A2)
        assert solves == [("eigh", (1, 1))] * 2
        # the entropy of two one-mode states, KL(Geo(p1) || Geo(p2)) at l = 2, 3
        assert S == 0.08494951839769868
        assert S == pytest.approx(float(geo_kl(2.0, 3.0)), rel=1e-14)

    @pytest.mark.parametrize("equal", [False, True])
    def test_symbol_bound_solves_each_symbol_once(self, solves, equal):
        T1 = toeplitz_from_density(SpectralDensity([3.0, 0.5, 0.25]), 7)
        T2 = toeplitz_from_density(SpectralDensity([3.0, 0.5, 0.25] if equal else [3.5, -0.4]), 7)
        report = entropy_symbol_bound(T1, T2, 0.75)
        assert (report.entropy == 0.0) == equal
        assert solves == [("eigh", (4, 4)), ("eigh", (3, 3))] * 2


def full_form(A1, A2):
    """The entropy sum over all n^2 pairs of the assembled spectra."""
    (l1, V1), (l2, V2) = A1.spectrum, A2.spectrum
    return float(np.sum(abs_square(V1.conj().T @ V2) * geo_kl(l1[:, None], l2[None, :])))


@st.composite
def admissible_densities(draw, complex_coeffs=False):
    """Density with inf a > 1: a_0 exceeds 1 + 2 sum |a_k| by a margin."""
    k_max = draw(st.integers(0, 12))
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=k_max, max_size=k_max))
    if complex_coeffs:
        im = draw(st.lists(st.floats(-1.0, 1.0), min_size=k_max, max_size=k_max))
        coeffs = [complex(x, y) for x, y in zip(coeffs, im)]
    margin = draw(st.floats(0.05, 3.0))
    a0 = 1.0 + margin + 2.0 * sum(abs(c) for c in coeffs)
    return SpectralDensity(np.array([a0] + coeffs, dtype=complex))


class TestParityBlocks:
    """The entropy of two real centrosymmetric symbols, summed per parity block."""

    @given(admissible_densities(), admissible_densities(),
           st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 48)))
    @example(SpectralDensity([3.0, 0.5]), SpectralDensity([2.5, -0.4, 0.1]), 1)
    @example(SpectralDensity([3.0, 0.5]), SpectralDensity([2.5, -0.4, 0.1]), 2)
    @example(SpectralDensity([3.0, 0.5]), SpectralDensity([2.5, -0.4, 0.1]), 3)
    def test_blocks_equal_the_full_form(self, a, b, n):
        A1, A2 = toeplitz_from_density(a, n), toeplitz_from_density(b, n)
        S = relative_entropy(A1, A2)
        assert "spectrum" not in A1.__dict__ and "spectrum" not in A2.__dict__
        full = full_form(A1, A2)
        assert abs(S - full) <= 1e-13 * full + 1e-24

    @given(st.sampled_from([(False, False), (True, True), (False, True), (True, False)])
           .flatmap(lambda kinds: st.tuples(*(admissible_densities(c) for c in kinds))),
           st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 48)))
    @example((SpectralDensity([3.0, 0.5]), SpectralDensity([2.5, -0.4, 0.1])), 1)
    @example((SpectralDensity([3.0, 0.5]), SpectralDensity([2.5, -0.4, 0.1])), 2)
    @example((SpectralDensity([3.0, 0.5]), SpectralDensity([2.5, -0.4, 0.1])), 7)
    @example((SpectralDensity([3.0, 0.5j]), SpectralDensity([2.5, -0.4, 0.1 + 0.2j])), 6)
    @example((SpectralDensity([3.0, 0.5j]), SpectralDensity([2.5, -0.4, 0.1 + 0.2j])), 1)
    def test_fused_pass_keeps_the_bytes_of_the_per_block_form(self, pair, n):
        # the entropy sums one geo_kl matrix per block in this order: real
        # pairs by halves (n = 1: an empty skew half), complex or mixed pairs
        # by the full form
        A1, A2 = (toeplitz_from_density(a, n) for a in pair)
        assume(not A1.same_entries(A2))
        S = relative_entropy(A1, A2)
        assert S == entropy_per_block(A1, A2)
        assert ("spectrum" in A1.__dict__) == (A1.halves is None or A2.halves is None)

    def test_lag_built_pair_leaves_the_full_spectrum_unbuilt(self):
        a = SpectralDensity(np.array([2.0] + [2.0 ** -k for k in range(1, 21)]))
        A, C = toeplitz_from_density(a, 64), circulant_block(a, 79, 64)
        assert relative_entropy(A, C) > 0.0
        for sym in (A, C):
            assert "halves" in sym.__dict__ and "spectrum" not in sym.__dict__

    @pytest.mark.parametrize("kind", ["complex", "general"])
    def test_real_toeplitz_with_another_symbol_takes_the_full_form(self, kind):
        n = 6
        T = toeplitz_from_density(SpectralDensity([3.0, 0.5, 0.25]), n)
        if kind == "complex":
            other = toeplitz_from_density(SpectralDensity([3.5, 0.3 + 0.4j]), n)
        else:
            other = SymbolMatrix(random_faithful_symbol(n, np.random.default_rng(3)).real)
        assert T.halves is not None and other.halves is None
        for A1, A2 in ((T, other), (other, T)):
            assert relative_entropy(A1, A2) == full_form(A1, A2)
        assert "spectrum" in T.__dict__

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    @pytest.mark.parametrize("a1", [0.75, -0.75])
    def test_not_faithful_from_either_half(self, n, a1):
        # 1.5 + 1.5 cos w dips to 0; lambda_min = 1.5 - 1.5 cos(pi / (n + 1))
        # has eigenvector (+-1)^j sin(pi j / (n + 1)), which is skew exactly
        # for a_1 > 0 with n even, and symmetric otherwise
        bad = toeplitz_from_density(SpectralDensity([1.5, a1]), n)
        good = toeplitz_from_density(SpectralDensity([3.0, 0.25]), n)
        (ls, _), (lk, _) = bad.halves
        assert (lk[0] < ls[0]) == (a1 > 0 and n % 2 == 0)
        assert min(ls[0], lk[0]) <= 1.0
        for A1, A2 in ((bad, good), (good, bad)):
            with pytest.raises(NotFaithful):
                relative_entropy(A1, A2)
        assert "spectrum" not in bad.__dict__


def unsolved(A):
    """True when neither the halves nor the spectrum of A has been computed."""
    return "halves" not in A.__dict__ and "spectrum" not in A.__dict__


any_admissible = st.booleans().flatmap(admissible_densities)


class TestEqualSymbols:
    """Equal symbols: exactly 0 after one faithfulness gate, the second never solved."""

    @given(any_admissible, st.integers(1, 48))
    def test_two_builds_of_one_toeplitz_symbol(self, a, n):
        A1, A2 = toeplitz_from_density(a, n), toeplitz_from_density(a, n)
        S = relative_entropy(A1, A2)
        assert S == 0.0 and type(S) is float
        assert unsolved(A2)

    @given(any_admissible, st.integers(1, 48), st.integers(0, 8))
    def test_circulant_block_within_the_band_is_the_toeplitz_symbol(self, a, n, extra):
        # K_max <= m - n: every wrapped lag of the block is 0, as is a_t there
        m = n + a.k_max + extra
        m += 1 - m % 2
        C = circulant_block(a, m, n)
        assert relative_entropy(toeplitz_from_density(a, n), C) == 0.0
        assert unsolved(C)

    @given(any_admissible, st.integers(1, 48))
    def test_lag_built_symbol_against_its_dense_copy(self, a, n):
        for order in (1, -1):
            A = toeplitz_from_density(a, n)
            A1, A2 = (A, SymbolMatrix(A.entries.copy()))[::order]
            assert relative_entropy(A1, A2) == 0.0
            assert unsolved(A2)

    @given(any_admissible, st.integers(0, 24))
    def test_circulant_against_its_general_copy(self, a, half):
        C = circulant_from_density(a, 2 * half + 1)
        G = SymbolMatrix(C.entries)
        assert relative_entropy(C, G) == 0.0
        assert unsolved(G)

    def test_equal_unfaithful_pair_rejected(self):
        # 1.5 + 1.5 cos w dips to 0, so lambda_min(A_6) < 1
        a = SpectralDensity([1.5, 0.75])
        A1, A2 = toeplitz_from_density(a, 6), toeplitz_from_density(a, 6)
        with pytest.raises(NotFaithful):
            relative_entropy(A1, A2)
        assert unsolved(A2)
        with pytest.raises(NotFaithful):
            relative_entropy(A2, SymbolMatrix(A2.entries.copy()))

    @given(any_admissible, any_admissible, st.integers(1, 24), st.integers(0, 2 ** 32 - 1))
    def test_unequal_pairs_nonnegative_and_unitarily_invariant(self, a, b, n, seed):
        A1, A2 = toeplitz_from_density(a, n), toeplitz_from_density(b, n)
        S = relative_entropy(A1, A2)
        assert S >= 0.0
        # the entropy of nearly equal states keeps only about eps / ||A1 - A2||_2
        # of relative accuracy, so the rotation is compared on separated pairs
        assume(hs_distance(A1, A2) >= 1e-2)
        Q, R = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
        U = Q * np.sign(np.diag(R))
        B1, B2 = (SymbolMatrix(U @ A.entries @ U.T) for A in (A1, A2))
        assert abs(relative_entropy(B1, B2) - S) <= 1e-10 * S


class TestS2Matrix:
    def test_zero_for_equal(self):
        R = np.diag([0.3, 0.6]).astype(complex)
        np.testing.assert_allclose(s2_matrix(R, R), 0.0, atol=1e-12)

    def test_scalar_binary_kl(self):
        out = s2_matrix(np.array([[0.5]], dtype=complex),
                        np.array([[0.25]], dtype=complex))
        expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert out[0, 0].real == pytest.approx(expect, abs=1e-13)

    def test_commuting_eigenwise(self):
        rng = np.random.default_rng(3)
        lam1 = rng.uniform(0.1, 0.9, size=4)
        lam2 = rng.uniform(0.1, 0.9, size=4)
        U = random_unitary(4, rng)
        R1 = U @ np.diag(lam1) @ U.conj().T
        R2 = U @ np.diag(lam2) @ U.conj().T
        out = U.conj().T @ s2_matrix(R1, R2) @ U
        expect = np.diag([p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))
                          for p, q in zip(lam1, lam2)])
        np.testing.assert_allclose(out, expect, atol=1e-10)

    def test_hermitian_output(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            R1 = r_from_symbol(random_faithful_symbol(4, rng))
            R2 = r_from_symbol(random_faithful_symbol(4, rng))
            S2 = s2_matrix(R1, R2)
            np.testing.assert_allclose(S2, S2.conj().T, atol=1e-10)

    def test_spectrum_out_of_range(self):
        with pytest.raises(SpectralRangeError):
            s2_matrix(np.diag([0.5, 1.2]).astype(complex),
                      np.diag([0.5, 0.5]).astype(complex))


class TestPinsker:
    def test_zero(self):
        A = np.diag([2.0, 4.0]).astype(complex)
        assert pinsker_trace_bound(A, A) == pytest.approx(0.0, abs=1e-5)

    def test_dominates_exact_l1(self):
        for a2 in (3.05, 3.1, 3.2):
            bound = pinsker_trace_bound(np.array([[3.0]], dtype=complex),
                                        np.array([[a2]], dtype=complex))
            assert geo_l1(3.0, a2) <= bound + 1e-10

    def test_monotone_in_gap(self):
        vals = [pinsker_trace_bound(np.array([[3.0]], dtype=complex),
                                    np.array([[a2]], dtype=complex))
                for a2 in (3.1, 3.2, 3.5)]
        assert vals[0] < vals[1] < vals[2]


@st.composite
def bracketed_pairs(draw):
    """(A1, A2, lam): Toeplitz symbols with R spectra in (1 - lam, lam) and ||R1 - R2|| < delta.

    l in (lo, hi) puts (l - 1)/(l + 1) in (1 - lam, lam); A1 strays at most a fifth of
    that band from its middle, and each lag of A2 - A1 is at most delta / (sqrt(n) (2 K + 1)), so
    ||R1 - R2||_2 <= 2 ||A1 - A2||_2 / (1 + lo)^2 < delta / 2.
    """
    lam, n, k_max = draw(st.floats(0.55, 0.95)), draw(st.integers(1, 8)), draw(st.integers(0, 3))
    lo, hi = (2.0 - lam) / lam, (1.0 + lam) / (1.0 - lam)
    delta = min((1.0 - lam) / 2.0, (1.0 - lam) ** 3 / (8.0 * lam))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=k_max + 1, max_size=k_max + 1)
    lags = np.array(draw(unit)) * (0.1 * (hi - lo) / max(k_max, 1))
    lags[0] = 0.5 * (lo + hi)
    step = np.array(draw(unit)) * (delta / (math.sqrt(n) * (2 * k_max + 1)))
    return (toeplitz_from_density(SpectralDensity(lags), n),
            toeplitz_from_density(SpectralDensity(lags + step), n), lam)


class TestEntropySymbolBound:
    @given(bracketed_pairs())
    def test_holds_where_not_vacuous(self, pair):
        A1, A2, lam = pair
        rep = entropy_symbol_bound(A1, A2, lam)
        assert not rep.vacuous and rep.holds and rep.entropy >= 0.0

    def test_equal_symbols(self):
        A = np.diag([2.0, 3.0]).astype(complex)
        rep = entropy_symbol_bound(A, A, lam=0.8)
        assert rep.holds and not rep.vacuous and rep.entropy == pytest.approx(0.0, abs=1e-12)

    def test_small_toeplitz_perturbation(self):
        a = SpectralDensity.from_coeff_map({0: 2.0, 1: 0.25})
        b = SpectralDensity.from_coeff_map({0: 2.0, 1: 0.25 + 0.0004})
        A1 = toeplitz_from_density(a, 4)
        A2 = toeplitz_from_density(b, 4)
        # choose lam from the spectral brackets of R
        lams = np.concatenate([np.linalg.eigvalsh(r_from_symbol(A1.entries)),
                               np.linalg.eigvalsh(r_from_symbol(A2.entries))])
        lam = max(0.51, float(max(lams.max(), 1 - lams.min())) + 0.05)
        rep = entropy_symbol_bound(A1, A2, lam=lam)
        assert rep.holds and not rep.vacuous

    def test_large_perturbation_vacuous(self):
        A1 = np.diag([2.0, 2.0]).astype(complex)
        A2 = np.diag([8.0, 8.0]).astype(complex)
        rep = entropy_symbol_bound(A1, A2, lam=0.95)
        assert rep.vacuous and rep.holds

    def test_bracket_violation(self):
        A = np.diag([50.0]).astype(complex)
        with pytest.raises(SpectralRangeError):
            entropy_symbol_bound(A, A, lam=0.6)

    def test_bad_lambda(self):
        A = np.diag([2.0]).astype(complex)
        with pytest.raises(RangeError):
            entropy_symbol_bound(A, A, lam=0.4)


class TestThermalPmf:
    def test_vacuum_limit(self):
        pmf, tail = thermal_pmf(1.0 + 1e-12, 5)
        assert pmf[0] == pytest.approx(1.0, abs=1e-11)
        assert tail == pytest.approx(0.0, abs=1e-11)

    def test_large_symbol_keeps_one_minus_p(self):
        # 1 - p from the rounded p lost 2.2e-5 relative at a = 1e12
        pmf, _ = thermal_pmf(1e12, 2)
        assert pmf[0] == pytest.approx(float(2 / (mpmath.mpf(1e12) + 1)), rel=1e-15, abs=0.0)

    def test_a3_geometric_half(self):
        pmf, _ = thermal_pmf(3.0, 3)
        np.testing.assert_allclose(pmf, [0.5, 0.25, 0.125, 0.0625], atol=1e-15)

    def test_mean(self):
        a = 2.7
        pmf, tail = thermal_pmf(a, 400)
        mean = float(np.sum(np.arange(401) * pmf))
        assert mean == pytest.approx((a - 1) / 2, abs=1e-9)
        assert tail < 1e-12

    def test_range(self):
        with pytest.raises(RangeError):
            thermal_pmf(0.5, 3)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_symbol_refused(self, a):
        # both returned an array of NaN
        with pytest.raises(RangeError, match="1 <= a < inf"):
            thermal_pmf(a, 3)

    @pytest.mark.parametrize("k_max", [3.5, 3.0, "3", None])
    def test_non_integer_k_max_refused(self, k_max):
        # 3.5 returned five entries, k = 0..4
        with pytest.raises(RangeError, match="integer"):
            thermal_pmf(2.0, k_max)

    def test_numpy_integer_k_max(self):
        pmf, tail = thermal_pmf(3.0, np.int64(3))
        assert pmf.tolist() == thermal_pmf(3.0, 3)[0].tolist() and tail == 0.0625


class TestGaussState:
    def test_trace_pairing_nonnegative(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            s1 = SymbolMatrix(random_faithful_symbol(4, rng))
            s2 = SymbolMatrix(random_faithful_symbol(4, rng))
            assert relative_entropy(s1, s2) >= -1e-10

    def test_r_matrix_in_unit_interval(self):
        rng = np.random.default_rng(2)
        s = SymbolMatrix(random_faithful_symbol(5, rng))
        lams = np.linalg.eigvalsh(r_from_symbol(s))
        assert 0.0 < lams[0] and lams[-1] < 1.0
