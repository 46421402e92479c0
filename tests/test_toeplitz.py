import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsts.errors import (
    DimensionError,
    EigenFailure,
    InputError,
    NotToeplitz,
    RangeError,
)
from qsts.spectral import SpectralDensity, eval_density, fourier_frequencies
from qsts.toeplitz import (
    SymbolMatrix,
    _lag_floor,
    abs_square,
    circulant_block,
    circulant_eigs,
    circulant_from_density,
    dft_unitary,
    eigen_bracket_check,
    hs_distance,
    toeplitz_circulant_gap,
    toeplitz_first_row,
    toeplitz_from_density,
)

from oracles import (
    circulant_by_coeff_loop,
    dense_dft_conjugate,
    density_min_oracle,
    diagonalization_residue,
    op_norm,
)

COS_2_05 = SpectralDensity.from_coeff_map({0: 2.0, 1: 0.5})   # 2 + cos w
COS_2_HALF = SpectralDensity.cosine(2.0, 0.5)                 # 2 + 0.5 cos w
GEOM = SpectralDensity(np.array([2.0 ** -k for k in range(21)], dtype=complex))
INVSQ = SpectralDensity(np.array([(1.0 + k) ** -2 for k in range(60)],
                                 dtype=complex))


def same_bytes(A, B):
    """Equal tags and entry bytes (signed zeros included): what a rebuilt symbol keeps."""
    return A.tag == B.tag and A.entries.tobytes() == B.entries.tobytes()


def random_hermitian(n, rng):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (M + M.conj().T)


class TestSymbolMatrix:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            SymbolMatrix(np.array([[2.0, bad], [bad, 2.0]]))
        with pytest.raises(InputError, match="finite"):
            SymbolMatrix(np.diag([bad, 2.0]))

    def test_same_entries_compares_values_whatever_the_tags(self):
        A = toeplitz_from_density(GEOM, 6)
        same = SymbolMatrix(A.entries.copy(), tag="toeplitz")
        assert A.same_entries(same) and same_bytes(A, same)
        assert A.same_entries(SymbolMatrix(A.entries, tag="general"))
        assert not A.same_entries(toeplitz_from_density(GEOM, 5))
        assert not A.same_entries(toeplitz_from_density(COS_2_05, 6))
        # == and hash are identity's: no O(n^2) copy of the entries
        assert A != same and len({A, same}) == 2

    def test_overflow_when_hermitizing_rejected(self):
        # finite entries whose Hermitized sum overflows once gave inf+nanj entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="finite"):
                SymbolMatrix(np.array([[1e308, 1.5e308], [1.5e308, 1e308]]))
            with pytest.raises(InputError, match="finite"):
                toeplitz_from_density(SpectralDensity([1e308, 1e308]), 3)

    @pytest.mark.parametrize("a1", [-0.0 + 0j, complex(-0.0, 0.0)])
    def test_rebuild_from_entries_is_identity(self, a1):
        # -0.0 + 0j is 0j in Python; complex(-0.0, 0.0) keeps the signed zero,
        # which 0.5 * (e + e^H) used to flip
        a = SpectralDensity(np.array([0.0, a1]))
        for A in (circulant_from_density(a, 3), toeplitz_from_density(a, 3),
                  circulant_block(a, 3, 2)):
            assert same_bytes(SymbolMatrix(A.entries, tag=A.tag), A)

    def test_entries_copied_when_kept_as_given(self):
        M = np.diag([2.0, 3.0]).astype(complex)
        A = SymbolMatrix(M)
        M[0, 0] = 5.0
        assert A.entries[0, 0] == 2.0 and M.flags.writeable


class TestToeplitzBuild:
    def test_constant_is_identity_multiple(self):
        A = toeplitz_from_density(SpectralDensity.constant(3.0), 4)
        np.testing.assert_allclose(A.entries, 3.0 * np.eye(4), atol=0)

    def test_tridiagonal(self):
        A = toeplitz_from_density(COS_2_05, 3)
        expect = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])
        np.testing.assert_allclose(A.entries, expect, atol=0)

    def test_complex_lag_hermitian(self):
        a = SpectralDensity.from_coeff_map({0: 2.0, 1: 0.3 + 0.1j})
        A = toeplitz_from_density(a, 2)
        assert A.entries[0, 1] == pytest.approx(0.3 + 0.1j)
        assert A.entries[1, 0] == pytest.approx(0.3 - 0.1j)

    @pytest.mark.parametrize("n", [3, 8, 9, 65])
    @pytest.mark.parametrize("shift", [-2, -1, 0, 4])
    def test_support_up_to_and_past_n_matches_dense_definition(self, n, shift):
        # K_max = n + shift: inside, at and past the largest lag n - 1 of A_n
        k_max = n + shift
        gen = np.random.default_rng(100 * n + shift)
        coeffs = (gen.normal(size=k_max + 1) + 1j * gen.normal(size=k_max + 1)) / k_max
        coeffs[0] = 3.0
        a = SpectralDensity(coeffs)

        def lag(k):  # a_k, with a_{-k} = conj(a_k) and 0 past K_max
            return 0.0 if abs(k) > k_max else (coeffs[k] if k >= 0 else np.conj(coeffs[-k]))

        dense = np.array([[lag(k - j) for k in range(n)] for j in range(n)])
        assert np.array_equal(toeplitz_from_density(a, n).entries, dense)
        assert eigen_bracket_check(a, n)[4]

    @pytest.mark.parametrize("n", [1, 2, 1024, 1025])
    def test_strided_build_equals_lag_index_build(self, n):
        # the n x n int64 lag index the strided view replaced, as the bit-for-bit reference
        gen = np.random.default_rng(n)
        a = SpectralDensity(np.concatenate(([3.0], gen.normal(size=40) + 1j * gen.normal(size=40))))
        idx = np.arange(n)
        full = a.full_coeffs(n - 1)
        expect = SymbolMatrix(full[idx[None, :] - idx[:, None] + (n - 1)], tag="toeplitz")
        assert np.array_equal(toeplitz_from_density(a, n).entries, expect.entries)

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1025])
    @pytest.mark.parametrize("kind", ["real", "negative", "complex"])
    @pytest.mark.parametrize("shift", [-1, 0, 4])
    def test_lag_build_equals_dense_build(self, n, kind, shift):
        # K_max = n + shift: at the largest lag n - 1 of A_n, and past it
        k_max = n + shift
        gen = np.random.default_rng(10 * n + shift)
        coeffs = gen.normal(size=k_max + 1).astype(complex)
        if kind == "negative":
            coeffs = -np.abs(coeffs)
        elif kind == "complex":
            coeffs += 1j * gen.normal(size=k_max + 1)
        coeffs[0] = 3.0
        a = SpectralDensity(coeffs)
        padded = np.concatenate((coeffs, np.zeros(n, dtype=complex)))
        lag = np.arange(n)[None, :] - np.arange(n)[:, None]    # k - j
        dense = np.where(lag >= 0, padded[np.abs(lag)], np.conj(padded[np.abs(lag)]))
        expect = SymbolMatrix(dense, tag="toeplitz")
        A = toeplitz_from_density(a, n)
        assert A.entries.tobytes() == expect.entries.tobytes()
        assert not A.entries.flags.writeable
        assert toeplitz_first_row(A).tobytes() == A.entries[0].tobytes()

    def test_nesting(self):
        big = toeplitz_from_density(GEOM, 12)
        small = toeplitz_from_density(GEOM, 5)
        assert big.entries[:5, :5].tobytes() == small.entries.tobytes()

    def test_circulant_block_keeps_signed_zeros(self):
        # the -0.0 of a_1 must survive into the lag-built block
        a = SpectralDensity(np.array([0.0, complex(-0.0, 0.0)]))
        dense = circulant_by_coeff_loop(a, 3).entries[:2, :2]
        assert circulant_block(a, 3, 2).entries.tobytes() == dense.tobytes()


class TestToeplitzFirstRow:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_first_row_of_a_built_symbol(self, n):
        a = SpectralDensity.from_coeff_map({0: 3.0, 1: 0.4 + 0.2j, 2: -0.1j})
        A = toeplitz_from_density(a, n)
        assert np.array_equal(toeplitz_first_row(A), A.entries[0])
        assert np.array_equal(toeplitz_first_row(A), a.full_coeffs(n - 1)[n - 1:])

    def test_wrong_tag_rejected(self):
        for A in (SymbolMatrix(np.eye(3)), circulant_from_density(COS_2_05, 3)):
            with pytest.raises(NotToeplitz, match="tagged"):
                toeplitz_first_row(A)

    def test_mistagged_entries_rejected(self):
        # a JSON symbol may carry the tag without the structure
        obj = SymbolMatrix(3.0 * np.eye(4) + random_hermitian(4, np.random.default_rng(7))).to_json()
        obj["tag"] = "toeplitz"
        with pytest.raises(NotToeplitz, match="diagonals"):
            toeplitz_first_row(SymbolMatrix.from_json(obj))
        assert issubclass(NotToeplitz, InputError)

    @pytest.mark.parametrize("n", [4, 65])
    def test_entrywise_symbol_with_one_bad_diagonal_entry_rejected(self, n):
        # only a symbol built from its lags skips the O(n^2) diagonal check
        e = np.array(toeplitz_from_density(GEOM, n).entries)
        assert np.array_equal(toeplitz_first_row(SymbolMatrix(e, tag="toeplitz")), e[0])
        e[2, 2] += 1e-6
        with pytest.raises(NotToeplitz, match="diagonals"):
            toeplitz_first_row(SymbolMatrix(e, tag="toeplitz"))


class TestCirculant:
    def test_constant(self):
        C = circulant_from_density(SpectralDensity.constant(2.5), 5)
        np.testing.assert_allclose(C.entries, 2.5 * np.eye(5), atol=0)

    def test_rows_are_cyclic_shifts(self):
        C = circulant_from_density(COS_2_05, 3)
        first = np.array([2.0, 0.5, 0.5])
        for r in range(3):
            np.testing.assert_allclose(C.entries[r], np.roll(first, r), atol=0)

    def test_central_band_matches_toeplitz(self):
        m = 9
        C = circulant_from_density(GEOM, m)
        A = toeplitz_from_density(GEOM, m)
        half = (m - 1) // 2
        for j in range(m):
            for k in range(m):
                if abs(j - k) <= half:
                    assert C.entries[j, k] == A.entries[j, k]

    @pytest.mark.parametrize("m", [1, 3, 79])
    def test_entries_are_a_view_over_the_lags(self, m):
        # no m x m array: the entries are a strided view over the 2m - 1 lags
        C = circulant_from_density(GEOM, m)
        assert C.tag == "circulant" and C.entries.base is C._lags
        assert C._lags.size == 2 * m - 1 and not C.entries.flags.writeable

    def test_banded_fully_inside_band_equal(self):
        # K_max = 1 <= (m-1)/2 means the circulant equals the Toeplitz matrix
        # on the band; wrap-around terms vanish only outside n < m anyway.
        m = 5
        C = circulant_from_density(COS_2_05, m)
        A = toeplitz_from_density(COS_2_05, m)
        band = np.abs(np.subtract.outer(np.arange(m), np.arange(m))) <= 2
        np.testing.assert_allclose(C.entries[band], A.entries[band], atol=0)


class TestCirculantEigs:
    def test_scalar(self):
        np.testing.assert_allclose(circulant_eigs(SpectralDensity.constant(4.0), 7), 4.0,
                                   atol=1e-12)

    def test_m3_values(self):
        np.testing.assert_allclose(circulant_eigs(COS_2_05, 3), [1.5, 3.0, 1.5], atol=1e-12)

    def test_against_dense_oracle(self):
        a = SpectralDensity(np.array([2.0, 0.5, 0.25], dtype=complex))
        ours = np.sort(circulant_eigs(a, 5))
        dense = np.linalg.eigvalsh(circulant_from_density(a, 5).entries)
        np.testing.assert_allclose(ours, dense, atol=1e-10)

    def test_complex_coeffs_against_dense(self):
        a = SpectralDensity.from_coeff_map({0: 3.0, 1: 0.4 + 0.2j, 2: -0.1j})
        C = circulant_from_density(a, 7)
        np.testing.assert_allclose(np.sort(circulant_eigs(a, 7)),
                                   np.linalg.eigvalsh(C.entries), atol=1e-10)

    def test_eigs_equal_truncated_density_at_frequencies(self):
        m = 9
        from qsts.spectral import fourier_truncate
        kept, _ = fourier_truncate(GEOM, m)
        np.testing.assert_allclose(circulant_eigs(GEOM, m),
                                   eval_density(kept, fourier_frequencies(m)),
                                   atol=1e-10)

    @pytest.mark.parametrize("m", [7, 1025])
    def test_complex_coeffs_in_frequency_order(self, m):
        # unsorted: eigenvalue j sits at w_j, which a real, even density cannot show
        a = SpectralDensity.from_coeff_map({0: 3.0, 1: 0.4 + 0.2j, 2: -0.1j})
        C = circulant_from_density(a, m)
        np.testing.assert_allclose(circulant_eigs(a, m), eval_density(a, fourier_frequencies(m)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(circulant_eigs(a, m),
                                   np.diag(dense_dft_conjugate(C.entries)).real,
                                   rtol=0, atol=1e-11)

    @pytest.mark.parametrize("m", [0, 2, -3])
    def test_even_or_nonpositive_m_rejected(self, m):
        with pytest.raises(RangeError):
            circulant_eigs(COS_2_05, m)


class TestDftUnitary:
    def test_unitarity(self):
        for m in (3, 7, 21):
            U = dft_unitary(m)
            np.testing.assert_allclose(U.conj().T @ U, np.eye(m), atol=1e-12)

    def test_read_only_and_odd_only(self):
        U = dft_unitary(5)
        assert not U.flags.writeable
        with pytest.raises(ValueError):
            U[0, 0] = 0.0
        for m in (0, 2, 8):
            with pytest.raises(RangeError):
                dft_unitary(m)

    def test_diagonalizes_circulant(self):
        for a in (COS_2_05, GEOM):
            for m in (5, 9, 15):
                assert diagonalization_residue(a, m) < 1e-9

    def test_conjugation_diagonal_matches_eigs(self):
        m = 7
        D = dense_dft_conjugate(circulant_from_density(GEOM, m).entries)
        np.testing.assert_allclose(np.diag(D).real, circulant_eigs(GEOM, m), atol=1e-10)


class TestGap:
    def test_banded_no_overlap_gap_zero(self):
        # band K_max=1: lags (m+1)/2 .. n-1 all vanish and wrap-around misses
        gap, _ = toeplitz_circulant_gap(COS_2_05, 16, 21, 1.0, 4.5)
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_geometric_decay_bounded(self):
        from qsts.spectral import sobolev_norm
        _, M = sobolev_norm(GEOM, 1.0)
        gap, bound = toeplitz_circulant_gap(GEOM, 16, 21, 1.0, M)
        assert gap <= bound + 1e-9

    def test_monotone_in_m(self):
        from qsts.spectral import sobolev_norm
        _, M = sobolev_norm(GEOM, 1.0)
        g29, _ = toeplitz_circulant_gap(GEOM, 16, 29, 1.0, M)
        g21, _ = toeplitz_circulant_gap(GEOM, 16, 21, 1.0, M)
        assert g29 <= g21 + 1e-15

    def test_lag_sum_matches_dense(self):
        # the dense/lag-sum agreement is asserted inside the call
        from qsts.spectral import sobolev_norm
        for a in (GEOM, INVSQ):
            _, M = sobolev_norm(a, 1.0)
            for n, m in ((16, 21), (32, 35), (32, 61)):
                toeplitz_circulant_gap(a, n, m, 1.0, M)

    def test_disagreeing_routes_raise(self, monkeypatch):
        # a block with every lag off by 1e-3 moves the HS route, not the wrap-around sum
        import qsts.toeplitz as tz

        def shifted_block(a, m, n):
            return toeplitz_from_density(SpectralDensity(a.coeffs + 1e-3), n)

        monkeypatch.setattr(tz, "circulant_block", shifted_block)
        with pytest.raises(EigenFailure, match="disagree"):
            toeplitz_circulant_gap(GEOM, 16, 21, 1.0, 1.0)

    def test_range_checks(self):
        with pytest.raises(RangeError):
            toeplitz_circulant_gap(GEOM, 16, 16, 1.0, 1.0)
        with pytest.raises(RangeError):
            toeplitz_circulant_gap(GEOM, 16, 31, 1.0, 1.0)  # m >= 2(n-1)
        with pytest.raises(RangeError):
            toeplitz_circulant_gap(GEOM, 16, 20, 1.0, 1.0)  # even m

    @pytest.mark.parametrize("alpha, M", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
    def test_non_finite_alpha_or_M_refused(self, alpha, M):
        # NaN passed the old alpha <= 1/2 check and returned a NaN bound
        with pytest.raises(RangeError, match="finite"):
            toeplitz_circulant_gap(GEOM, 16, 21, alpha, M)


class TestEigenBracket:
    def test_constant(self):
        lam_min, lam_max, lo, hi, ok = eigen_bracket_check(
            SpectralDensity.constant(2.0), 6)
        assert ok and lam_min == pytest.approx(2.0) and lam_max == pytest.approx(2.0)

    def test_cosine_range(self):
        lam_min, lam_max, lo, hi, ok = eigen_bracket_check(COS_2_HALF, 8)
        assert ok
        assert lo == pytest.approx(1.5, abs=1e-9)
        assert hi == pytest.approx(2.5, abs=1e-9)
        assert 1.5 - 1e-9 <= lam_min <= lam_max <= 2.5 + 1e-9

    def test_extremes_are_the_oracle_extremes(self):
        # K_max = 3, extremes between the points of a 4097-point grid, which
        # put inf a 1.6e-6 too high
        a = SpectralDensity(np.array([3.0, 0.4 + 0.3j, -0.35, 0.2j]))
        _, _, lo, hi, ok = eigen_bracket_check(a, 16)
        assert ok
        assert lo == pytest.approx(float(density_min_oracle(a.coeffs)[0]), abs=1e-14)
        assert hi == pytest.approx(-float(density_min_oracle(-a.coeffs)[0]), abs=1e-14)

    def test_lambda_min_decreases_toward_inf(self):
        mins = [eigen_bracket_check(COS_2_HALF, n)[0] for n in (4, 8, 16, 32)]
        assert all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))
        assert mins[-1] >= 1.5 - 1e-9


class TestNorms:
    def test_equal_matrices(self):
        A = toeplitz_from_density(GEOM, 5)
        assert hs_distance(A, A) == 0.0

    def test_diag_vs_zero(self):
        D = SymbolMatrix(np.diag([1.0, 2.0]).astype(complex))
        Z = SymbolMatrix(np.zeros((2, 2), dtype=complex))
        assert hs_distance(D, Z) == pytest.approx(math.sqrt(5.0))
        assert op_norm(D.entries - Z.entries) == pytest.approx(2.0)

    def test_op_le_hs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            H = random_hermitian(5, rng)
            assert op_norm(H) <= np.linalg.norm(H) + 1e-12

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            hs_distance(np.eye(2), np.eye(3))


class TestAbsSquare:
    def test_identity(self):
        np.testing.assert_allclose(abs_square(np.eye(3)), np.eye(3), atol=0)

    def test_all_i(self):
        M = 1j * np.ones((2, 2))
        np.testing.assert_allclose(abs_square(M), np.ones((2, 2)), atol=0)

    def test_entrywise_oracle(self):
        rng = np.random.default_rng(3)
        H = random_hermitian(4, rng)
        U = dft_unitary(4 + 1)[:4, :4]  # any complex matrix works
        M = U.conj().T @ H @ U
        S = abs_square(M)
        for j in range(4):
            for k in range(4):
                assert S[j, k] == pytest.approx(abs(M[j, k]) ** 2, abs=1e-14)


def _density(draw, complex_coeffs: bool) -> SpectralDensity:
    """Hypothesis draw: a density with K_max <= 20 and a_0 in [-2, 6]."""
    part = st.floats(-1.0, 1.0, allow_nan=False)
    k_max = draw(st.integers(0, 20))
    re = draw(st.lists(part, min_size=k_max, max_size=k_max))
    im = draw(st.lists(part, min_size=k_max, max_size=k_max)) if complex_coeffs else [0.0] * k_max
    a0 = draw(st.floats(-2.0, 6.0, allow_nan=False))
    return SpectralDensity(np.array([a0] + [complex(x, y) for x, y in zip(re, im)]))


@st.composite
def toeplitz_symbols(draw):
    a = _density(draw, draw(st.booleans()))
    return a, toeplitz_from_density(a, draw(st.integers(1, 80)))


@st.composite
def general_symbols(draw):
    """Entry-by-entry Hermitian symbols: complex, real, and real with A == J A J."""
    n = draw(st.integers(1, 80))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = gen.normal(size=(n, n))
    kind = draw(st.sampled_from(["complex", "real", "centrosymmetric"]))
    if kind == "complex":
        M = M + 1j * gen.normal(size=(n, n))
    elif kind == "centrosymmetric":
        M = M + M[::-1, ::-1]
    return SymbolMatrix(0.5 * (M + M.conj().T))


class TestSpectrumProperties:
    """The cached spectrum, split or not, against the dense definitions."""

    @staticmethod
    def check_decomposition(A: SymbolMatrix):
        lams, V = A.spectrum
        E = np.array(A.entries)
        tol = 1e-12 * (1.0 + np.linalg.norm(E, 2))
        assert not lams.flags.writeable and not V.flags.writeable
        assert np.all(np.diff(lams) >= 0.0)
        assert np.max(np.abs((V * lams) @ V.conj().T - E)) <= tol
        assert np.max(np.abs(V.conj().T @ V - np.eye(A.n))) <= 1e-12
        assert np.max(np.abs(lams - np.linalg.eigvalsh(E))) <= tol
        assert A.eigenvalues.tobytes() == lams.tobytes()
        # halves exactly for real centrosymmetric entries (from the lags in O(n)
        # for a lag-built symbol)
        centro = not E.imag.any() and np.array_equal(E, E[::-1, ::-1])
        assert (A.halves is not None) == centro
        return lams, V

    @given(toeplitz_symbols())
    def test_toeplitz_spectrum(self, case):
        a, A = case
        lams, V = self.check_decomposition(A)
        if not A.entries.imag.any():
            assert V.dtype == float
        # inf a <= lambda <= sup a, with the grid extremes widened by the
        # rigorous grid error max|a''| h^2 / 2 (h = half the grid step)
        ks = np.arange(a.k_max + 1)
        grid = 8192
        slack = np.sum(2.0 * ks ** 2 * np.abs(a.coeffs)) * (math.pi / grid) ** 2 / 2.0
        vals = eval_density(a, np.linspace(-math.pi, math.pi, grid + 1))
        slack += 1e-12 * (1.0 + np.max(np.abs(vals)))
        assert np.min(vals) - slack <= lams[0]
        assert lams[-1] <= np.max(vals) + slack

    @given(general_symbols())
    def test_general_spectrum(self, A):
        self.check_decomposition(A)

    @given(st.one_of(toeplitz_symbols().map(lambda case: case[1]), general_symbols()))
    def test_rebuild_from_entries_is_identity(self, A):
        assert same_bytes(SymbolMatrix(A.entries, tag=A.tag), A)

    @given(st.one_of(toeplitz_symbols().map(lambda case: case[1]), general_symbols()))
    def test_eigenvalues_equal_the_spectrum_whichever_is_read_first(self, A):
        # values first: the symbol's one vector solve, then the spectrum
        lams = A.eigenvalues
        assert not lams.flags.writeable and np.all(np.diff(lams) >= 0.0)
        assert lams.tobytes() == A.spectrum[0].tobytes()
        # spectrum first, then the values
        B = SymbolMatrix(A.entries, tag=A.tag)
        lams = B.spectrum[0]
        assert B.eigenvalues.tobytes() == lams.tobytes()

    @given(st.one_of(toeplitz_symbols().map(lambda case: case[1]), general_symbols()))
    def test_eigenvalues_after_a_vector_solve_are_its_values(self, A):
        # halves first (the entropy's order): merged, the spectrum unbuilt
        B = SymbolMatrix(A.entries, tag=A.tag)
        if B.halves is not None:
            lams = B.eigenvalues
            assert "spectrum" not in B.__dict__
            assert lams.tobytes() == B.spectrum[0].tobytes()
        # spectrum first
        lams = A.spectrum[0]
        assert A.eigenvalues.tobytes() == lams.tobytes()


@st.composite
def lag_symbols(draw):
    """Lag-built Toeplitz symbols with n <= 64 and any K_max < n, real or complex lags."""
    n = draw(st.integers(1, 64))
    k_max = draw(st.integers(0, n - 1))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    re = draw(st.lists(part, min_size=k_max, max_size=k_max))
    im = (draw(st.lists(part, min_size=k_max, max_size=k_max)) if draw(st.booleans())
          else [0.0] * k_max)
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    a0 = draw(st.floats(-2.0, 6.0, allow_nan=False))
    coeffs = scale * np.array([a0] + [complex(x, y) for x, y in zip(re, im)])
    return toeplitz_from_density(SpectralDensity(coeffs), n)


class TestLagFloor:
    """The Grenander-Szego floor lies below every solved lambda_min, and the gate agrees."""

    @given(lag_symbols())
    def test_floor_never_exceeds_the_solved_lambda_min(self, A):
        floor = _lag_floor(A._lags)
        assert floor <= np.linalg.eigvalsh(np.array(A.entries))[0]
        assert floor <= A.eigenvalues[0]   # the solve the gates fall back to

    @given(lag_symbols(), st.floats(-0.5, 0.5))
    def test_gate_answers_as_the_eigenvalues_do(self, A, shift):
        lam = A.eigenvalues[0]
        for t in (_lag_floor(A._lags) + shift, lam, np.nextafter(lam, -np.inf)):
            fresh = SymbolMatrix._from_lags(A._lags)
            assert fresh.lambda_min_exceeds(t) == (lam > t)

    def test_a_cached_solve_answers_first(self, solves):
        A = toeplitz_from_density(COS_2_HALF, 8)
        lam = min(lams[0] for lams, _ in A.halves)
        assert solves == [("eigh", (4, 4))] * 2
        assert A.lambda_min_exceeds(np.nextafter(lam, -np.inf))
        assert not A.lambda_min_exceeds(lam)
        assert len(solves) == 2

    def test_symbol_without_lags_takes_its_one_solve(self, solves):
        A = SymbolMatrix(np.array(toeplitz_from_density(COS_2_HALF, 6).entries))
        assert A.lambda_min_exceeds(1.0)
        assert solves == [("eigh", (3, 3))] * 2
        assert A.spectrum[0].tobytes() == A.eigenvalues.tobytes()
        assert len(solves) == 2


class TestCirculantBuildProperties:
    """The lag-built circulant forms, byte for byte against the dense ones."""

    @given(st.data())
    def test_circulant_equals_lag_loop_build(self, data):
        a = _density(data.draw, data.draw(st.booleans()))
        m = 2 * data.draw(st.integers(0, 45)) + 1
        expect = circulant_by_coeff_loop(a, m)
        assert circulant_from_density(a, m).entries.tobytes() == expect.entries.tobytes()
        # the eigenvalues are the density on the Fourier grid, one hfft, and the dense
        # column's FFT rounds otherwise: within a few eps per level of sum |c|
        c = expect.entries[:, 0]
        fft = np.fft.fftshift(np.fft.fft(c)).real
        tol = 4.0 * (1.0 + math.log2(m)) * 2.0 ** -52 * np.abs(c).sum()
        assert np.abs(circulant_eigs(a, m) - fft).max() <= tol

    @given(st.data())
    def test_circulant_block_equals_dense_block(self, data):
        a = _density(data.draw, data.draw(st.booleans()))
        m = 2 * data.draw(st.integers(0, 45)) + 1
        n = data.draw(st.integers(1, m))
        dense = circulant_by_coeff_loop(a, m).entries[:n, :n]
        assert circulant_block(a, m, n).entries.tobytes() == dense.tobytes()


def _lag_built(draw, n):
    """A lag-built n x n symbol: Toeplitz, a circulant block, or (odd n) a circulant."""
    a = _density(draw, draw(st.booleans()))
    kind = draw(st.sampled_from(["toeplitz", "block", "circulant"]))
    if kind == "toeplitz":
        return toeplitz_from_density(a, n)
    if kind == "circulant" and n % 2:
        return circulant_from_density(a, n)
    m = n + draw(st.integers(0, 20))
    return circulant_block(a, m + 1 - m % 2, n)


class TestLagHsDistance:
    """``hs_distance`` of two lag-built symbols: the weighted lag sum, in O(n)."""

    @given(st.data())
    def test_lag_sum_equals_the_dense_norm(self, data):
        n = data.draw(st.integers(1, 80))
        A, B = _lag_built(data.draw, n), _lag_built(data.draw, n)
        assert A._lags is not None and B._lags is not None
        dense = float(np.linalg.norm(A.entries - B.entries))
        assert abs(hs_distance(A, B) - dense) <= 1e-12 * dense

    @given(st.data())
    def test_size_mismatch_rejected(self, data):
        n = data.draw(st.integers(1, 40))
        A, B = _lag_built(data.draw, n), _lag_built(data.draw, n + data.draw(st.integers(1, 40)))
        with pytest.raises(DimensionError):
            hs_distance(A, B)

    def test_no_n_by_n_array(self):
        n = 2000   # a dense difference would take 64 MB
        A, B = toeplitz_from_density(GEOM, n), circulant_block(GEOM, n + 1, n)
        tracemalloc.start()
        try:
            hs_distance(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestJsonRoundTrip:
    """Both JSON formats rebuild an equal object, byte keys and signed zeros included."""

    @given(st.data())
    def test_density(self, data):
        a = _density(data.draw, data.draw(st.booleans()))
        assert SpectralDensity.from_json(json.loads(json.dumps(a.to_json()))) == a

    @given(st.one_of(toeplitz_symbols().map(lambda case: case[1]), general_symbols()))
    def test_symbol(self, A):
        assert same_bytes(SymbolMatrix.from_json(json.loads(json.dumps(A.to_json()))), A)

    def test_signed_zeros_survive(self):
        a = SpectralDensity(np.array([2.0, complex(-0.0, -0.0), complex(0.5, -0.0)]))
        assert SpectralDensity.from_json(a.to_json()) == a
        for A in (toeplitz_from_density(COS_2_HALF, 4), circulant_from_density(a, 5)):
            assert np.signbit(A.entries.imag).any()
            assert same_bytes(SymbolMatrix.from_json(A.to_json()), A)
