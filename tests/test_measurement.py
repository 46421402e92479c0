import copy
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsts import estimators, measurement
from qsts.errors import (
    DimensionError,
    InputError,
    NotFaithful,
    NotPSD,
    NotToeplitz,
    RangeError,
    TooSmall,
)
from qsts.harness import RngStream, mc_run
from qsts.measurement import (
    BlockScheme,
    NumberOpSampler,
    block_scheme,
    joint_pmf_from_pgf,
    pi_moments,
    sample_pi_blocks,
)
from qsts.estimators import _design, design_matrices, preliminary_estimator
from qsts.experiments import _chi2_sf
from qsts.spectral import RealParam, SpectralDensity, fourier_frequencies, psi_matrix
from qsts.toeplitz import SymbolMatrix, toeplitz_from_density

from oracles import (
    block_rates_full_q,
    conditional_blocks_full_q,
    dense_dft_conjugate,
    pgf_coefficients_mp,
)

COS_DENSITY = SpectralDensity.cosine(2.0, 0.5)   # 2 + 0.5 cos w


class TestBlockScheme:
    def test_n1024_d1(self):
        s = block_scheme(1024, 1)
        assert s.m == 7 and s.r == 128

    def test_n64_d0(self):
        s = block_scheme(64, 0)
        assert s.m == 5 and s.r == 12

    def test_r_grows_with_n(self):
        rs = [block_scheme(n, 1).r for n in (64, 128, 256, 512)]
        assert rs == sorted(rs) and rs[-1] > 2 * rs[0]

    def test_too_small(self):
        with pytest.raises((TooSmall, RangeError)):
            block_scheme(8, 100)

    def test_invariant_checked(self):
        with pytest.raises(RangeError):
            BlockScheme(n=10, d=0, m=7, r=2)

    @given(st.integers(8, 10 ** 7), st.integers(0, 64))
    def test_scheme_invariants(self, n, d):
        # floor(ln(n) / 2) is the largest k with e^(2k) <= n; no e^(2k) lies near an integer
        m = 2 * max(k for k in range(9) if math.exp(2 * k) <= n) + 1
        if m + d > n:
            with pytest.raises(TooSmall):
                block_scheme(n, d)
            return
        s = block_scheme(n, d)
        assert s.m == m and s.m % 2 == 1 and s.r >= 1
        assert s.r * (s.m + d) <= n < (s.r + 1) * (s.m + d)
        half = (s.m - 1) // 2
        theta = np.zeros(2 * half + 1)
        theta[half] = 2.0
        assert design_matrices(s.m, half, theta).W.shape == (s.m, s.m)
        with pytest.raises(DimensionError):
            design_matrices(s.m, half + 1, np.append(theta, [0.0, 0.0]))


class TestPiMoments:
    def test_thermal_product(self):
        A = SymbolMatrix(3.0 * np.eye(5).astype(complex))
        mean, cov = pi_moments(A)
        np.testing.assert_allclose(mean, 3.0, atol=1e-12)
        np.testing.assert_allclose(cov, 8.0 * np.eye(5), atol=1e-10)

    def test_toeplitz_mean_is_tapered_band(self):
        m = 5
        A = toeplitz_from_density(COS_DENSITY, m)
        mean, _ = pi_moments(A)
        # oracle: direct quadratic form u_j* A u_j
        from qsts.toeplitz import dft_unitary
        U = dft_unitary(m)
        for idx in range(m):
            u = U[:, idx]
            assert mean[idx] == pytest.approx(
                float((u.conj() @ A.entries @ u).real), abs=1e-12)

    def test_cov_diagonal_identity(self):
        A = toeplitz_from_density(COS_DENSITY, 7)
        mean, cov = pi_moments(A)
        np.testing.assert_allclose(np.diag(cov), mean ** 2 - 1.0, atol=1e-9)

    def test_cov_symmetric_nonnegative(self):
        A = toeplitz_from_density(COS_DENSITY, 7)
        _, cov = pi_moments(A)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.all(cov + 1e-12 >= 0.0)

    def test_not_faithful(self):
        with pytest.raises(NotFaithful):
            pi_moments(SymbolMatrix(np.eye(3).astype(complex)))

    def test_gate_inside_the_floor_allowance_solves_and_passes(self):
        # lambda_min = 1 + 1e-15 lies inside the lag floor's allowance, so
        # the gate reads the symbol's one solve, which clears 1
        A = toeplitz_from_density(SpectralDensity([1.0 + 1e-15]), 7)
        mean, _ = pi_moments(A)
        assert "eigenvalues" in A.__dict__
        np.testing.assert_allclose(mean, 1.0, rtol=0.0, atol=1e-12)

    def test_gate_at_one_raises_the_solved_message(self):
        with pytest.raises(NotFaithful) as err:
            pi_moments(toeplitz_from_density(SpectralDensity([1.0]), 7))
        assert str(err.value) == "pi moments need lambda_min(A) > 1, got 1"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_symbol_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            pi_moments(np.array([[2.0, bad], [bad, 2.0]]))


class TestSampler:
    def test_vacuum_always_zero(self):
        N = NumberOpSampler(SymbolMatrix(np.eye(4).astype(complex))).draw(
            RngStream(1, 1), size=50)
        assert np.all(N == 0)

    def test_marginal_geometric_mean(self):
        N = NumberOpSampler(SymbolMatrix(3.0 * np.eye(3).astype(complex))).draw(
            RngStream(2, 1), size=10 ** 5)
        se = math.sqrt(2.0 / 10 ** 5)
        for j in range(3):
            assert abs(np.mean(N[:, j]) - 1.0) < 4 * se

    def test_moment_match_toeplitz(self):
        m, reps = 7, 2 * 10 ** 5
        A = toeplitz_from_density(COS_DENSITY, m)
        mean, cov = pi_moments(A)
        N = NumberOpSampler(A).draw(RngStream(3, 1), size=reps)
        pi = 2.0 * N + 1.0
        emp_mean = pi.mean(axis=0)
        se_mean = np.sqrt(np.diag(cov) / reps)
        assert np.all(np.abs(emp_mean - mean) < 4 * se_mean)
        emp_cov = np.cov(pi.T)
        # SE of each covariance entry from the empirical variance of the
        # centered products (the 4th-moment formula, not the normal one)
        centered = pi - emp_mean
        prod_var = np.einsum("ij,ik->jk", centered ** 2, centered ** 2) / reps - emp_cov ** 2
        se_cov = np.sqrt(prod_var / reps)
        assert np.all(np.abs(emp_cov - cov) < 5 * se_cov)

    def test_same_draw_from_the_lags_and_from_the_entries(self):
        # rebuilt entry by entry, the symbol carries no lags and its first row is checked
        A = toeplitz_from_density(COS_DENSITY, 1025)
        B = SymbolMatrix(np.array(A.entries), tag="toeplitz")
        assert A._lags is not None and B._lags is None
        N_lags, N_entries = (NumberOpSampler(S).draw(RngStream(2, 0)) for S in (A, B))
        assert N_lags.tobytes() == N_entries.tobytes()

    def test_full_length_draw_memory_is_linear_in_n(self):
        # one 4097 x 4097 complex matrix alone would take 268 MB
        tracemalloc.start()
        try:
            NumberOpSampler(toeplitz_from_density(COS_DENSITY, 4097)).draw(RngStream(2, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_not_psd_rejected(self):
        with pytest.raises((NotPSD, ValueError)):
            NumberOpSampler(SymbolMatrix(0.5 * np.eye(2).astype(complex))).draw(
                RngStream(4, 1))

    def test_pgf_oracle_two_modes(self):
        A = SymbolMatrix(np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.8]]))
        pmf = joint_pmf_from_pgf(A, k_max=12)
        draws = NumberOpSampler(A).draw(RngStream(5, 1), size=5 * 10 ** 5)
        kept = draws[(draws[:, 0] <= 12) & (draws[:, 1] <= 12)]
        emp = np.zeros((13, 13))
        for r, c in kept:
            emp[r, c] += 1
        emp /= draws.shape[0]
        tv = 0.5 * float(np.sum(np.abs(emp - pmf)))
        assert tv < 0.01

    def test_pgf_matches_thermal_one_mode(self):
        A = SymbolMatrix(np.array([[3.0]], dtype=complex))
        pmf = joint_pmf_from_pgf(A, k_max=10)
        expect = 0.5 * 0.5 ** np.arange(11)
        np.testing.assert_allclose(pmf, expect, atol=1e-10)

    def test_pgf_k_max_has_no_alias_bound(self):
        # a 64-point inversion once folded k + 64 onto k, so k_max >= 64 was refused
        A = SymbolMatrix(np.array([[3.0]], dtype=complex))
        np.testing.assert_allclose(joint_pmf_from_pgf(A, k_max=100), 0.5 ** np.arange(1, 102),
                                   rtol=1e-14, atol=0.0)
        with pytest.raises(RangeError, match="k_max"):
            joint_pmf_from_pgf(A, k_max=-1)


class TestExactLaw:
    """joint_pmf_from_pgf: the coefficient recurrence of 1 / det(I + Q'(I - Z))."""

    @pytest.mark.parametrize("a", [20.0, 100.0, 1000.0])
    def test_one_mode_is_geometric(self, a):
        # the 64-point inversion was 0.385 off at a = 100 (the mass p^64 folded onto k)
        p = (a - 1.0) / (a + 1.0)
        for k_max in (5, 40, 100):
            pmf = joint_pmf_from_pgf(SymbolMatrix([[a]]), k_max)
            np.testing.assert_allclose(pmf, (1.0 - p) * p ** np.arange(k_max + 1),
                                       rtol=1e-12, atol=0.0)
            assert abs(pmf.sum() + p ** (k_max + 1) - 1.0) < 1e-14

    @pytest.mark.parametrize("m, k_max", [(2, 40), (3, 12)])
    @pytest.mark.parametrize("a", [3.0, 100.0])
    def test_random_symbols_match_a_40_digit_recurrence(self, m, k_max, a):
        # I + (a - 1)/2 (B - I) for B = generic_hermitian: diagonal a, lambda_min >= (a + 1)/2
        I = np.eye(m)
        A = SymbolMatrix(I + 0.5 * (a - 1.0) * (generic_hermitian(m, m + int(a)).entries - I))
        exact = pgf_coefficients_mp(q_prime(A), k_max)
        pmf = joint_pmf_from_pgf(A, k_max)
        assert np.all(exact > 0.0)
        assert np.max(np.abs(pmf / exact - 1.0)) < 1e-12

    def test_three_modes_give_a_pmf(self):
        # m = 3 was refused with DimensionError
        pmf = joint_pmf_from_pgf(toeplitz_from_density(COS_DENSITY, 3), 30)
        assert pmf.shape == (31, 31, 31) and np.all(pmf > 0.0)
        assert 1.0 - 1e-6 < pmf.sum() < 1.0

    def test_budget(self):
        A = toeplitz_from_density(COS_DENSITY, 3)
        assert measurement._PGF_BUDGET == 2 ** 18
        assert joint_pmf_from_pgf(A, 31).shape == (32,) * 3     # 32^3 2^3 = 2^18 terms
        with pytest.raises(RangeError, match="k_max"):
            joint_pmf_from_pgf(A, 32)

    def test_not_psd_refused(self):
        # [[0.5]] once gave a "pmf" of mass 1.4998 with P(0) = 1.333
        with pytest.raises(NotPSD):
            joint_pmf_from_pgf([[0.5]])
        # the sampler's threshold: lambda_min(A) >= 1 - 2 _PSD_TOL passes
        edge = 1.0 - measurement._PSD_TOL
        assert joint_pmf_from_pgf([[edge]], 3)[0] == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(NotPSD):
            joint_pmf_from_pgf([[1.0 - 3.0 * measurement._PSD_TOL]], 3)

    def test_overflowing_coefficients_refused(self):
        # diag(1e200, 1e200) once returned NaNs after a numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="not finite"):
                joint_pmf_from_pgf(np.diag([1e200, 1e200]))

    def test_blocked_sampler_follows_the_two_block_law(self):
        # block_scheme(8, 0): r = 2 blocks of m = 3 (r < m); the column totals have
        # the law of the single-block pmf convolved with itself
        scheme = block_scheme(8, 0)
        assert (scheme.m, scheme.r) == (3, 2)
        p = joint_pmf_from_pgf(toeplitz_from_density(COS_DENSITY, 3), 12)
        law = np.zeros_like(p)
        for j in np.ndindex(p.shape):
            law[j[0]:, j[1]:, j[2]:] += p[j] * p[:13 - j[0], :13 - j[1], :13 - j[2]]
        reps = 8000
        counts = np.zeros_like(p)
        for i in range(reps):
            s = sample_pi_blocks(COS_DENSITY, scheme, RngStream(61, i)).totals
            if s.max() <= 12:
                counts[tuple(s)] += 1
        assert pearson_p(counts, reps * law, reps) > 1e-3

    @pytest.mark.parametrize("r", [2, 5])
    def test_conditional_block_rows_follow_the_block_law(self, r):
        # every row of the blocks drawn given the totals has the single-block law,
        # for k = min(r, m) = r (r < m) and k = m
        m = 3
        scheme = BlockScheme(n=m * r, d=0, m=m, r=r)
        p = joint_pmf_from_pgf(toeplitz_from_density(COS_DENSITY, m), 12)
        reps = 4000
        counts = np.zeros((2,) + p.shape)
        for i in range(reps):
            blocks = sample_pi_blocks(COS_DENSITY, scheme, RngStream(64, i)).blocks
            for row, b in enumerate((0, r - 1)):
                if blocks[b].max() <= 12:
                    counts[row][tuple(blocks[b])] += 1
        for row in counts:
            assert pearson_p(row, reps * p, reps) > 1e-3


def pearson_p(counts, expected, reps):
    """Pearson p-value of cell counts against expected counts, cells below 5 merged."""
    cells = expected >= 5.0
    rest = reps - expected[cells].sum(), reps - counts[cells].sum()
    stat = float(np.sum((counts[cells] - expected[cells]) ** 2 / expected[cells])
                 + (rest[1] - rest[0]) ** 2 / rest[0])
    return _chi2_sf(int(cells.sum()), stat)


class TestBlocks:
    def test_determinism(self):
        scheme = block_scheme(128, 1)
        d1 = sample_pi_blocks(COS_DENSITY, scheme, RngStream(7, 0))
        d2 = sample_pi_blocks(COS_DENSITY, scheme, RngStream(7, 0))
        np.testing.assert_array_equal(d1.blocks, d2.blocks)
        np.testing.assert_array_equal(d1.pi_bar, d2.pi_bar)

    def test_pi_bar_is_read_off_the_blocks(self):
        draw = sample_pi_blocks(COS_DENSITY, block_scheme(128, 1), RngStream(7, 0))
        assert draw.pi_bar.tobytes() == np.mean(2.0 * draw.blocks + 1.0, axis=0).tobytes()
        assert draw.pi_bar is draw.pi_bar

    def test_constant_density_symmetric_components(self):
        scheme = block_scheme(512, 0)
        a = SpectralDensity.constant(3.0)

        def sampler(stream):
            return sample_pi_blocks(a, scheme, stream).pi_bar

        out = mc_run(sampler, 400, seed=11)
        # all m coordinates share the same law: means within 4 SE of a0
        assert np.all(np.abs(out.mean - 3.0) < 4 * out.se)

    def test_pi_bar_mean_matches_moments(self):
        scheme = block_scheme(256, 1)
        A = toeplitz_from_density(COS_DENSITY, scheme.m)
        mean, cov = pi_moments(A)

        def sampler(stream):
            return sample_pi_blocks(COS_DENSITY, scheme, stream).pi_bar

        reps = 10 ** 4
        out = mc_run(sampler, reps, seed=13)
        se = np.sqrt(np.diag(cov) / (scheme.r * reps))
        assert np.all(np.abs(out.mean - mean) < 4 * se)

    def test_cross_block_independence(self):
        scheme = block_scheme(128, 1)

        def sampler(stream):
            d = sample_pi_blocks(COS_DENSITY, scheme, stream)
            return d.blocks[:2].ravel()  # first two blocks side by side

        out, rows = mc_run(sampler, 4000, seed=17, collect=True)
        m = scheme.m
        cross = out.cov[:m, m:]
        var = np.diag(out.cov)
        se = np.sqrt(np.outer(var[:m], var[m:]) / rows.shape[0])
        assert np.all(np.abs(cross) < 5 * se)

    def test_blocks_sum_to_the_totals(self):
        # the blocks, drawn when first read, sum to the totals column by column,
        # and reading them leaves the bytes of pi_bar as they were
        for n, d in ((8, 0), (64, 1), (4096, 1)):
            scheme = block_scheme(n, d)
            draw = sample_pi_blocks(COS_DENSITY, scheme, RngStream(29, n))
            before = draw.pi_bar.tobytes()
            assert draw.blocks.shape == (scheme.r, scheme.m)
            assert draw.blocks.dtype == np.int64 and np.all(draw.blocks >= 0)
            np.testing.assert_array_equal(draw.blocks.sum(axis=0), draw.totals)
            assert draw.pi_bar.tobytes() == before
            blocks_first = sample_pi_blocks(COS_DENSITY, scheme, RngStream(29, n))
            np.testing.assert_array_equal(blocks_first.blocks, draw.blocks)
            assert blocks_first.pi_bar.tobytes() == before

    @pytest.mark.parametrize("r, m", [(2, 3), (3, 3), (7, 3), (409, 9), (5957, 11)])
    def test_r_only_blocks_equal_the_full_q_reference(self, r, m):
        # Q D X = G R^-1 D X: the blocks drawn from R alone are the bytes of those
        # drawn with the Haar isometry formed, for r < m, square G, the golden
        # simulate measure case and the two benchmarked schemes
        scheme = BlockScheme(n=r * m, d=0, m=m, r=r)
        for seed in range(20):
            draw = sample_pi_blocks(COS_DENSITY, scheme, RngStream(71, seed))
            gens = [copy.deepcopy(draw.gen) for _ in range(3)]
            lam = measurement._block_rates(gens[0], draw.amplitudes, r)
            lam_ref = block_rates_full_q(gens[1], draw.amplitudes, r)
            np.testing.assert_allclose(lam, lam_ref, rtol=1e-12, atol=0.0)
            ref = conditional_blocks_full_q(gens[2], draw.amplitudes, draw.totals, r)
            assert draw.blocks.tobytes() == ref.tobytes(), seed

    @pytest.mark.parametrize("m, r", [(5, 1), (5, 4), (5, 5), (5, 6), (9, 409)])
    def test_totals_have_the_moments_of_r_blocks(self, m, r):
        # totals = sum of r independent blocks: mean r (mean_Pi - 1)/2 and
        # covariance r Cov(Pi)/4, for r below, at and above m
        scheme = BlockScheme(n=(m + 1) * r, d=1, m=m, r=r)
        mean_pi, cov_pi = pi_moments(toeplitz_from_density(COS_DENSITY, m))
        reps = 10000
        t = np.array([sample_pi_blocks(COS_DENSITY, scheme, RngStream(65, i)).totals
                      for i in range(reps)], dtype=float)
        mean, cov = r * 0.5 * (mean_pi - 1.0), r * 0.25 * cov_pi
        assert np.all(np.abs(t.mean(axis=0) - mean) < 4.0 * np.sqrt(np.diag(cov) / reps))
        assert np.linalg.norm(np.cov(t.T) - cov) / np.linalg.norm(cov) < 0.08

    def test_totals_match_independent_sampler_batches(self):
        # two-sample: the totals against column sums of r rows of NumberOpSampler,
        # each coordinate binned at the pooled deciles
        scheme = block_scheme(4096, 1)
        sampler = NumberOpSampler(toeplitz_from_density(COS_DENSITY, scheme.m))
        reps = 1500
        fast = np.array([sample_pi_blocks(COS_DENSITY, scheme, RngStream(66, i)).totals
                         for i in range(reps)])
        slow = np.array([sampler.draw(RngStream(67, i), size=scheme.r).sum(axis=0)
                         for i in range(reps)])
        for j in range(scheme.m):
            pooled = np.concatenate([fast[:, j], slow[:, j]])
            edges = np.unique(np.quantile(pooled, np.linspace(0.1, 0.9, 9)))
            table = np.array([np.bincount(np.searchsorted(edges, x, side="right"),
                                          minlength=edges.size + 1)
                              for x in (fast[:, j], slow[:, j])], dtype=float)
            expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
            stat = float(np.sum((table - expected) ** 2 / expected))
            assert _chi2_sf(edges.size, stat) > 1e-3 / scheme.m

    def test_one_generator_per_call(self, monkeypatch):
        calls = []
        original = RngStream.generator

        def counted(self):
            calls.append(self.path)
            return original(self)

        monkeypatch.setattr(RngStream, "generator", counted)
        scheme = block_scheme(4096, 1)
        for i in (1, 2):
            sample_pi_blocks(COS_DENSITY, scheme, RngStream(31, i)).blocks
        assert calls == [(31, 1), (31, 2)]

    @pytest.mark.parametrize("a0", [0.5, 0.75, 1.0])
    def test_not_faithful_before_not_psd(self, a0):
        # lambda_min(A) = a0 <= 1: the faithfulness gate fires, not the PSD guard
        # that the same symbol trips when a0 < 1 and faithfulness is not asked for
        with pytest.raises(NotFaithful):
            sample_pi_blocks(SpectralDensity.constant(a0), block_scheme(64, 1),
                             RngStream(1, 0))
        if a0 < 1.0:
            with pytest.raises(NotPSD):
                NumberOpSampler(toeplitz_from_density(SpectralDensity.constant(a0), 5))

    def test_csv_export(self):
        scheme = block_scheme(64, 1)
        draw = sample_pi_blocks(COS_DENSITY, scheme, RngStream(21, 0))
        buf = io.StringIO()
        draw.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].startswith("# {")
        assert json.loads(lines[0][2:])["seed"] == 21   # from the draw's seed path
        assert lines[1] == "block,j,N"
        assert len(lines) == 2 + scheme.r * scheme.m

    @staticmethod
    def per_entry_csv(draw) -> str:
        """The earlier writer: one write and one numpy scalar read per entry."""
        fh = io.StringIO()
        header = {"seed": draw.seed_path[0] if draw.seed_path else None,
                  "n": draw.scheme.n, "d": draw.scheme.d, "m": draw.scheme.m,
                  "r": draw.scheme.r, "density": draw.density_label}
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write("block,j,N\n")
        half = (draw.scheme.m - 1) // 2
        for b in range(draw.scheme.r):
            for idx in range(draw.scheme.m):
                fh.write(f"{b},{idx - half},{int(draw.blocks[b, idx])}\n")
        return fh.getvalue()

    @pytest.mark.parametrize("n, d, r", [(8, 2, 1), (64, 1, 10), (65536, 0, 5957)])
    def test_csv_bytes_equal_the_per_entry_writer(self, n, d, r):
        scheme = block_scheme(n, d)
        draw = sample_pi_blocks(COS_DENSITY, scheme, RngStream(21, 0))
        buf = io.StringIO()
        draw.write_csv(buf)
        assert scheme.r == r
        assert buf.getvalue() == self.per_entry_csv(draw)


GEOM = SpectralDensity.from_coeff_map({0: 3.0, 1: 0.6 + 0.2j, 2: -0.3j, 3: 0.1})


def generic_hermitian(m, seed):
    """3 I + G / (max absolute row sum of G) for a random Hermitian G: lambda_min >= 2."""
    X = np.random.default_rng(seed).standard_normal((2, m, m))
    G = X[0] + 1j * X[1]
    G = G + G.conj().T
    return SymbolMatrix(3.0 * np.eye(m) + G / np.max(np.sum(np.abs(G), axis=1)))


def rel_err(X, Y):
    return float(np.max(np.abs(X - Y)) / np.max(np.abs(Y)))


E = measurement._EMBED_MIN_N
# both parities just below the embedding threshold and at or just above it
NEAR_THRESHOLD = [E - 2, E - 1, E, E + 1]


def linear_map(sampler):
    """B with alpha = B z for a normal row z: the sampler's map applied to the identity."""
    return sampler.amplitudes(np.eye(sampler.width)).T


def q_prime(A):
    """(U* A U - I)/2 for odd m, (A - I)/2 in the given basis for even m."""
    D = dense_dft_conjugate(A.entries) if A.n % 2 == 1 else A.entries
    return 0.5 * (D - np.eye(A.n))


@st.composite
def band_limited_densities(draw):
    """Density with inf a > 1: a_0 exceeds 1 + 2 sum |a_k| over up to 12 complex lags by a margin."""
    k_max = draw(st.integers(0, 12))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=k_max, max_size=k_max)
    coeffs = [complex(x, y) for x, y in zip(draw(unit), draw(unit))]
    a0 = 1.0 + draw(st.floats(0.05, 3.0)) + 2.0 * sum(abs(c) for c in coeffs)
    return SpectralDensity(np.array([a0] + coeffs, dtype=complex))


def check_map(A, embeds):
    """For a faithful A the sampler's map B has B B* = q_prime(A) to 1e-12, with no eigensolve."""
    sampler = NumberOpSampler(A)
    assert (sampler.root is not None) == embeds
    B = linear_map(sampler)
    assert rel_err(B @ B.conj().T, q_prime(A)) < 1e-12
    assert "spectrum" not in A.__dict__


class TestBlockSamplerCache:
    """sample_pi_blocks builds one block factor per (density values, m) per process."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        measurement._block_factor.cache_clear()

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of np.linalg.cholesky (one per sampler build) and np.linalg.eigh."""
        counts = {"cholesky": 0, "eigh": 0}
        for name in counts:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_equal_values_reuse_the_sampler(self, calls):
        scheme = block_scheme(4096, 1)
        first = sample_pi_blocks(SpectralDensity.cosine(2.0, 0.5, label="first"),
                                 scheme, RngStream(3, 1))
        assert calls == {"cholesky": 1, "eigh": 0}
        again = sample_pi_blocks(SpectralDensity.cosine(2.0, 0.5, label="again"),
                                 scheme, RngStream(3, 2))
        assert calls["cholesky"] == 1
        assert (first.density_label, again.density_label) == ("first", "again")

    def test_other_values_or_block_size_build_their_own(self, calls):
        sample_pi_blocks(COS_DENSITY, block_scheme(4096, 1), RngStream(3, 1))
        sample_pi_blocks(SpectralDensity.cosine(2.0, 0.25), block_scheme(4096, 1),
                         RngStream(3, 1))
        assert calls["cholesky"] == 2
        m9, m7 = block_scheme(4096, 1), block_scheme(1024, 1)
        assert (m9.m, m7.m) == (9, 7)
        sample_pi_blocks(COS_DENSITY, m7, RngStream(3, 1))
        assert calls["cholesky"] == 3
        sample_pi_blocks(COS_DENSITY, m9, RngStream(3, 2))
        assert calls == {"cholesky": 3, "eigh": 0}

    def test_not_faithful_on_every_call(self):
        scheme = block_scheme(64, 1)
        for _ in range(2):
            with pytest.raises(NotFaithful):
                sample_pi_blocks(SpectralDensity.constant(0.75), scheme, RngStream(1, 0))
        assert measurement._block_factor.cache_info().currsize == 0

    def test_draw_equals_two_normal_batches(self):
        # one (2, rows, width) batch is the real parts followed by the imaginary parts;
        # a generic Hermitian symbol (not Toeplitz) makes swapping the parts show, and
        # an embedded Toeplitz symbol draws width = n + K normals per row
        X = np.random.default_rng(40).standard_normal((2, 9, 9))
        H = 0.1 * (X[0] + 1j * X[1])
        for A in (SymbolMatrix(3.0 * np.eye(9) + H + H.conj().T),
                  toeplitz_from_density(GEOM, E + 1)):
            sampler = NumberOpSampler(A)
            gen = RngStream(41, 0).generator()
            z = gen.standard_normal((5, sampler.width)) + 1j * gen.standard_normal((5, sampler.width))
            z /= math.sqrt(2.0)
            expect = gen.poisson(np.abs(sampler.amplitudes(z)) ** 2)
            np.testing.assert_array_equal(sampler.draw(RngStream(41, 0), size=5), expect)

    def test_cached_arrays_are_read_only(self):
        cached = [*_design(9, 1),
                  estimators._grid_design(1, 512), measurement._block_factor(COS_DENSITY, 9),
                  *measurement._bartlett_layout(409, 9),
                  NumberOpSampler(toeplitz_from_density(COS_DENSITY, E)).root]
        for arr in cached:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_scalar_poisson_draws_equal_one_array_call(self):
        # sample_pi_blocks draws its m totals by m scalar Generator.poisson calls, which
        # must give the draws of one array call; numpy switches its Poisson method at
        # rate 10, so rates on both sides of it are drawn, repeated to cover both paths
        rates = np.tile([0.0, 1e-3, 9.99, 10.0, 10.01, 1e4], 50)
        for seed in range(20):
            one = RngStream(seed, 7).generator()
            each = RngStream(seed, 7).generator()
            array = one.poisson(rates)
            scalar = np.array([each.poisson(lam) for lam in rates.tolist()])
            assert scalar.dtype == array.dtype
            np.testing.assert_array_equal(scalar, array)
            # and the generator is left in the same state
            assert one.standard_normal() == each.standard_normal()


def check_gate(m, kind, k):
    """NotFaithful exactly when the Cholesky fails and lambda_min(A) <= 1, as it tends to 1."""
    if kind == "const":
        a = SpectralDensity.constant(1.0 + 10.0 ** -k)
    else:
        # tridiagonal: lambda_min = a0 - 0.5 cos(pi / (m + 1)) = 1 + 10^-k
        a = SpectralDensity.cosine(1.0 + 10.0 ** -k + 0.5 * math.cos(math.pi / (m + 1)), 0.5)
    A = toeplitz_from_density(a, m)
    try:
        np.linalg.cholesky(0.5 * (A.entries - np.eye(m)))
        cholesky_ok = True
    except np.linalg.LinAlgError:
        cholesky_ok = False
    lam_min = float(A.spectrum[0][0])
    if 10.0 ** -k >= 1e-8:
        assert cholesky_ok and lam_min > 1.0
    try:
        measurement._poisson_mixture_factor(A, faithful=True)
    except NotFaithful:
        assert not cholesky_ok and lam_min <= 1.0
    N = NumberOpSampler(A).draw(RngStream(37, k), size=200)
    assert np.all(np.isfinite(N)) and np.all(N >= 0)


class TestMixtureFactor:
    """B B* = (U* A U - I)/2 by Cholesky or circulant embedding, gated like the spectrum."""

    @pytest.mark.parametrize("m", [1, 3, 9, 65, 1025])
    @pytest.mark.parametrize("kind", ["toeplitz", "generic"])
    def test_factor_matches_dense_oracle(self, m, kind):
        A = toeplitz_from_density(GEOM, m) if kind == "toeplitz" else generic_hermitian(m, m)
        check_map(A, embeds=kind == "toeplitz" and m >= E)

    @pytest.mark.parametrize("m", [2, 4, 10])
    def test_even_factor_stays_in_the_given_basis(self, m):
        for A in (toeplitz_from_density(GEOM, m), generic_hermitian(m, m)):
            check_map(A, embeds=False)

    @pytest.mark.parametrize("m", NEAR_THRESHOLD)
    @pytest.mark.parametrize("kind", ["geom", "const:3", "generic"])
    def test_map_on_both_sides_of_the_embedding_threshold(self, m, kind):
        A = {"geom": lambda: toeplitz_from_density(GEOM, m),
             "const:3": lambda: toeplitz_from_density(SpectralDensity.constant(3.0), m),
             "generic": lambda: generic_hermitian(m, m)}[kind]()
        check_map(A, embeds=kind != "generic" and m >= E)

    @given(band_limited_densities(), st.integers(E, 160))
    def test_embedding_map_equals_the_dense_q_prime(self, a, n):
        # the circulant's eigenvalues are (a - 1)/2 on its grid, all positive, so the
        # map is the embedding; its images of the unit normals give P P* = Q'
        A = toeplitz_from_density(a, n)
        sampler = NumberOpSampler(A)
        assert sampler.root is not None
        P = linear_map(sampler)
        Qp = 0.5 * (measurement._dft_conjugate(A.entries) - np.eye(n))
        assert np.linalg.norm(P @ P.conj().T - Qp, 2) <= 1e-12 * np.linalg.norm(Qp, 2)

    def test_embedding_width_is_n_plus_last_lag(self):
        # GEOM has K = 3; const:3 has K = 0, a circulant of size n
        assert NumberOpSampler(toeplitz_from_density(GEOM, E)).width == E + 3
        assert NumberOpSampler(toeplitz_from_density(SpectralDensity.constant(3.0), E)).width == E

    @pytest.mark.parametrize("m", [1, 3, 9, 65, 1025])
    def test_dft_conjugate_matches_dense_oracle(self, m):
        for A in (toeplitz_from_density(GEOM, m), generic_hermitian(m, m + 1)):
            assert rel_err(measurement._dft_conjugate(A.entries),
                           dense_dft_conjugate(A.entries)) < 1e-12

    @pytest.mark.parametrize("n", [n for n in NEAR_THRESHOLD if n >= E])
    def test_embedding_needs_the_grid_density_above_one(self, n):
        # tridiagonal: lambda_min(A) = a0 - 0.5 cos(pi / (n + 1)) = 1.0002, but the
        # circulant's eigenvalues are (a - 1)/2 on the n + 1 grid, and for odd n
        # that grid holds w = pi, where a = a0 - 0.5 < 1
        a = SpectralDensity.cosine(1.0002 + 0.5 * math.cos(math.pi / (n + 1)), 0.5)
        A = toeplitz_from_density(a, n)
        check_map(A, embeds=n % 2 == 0)
        assert float(A.spectrum[0][0]) == pytest.approx(1.0002, abs=1e-12)

    def test_mistagged_json_symbol_rejected(self):
        obj = generic_hermitian(E + 1, 3).to_json()
        obj["tag"] = "toeplitz"
        with pytest.raises(NotToeplitz):
            NumberOpSampler(SymbolMatrix.from_json(obj))

    @pytest.mark.parametrize("kind", ["const", "cos"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_gate_as_lambda_min_tends_to_one(self, kind, k):
        check_gate(9, kind, k)

    @pytest.mark.parametrize("kind", ["const", "cos"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_gate_past_the_embedding_threshold(self, kind, k):
        check_gate(E + 1, kind, k)

    @pytest.mark.parametrize("A", [toeplitz_from_density(SpectralDensity.constant(1.0), 9),
                                   toeplitz_from_density(SpectralDensity.constant(1.0), 65),
                                   SymbolMatrix(np.eye(9))],
                             ids=["const:1", "const:1-65", "vacuum"])
    def test_singular_psd_fallback(self, A):
        # Q = 0: the embedding's eigenvalues are 0, the Cholesky fails and the
        # cached spectrum gives the zero factor
        sampler = NumberOpSampler(A)
        assert sampler.root is None
        assert np.all(sampler.draw(RngStream(38, 0), size=20) == 0)
        with pytest.raises(NotFaithful):
            measurement._poisson_mixture_factor(A, faithful=True)


def coefficient_estimates(pi, d):
    """Complex a_j estimates: the coefficients of the preliminary estimate's density."""
    pi = np.asarray(pi, dtype=float)
    return RealParam(d, preliminary_estimator(pi, pi.size, d)).to_density()


class TestVectorsAndEstimates:
    def test_w_orthonormal(self):
        for m, d in ((9, 0), (11, 1), (11, 5), (1025, 3)):
            W, _ = _design(m, d)
            np.testing.assert_array_equal(
                W, psi_matrix(d, fourier_frequencies(m)) / math.sqrt(m))
            np.testing.assert_allclose(W.T @ W, np.eye(2 * d + 1), atol=1e-12)

    def test_exact_mean_recovers_coefficients(self):
        # feed the analytic mean of Pi: estimates return a_j exactly
        n, d = 9, 2
        a = SpectralDensity.from_coeff_map({0: 2.0, 1: 0.3 + 0.1j, 2: -0.2j})
        mean, _ = pi_moments(toeplitz_from_density(a, n))
        out = coefficient_estimates(mean, d)
        for j in range(-d, d + 1):
            assert out.coeff(j) == pytest.approx(a.coeff(j), abs=1e-12)

    def test_hermitian_pairing(self):
        # a_check_j = (n - |j|)^{-1} sum_k exp(-i j w_k) Pi_k; a_check_{-j} is its conjugate
        rng = np.random.default_rng(3)
        pi = rng.uniform(1.0, 3.0, size=9)
        out = coefficient_estimates(pi, 3)
        w = fourier_frequencies(9)
        for j in range(1, 4):
            direct = np.exp(-1j * j * w) @ pi / (9 - j)
            assert out.coeff(j) == pytest.approx(direct, abs=1e-12)
            assert out.coeff(-j) == pytest.approx(np.conj(direct), abs=1e-12)

    def test_mc_unbiasedness(self):
        scheme = block_scheme(256, 1)

        def sampler(stream):
            pi_bar = sample_pi_blocks(COS_DENSITY, scheme, stream).pi_bar
            est = coefficient_estimates(pi_bar, 1)
            return np.array([est.coeff(0).real, est.coeff(1).real, est.coeff(1).imag])

        out = mc_run(sampler, 4000, seed=23)
        # truth: a_0 = 2, a_1 = 0.25
        target = np.array([2.0, 0.25, 0.0])
        assert np.all(np.abs(out.mean - target) < 4 * np.maximum(out.se, 1e-12))

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            coefficient_estimates(np.ones(8), 1)   # even length
        with pytest.raises(DimensionError):
            coefficient_estimates(np.ones(9), 5)   # d too large
