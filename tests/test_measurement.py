import contextlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsts import estimators, measurement
from qsts.cli import _write_block_rows, cli_dispatch
from qsts.errors import (
    DimensionError,
    InputError,
    NotFaithful,
    NotPSD,
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
from qsts.toeplitz import SymbolMatrix, circulant_from_density, toeplitz_from_density

from oracles import dense_dft_conjugate, pgf_coefficients_mp

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

    def test_r_is_exact_past_float_precision(self):
        # 10^17 + 79 rounds to 10^17 + 80 = 40 (2.5e15 + 2) as a float
        s = block_scheme(10 ** 17 + 79, 1)
        assert (s.m, s.r) == (39, 2_500_000_000_000_001)

    def test_more_than_2_53_blocks_refused(self):
        # past 2^53 the gamma shapes r - i of the Bartlett draw are no longer exact floats
        assert block_scheme(2 ** 53 * 42 + 41, 1).r == 2 ** 53
        for n in (2 ** 53 * 42 + 42, 10 ** 20, 10 ** 30):
            with pytest.raises(RangeError, match=r"need r <= 2\^53 blocks"):
                block_scheme(n, 1)

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

    def test_entrywise_copy_takes_the_factor(self):
        # rebuilt entry by entry, the symbol carries no lags, so it is not embedded
        A = toeplitz_from_density(COS_DENSITY, 129)
        B = SymbolMatrix(np.array(A.entries))
        assert NumberOpSampler(A).root is not None and NumberOpSampler(B).root is None
        check_map(B, embeds=False)

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

def pearson_p(counts, expected, reps):
    """Pearson p-value of cell counts against expected counts, cells below 5 merged."""
    cells = expected >= 5.0
    rest = reps - expected[cells].sum(), reps - counts[cells].sum()
    stat = float(np.sum((counts[cells] - expected[cells]) ** 2 / expected[cells])
                 + (rest[1] - rest[0]) ** 2 / rest[0])
    return _chi2_sf(int(cells.sum()), stat)


def block_sampler(scheme):
    """The sampler of the r x m outcomes that ``simulate measure`` writes for COS_DENSITY."""
    return NumberOpSampler(toeplitz_from_density(COS_DENSITY, scheme.m))


class TestBlocks:
    def test_determinism(self):
        scheme = block_scheme(128, 1)
        sampler = block_sampler(scheme)
        np.testing.assert_array_equal(sampler.draw(RngStream(7, 0), size=scheme.r),
                                      sampler.draw(RngStream(7, 0), size=scheme.r))
        d1 = sample_pi_blocks(COS_DENSITY, scheme, RngStream(7, 0))
        d2 = sample_pi_blocks(COS_DENSITY, scheme, RngStream(7, 0))
        np.testing.assert_array_equal(d1.totals, d2.totals)
        np.testing.assert_array_equal(d1.pi_bar, d2.pi_bar)

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
        blocks = block_sampler(scheme)

        def sampler(stream):
            return blocks.draw(stream, size=scheme.r)[:2].ravel()  # first two blocks side by side

        out, rows = mc_run(sampler, 4000, seed=17, collect=True)
        m = scheme.m
        cross = out.cov[:m, m:]
        var = np.diag(out.cov)
        se = np.sqrt(np.outer(var[:m], var[m:]) / rows.shape[0])
        assert np.all(np.abs(cross) < 5 * se)

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

    @pytest.mark.parametrize("r", [3, 200])
    def test_embedded_totals_have_the_moments_of_r_blocks(self, r):
        # the Bartlett draw over the embedding's width = m + 3 normals per row:
        # mean r (mean_Pi - 1)/2 and variance r diag(Cov(Pi))/4, for r below and
        # above the width
        A = toeplitz_from_density(GEOM, E + 1)
        sampler = NumberOpSampler(A)
        assert sampler.root is not None and sampler.width == E + 4
        mean_pi, cov_pi = pi_moments(A)
        mean, var = r * 0.5 * (mean_pi - 1.0), r * 0.25 * np.diag(cov_pi)
        reps = 4000
        t = np.array([sampler.totals(RngStream(68, r * reps + i), r) for i in range(reps)],
                     dtype=float)
        assert np.all(np.abs(t.mean(axis=0) - mean) < 4.0 * np.sqrt(var / reps))
        # SE of each variance from the spread of the squared deviations
        sq = (t - t.mean(axis=0)) ** 2
        assert np.all(np.abs(sq.mean(axis=0) - var) < 5.0 * sq.std(axis=0) / math.sqrt(reps))

    @pytest.mark.parametrize("n, d", [(8, 0), (4096, 1), (10 ** 7, 3)])
    def test_sample_pi_blocks_draws_the_sampler_totals(self, n, d):
        # on the factor path a fresh sampler of A_m gives the cached one's bytes
        scheme = block_scheme(n, d)
        sampler = NumberOpSampler(toeplitz_from_density(COS_DENSITY, scheme.m))
        assert sampler.root is None
        for i in range(20):
            expect = sampler.totals(RngStream(69, i), scheme.r)
            got = sample_pi_blocks(COS_DENSITY, scheme, RngStream(69, i)).totals
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()

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
        sampler = block_sampler(scheme)
        for i in (1, 2):
            sample_pi_blocks(COS_DENSITY, scheme, RngStream(31, i))
            sampler.draw(RngStream(32, i), size=scheme.r)
        assert calls == [(31, 1), (32, 1), (31, 2), (32, 2)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_dispatch(["--seed", "33", "simulate", "measure", "--density", "cos:2,0.5",
                                 "--n", "4096", "--d", "1"]) == 0
        assert calls[4:] == [(33, 0)]

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
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_dispatch(["--seed", "21", "simulate", "measure", "--density", "cos:2,0.5",
                                 "--n", "64", "--d", "1"]) == 0
        lines = out.getvalue().strip().split("\n")
        assert lines[0].startswith("# {")
        header = json.loads(lines[0][2:])
        assert header.pop("written")    # without --no-timestamp
        assert header == {"seed": 21, "n": 64, "d": 1, "m": scheme.m, "r": scheme.r,
                          "density": "cos:2,0.5"}
        assert lines[1] == "block,j,N"
        assert len(lines) == 2 + scheme.r * scheme.m

    @staticmethod
    def per_entry_csv(header, blocks) -> str:
        """The earlier writer: one write and one numpy scalar read per entry."""
        fh = io.StringIO()
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write("block,j,N\n")
        half = (blocks.shape[1] - 1) // 2
        for b in range(blocks.shape[0]):
            for idx in range(blocks.shape[1]):
                fh.write(f"{b},{idx - half},{int(blocks[b, idx])}\n")
        return fh.getvalue()

    @pytest.mark.parametrize("n, d, r", [(8, 2, 1), (64, 1, 10), (65536, 0, 5957)])
    def test_csv_bytes_equal_the_per_entry_writer(self, n, d, r):
        scheme = block_scheme(n, d)
        blocks = block_sampler(scheme).draw(RngStream(21, 0), size=scheme.r)
        header = {"seed": 21, "n": n, "d": d, "m": scheme.m, "r": scheme.r, "density": "cos"}
        buf = io.StringIO()
        _write_block_rows(buf, header, blocks)
        assert scheme.r == r
        assert buf.getvalue() == self.per_entry_csv(header, blocks)


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
    """sample_pi_blocks builds one block sampler per (density values, m) per process."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        measurement._block_sampler.cache_clear()

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
        sample_pi_blocks(SpectralDensity.cosine(2.0, 0.5, label="first"), scheme, RngStream(3, 1))
        assert calls == {"cholesky": 1, "eigh": 0}
        sample_pi_blocks(SpectralDensity.cosine(2.0, 0.5, label="again"), scheme, RngStream(3, 2))
        assert calls["cholesky"] == 1

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
        assert measurement._block_sampler.cache_info().currsize == 0

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
                  estimators._grid_design(1, 512), measurement._block_sampler(COS_DENSITY, 9).factor,
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
    """_block_sampler refuses A_m exactly when lambda_min_exceeds(1) is False, as it tends to 1.

    The symbol's own sampler draws finite outcomes >= 0 either way.
    """
    if kind == "const":
        a = SpectralDensity.constant(1.0 + 10.0 ** -k)
    else:
        # tridiagonal: lambda_min = a0 - 0.5 cos(pi / (m + 1)) = 1 + 10^-k
        a = SpectralDensity.cosine(1.0 + 10.0 ** -k + 0.5 * math.cos(math.pi / (m + 1)), 0.5)
    A = toeplitz_from_density(a, m)
    faithful = A.lambda_min_exceeds(1.0)
    if 10.0 ** -k >= 1e-8:
        assert faithful
    try:
        measurement._block_sampler(a, m)
        refused = False
    except NotFaithful:
        refused = True
    assert refused == (not faithful)
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

    @pytest.mark.parametrize("m", [E + 1, 2 * E + 1])
    @pytest.mark.parametrize("a", [COS_DENSITY, SpectralDensity(np.array([3, 0.5, 0.2j, -0.1]))],
                             ids=["cos:2,0.5", "complex"])
    def test_lag_built_circulant_is_embedded(self, m, a):
        check_map(circulant_from_density(a, m), embeds=True)

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
        # as a block symbol it is refused by the gate, before any factor is built
        with pytest.raises(NotFaithful, match="block symbol has lambda_min = 1, need > 1"):
            measurement._block_sampler(SpectralDensity.constant(1.0), A.n)


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
