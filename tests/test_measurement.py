import io
import json
import math
import tracemalloc

import numpy as np
import pytest

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
from qsts.estimators import _w_matrix, preliminary_estimator
from qsts.spectral import RealParam, SpectralDensity, fourier_frequencies, psi_matrix
from qsts.toeplitz import SymbolMatrix, toeplitz_from_density

from oracles import dense_dft_conjugate

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

    def test_blocks_equal_sampler_batch(self):
        # stream contract: the block matrix is one (r, m) batch of the sampler,
        # also once sample_pi_blocks reuses its cached sampler
        scheme = block_scheme(4096, 1)
        for i in (3, 4):
            draw = sample_pi_blocks(COS_DENSITY, scheme, RngStream(29, i))
            batch = NumberOpSampler(toeplitz_from_density(COS_DENSITY, scheme.m),
                                    faithful=True).draw(RngStream(29, i), size=scheme.r)
            np.testing.assert_array_equal(draw.blocks, batch)

    def test_one_generator_per_call(self, monkeypatch):
        calls = []
        original = RngStream.generator

        def counted(self):
            calls.append(self.path)
            return original(self)

        monkeypatch.setattr(RngStream, "generator", counted)
        scheme = block_scheme(4096, 1)
        for i in (1, 2):
            sample_pi_blocks(COS_DENSITY, scheme, RngStream(31, i))
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


def check_map(A, embeds):
    """The faithful sampler's map B has B B* = q_prime(A) to 1e-12, with no eigensolve."""
    sampler = NumberOpSampler(A, faithful=True)
    assert (sampler.root is not None) == embeds
    B = linear_map(sampler)
    assert rel_err(B @ B.conj().T, q_prime(A)) < 1e-12
    assert "spectrum" not in A.__dict__


class TestBlockSamplerCache:
    """sample_pi_blocks builds one sampler per (density values, m) per process."""

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
        assert measurement._block_sampler.cache_info().currsize == 0

    def test_draw_equals_two_normal_batches(self):
        # one (2, rows, width) batch is the real parts followed by the imaginary parts;
        # a generic Hermitian symbol (not Toeplitz) makes swapping the parts show, and
        # an embedded Toeplitz symbol draws width = n + K normals per row
        X = np.random.default_rng(40).standard_normal((2, 9, 9))
        H = 0.1 * (X[0] + 1j * X[1])
        for A in (SymbolMatrix(3.0 * np.eye(9) + H + H.conj().T),
                  toeplitz_from_density(GEOM, E + 1)):
            sampler = NumberOpSampler(A, faithful=True)
            gen = np.random.default_rng(41)
            z = gen.standard_normal((5, sampler.width)) + 1j * gen.standard_normal((5, sampler.width))
            z /= math.sqrt(2.0)
            expect = gen.poisson(np.abs(sampler.amplitudes(z)) ** 2)
            np.testing.assert_array_equal(
                sampler.draw(np.random.default_rng(41), size=5), expect)

    def test_cached_arrays_are_read_only(self):
        sampler = measurement._block_sampler(COS_DENSITY.coeffs.tobytes(), 9)
        C, row_norms = estimators._constraints(1, 512)
        cached = [fourier_frequencies(9), _w_matrix(9, 1), estimators._f_diagonal(9, 1),
                  C, row_norms, sampler.factor,
                  NumberOpSampler(toeplitz_from_density(COS_DENSITY, E)).root]
        for arr in cached:
            with pytest.raises(ValueError):
                arr[0] = 0.0


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
    for faithful in (True, False):
        try:
            N = NumberOpSampler(A, faithful=faithful).draw(RngStream(37, k), size=200)
        except NotFaithful:
            assert faithful and not cholesky_ok and lam_min <= 1.0
        else:
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
            NumberOpSampler(A, faithful=True)


def coefficient_estimates(pi, d):
    """Complex a_j estimates: the coefficients of the preliminary estimate's density."""
    pi = np.asarray(pi, dtype=float)
    return RealParam(d, preliminary_estimator(pi, pi.size, d)).to_density()


class TestVectorsAndEstimates:
    def test_w_orthonormal(self):
        for m, d in ((9, 0), (11, 1), (11, 5), (1025, 3)):
            W = _w_matrix(m, d)
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
