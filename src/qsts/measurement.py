"""Exact classical simulation of the commuting number-operator measurement.

After the DFT change of basis the observables N_j = B_j* B_j commute, and
for a symbol A >= I their joint law is an exactly samplable Gaussian mixture
of independent Poissons: with M = U* A U and Q' = (M - I)/2 >= 0, draw the
complex normal alpha = U* chol((A - I)/2) z, so E[alpha alpha*] = Q' with no
eigensolve and one FFT, and then N_j ~ Poisson(|alpha_j|^2).
Marginals are geometric with parameter p(M_jj), means are Q'_jj and
cross covariances |Q'_jk|^2, which is what the moment formulas demand; the
probability generating function is det(I + Q'(I - Z))^{-1}.  The
observable vectors 2N + 1 feed the estimators in ``estimators``.

The blocked measurement draws r such blocks of one symbol, and the
estimators read only their column sums.  ``sample_pi_blocks`` draws those
sums from their exact law, a Poisson mixture whose means come from the
complex Bartlett decomposition of Z*Z, in about m^2 + m random numbers;
the r x m outcomes themselves are drawn only when read, conditional on
the sums, so the joint law is that of r independent blocks.  Those blocks
need only the R of a QR of the r x k normal matrix of the blocks: the
Haar isometry Q is never formed.

Every batch temporary is released as soon as the next one exists, so a
batch draw holds about two copies of its batch at its peak, and the block
CSV is formatted ``_CHUNK_ROWS`` blocks at a time.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import (
    NotFaithful,
    NotPSD,
    RangeError,
    TooSmall,
)
from .harness import _CHUNK_ROWS, RngStream
from .spectral import SpectralDensity
from .toeplitz import (
    SymbolMatrix,
    abs_square,
    as_symbol,
    toeplitz_first_row,
    toeplitz_from_density,
)

_PSD_TOL = 1e-10

#: most (k_max + 1)^m 2^m terms of the joint_pmf_from_pgf recurrence (m = 3 to k_max = 31)
_PGF_BUDGET = 2 ** 18

#: distinct (density, block size) factors kept per process by sample_pi_blocks
_FACTOR_CACHE_SIZE = 8

#: Toeplitz symbols with at least this many modes are sampled by circulant
#: embedding.  Below it the dense factor builds and draws once as fast or
#: faster (measured crossover: n = 37-39 odd, 52-56 even), and it holds every
#: block of the blocked pipeline.
_EMBED_MIN_N = 64


@dataclass(frozen=True)
class BlockScheme:
    """Partition of n modes into r blocks of m modes with gaps of length d.

    m = 2 floor(log(n)/2) + 1 (natural log, forced odd) and
    r = floor(n / (m + d)), so r (m + d) <= n.
    """

    n: int
    d: int
    m: int
    r: int

    def __post_init__(self):
        if self.m % 2 == 0:
            raise RangeError("block size m must be odd")
        if self.r * (self.m + self.d) > self.n:
            raise RangeError("blocks and gaps exceed n modes")


def block_scheme(n: int, d: int) -> BlockScheme:
    """Blocking scheme for an n-mode d-dependent series; errors if no block fits."""
    if n < 8:
        raise RangeError("need n >= 8")
    if d < 0:
        raise RangeError("need d >= 0")
    m = 2 * int(math.floor(math.log(n) / 2.0)) + 1
    r = int(math.floor(n / (m + d)))
    if r < 1:
        raise TooSmall(f"no block of size {m}+{d} fits into n={n}")
    return BlockScheme(n=n, d=d, m=m, r=r)


@dataclass(frozen=True, eq=False)
class MeasurementDraw:
    """Simulated number outcomes of the blocked measurement.

    ``totals`` holds the m column sums sum_b N_bj of the r x m integer
    outcomes, and ``pi_bar`` the length-m average of 2 N + 1 over blocks,
    (2 totals + r) / r: the bytes of np.mean(2.0 * blocks + 1.0, axis=0),
    since the integer sums are exact in floats.  ``blocks``, the outcomes
    themselves, are drawn when first read, from the generator that drew the
    totals, conditional on them (``_conditional_blocks``).
    """

    totals: np.ndarray
    scheme: BlockScheme
    seed_path: tuple = ()
    density_label: str = ""
    #: T B^T of the draw and its generator, positioned after the totals
    amplitudes: np.ndarray | None = field(default=None, repr=False)
    gen: np.random.Generator | None = field(default=None, repr=False)

    @functools.cached_property
    def pi_bar(self) -> np.ndarray:
        r = self.scheme.r
        return (2.0 * self.totals + r) / r

    @functools.cached_property
    def blocks(self) -> np.ndarray:
        return _conditional_blocks(self.gen, self.amplitudes, self.totals, self.scheme.r)

    def write_csv(self, fh: IO[str], no_timestamp: bool = True):
        """CSV rows (block, j, N) preceded by a JSON header comment line.

        The header's seed is the first entry of ``seed_path``, None without one.
        """
        header = {
            "seed": self.seed_path[0] if self.seed_path else None,
            "n": self.scheme.n,
            "d": self.scheme.d,
            "m": self.scheme.m,
            "r": self.scheme.r,
            "density": self.density_label,
        }
        if not no_timestamp:
            import datetime
            header["written"] = datetime.datetime.now().isoformat()
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write("block,j,N\n")
        half = (self.scheme.m - 1) // 2
        # one write per block: field 0 is the block, field idx + 1 its column idx
        rows = "".join(f"{{0}},{idx - half},{{{idx + 1}}}\n" for idx in range(self.scheme.m))
        blocks = np.asarray(self.blocks, dtype=np.int64)
        for start in range(0, blocks.shape[0], _CHUNK_ROWS):
            for b, block in enumerate(blocks[start:start + _CHUNK_ROWS].tolist(), start):
                fh.write(rows.format(b, *block))


def _complex_normals(gen: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """(rows, width) complex matrix of the next 2 rows width normals of ``gen``.

    The real parts are the first rows x width normals, the imaginary parts
    the next: the bytes of ``re + 1j * im`` for ``re, im`` one (2, rows,
    width) batch.  Both halves pass through one real buffer.
    """
    z = np.empty((rows, width), dtype=complex)
    half = gen.standard_normal((rows, width))
    z.real = half
    z.imag = gen.standard_normal(out=half)
    return z


def _dft_rows(X: np.ndarray) -> np.ndarray:
    """U* X (U = ``dft_unitary(m)``): one FFT, rows j = -(m-1)/2..(m-1)/2.

    An even m has no symmetric frequency grid, so it is measured in the given
    basis: U = I and X is returned as it is.
    """
    if X.shape[0] % 2 == 0:
        return X
    return np.fft.fftshift(np.fft.fft(X, axis=0, norm="ortho"), axes=0)


def _dft_conjugate(A: np.ndarray) -> np.ndarray:
    """U* A U for Hermitian A, as U*((U* A)*) in two FFTs."""
    return _dft_rows(_dft_rows(A).conj().T)


def pi_moments(A) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the observable vector Pi = 2N + 1.

    mean_j = u_j* A u_j and Cov(Pi) = (U* A U)^[2] - I; requires a strictly
    faithful symbol (lambda_min(A) > 1), gated by
    ``SymbolMatrix.lambda_min_exceeds``, which solves nothing when the lags certify it.
    """
    A = as_symbol(A)
    if not A.lambda_min_exceeds(1.0):
        raise NotFaithful(
            f"pi moments need lambda_min(A) > 1, got {float(A.eigenvalues[0]):.6g}")
    D = _dft_conjugate(A.entries)
    mean = np.diag(D)
    if np.max(np.abs(mean.imag)) > 1e-10 * (1.0 + np.max(np.abs(mean.real))):
        raise NotFaithful("diagonal of U*AU is not real")
    cov = abs_square(D) - np.eye(A.n)
    return mean.real.copy(), cov


def _poisson_mixture_factor(A: SymbolMatrix, faithful: bool = False) -> np.ndarray:
    """Factor B = U* L with B B* = Q' = U* Q U, L = chol(Q), Q = (A - I)/2.

    The Cholesky succeeds exactly when lambda_min(A) > 1, and then no
    eigensolve runs.  Only when it fails is the cached spectrum of A read:
    ``faithful`` raises NotFaithful, by the gate ``lambda_min_exceeds(1)``
    on that spectrum, before the PSD guard raises NotPSD, and a
    singular PSD Q (``const:1``, the vacuum) gets L = V sqrt(q), the one place
    that clips, and only eigenvalues of Q within _PSD_TOL below 0.
    """
    try:
        L = np.linalg.cholesky(0.5 * (A.entries - np.eye(A.n)))
    except np.linalg.LinAlgError:
        lams, V = A.spectrum
        if faithful and not A.lambda_min_exceeds(1.0):
            raise NotFaithful(
                f"block symbol has lambda_min = {lams[0]:.6g}, need > 1") from None
        q = 0.5 * (lams - 1.0)
        if q[0] < -_PSD_TOL:
            raise NotPSD(f"Q has eigenvalue {q[0]:.3g} < -{_PSD_TOL:g}") from None
        L = V * np.sqrt(np.clip(q, 0.0, None))
    return _dft_rows(L)


def _embedding_root(A: SymbolMatrix) -> np.ndarray | None:
    """sqrt of the eigenvalues of a circulant that embeds Q = (A - I)/2, or None.

    With K the last nonzero lag of the first row q of Q, Q is the leading
    n x n block of the N = n + K circulant C with entries c_{(j-k) mod N},
    c_s = conj(q_s) and c_{N-s} = q_s for s <= K, zero elsewhere; its
    eigenvalues, in FFT order, are one FFT of c.  None when one of them is
    <= 0: C is then no covariance, though Q may still be one.
    """
    q = toeplitz_first_row(A).copy()
    q[0] -= 1.0
    q *= 0.5
    lags = np.flatnonzero(q[1:])
    K = int(lags[-1]) + 1 if lags.size else 0
    c = np.zeros(A.n + K, dtype=complex)
    c[:K + 1] = q[:K + 1].conj()
    c[c.size - K:] = q[K:0:-1]
    lam = np.fft.fft(c).real
    if lam.min() <= 0.0:
        return None
    root = np.sqrt(lam)
    root.setflags(write=False)
    return root


class NumberOpSampler:
    """Reusable sampler for the commuting number outcomes of one symbol.

    ``draw`` maps one batch of standard complex normals z, ``width`` per row,
    to amplitudes alpha with E[alpha alpha*] = Q' = (U* A U - I)/2 (U = I
    for even m, as in ``_dft_rows``), then takes one Poisson batch.  The map is built once, read-only, on one of two paths:

    - a Toeplitz symbol with m >= _EMBED_MIN_N is embedded in the N-point
      circulant C of ``_embedding_root``, and alpha = U* P W* (sqrt(lam) z)
      with W the unitary DFT and P the first m of N coordinates: one FFT
      down each row, and one more for odd m.  It is taken only when
      min lam > 0, which proves lambda_min(A) > 1, since
      x* Q x = (P* x)* C (P* x) >= min lam |x|^2;
    - otherwise alpha = B z with the m x m factor B of
      ``_poisson_mixture_factor``, from a Cholesky and one FFT, which is
      faster for small m.

    With ``faithful=True`` a symbol with lambda_min(A) <= 1 raises
    NotFaithful.  ``sample_pi_blocks`` does not use this class: it keeps
    the factor B of each block symbol for the whole process
    (``_block_factor``) and draws the column sums of its blocks directly.
    """

    def __init__(self, A, faithful: bool = False):
        A = as_symbol(A)
        self.m = A.n
        self.root = None
        if A.tag == "toeplitz" and A.n >= _EMBED_MIN_N:
            self.root = _embedding_root(A)
        if self.root is None:
            self.factor = _poisson_mixture_factor(A, faithful)
            self.factor.setflags(write=False)
            self.width = self.m
        else:
            self.factor = None
            self.width = self.root.size

    def amplitudes(self, z: np.ndarray) -> np.ndarray:
        """alpha for each row of the (rows, width) batch z of standard complex normals."""
        if self.root is None:
            return z @ self.factor.T
        x = np.fft.ifft(self.root * z, norm="ortho")[:, :self.m]
        return _dft_rows(x.T).T

    def draw(self, rng: RngStream, size: int | None = None) -> np.ndarray:
        """Number outcomes of ``size`` draws (one without it) from the generator of ``rng``.

        The amplitudes are taken ``_CHUNK_ROWS`` rows at a time and squared
        into the Poisson rates, so the batch holds z and the rates, never a
        second complex copy; z is released before the Poisson call.
        """
        gen = rng.generator()
        rows = 1 if size is None else int(size)
        z = _complex_normals(gen, rows, self.width)
        z /= math.sqrt(2.0)
        lam = np.empty((rows, self.m))
        for start in range(0, rows, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            np.square(np.abs(self.amplitudes(z[start:stop])), out=lam[start:stop])
        del z
        N = gen.poisson(lam)
        return N[0] if size is None else N


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _block_factor(a: SpectralDensity, m: int) -> np.ndarray:
    """Read-only faithful factor B of A_m(a), keyed by the coefficients of ``a``, not its label.

    The block size m = 2 floor(log(n) / 2) + 1 stays below _EMBED_MIN_N for
    every n, so this is the map ``NumberOpSampler`` uses for the same symbol.
    """
    B = _poisson_mixture_factor(toeplitz_from_density(a, m), faithful=True)
    B.setflags(write=False)
    return B


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _upper_scale(k: int, m: int) -> np.ndarray:
    """Read-only k x m matrix: sqrt(1/2) above the diagonal, 0 on and below it."""
    U = np.triu(np.full((k, m), math.sqrt(0.5)), 1)
    U.setflags(write=False)
    return U


def _block_rates(gen: np.random.Generator, X: np.ndarray, r: int) -> np.ndarray:
    """Poisson rates lam = |Q X|^2 of the r blocks, for X = T B^T, from R alone.

    The normal matrix of the blocks is Z = Q T, with Q the Haar r x k
    isometry independent of T: the QR factor of an r x k complex normal
    matrix G with its columns rephased by D = diag(d / |d|), d = diag R, so
    that the diagonal of R is positive (Mezzadri, Notices AMS 54, 2007).
    Q D X = G R^-1 D X, so lam = |G M|^2 with M = R^-1 D X, k x m: only the
    R of ``np.linalg.qr`` is taken, and Q is never formed.
    """
    G = _complex_normals(gen, r, X.shape[0])
    R = np.linalg.qr(G, mode="r")
    d = np.diagonal(R)
    Y = G @ np.linalg.solve(R, (d / np.abs(d))[:, None] * X)
    del G
    # |Y|^2 from the real and imaginary parts: no complex temporary beside Y
    lam = np.square(Y.real)
    lam += np.square(Y.imag)
    return lam


def _conditional_blocks(gen: np.random.Generator, X: np.ndarray, totals: np.ndarray,
                        r: int) -> np.ndarray:
    """The r x m outcomes given their column sums ``totals``, for X = T B^T.

    Given Z = Q T the outcomes are Poisson(lam), lam = |Q X|^2 of
    ``_block_rates``, whose columns sum to S, so given the totals column j
    is Multinomial(totals_j, lam_.j / S_j).
    """
    lam = _block_rates(gen, X, r)
    lam /= lam.sum(axis=0)
    return np.ascontiguousarray(gen.multinomial(totals, lam.T).T)


def sample_pi_blocks(a: SpectralDensity, scheme: BlockScheme,
                     stream: RngStream) -> MeasurementDraw:
    """Draw r independent m-mode blocks by their column sums; the blocks follow when read.

    Block b is N_b ~ Poisson(|alpha_b|^2) with alpha_b = B z_b, B the factor
    of A_m(a) and Z = (z_b) an r x m standard complex normal matrix.  Given Z
    the column sums are independent Poisson(S_j), S_j = sum_b |alpha_bj|^2,
    the diagonal of conj(B) Z*Z B^T.  By the complex Bartlett decomposition
    (Goodman 1963; Anderson, An Introduction to Multivariate Statistical
    Analysis, ch. 7) Z*Z = T*T in law, with T the k x m upper trapezoidal
    matrix, k = min(r, m), T_ii = sqrt(Gamma(r - i)) and T_ij ~ CN(0, 1)
    for j > i.  So S is the column sums of |T B^T|^2, and the totals take
    about m^2 + m random numbers.  ``MeasurementDraw.blocks`` draws the
    outcomes conditional on them, so (blocks, pi_bar) has the joint law of
    r independent blocks.

    Everything comes from the single generator of ``stream``, so the draw is
    deterministic given (seed path, scheme, density).  The block symbol must
    satisfy lambda_min(A) > 1, else NotFaithful, on every call.  The factor
    is built once per process for each (coefficient values of ``a``, m): an
    equal-valued density built separately reuses it, whatever its label,
    and the draw carries the label of the ``a`` passed in.
    """
    r, m = scheme.r, scheme.m
    k = min(r, m)
    B = _block_factor(a, m)
    gen = stream.generator()
    T = _complex_normals(gen, k, m)
    T *= _upper_scale(k, m)
    np.fill_diagonal(T, np.sqrt(gen.standard_gamma(np.arange(r, r - k, -1.0))))
    X = T @ B.T
    return MeasurementDraw(totals=gen.poisson(abs_square(X).sum(axis=0)), scheme=scheme,
                           seed_path=stream.path, density_label=a.label,
                           amplitudes=X, gen=gen)


def joint_pmf_from_pgf(A, k_max: int = 12) -> np.ndarray:
    """Exact joint pmf of N on {0..k_max}^m from the generating function 1 / D(z).

    D(z) = det(I + Q'(I - Z)) = sum_S M_S prod_{i in S} (1 - z_i) over the principal
    minors M_S >= 0 of Q', so D = sum_e c_e z^e, e in {0, 1}^m, where c_e =
    (-1)^|e| sum_{S >= e} M_S sums terms of one sign.  D G = 1 gives g_0 = 1 / c_0 and
    c_0 g_k = -sum_{e != 0} c_e g_{k-e}, g = 0 off the orthant (Miller's power
    recurrence at r = 1; Knuth, TAOCP vol. 2, 4.7): one product per level |k|.
    NotPSD below the sampler's lambda_min(A) = 1 - 2 _PSD_TOL; RangeError for
    k_max < 0, (k_max+1)^m 2^m > _PGF_BUDGET or a non-finite c_e.
    """
    A = as_symbol(A)
    m, P = A.n, k_max + 2
    if k_max < 0 or (2 * k_max + 2) ** m > _PGF_BUDGET:
        raise RangeError(f"need 0 <= k_max, (k_max+1)^m 2^m <= {_PGF_BUDGET}; got {k_max}, m={m}")
    if not A.lambda_min_exceeds(1.0 - 2.0 * _PSD_TOL):
        raise NotPSD(f"Q' has eigenvalue {0.5 * (A.eigenvalues[0] - 1.0):.3g} < -{_PSD_TOL:g}")
    Q = 0.5 * (_dft_conjugate(A.entries) - np.eye(m))
    E = np.indices((2,) * m).reshape(m, -1).T == 1     # rows e (and S), e = 0 first
    with np.errstate(all="ignore"):
        M = np.linalg.det(np.where(E[:, :, None] & E[:, None, :], Q, np.eye(m))).real
        c = (-1.0) ** E.sum(axis=1) * (np.all(E[None] >= E[:, None], axis=2) @ M)
    if not np.all(np.isfinite(c)):
        raise RangeError("a coefficient of det(I + Q'(I - Z)) is not finite")
    # g_k sits at k + 1 of a flat P^m array whose zero first layers hold the k_i = -1
    ks = np.indices((P - 1,) * m).reshape(m, -1)
    level = ks.sum(axis=0)
    at = np.ravel_multi_index(tuple(ks[:, np.argsort(level, kind="stable")] + 1), (P,) * m)
    back = E[1:] @ P ** np.arange(m - 1, -1, -1)
    g = (np.arange(P ** m) == at[0]) / c[0]                # g_0 = 1 / c_0, else 0 so far
    for cells in np.split(at, np.cumsum(np.bincount(level))[:-1])[1:]:   # levels 1, 2, ...
        g[cells] = (-c[1:] / c[0]) @ g[cells - back[:, None]]
    return g.reshape((P,) * m)[(slice(1, None),) * m]
