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
estimators read only their column sums.  One ``NumberOpSampler`` per block
symbol draws both: the r x m outcomes, which ``simulate measure`` writes, as
r independent draws, and their column sums, which ``sample_pi_blocks``
returns, from their exact law, a Poisson mixture whose means come from the
complex Bartlett decomposition of Z*Z, in about m^2 + m random numbers.

Every batch temporary is released as soon as the next one exists, so a
batch draw holds about two copies of its batch at its peak.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

#: distinct (density, block size) samplers kept per process by sample_pi_blocks
_BLOCK_CACHE_SIZE = 8

#: Lag-built symbols with at least this many modes are sampled by circulant
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
    r = n // (m + d)
    if r < 1:
        raise TooSmall(f"no block of size {m}+{d} fits into n={n}")
    if r > 2 ** 53:   # past it the Bartlett draw's gamma shapes r - i are not exact floats
        raise RangeError(f"need r <= 2^53 blocks, got r = {r}")
    return BlockScheme(n=n, d=d, m=m, r=r)


@dataclass(frozen=True, eq=False)
class MeasurementDraw:
    """Column sums of the simulated number outcomes of the blocked measurement.

    ``totals`` holds the m column sums sum_b N_bj of the r x m integer
    outcomes, and ``pi_bar`` the length-m average of 2 N + 1 over blocks,
    (2 totals + r) / r: the bytes of np.mean(2.0 * blocks + 1.0, axis=0),
    since the integer sums are exact in floats.
    """

    totals: np.ndarray
    scheme: BlockScheme

    @functools.cached_property
    def pi_bar(self) -> np.ndarray:
        r = self.scheme.r
        return (2.0 * self.totals + r) / r


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
    A is Hermitian, so diag(U* A U) is real but for the FFT's rounding: the mean is its real part.
    """
    A = as_symbol(A)
    if not A.lambda_min_exceeds(1.0):
        raise NotFaithful(
            f"pi moments need lambda_min(A) > 1, got {float(A.eigenvalues[0]):.6g}")
    D = _dft_conjugate(A.entries)
    return np.diag(D).real.copy(), abs_square(D) - np.eye(A.n)


def _poisson_mixture_factor(A: SymbolMatrix) -> np.ndarray:
    """Factor B = U* L with B B* = Q' = U* Q U, L = chol(Q), Q = (A - I)/2.

    The Cholesky succeeds exactly when lambda_min(A) > 1, and then no
    eigensolve runs.  Only when it fails is the cached spectrum of A read:
    the PSD guard raises NotPSD, and a singular PSD Q (``const:1``, the
    vacuum) gets L = V sqrt(q), the one place that clips, and only
    eigenvalues of Q within _PSD_TOL below 0.
    """
    try:
        L = np.linalg.cholesky(0.5 * (A.entries - np.eye(A.n)))
    except np.linalg.LinAlgError:
        lams, V = A.spectrum
        q = 0.5 * (lams - 1.0)
        if q[0] < -_PSD_TOL:
            raise NotPSD(f"Q has eigenvalue {q[0]:.3g} < -{_PSD_TOL:g}") from None
        L = V * np.sqrt(np.clip(q, 0.0, None))
    return _dft_rows(L)


def _embedding_root(row: np.ndarray) -> np.ndarray | None:
    """sqrt of the eigenvalues of a circulant embedding Q = (A - I)/2, A of first row ``row``, or None.

    With K the last nonzero lag of the first row q of Q, Q is the leading
    n x n block of the N = n + K circulant C with entries c_{(j-k) mod N},
    c_s = conj(q_s) and c_{N-s} = q_s for s <= K, zero elsewhere; its
    eigenvalues, in FFT order, are one FFT of c.  None when one of them is
    <= 0: C is then no covariance, though Q may still be one.
    """
    q = 0.5 * row
    q[0] -= 0.5
    lags = np.flatnonzero(q[1:])
    K = int(lags[-1]) + 1 if lags.size else 0
    c = np.zeros(q.size + K, dtype=complex)
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

    - a symbol built from its lags, Toeplitz or circulant, with m >= _EMBED_MIN_N
      is embedded in the N-point circulant C of ``_embedding_root``, and
      alpha = U* P W* (sqrt(lam) z) with W the unitary DFT and P the first m of
      N coordinates: one FFT down each row, and one more for odd m.  It is
      taken only when min lam > 0, which proves lambda_min(A) > 1, since
      x* Q x = (P* x)* C (P* x) >= min lam |x|^2;
    - otherwise, and for entries given one by one,
      alpha = B z with the m x m factor B of ``_poisson_mixture_factor``,
      from a Cholesky and one FFT, which is faster for small m.

    ``draw`` gives the outcomes of independent blocks, ``totals`` the column
    sums of r of them; ``sample_pi_blocks`` keeps one sampler per block
    symbol for the whole process (``_block_sampler``).
    """

    def __init__(self, A):
        A = as_symbol(A)
        self.m = A.n
        self.root = None
        row = toeplitz_first_row(A)
        if row is not None and A.n >= _EMBED_MIN_N:
            self.root = _embedding_root(row)
        if self.root is None:
            self.factor = _poisson_mixture_factor(A)
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

    def totals(self, rng: RngStream, r: int) -> np.ndarray:
        """Column sums of ``draw(rng, size=r)`` in law, from about width^2 + m random numbers.

        Given the r x width normals Z the sums are independent Poisson(S), S
        the diagonal of G* Z*Z G for the matrix G of ``amplitudes``, and Z*Z =
        T*T in law by the complex Bartlett decomposition (Goodman 1963;
        Anderson, An Introduction to Multivariate Statistical Analysis, ch. 7):
        T is k x width upper trapezoidal, k = min(r, width), T_ii =
        sqrt(Gamma(r - i)) and T_ij ~ CN(0, 1) for j > i.  The m Poisson
        draws are scalar calls (the draws of one array call, faster).
        """
        U, shapes = _bartlett_layout(r, self.width)
        gen = rng.generator()
        T = _complex_normals(gen, *U.shape) * U
        T.reshape(-1)[::self.width + 1] = np.sqrt(gen.standard_gamma(shapes))   # the diagonal
        S = abs_square(self.amplitudes(T)).sum(axis=0)
        return np.array([gen.poisson(s) for s in S.tolist()])


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _bartlett_layout(r: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only k x width sqrt(1/2) above T's diagonal, else 0, and T_ii^2's shapes r - i."""
    k = min(r, width)
    U, shapes = np.triu(np.full((k, width), math.sqrt(0.5)), 1), np.arange(r, r - k, -1.0)
    U.setflags(write=False)
    shapes.setflags(write=False)
    return U, shapes


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block_sampler(a: SpectralDensity, m: int) -> NumberOpSampler:
    """``NumberOpSampler`` of A_m(a), keyed by the values of ``a``; NotFaithful unless A_m > I."""
    A = toeplitz_from_density(a, m)
    if not A.lambda_min_exceeds(1.0):
        raise NotFaithful(f"block symbol has lambda_min = {float(A.eigenvalues[0]):.6g}, need > 1")
    return NumberOpSampler(A)


def sample_pi_blocks(a: SpectralDensity, scheme: BlockScheme,
                     stream: RngStream) -> MeasurementDraw:
    """The column sums of r independent m-mode blocks of A_m(a), by ``NumberOpSampler.totals``.

    Everything comes from the single generator of ``stream``, so the draw is
    deterministic given (seed path, scheme, density).  The block symbol must
    satisfy lambda_min(A) > 1, else NotFaithful, on every call.  The sampler
    is built once per process for each (coefficient values of ``a``, m),
    whatever the label of ``a``.
    """
    return MeasurementDraw(_block_sampler(a, scheme.m).totals(stream, scheme.r), scheme)


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
