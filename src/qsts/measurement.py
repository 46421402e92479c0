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
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import (
    DimensionError,
    NotFaithful,
    NotPSD,
    RangeError,
    TooSmall,
)
from .harness import RngStream, as_generator
from .spectral import SpectralDensity
from .toeplitz import (
    SymbolMatrix,
    abs_square,
    as_symbol,
    toeplitz_first_row,
    toeplitz_from_density,
)

_PSD_TOL = 1e-10

#: distinct (density, block size) samplers kept per process by sample_pi_blocks
_SAMPLER_CACHE_SIZE = 8

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


@dataclass(frozen=True)
class MeasurementDraw:
    """Simulated number outcomes per block and the averaged observable.

    ``blocks`` is the r x m integer matrix of N outcomes; ``pi_bar`` is the
    length-m average of 2 N + 1 over blocks, computed from them when first read.
    """

    blocks: np.ndarray
    scheme: BlockScheme
    seed_path: tuple = field(default=(), compare=False)
    density_label: str = field(default="", compare=False)

    def __post_init__(self):
        b = np.asarray(self.blocks)
        if b.shape != (self.scheme.r, self.scheme.m):
            raise DimensionError("blocks matrix does not match the scheme")
        if np.any(b < 0):
            raise RangeError("number outcomes must be nonnegative")

    @functools.cached_property
    def pi_bar(self) -> np.ndarray:
        return np.mean(2.0 * self.blocks + 1.0, axis=0)

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
        for b in range(self.scheme.r):
            for idx in range(self.scheme.m):
                fh.write(f"{b},{idx - half},{int(self.blocks[b, idx])}\n")


def _dft_rows(X: np.ndarray) -> np.ndarray:
    """U* X for odd m (U = ``dft_unitary(m)``): one FFT, rows j = -(m-1)/2..(m-1)/2."""
    return np.fft.fftshift(np.fft.fft(X, axis=0, norm="ortho"), axes=0)


def _dft_conjugate(A: np.ndarray) -> np.ndarray:
    """U* A U for Hermitian A and odd m, as U*((U* A)*) in two FFTs."""
    if A.shape[0] % 2 == 1:
        return _dft_rows(_dft_rows(A).conj().T)
    # even dimension has no symmetric frequency grid; measure in the given basis
    return A.copy()


def pi_moments(A) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the observable vector Pi = 2N + 1.

    mean_j = u_j* A u_j and Cov(Pi) = (U* A U)^[2] - I; requires a strictly
    faithful symbol (lambda_min(A) > 1).  A lag-built symbol whose lag floor
    (Grenander & Szego: lambda_min >= min of its lag polynomial, less the
    grid slope and rounding allowance of ``SymbolMatrix.lambda_min_exceeds``)
    clears 1 runs no eigensolve; any other symbol gates on its eigenvalues.
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
    return _dft_rows(L) if A.n % 2 == 1 else L


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
    to amplitudes alpha with E[alpha alpha*] = Q' = (U* A U - I)/2 (for odd
    m; even m stays in the given basis, Q' = (A - I)/2), then takes one
    Poisson batch.  The map is built once, read-only, on one of two paths:

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
    NotFaithful.  ``sample_pi_blocks`` keeps one sampler per block symbol
    for the whole process.
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
        return _dft_rows(x.T).T if self.m % 2 == 1 else x

    def draw(self, rng, size: int | None = None) -> np.ndarray:
        gen = as_generator(rng)
        rows = 1 if size is None else int(size)
        # real parts are the first rows x width normals, imaginary parts the next
        re, im = gen.standard_normal((2, rows, self.width))
        z = re + 1j * im
        z /= math.sqrt(2.0)
        N = gen.poisson(np.abs(self.amplitudes(z)) ** 2)
        return N[0] if size is None else N


@functools.lru_cache(maxsize=_SAMPLER_CACHE_SIZE)
def _block_sampler(coeffs: bytes, m: int) -> NumberOpSampler:
    """Faithful sampler of A_m(a) for the density with these coefficient bytes."""
    a = SpectralDensity(np.frombuffer(coeffs, dtype=complex))
    return NumberOpSampler(toeplitz_from_density(a, m), faithful=True)


def sample_pi_blocks(a: SpectralDensity, scheme: BlockScheme,
                     stream: RngStream) -> MeasurementDraw:
    """Draw r independent m-mode blocks and aggregate the averaged observable.

    The r x m block matrix is one batch from the single generator of
    ``stream``: it equals ``NumberOpSampler(toeplitz_from_density(a, m),
    faithful=True).draw(stream, size=r)`` bit for bit, so the draw is
    deterministic given (seed path, scheme, density).  The block symbol must
    satisfy lambda_min(A) > 1, else NotFaithful, on every call.

    The sampler is built once per process for each (coefficient values of
    ``a``, m): an equal-valued density built separately reuses it, whatever
    its label, and the draw carries the label of the ``a`` passed in.
    """
    sampler = _block_sampler(a.coeffs.tobytes(), scheme.m)
    return MeasurementDraw(blocks=sampler.draw(stream, size=scheme.r), scheme=scheme,
                           seed_path=stream.path, density_label=a.label)


def joint_pmf_from_pgf(A, k_max: int = 12, grid: int = 64) -> np.ndarray:
    """Joint pmf of N on {0..k_max}^m by inverting the generating function.

    E prod z_j^{N_j} = 1 / det(I + Q'(I - Z)); the inversion samples each
    z_j on a ``grid``-point unit circle and takes the inverse DFT.  Only
    intended for m <= 2 (cost grows like grid^m).
    """
    M = as_symbol(A).entries
    m = M.shape[0]
    if m > 2:
        raise DimensionError("generating-function inversion supports m <= 2")
    D = _dft_conjugate(M)
    Q = 0.5 * (D - np.eye(m))
    zs = np.exp(2j * math.pi * np.arange(grid) / grid)
    if m == 1:
        vals = np.array([1.0 / (1.0 + Q[0, 0] * (1.0 - z)) for z in zs])
        pmf = np.fft.fft(vals) / grid
        out = pmf[: k_max + 1].real
        return np.clip(out, 0.0, None)
    vals = np.empty((grid, grid), dtype=complex)
    eye = np.eye(2)
    for i1, z1 in enumerate(zs):
        for i2, z2 in enumerate(zs):
            Z = np.diag([z1, z2])
            vals[i1, i2] = 1.0 / np.linalg.det(eye + Q @ (eye - Z))
    pmf = np.fft.fft2(vals) / grid ** 2
    return np.clip(pmf[: k_max + 1, : k_max + 1].real, 0.0, None)
