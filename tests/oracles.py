"""Reference implementations that only the tests call, as ``from oracles import ...``.

Each is a slow, literal form (matrix logs, truncated series, dense products)
of a quantity the package computes another way, or a law it never samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np
from scipy.special import gammaln

from qsts.distributions import geo_kl, p_of_a
from qsts.errors import EigenFailure, NotPSD, RangeError, SpectralRangeError
from qsts.gaussian_states import _check_r_open_interval
from qsts.harness import RngStream
from qsts.spectral import TWO_PI, SpectralDensity, eval_density
from qsts.toeplitz import SymbolMatrix, abs_square, circulant_from_density, dft_unitary

#: in the s2_matrix reference, eigenvalues of R are clamped into
#: [EPS_CLAMP, 1 - EPS_CLAMP] before log
EPS_CLAMP = 1e-14

#: a clamp wider than this indicates broken input, not rounding
_MAX_CLAMP = 1e-12


def _log_psd(H: np.ndarray) -> np.ndarray:
    """Matrix log of a Hermitian matrix with spectrum expected in (0, 1).

    Eigenvalues are clamped into [EPS_CLAMP, 1 - EPS_CLAMP]; a clamp wider
    than 1e-12 raises rather than silently regularizing.
    """
    try:
        lams, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    clamped = np.clip(lams, EPS_CLAMP, 1.0 - EPS_CLAMP)
    if np.max(np.abs(clamped - lams)) > _MAX_CLAMP:
        raise EigenFailure(
            f"spectrum outside (0,1) beyond rounding: range "
            f"[{lams.min():.3g}, {lams.max():.3g}]")
    return (V * np.log(clamped)) @ V.conj().T


def s2_matrix(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Hermitian part of R1 (log R1 - log R2) + (I-R1)(log(I-R1) - log(I-R2)).

    The raw operator polarization is not Hermitian when R1 and R2 do not
    commute, but only its Hermitian part survives the trace against any
    Hermitian weight, so that part is what this returns.
    """
    R1 = np.asarray(R1, dtype=complex)
    R2 = np.asarray(R2, dtype=complex)
    if R1.shape != R2.shape:
        raise SpectralRangeError("R1 and R2 must have equal shape")
    n = R1.shape[0]
    _check_r_open_interval(np.linalg.eigvalsh(R1), 0.0, 1.0, "R1")
    _check_r_open_interval(np.linalg.eigvalsh(R2), 0.0, 1.0, "R2")
    eye = np.eye(n)
    raw = (R1 @ (_log_psd(R1) - _log_psd(R2))
           + (eye - R1) @ (_log_psd(eye - R1) - _log_psd(eye - R2)))
    return 0.5 * (raw + raw.conj().T)


def geo_kl_mp(a1: float, a2: float) -> mpmath.mpf:
    """KL(Geo(p(a1)) || Geo(p(a2))) = log(q1/q2) + (p1/q1) log(p1/p2) at 50 digits, q = 1 - p.

    With hi and lo the larger and smaller a and s the sign of a1 - a2,
    log(q1/q2) = -s log1p((hi - lo)/(lo + 1)), log(p1/p2) =
    s log1p(2 (hi - lo)/((hi + 1)(lo - 1))) and p1/q1 = (a1 - 1)/2: every log1p
    takes an argument >= 0, where a plain log of the ratios would round them to 1
    near a = 1e300 even at 60 digits.
    """
    with mpmath.workdps(50):
        x, y = mpmath.mpf(a1), mpmath.mpf(a2)
        hi, lo, s = max(x, y), min(x, y), 1 if x >= y else -1
        log_q = -s * mpmath.log1p((hi - lo) / (lo + 1))
        log_p = s * mpmath.log1p(2 * (hi - lo) / ((hi + 1) * (lo - 1)))
        return log_q + (x - 1) / 2 * log_p


def entropy_per_block(A1: SymbolMatrix, A2: SymbolMatrix) -> float:
    """The spectral entropy sum, one ``geo_kl`` matrix per parity block, blocks summed in order.

    Real centrosymmetric pairs sum over their ``halves``; any other pair
    takes the full spectra.
    """
    if A1.halves is not None and A2.halves is not None:
        blocks = zip(A1.halves, A2.halves)
    else:
        blocks = [(A1.spectrum, A2.spectrum)]
    return float(sum(np.sum(abs_square(V1.conj().T @ V2) * geo_kl(l1[:, None], l2[None, :]))
                     for (l1, V1), (l2, V2) in blocks))


@dataclass(frozen=True)
class NegBinomial:
    """Law P(X = k) = Gamma(k+r)/(k! Gamma(r)) (1-p)^r p^k on k = 0, 1, ..."""

    r: float
    p: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise RangeError("r must be positive")
        if not 0.0 < self.p < 1.0:
            raise RangeError("p must lie in (0, 1)")

    def log_pmf(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        return (gammaln(k + self.r) - gammaln(k + 1.0) - gammaln(self.r)
                + self.r * math.log1p(-self.p) + k * math.log(self.p))

    def pmf(self, k) -> np.ndarray:
        return np.exp(self.log_pmf(k))


def score(x, a: float):
    """Score of the geometric law in the symbol parameter a,

    s(x, a) = (x - (a-1)/2) * 2/(a^2 - 1);

    zero mean under Geo(p(a)) and E s^2 = 1/(a^2 - 1).
    """
    if a <= 1.0:
        raise RangeError("need a > 1")
    x = np.asarray(x, dtype=float)
    out = (x - (a - 1.0) / 2.0) * 2.0 / (a * a - 1.0)
    return float(out) if out.ndim == 0 else out


def nb_hellinger_exact(r1: float, p1: float, r2: float, p2: float,
                       tail: float = 1e-12) -> float:
    """H^2 between two negative binomials by Bhattacharyya series.

    Terms decay like sqrt(p1 p2)^k; summation stops once the geometric
    tail bound of the remainder falls below ``tail``.
    """
    q1, q2 = NegBinomial(r1, p1), NegBinomial(r2, p2)
    ratio = math.sqrt(p1 * p2)
    bc, k = 0.0, 0
    while True:
        term = math.exp(0.5 * (q1.log_pmf(k) + q2.log_pmf(k)))
        bc += term
        # for k >= max(r1, r2): term_{k+1}/term_k <= sqrt(p1 p2) * (1 + r/k)
        if k > max(r1, r2, 8):
            bound = term * ratio * (1.0 + max(r1, r2) / k) / (1.0 - ratio)
            if bound < tail:
                break
        k += 1
        if k > 10_000_000:
            raise RangeError("Bhattacharyya series did not converge")
    return 2.0 * (1.0 - bc)


def nb_hellinger_bound_shapes_mp(r1: float, r2: float) -> mpmath.mpf:
    """1 - G((r1+r2)/2)/sqrt(G(r1) G(r2)) at 40 digits, from log-gamma."""
    with mpmath.workdps(40):
        r1, r2 = mpmath.mpf(r1), mpmath.mpf(r2)
        return -mpmath.expm1(mpmath.loggamma((r1 + r2) / 2)
                             - (mpmath.loggamma(r1) + mpmath.loggamma(r2)) / 2)


def hellinger_geo_mp(a1: float, a2: float) -> mpmath.mpf:
    """H^2 = 2 (1 - (S + T)/(a1 + a2)) between Geo(p(a1)) and Geo(p(a2)) at 50 digits,

    with S = sqrt((a1+1)(a2+1)) and T = sqrt((a1-1)(a2-1)), for a_i >= 1.
    """
    with mpmath.workdps(50):
        a1, a2 = mpmath.mpf(a1), mpmath.mpf(a2)
        bc = (mpmath.sqrt((a1 + 1) * (a2 + 1)) + mpmath.sqrt((a1 - 1) * (a2 - 1))) / (a1 + a2)
        return 2 * (1 - bc)


def chernoff_geo_mp(a0: float, a1: float, t: float) -> mpmath.mpf:
    """psi(t) = -log (1/2)[(a0+1)^t (a1+1)^(1-t) - (a0-1)^t (a1-1)^(1-t)] to 50 digits.

    The bracket cancels by about the digits of a and of 1/psi, so the working
    precision doubles from 60 digits until two values agree to 50.  A zero
    counts as converged only where psi is 0: t in {0, 1} or a0 = a1.
    """
    def psi(dps):
        with mpmath.workdps(dps):
            x, y, s = mpmath.mpf(a0), mpmath.mpf(a1), mpmath.mpf(t)
            bracket = (x + 1) ** s * (y + 1) ** (1 - s) - (x - 1) ** s * (y - 1) ** (1 - s)
            return -mpmath.log(bracket / 2)

    dps, prev = 60, psi(60)
    while True:
        dps *= 2
        cur = psi(dps)
        if abs(cur - prev) <= abs(cur) * mpmath.mpf(10) ** -50 and (
                cur != 0 or t in (0.0, 1.0) or a0 == a1):
            return cur
        prev = cur


def gaussian_square_cov(sx2: float, sy2: float, sxy: float):
    """Moments of squares of a centered bivariate normal pair.

    E[X^2 Y^2] = 2 sxy^2 + sx2 sy2 and Cov(X^2, Y^2) = 2 sxy^2.
    """
    if sx2 < 0 or sy2 < 0 or sx2 * sy2 - sxy * sxy < -1e-15 * max(1.0, sx2 * sy2):
        raise NotPSD("covariance matrix is not positive semidefinite")
    exy = 2.0 * sxy * sxy + sx2 * sy2
    return exy, 2.0 * sxy * sxy


def geo_l1(a1: float, a2: float, tail: float = 1e-14) -> float:
    """Exact L1 distance between two geometric laws by series."""
    p1, p2 = p_of_a(a1), p_of_a(a2)
    total, k = 0.0, 0
    while True:
        q1 = (1.0 - p1) * p1 ** k
        q2 = (1.0 - p2) * p2 ** k
        total += abs(q1 - q2)
        pmx = max(p1, p2)
        if (q1 + q2) / (1.0 - pmx) < tail:
            break
        k += 1
    return total


def op_norm(A) -> float:
    """Operator norm, the largest singular value (max |eigenvalue| if Hermitian)."""
    return float(np.linalg.norm(np.asarray(A), 2))


def dense_dft_conjugate(A: np.ndarray) -> np.ndarray:
    """U* A U from the dense DFT unitary ``dft_unitary(m)``, for odd m."""
    U = dft_unitary(A.shape[0])
    return U.conj().T @ A @ U


def circulant_by_coeff_loop(a: SpectralDensity, m: int) -> SymbolMatrix:
    """``circulant_from_density`` with its representing vector filled lag by lag."""
    half = (m - 1) // 2
    c = np.zeros(m, dtype=complex)
    for i in range(half + 1):
        c[i] = a.coeff(-i)
    for i in range(half + 1, m):
        c[i] = a.coeff(m - i)
    idx = np.arange(m)
    return SymbolMatrix(c[(idx[:, None] - idx[None, :]) % m])


def diagonalization_residue(a: SpectralDensity, m: int) -> float:
    """Max off-diagonal modulus of U* A~_m(a) U; zero in exact arithmetic."""
    D = dense_dft_conjugate(circulant_from_density(a, m).entries)
    off = D - np.diag(np.diag(D))
    return float(np.max(np.abs(off)))


def l2_distance_sq(a: SpectralDensity, values_fn, grid: int = 8192) -> float:
    """Weighted L2 distance^2 between a and an arbitrary function of w.

    (1/2 pi) int |a(w) - f(w)|^2 dw by periodic trapezoid on ``grid`` points.
    ``values_fn`` maps an array of frequencies to function values.
    """
    w = -math.pi + TWO_PI * np.arange(grid) / grid
    diff = eval_density(a, w) - np.asarray(values_fn(w), dtype=float)
    return float(np.mean(diff ** 2))


def density_by_exponentials(a: SpectralDensity, omega) -> np.ndarray:
    """a(w) = sum_k a_k exp(i k w) over both lag signs, as a complex sum; the real part."""
    ks = np.arange(-a.k_max, a.k_max + 1)
    w = np.asarray(omega, dtype=float).reshape(-1)
    return (np.exp(1j * np.outer(w, ks)) @ a.full_coeffs()).real


def theta_by_lag_loop(a: SpectralDensity, d: int) -> np.ndarray:
    """Real coordinates of a, lag by lag: theta_j = sqrt(2) Re a_j, theta_{-j} = -sqrt(2) Im a_j."""
    th = np.zeros(2 * d + 1)
    th[d] = a.coeff(0).real
    for j in range(1, d + 1):
        aj = a.coeff(j)
        th[d + j] = math.sqrt(2.0) * aj.real
        th[d - j] = -math.sqrt(2.0) * aj.imag
    return th


def coeffs_by_lag_loop(theta: np.ndarray) -> np.ndarray:
    """a_0 .. a_d of theta, lag by lag in Python complex arithmetic."""
    d = (len(theta) - 1) // 2
    c = np.zeros(d + 1, dtype=complex)
    c[0] = theta[d]
    for j in range(1, d + 1):
        c[j] = (float(theta[d + j]) - 1j * float(theta[d - j])) / math.sqrt(2.0)
    return c


def local_averages_by_antiderivative(a: SpectralDensity, n: int) -> np.ndarray:
    """Cell averages J_j, j = 1..n, one lag at a time from the antiderivative of exp(i k w)."""
    j = np.arange(1, n + 1)
    w_lo = TWO_PI * ((j - 1) / n - 0.5)
    w_hi = TWO_PI * (j / n - 0.5)
    out = np.full(n, float(a.coeffs[0].real))
    for k in range(1, a.k_max + 1):
        integral = (np.exp(1j * k * w_hi) - np.exp(1j * k * w_lo)) / (1j * k)
        # k and -k contribute conjugate terms: 2 Re(a_k * integral)
        out = out + (n / TWO_PI) * 2.0 * (a.coeffs[k] * integral).real
    return out


def step_function_values(heights: np.ndarray, omega: np.ndarray, n: int) -> np.ndarray:
    """Evaluate the piecewise-constant function with given cell heights."""
    x = np.clip((np.asarray(omega) / TWO_PI + 0.5) * n, 0, n - 1e-9)
    return np.asarray(heights)[x.astype(int)]


def stream_correlation(seed: int, ids: Sequence[int], n: int = 10 ** 6) -> float:
    """Max pairwise sample correlation between streams."""
    corr = np.corrcoef([RngStream(seed, i).generator().standard_normal(n) for i in ids])
    return float(np.max(np.abs(corr - np.eye(len(ids)))))


def project_ball_cone(x, M: float) -> np.ndarray:
    """Exact projection of theta = x (d <= 1) onto {||v||^2 <= M, min a_v >= 1 + 1/M}.

    For d <= 1 the floor is the cone v_0 - f >= sqrt(2) ||r||, r the other
    coordinates and f = 1 + 1/M.  The projection is x itself, the ball's or
    the cone's projection of x, or a point of the circle where the sphere
    meets the cone; each is the nearest point of its own piece, so it is
    the nearest feasible one among x, the ball projection, the cone
    projection, the apex (0, f, 0) and the corner in the half-plane of r.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = (x.size - 1) // 2
    assert d <= 1
    f = 1.0 + 1.0 / M
    t, r = x[d] - f, np.delete(x, d)
    s = float(np.linalg.norm(r))
    u = r / s if s > 0.0 else np.eye(r.size, 1).reshape(-1)

    def point(c, rho):
        return np.insert(rho * u, d, c)

    apex = point(f, 0.0)
    # cone ||r|| <= t / sqrt 2: its boundary ray in the (t, s) plane is (1, k)
    k = math.sqrt(0.5)
    lam = max((t + k * s) / (1.0 + k * k), 0.0)
    cone = x.copy() if s <= k * t else point(f + lam, k * lam)
    ball = x * (math.sqrt(M) / max(float(np.linalg.norm(x)), math.sqrt(M)))
    # corner: c = f + sqrt(2) rho and c^2 + rho^2 = M
    rho = (-2.0 * math.sqrt(2.0) * f + math.sqrt(12.0 * M - 4.0 * f * f)) / 6.0
    corner = point(f + math.sqrt(2.0) * rho, rho) if d else point(math.sqrt(M), 0.0)

    def feasible(v):
        lowest = v[d] - math.sqrt(2.0) * float(np.linalg.norm(np.delete(v, d)))
        return v @ v <= M * (1 + 1e-14) and lowest >= f - 1e-12

    candidates = [v for v in (x, ball, cone, apex, corner) if feasible(v)]
    return min(candidates, key=lambda v: float(np.linalg.norm(v - x)))


def chi2_tail_mp(dof: int, x: float) -> mpmath.mpf:
    """Upper tail Q(dof, x) of the chi-square law, to 40 digits."""
    with mpmath.workdps(40):
        return +mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                regularized=True)


def chi2_quantile_mp(dof: int, tail: float) -> mpmath.mpf:
    """The x with Q(dof, x) = tail, to 40 digits, from a Wilson-Hilferty start."""
    with mpmath.workdps(40):
        z = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(tail))
        c = mpmath.mpf(2) / (9 * dof)
        start = dof * (1 - c + z * mpmath.sqrt(c)) ** 3
        return mpmath.findroot(lambda x: chi2_tail_mp(dof, x) - mpmath.mpf(tail), start)


def norm_cdf_mp(x: float) -> mpmath.mpf:
    """Standard normal cdf at the double x, to 40 digits."""
    with mpmath.workdps(40):
        return +mpmath.ncdf(mpmath.mpf(x))


def kolmogorov_sf_mp(x) -> mpmath.mpf:
    """Upper tail Q(x) = 2 sum_{k>=1} (-1)^{k-1} e^{-2 k^2 x^2} of the Kolmogorov law, to 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return 2 * mpmath.nsum(lambda k: (-1) ** (k - 1) * mpmath.exp(-2 * k * k * x * x),
                               [1, mpmath.inf])


def kolmogorov_cdf_mp(x) -> mpmath.mpf:
    """P(x) = 1 - Q(x) in its theta form (sqrt(2 pi)/x) sum_k e^{-(2k-1)^2 pi^2/(8 x^2)}, to 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return mpmath.sqrt(2 * mpmath.pi) / x * mpmath.nsum(
            lambda k: mpmath.exp(-(2 * k - 1) ** 2 * mpmath.pi ** 2 / (8 * x * x)),
            [1, mpmath.inf])


def kolmogorov_quantile_mp(alpha: float) -> mpmath.mpf:
    """The x with Q(x) = alpha, to 40 digits.

    Solved on log Q from the root of its first term for alpha < 1/2, and on
    log P in the bracket [0.05, 0.84] otherwise, where Q is close to 1.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        if alpha < 0.5:
            start = mpmath.sqrt(mpmath.log(2 / a) / 2)
            return mpmath.findroot(lambda x: mpmath.log(kolmogorov_sf_mp(x)) - mpmath.log(a),
                                   start)
        return mpmath.findroot(lambda x: mpmath.log(kolmogorov_cdf_mp(x)) - mpmath.log(1 - a),
                               (0.05, 0.84), solver="anderson")


def merge_short_bins_loop(table: np.ndarray) -> np.ndarray:
    """Merge adjacent columns of a 2 x K count table until each has 5 expected counts.

    One merge per pass: the rightmost short column joins its right neighbour
    when an adequate column lies to its left (the right-tail fold), else its
    left neighbour; so a run of short columns with nothing adequate to its
    left is grouped by itself.  Returns one column when even the total
    falls short.
    """
    while table.shape[1] > 1:
        short = table.sum(axis=0) / 2.0 < 5.0
        if not short.any():
            break
        k = int(np.flatnonzero(short)[-1])
        right = k < table.shape[1] - 1 and (k == 0 or not short[:k].all())
        j = k if right else k - 1
        table = np.hstack([table[:, :j], table[:, j:j + 2].sum(axis=1, keepdims=True),
                           table[:, j + 2:]])
    return table


def fisher_by_basis_change(lags: np.ndarray, d: int) -> np.ndarray:
    """(1/2 pi) int f psi_j psi_k dw from f's lags c_l, l = -2d..2d, as U C U^H.

    psi_j = sum_k U_jk e^{ikw} (k = -d..d) and C_kl = c_{l-k}, with
    c_l = (1/2 pi) int f e^{-ilw} dw, is the Toeplitz matrix of f in the
    exponentials; a dense product of (2d + 1)-square complex matrices.
    """
    n, r = 2 * d + 1, math.sqrt(0.5)
    U = np.zeros((n, n), dtype=complex)
    U[d, d] = 1.0
    for s in range(1, d + 1):
        U[d + s, d + s] = U[d + s, d - s] = r                       # sqrt2 cos(sw)
        U[d - s, d + s], U[d - s, d - s] = -1j * r, 1j * r          # sqrt2 sin(sw)
    ks = np.arange(n)
    C = np.asarray(lags)[ks[None, :] - ks[:, None] + 2 * d]
    out = U @ C @ U.conj().T
    assert np.abs(out.imag).max() <= 1e-12 * max(1.0, np.abs(out.real).max())
    return out.real


def phi_cosine_closed_form(c0: float, c1: float) -> np.ndarray:
    """phi at d = 1 for a = c0 + c1 cos w, c0 > 1 + |c1|, in closed form.

    1/(a^2 - 1) = (1/(a - 1) - 1/(a + 1)) / 2, and (1/2 pi) int cos(nw) dw /
    (alpha + beta cos w) = r^n / sqrt(alpha^2 - beta^2) with
    r = (sqrt(alpha^2 - beta^2) - alpha) / beta; alpha^2 - beta^2 is taken as
    (alpha - beta)(alpha + beta).
    """
    def moments(alpha):
        root = math.sqrt((alpha - c1) * (alpha + c1))
        r = (root - alpha) / c1 if c1 else 0.0
        return np.array([1.0, r, r * r]) / root

    F = (moments(c0 - 1.0) - moments(c0 + 1.0)) / 2.0
    s2 = math.sqrt(2.0)
    return np.array([[F[0] - F[2], 0.0, 0.0],
                     [0.0, F[0], s2 * F[1]],
                     [0.0, s2 * F[1], F[0] + F[2]]])


def density_min_oracle(coeffs) -> tuple[mpmath.mpf, float]:
    """Minimum of p(w) = sum_{|k|<=K} a_k e^{ikw} from ``coeffs`` a_0 .. a_K, and where it lies.

    p is taken on 2^20 uniform points; each local minimum of that grid within
    twice its curvature bound of the grid minimum (the 8 lowest at most) is
    polished by an mpmath root of p' at 40 digits, bracketed by its grid
    neighbours, and the lowest value found is returned as (min, argmin).
    """
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    ks = np.arange(c.size)
    G = 1 << 20
    vals = np.fft.hfft(c.conj(), G)
    if c.size == 1 or not np.any(c[1:]):
        return mpmath.mpf(float(c[0].real)), 0.0
    curvature = (math.pi / G) ** 2 * float(ks * ks @ np.abs(c))
    near = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1))
    near &= vals <= vals.min() + 2.0 * curvature + 1e-12 * float(np.abs(c).sum())
    starts = np.flatnonzero(near)
    if starts.size > 8:      # a density flat to rounding makes every point a minimum
        starts = starts[np.argpartition(vals[starts], 7)[:8]]
    with mpmath.workdps(40):
        parts = [(k, mpmath.mpf(float(v.real)), mpmath.mpf(float(v.imag)))
                 for k, v in enumerate(c)]

        def p(w, r=0):
            # Re sum_k m_k (ik)^r a_k e^{ikw}, m_0 = 1 and m_k = 2
            total = mpmath.mpf(0)
            for k, re, im in parts:
                z = (1j * k) ** r * mpmath.mpc(re, im) * mpmath.expjpi(k * w / mpmath.pi)
                total += (1 if k == 0 else 2) * z.real
            return total

        best, where = mpmath.mpf(float(vals.min())), 2.0 * math.pi * float(np.argmin(vals)) / G
        for j in starts:
            # p' changes sign between the grid neighbours of a grid minimum
            ends = (mpmath.mpf(2.0 * math.pi * float(j - 1) / G),
                    mpmath.mpf(2.0 * math.pi * float(j + 1) / G))
            try:
                w = mpmath.findroot(lambda x: p(x, 1), ends, solver="illinois")
            except (ValueError, ZeroDivisionError):
                continue
            value = p(w)
            if value < best:
                best, where = value, float(w)
    return best, math.remainder(where, 2.0 * math.pi)


def pgf_coefficients_mp(Qp: np.ndarray, k_max: int, dps: int = 40) -> np.ndarray:
    """Coefficients of 1 / det(I + Q'(I - Z)) on {0..k_max}^m at ``dps`` digits.

    The literal cell-by-cell recurrence c_0 g_k = -sum_{e != 0} c_e g_{k-e},
    with each c_e the mpmath determinant of I + Q' whose columns in e are
    those of -Q'.
    """
    m = Qp.shape[0]
    with mpmath.workdps(dps):
        Q = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in Qp])
        c = {}
        for e in itertools.product((0, 1), repeat=m):
            M = mpmath.matrix(m, m)
            for i, j in itertools.product(range(m), repeat=2):
                M[i, j] = -Q[i, j] if e[j] else int(i == j) + Q[i, j]
            c[e] = mpmath.re(mpmath.det(M))
        zero = (0,) * m
        g = {}
        for k in itertools.product(range(k_max + 1), repeat=m):
            total = mpmath.mpf(1) if k == zero else mpmath.mpf(0)
            for e, ce in c.items():
                back = tuple(ki - ei for ki, ei in zip(k, e))
                if e != zero and min(back) >= 0:
                    total -= ce * g[back]
            g[k] = total / c[zero]
        out = np.empty((k_max + 1,) * m)
        for k, v in g.items():
            out[k] = float(v)
    return out
