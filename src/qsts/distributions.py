"""Geometric and negative binomial laws, their distances and error exponents.

The symbol value a > 1 of a thermal mode parameterizes a geometric law
through p = (a - 1)/(a + 1); everything here is written in terms of a where
that is the natural parameter.

``geo_kl`` and both error exponents share one kernel of two Bernoulli KL terms >= 0,
``_bernoulli_terms``, so nothing cancels.  psi is a log-sum-exp of affine functions of t,
so convex (Hoelder), as is its quantum mean: golden section finds the infimum, unguarded.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import RangeError
from .spectral import SpectralDensity, _grid_size, _on_grid, density_min

#: the fewest quadrature points of the quantum error exponent
_CHERNOFF_GRID = 4096


def _symbol(a: float) -> float:
    """``a`` itself if 1 < a < inf, else RangeError; nan fails the test too."""
    if not 1.0 < a < math.inf:
        raise RangeError(f"need 1 < a < inf, got {a!r}")
    return a


def p_of_a(a: float) -> float:
    """Geometric parameter p = (a - 1)/(a + 1) of the thermal symbol 1 < a < inf."""
    return (_symbol(a) - 1.0) / (a + 1.0)


class GeoStats(NamedTuple):
    p: float
    mean: float
    var: float
    m4_bound: float
    fisher_j: float
    tau: float


def geo_stats(a: float) -> GeoStats:
    """Moments, fourth-moment bound, Fisher information and log p at symbol a.

    p = (a-1)/(a+1), mean = (a-1)/2, var = (a^2-1)/4,
    E(X - EX)^4 <= (5/8)(a+1)^4, J(a) = 1/(a^2 - 1),
    tau = log p = log1p(-2/(a+1)).
    Needs 1 < a < inf; RangeError when the fourth-moment bound overflows.
    """
    p = p_of_a(a)
    try:
        m4_bound = 0.625 * (a + 1.0) ** 4
    except OverflowError:
        raise RangeError(f"the fourth-moment bound (5/8)(a+1)^4 overflows at a = {a!r}") from None
    return GeoStats(
        p=p,
        mean=(a - 1.0) / 2.0,
        var=(a * a - 1.0) / 4.0,
        m4_bound=m4_bound,
        fisher_j=1.0 / (a * a - 1.0),
        tau=math.log1p(-2.0 / (a + 1.0)),
    )


def _ratio_bound(r: float, a1: float, a2: float) -> float:
    """r (a1 - a2)^2 / ((a1 - 1)(a2 - 1)) for 1 < a_i < inf; RangeError if it overflows.

    Taken as r times the product of the quotients (a1 - a2)/(a1 - 1) and
    (a1 - a2)/(a2 - 1): where one is large the other is near 1, so no step
    overflows unless the value, or for r < 1 the value over r, does.
    """
    d = a1 - a2
    bound = r * (d / (a1 - 1.0) * (d / (a2 - 1.0)))
    if not math.isfinite(bound):
        raise RangeError(f"the ratio bound of a = {a1!r}, {a2!r} overflows")
    return bound


def hellinger_geo(lam: float, mu: float):
    """Exact squared Hellinger distance of two geometrics and its ratio bound.

    h2_exact is ``hellinger_geo_exact(lam, mu)``, h2_bound is
    (lam - mu)^2 / ((lam - 1)(mu - 1)), and h2_exact <= h2_bound always.
    Needs 1 < lam, mu < inf; RangeError when h2_bound overflows.
    """
    return float(hellinger_geo_exact(_symbol(lam), _symbol(mu))), _ratio_bound(1.0, lam, mu)


def hellinger_geo_exact(a1, a2):
    """H^2 between Geo(p(a1)) and Geo(p(a2)) for a_i >= 1; elementwise on arrays.

    H^2 = 2 (1 - BC) = [(sqrt(a1+1) - sqrt(a2+1))^2 + (sqrt(a1-1) - sqrt(a2-1))^2]
    / (a1 + a2), taken as d^2 (1/s^2 + 1/t^2) / (a1 + a2) with d = a1 - a2
    and s, t the sums of the roots: every term is >= 0, so nothing cancels.
    t = 0 only at a1 = a2 = 1, where d = 0 and H^2 = 0.  Each square u^2,
    u = d/s or d/t, is taken as u (u / h) with h = (a1 + a2)/2, so no step
    overflows below the largest double.
    """
    a1, a2 = np.asarray(a1, dtype=float), np.asarray(a2, dtype=float)
    d = a1 - a2
    s = np.sqrt(a1 + 1.0) + np.sqrt(a2 + 1.0)
    t = np.sqrt(a1 - 1.0) + np.sqrt(a2 - 1.0)
    half = 0.5 * a1 + 0.5 * a2
    u, v = d / s, d / np.where(t > 0.0, t, 1.0)
    return 0.5 * (u * (u / half) + v * (v / half))


def nb_hellinger_bound_symbols(r: float, a1: float, a2: float) -> float:
    """Bound H^2(NB(r, p(a1)), NB(r, p(a2))) <= r (a1-a2)^2 / ((a1-1)(a2-1)).

    Needs 0 < r < inf and 1 < a_i < inf; RangeError when the bound overflows.
    """
    if not 0.0 < r < math.inf:
        raise RangeError(f"r needs 0 < r < inf, got {r!r}")
    return _ratio_bound(r, _symbol(a1), _symbol(a2))


def nb_hellinger_bound_shapes(r1: float, r2: float) -> float:
    """Bound H^2(NB(r1, p), NB(r2, p)) <= 1 - G((r1+r2)/2)/sqrt(G(r1) G(r2)), without cancellation.

    With c = (r1+r2)/2 and h = |r1-r2|/2 the bound is -expm1(D), where
    e^{2D} = G(c)^2/(G(c+h) G(c-h)) = prod_{k>=0} (1 - h^2/(c+k)^2) by the
    Weierstrass product of 1/G, and -log(1 - h^2/(c+k)^2) is
    log1p(h^2/((c-h+k)(c+h+k))).  The first K factors are multiplied out, with
    z = c + K and z - h >= 64, and the rest is the Stirling tail at z:
    -(z-1/2) log1p(-u^2) - 2h atanh(u) with u = h/z, plus the B_2, B_4 and
    B_6 terms, each B_2j/(2j(2j-1)) z^(1-2j) times
    2 - (1+u)^(1-2j) - (1-u)^(1-2j), written as a polynomial with positive
    coefficients in w = u^2/(1-u^2).  D is exactly 0 when r1 = r2.
    """
    if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise RangeError(f"shapes need 0 < r < inf, got r1={r1!r}, r2={r2!r}")
    lo, hi = min(r1, r2), max(r1, r2)
    h = 0.5 * hi - 0.5 * lo
    K = max(0, math.ceil(64.0 - lo))
    z = 0.5 * lo + 0.5 * hi + K
    w = (h / (lo + K)) * (h / (hi + K))
    two_d = -math.fsum(math.log1p((h / (lo + k)) * (h / (hi + k))) for k in range(K))
    # atanh(u) = log1p(2u/(1-u))/2 with z - h = lo + K; z factored out so that
    # shapes near the float limit give -inf, not inf - inf
    two_d += z * (math.log1p(w) - h / z * math.log1p(2.0 * h / (lo + K))) - 0.5 * math.log1p(w)
    # the B_2j terms in y = 1/z and t = w/z <= 1/64, which cannot overflow
    y, t = 1.0 / z, w / z
    two_d -= 2.0 * t * (1.0 / 12.0 - (6.0 * y * y + t * (9.0 * y + 4.0 * t)) / 360.0
                        + (15.0 * y ** 4 + t * (55.0 * y ** 3 + t * (85.0 * y * y
                                                                   + t * (60.0 * y + 16.0 * t))))
                        / 1260.0)
    return 0.0 - math.expm1(0.5 * two_d)


def geo_sample(q, rng: np.random.Generator, size=None):
    """Draw from Geo(p), P(X = k) = q p^k on k = 0, 1, ..., from q = 1 - p (may be an array).

    q = 2/(a + 1) keeps its digits where p = (a - 1)/(a + 1) rounds to 1 (a > 2^53).
    numpy's geometric counts the trials to a first success of probability q, hence the - 1.
    """
    return rng.geometric(q, size=size) - 1


def nb_sample(r: float, p: float, rng: np.random.Generator, size=None):
    """Draw from NB(r, p) as a Gamma-Poisson mixture.

    lam ~ Gamma(shape r, rate (1-p)/p) of ``_nb_rates``, then Poisson(lam);
    works for any real r > 0 including r < 1.
    """
    return rng.poisson(_nb_rates(r, p, rng, size))


def _nb_rates(r: float, p: float, rng: np.random.Generator, size=None):
    """The Gamma(shape r, rate (1-p)/p) Poisson rates of ``nb_sample``, with its checks."""
    if not 0.0 < r < math.inf:
        raise RangeError(f"r needs 0 < r < inf, got {r!r}")
    if not 0.0 < p < 1.0:
        raise RangeError("p must lie in (0, 1)")
    return rng.gamma(shape=r, scale=p / (1.0 - p), size=size)


def _bernoulli_terms(ef: np.ndarray, r: np.ndarray):
    """(g(e), g(f)/r) >= 0: KL(Ber(p) || Ber(p_a)) = p_a g(e) + q g(f)/r, q = 1 - p.

    e = p/p_a - 1, f = q/q_a - 1 and r = q/q_a, of the shape of f.  ``ef`` = [e, f] is
    overwritten: g of ``_g`` runs once over both.  Where f leaves [-1/2, 1] and g(f)
    may overflow, g(f)/r is taken as log r + 1/r - 1."""
    f = ef[1, ...]
    far = (f < -0.5) | (f > 1.0)
    f[far] = 1.0
    g = _g(ef)
    k = g[1, ...]
    k /= r
    rf = r[far]
    k[far] = np.log(rf) + 1.0 / rf - 1.0
    return g[0, ...], k


def _chernoff_terms(a0, a1):
    """t -> psi(t) of Geo(p(a0)) against Geo(p(a1)), elementwise for 1 < a_i <= 1.7e308.

    psi(t) = log sum_k P0^t P1^(1-t) = -[t KL(p_t||p0) + (1-t) KL(p_t||p1)]/q_t, q = 1 - p,
    p_t = p0^t p1^(1-t), each KL over Bernoulli laws by ``_bernoulli_terms``, with
    e = p_t/p_a - 1 = expm1((t-1)D) or expm1(tD), f = q_t/q_a - 1 = -(a-1)e/2,
    D = log(p0/p1) = +-log1p(2|a0 - a1|/((hi+1)(lo-1))), log p = -log1p(2/(a-1)) and
    q_t = -expm1(log p_t): no step overflows or loses digits as a -> 1 or inf.  Weights
    multiply before q_t divides, so a term of weight 0 stays 0.
    """
    a = np.stack(np.broadcast_arrays(np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)))
    hi, lo = a.max(axis=0), a.min(axis=0)
    delta = np.copysign(np.log1p((hi - lo) / (hi + 1.0) * (2.0 / (lo - 1.0))), a[0] - a[1])
    log_p, p, half = -np.log1p(2.0 / (a - 1.0)), (a - 1.0) / (a + 1.0), 0.5 * a + 0.5

    def psi(t: float) -> np.ndarray:
        if not 0.0 <= t <= 1.0:
            raise RangeError("t must lie in [0, 1]")
        qt = -np.expm1(t * log_p[0] + (1.0 - t) * log_p[1])
        e = np.expm1(np.multiply.outer([t - 1.0, t], delta))
        ge, k = _bernoulli_terms(np.stack([e, (a - 1.0) * e * -0.5]), qt * half)
        pg = p * ge
        return 0.0 - ((t * pg[0] + (1.0 - t) * pg[1]) / qt + (t * k[0] + (1.0 - t) * k[1]))
    return psi


def chernoff_geo(a0: float, a1: float, t: float) -> float:
    """Exponent -log (1/2)[(a0+1)^t (a1+1)^(1-t) - (a0-1)^t (a1-1)^(1-t)] of two geometrics."""
    return float(_chernoff_terms(_symbol(a0), _symbol(a1))(t))


def _golden_infimum(fn):
    """Golden section of a convex fn on [0, 1] to width 1e-10; returns (t*, fn(t*))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b, c, d = 0.0, 1.0, 1.0 - invphi, invphi
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b), float(fn(0.5 * (a + b)))


def chernoff_geo_inf(a0: float, a1: float):
    """Infimum over t in [0, 1] of chernoff_geo; returns (t*, value)."""
    return _golden_infimum(_chernoff_terms(_symbol(a0), _symbol(a1)))


def _quantum_psi(a0: SpectralDensity, a1: SpectralDensity):
    """t -> the mean of psi over max(_CHERNOFF_GRID, ``_grid_size``) points; needs min a > 1."""
    amin, at = min(density_min(a0), density_min(a1))
    if amin <= 1.0:
        raise RangeError(f"densities must stay strictly above 1, got {amin!r} at w = {at!r}")
    G = max(_CHERNOFF_GRID, _grid_size(max(a0.k_max, a1.k_max)))
    psi = _chernoff_terms(_on_grid(a0.coeffs, G), _on_grid(a1.coeffs, G))
    return lambda t: np.mean(psi(t))


def chernoff_quantum(a0: SpectralDensity, a1: SpectralDensity, t: float) -> float:
    """Error exponent term (1/2 pi) int_0^{2 pi} psi(a0(w), a1(w); t) dw of two spectral
    densities, psi of ``chernoff_geo``: periodic trapezoid quadrature, the same on [-pi, pi].
    """
    return float(_quantum_psi(a0, a1)(t))


def chernoff_quantum_inf(a0: SpectralDensity, a1: SpectralDensity):
    """Infimum over t in [0, 1] of chernoff_quantum, each density evaluated once; (t*, value)."""
    return _golden_infimum(_quantum_psi(a0, a1))


def varstab_arccosh(a: float) -> float:
    """Variance-stabilizing transform g(a) = arccosh a = log(a + sqrt(a^2 - 1))."""
    return math.acosh(_symbol(a))


def varstab_ode_residual(a: float) -> float:
    """|g'(a) - 1/sqrt(a^2-1)| with g' computed analytically.

    g' must equal the square root of the geometric Fisher information;
    the residual is pure floating point noise, below 1e-12.
    """
    s = math.sqrt(_symbol(a) - 1.0) * math.sqrt(a + 1.0)
    g_prime = (1.0 + a / s) / (a + s)
    return abs(g_prime - 1.0 / s)


#: coefficients k = 9..2 of g(t) = sum_k (-t)^k / (k (k-1)), used for |t| < 1e-2
_G_SERIES = np.array([(-1.0) ** k / (k * (k - 1)) for k in range(9, 1, -1)])


def _g(t: np.ndarray) -> np.ndarray:
    """g(t) = (1 + t) log(1 + t) - t >= 0 for t > -1, by the series only where |t| < 1e-2.

    Every step writes into one workspace of two arrays the shape of t, so a
    large t costs two allocations, not one per step.  The series is Horner's
    rule from its leading two coefficients: the steps of ``np.polyval``
    after its exact first one, 0 t + c_9 = c_9.
    """
    ws = np.empty((2,) + t.shape)
    out, tmp = ws[0, ...], ws[1, ...]   # views, also where t is 0-d
    np.log1p(t, out=out)
    np.add(t, 1.0, out=tmp)
    out *= tmp
    out -= t
    small = np.abs(t, out=tmp) < 1e-2
    ts = t[small]
    if ts.size:
        poly = _G_SERIES[0] * ts + _G_SERIES[1]
        for c in _G_SERIES[2:]:
            poly *= ts
            poly += c
        out[small] = ts * ts * poly
    return out


def geo_kl(a1, a2):
    """KL(Geo(p(a1)) || Geo(p(a2))), broadcasting over arrays; every a_i must be finite and > 1.

    KL(Ber(p1) || Ber(p2))/q1 = p2 g(e)/q1 + g(f)/r of ``_bernoulli_terms`` (the t = 1
    face of ``_chernoff_terms``): q = 2/(a + 1), f = q1/q2 - 1 = (a2 - a1)/(a1 + 1),
    e = p1/p2 - 1 = -2f/(a2 - 1) and r = (a2 + 1)/(a1 + 1), with nothing cancelling."""
    a1, a2 = np.asarray(a1, dtype=float), np.asarray(a2, dtype=float)
    if not all(np.all((a > 1.0) & (a < math.inf)) for a in (a1, a2)):
        raise RangeError("need finite a_i > 1")
    out = _geo_kl_unchecked(a1, a2)
    return float(out) if out.ndim == 0 else out


def _geo_kl_unchecked(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """``geo_kl`` of float arrays known finite and > 1; e and f share one buffer, as g runs."""
    ef = np.empty((2,) + np.broadcast(a1, a2).shape)
    e, f = ef[0, ...], ef[1, ...]
    c1, c2, m2 = a1 + 1.0, a2 + 1.0, a2 - 1.0
    np.divide(np.subtract(a2, a1, out=f), c1, out=f)
    # e + 1 = p1/p2 > p1 >= 2^-53 for doubles a1 > 1, but the product may round to -1
    np.maximum(np.multiply(f, -2.0 / m2, out=e), 2.0 ** -53 - 1.0, out=e)
    kl, k = _bernoulli_terms(ef, c2 / c1)
    kl *= (m2 / c2) * (0.5 * c1)
    return np.add(kl, k, out=kl)
