"""Reproducible Monte Carlo: counter-based streams, summaries, diagnostics.

Every random quantity in the package is drawn from a stream addressed by an
integer path (seed, stream_id).  Streams are Philox counter-based
generators keyed through numpy's SeedSequence hash of the path.  Monte Carlo
replicate i owns the stream (seed, i) and draws everything from its one
generator, so it can be regenerated in isolation.  Replicates run serially
in replicate order and summaries are plain numpy reductions over that fixed
row order, so results are deterministic.

The normality check needs only the standard normal cdf and the quantile of
the limiting Kolmogorov law; both are closed form here, on ``math.erf`` and
fast series, so this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateSamples, InputError, NonConvergence, NotPSD, RangeError

#: Newton or bisection steps a quantile solve may take
_QUANTILE_STEPS = 64

#: rows per chunk where a batch is drawn or written in pieces (the amplitudes
#: of a NumberOpSampler batch, the Poisson draws of the sufficiency test, the
#: block and replicate CSVs), so that no second full-size copy is held
_CHUNK_ROWS = 1024

#: fewest samples ``normality_check`` takes, and so fewest replicates of ``mc normality``
_NORMALITY_MIN_SAMPLES = 500

_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: below this x the Kolmogorov law is summed in its theta form, above it as
#: the alternating series; each form converges within a few terms on its side
_KS_THETA_BELOW = 0.83

#: past this x the second term of the Kolmogorov tail is below e^{-96} of
#: the first, so Q(x) = 2 e^{-2 x^2} to double precision
_KS_ONE_TERM = 4.0


@dataclass(frozen=True)
class RngStream:
    """A deterministic random stream addressed by (seed, stream_id).

    ``generator()`` always returns a fresh generator positioned at the
    start of the stream; a negative seed or stream id is a RangeError there.
    """

    seed: int
    stream_id: int = 0

    @property
    def path(self) -> tuple:
        return (int(self.seed), int(self.stream_id))

    def generator(self) -> np.random.Generator:
        if not (self.seed >= 0 and self.stream_id >= 0):
            raise RangeError(f"seed and stream id must be non-negative, got {self.path}")
        ss = np.random.SeedSequence(list(self.path))
        return np.random.Generator(np.random.Philox(seed=ss))


def _mean_cov(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sample covariance of a replicate-ordered matrix."""
    mean = rows.mean(axis=0)
    c = rows - mean
    return mean, c.T @ c / (rows.shape[0] - 1)


@dataclass(frozen=True)
class McSummary:
    """Replicate count, per-coordinate mean/covariance and standard errors."""

    replicates: int
    mean: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    diagnostics: dict = field(default_factory=dict, compare=False)


def mc_run(sampler: Callable[[RngStream], np.ndarray], replicates: int,
           seed: int, collect: bool = False):
    """Run ``sampler`` on streams (seed, 1..R) and summarize.

    The sampler maps a stream to a 1-d vector.  Replicates run serially in
    replicate order, and the mean and covariance are numpy reductions over
    the replicate-ordered matrix, so the summary is deterministic.  With
    ``collect=True`` the raw replicate matrix is returned alongside the
    summary.
    """
    if replicates < 2:
        raise RangeError("need at least 2 replicates")
    results = [sampler(RngStream(seed, i)) for i in range(1, replicates + 1)]
    try:
        rows = np.array(results, dtype=float)
    except ValueError as exc:   # rows of different lengths
        raise InputError("sampler must return vectors of a fixed length") from exc
    rows = rows[:, None] if rows.ndim == 1 else rows    # a scalar sampler
    if rows.ndim != 2:
        raise InputError("sampler must return vectors of a fixed length")
    mean, cov = _mean_cov(rows)
    se = np.sqrt(np.diag(cov) / rows.shape[0])
    summary = McSummary(rows.shape[0], mean, cov, se)
    return (summary, rows) if collect else summary


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against a continuous cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = cdf(x)
    up = np.max(np.arange(1, n + 1) / n - F)
    down = np.max(F - np.arange(0, n) / n)
    return float(max(up, down))


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal cdf, entry by entry, in the branches of cephes ``ndtr``.

    With z = x sqrt(1/2): 1/2 + erf(z)/2 where |z| < sqrt(1/2), else
    y = erfc(|z|)/2, and 1 - y for z > 0.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for z in (x * _SQRT_HALF).ravel().tolist():
        if abs(z) < _SQRT_HALF:
            out.append(0.5 + 0.5 * math.erf(z))
        else:
            y = 0.5 * math.erfc(abs(z))
            out.append(1.0 - y if z > 0.0 else y)
    return np.asarray(out).reshape(x.shape)


def _kolmogorov(x: float) -> tuple[float, float, float]:
    """(Q, P, density) of the limiting Kolmogorov law at x > 0.

    Q(x) = 2 sum_{k>=1} (-1)^{k-1} e^{-2 k^2 x^2} is the upper tail and
    P = 1 - Q the cdf.  Below _KS_THETA_BELOW, P is summed in its theta
    form P(x) = (sqrt(2 pi)/x) sum_{k>=1} e^{-(2k-1)^2 pi^2/(8 x^2)} and
    Q = 1 - P; above it, Q is summed and P = 1 - Q.  Each sum stops at the
    first term below 1e-17 of the sum so far.
    """
    total = slope = 0.0
    k = 1
    if x < _KS_THETA_BELOW:
        while True:
            u = ((2 * k - 1) * math.pi / x) ** 2 / 8.0
            term = math.exp(-u)
            total += term
            slope += term * (2.0 * u - 1.0)
            if term <= 1e-17 * total:
                break
            k += 1
        p = _SQRT_2PI / x * total
        return 1.0 - p, p, _SQRT_2PI / (x * x) * slope
    sign = 1.0
    while True:
        term = math.exp(-2.0 * (k * x) ** 2)
        total += sign * term
        slope += sign * k * k * term
        if term <= 1e-17 * total:
            break
        sign, k = -sign, k + 1
    q = 2.0 * total
    return q, 1.0 - q, 8.0 * x * slope


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided KS critical value x*/sqrt(n) at level alpha.

    x* solves Q(x*) = alpha for the Kolmogorov tail Q; for alpha >= 1/2
    it solves P(x*) = 1 - alpha instead, which is exact there.  Newton
    starts from sqrt(log(2/alpha)/2), the root of the first term of Q,
    which from _KS_ONE_TERM on is x* itself to double precision, and
    runs in ``_bracketed_newton`` for at most _QUANTILE_STEPS steps.
    Raises RangeError unless 0 < alpha < 1 and n >= 1.
    """
    if not (0.0 < alpha < 1.0 and n >= 1):
        raise RangeError(f"KS critical value needs 0 < alpha < 1 and n >= 1, "
                         f"got alpha={alpha!r}, n={n!r}")
    x = math.sqrt(0.5 * (math.log(2.0) - math.log(alpha)))
    if x >= _KS_ONE_TERM:
        return x / math.sqrt(n)

    def excess(x):
        q, p, density = _kolmogorov(x)
        return (q - alpha if alpha < 0.5 else (1.0 - alpha) - p), density

    return _bracketed_newton(excess, x, _QUANTILE_STEPS,
                             f"Kolmogorov quantile at alpha {alpha!r}") / math.sqrt(n)


def _bracketed_newton(excess, x: float, steps: int, what: str) -> float:
    """Root of a decreasing function f on (0, inf) by Newton from x.

    ``excess(x)`` returns (f(x), -f'(x)).  The loop keeps a bracket
    lo < x < hi, 0 <= lo, around the root and bisects whenever a step
    leaves it (doubling x while hi is unknown).  It stops at an exact zero
    or once a step moves x by at most 4 ulp, a Newton step that rounds onto
    the bracket's end included, and raises NonConvergence naming ``what``
    after ``steps`` steps.
    """
    lo, hi = 0.0, math.inf
    for _ in range(steps):
        fx, slope = excess(x)
        if fx == 0.0:
            return x
        lo, hi = (x, hi) if fx > 0.0 else (lo, x)
        near = 4.0 * math.ulp(x)
        step = x + fx / slope if slope > 0.0 else math.nan
        if not (abs(step - x) <= near or lo < step < hi):
            step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if abs(step - x) <= near:
            return step
        x = step
    raise NonConvergence(f"{what}: no convergence in {steps} steps "
                         f"(bracket [{lo!r}, {hi!r}])")


class NormalityReport(NamedTuple):
    frob_rel_err: float
    ks_stats: np.ndarray
    ks_critical: float
    passed: bool


def normality_check(samples: np.ndarray, target_cov: np.ndarray,
                    frob_tol: float = 0.15, ks_alpha: float = 0.01) -> NormalityReport:
    """Compare a sample cloud against a centered normal with given covariance.

    frob_rel_err is ||Cov_hat - target||_F / ||target||_F; each coordinate
    is centered and KS-tested against N(0, target_jj).  Pass requires the
    Frobenius error within ``frob_tol`` and every KS statistic below the
    asymptotic critical value at ``ks_alpha``.

    Refused, with the CLI exit code: fewer than _NORMALITY_MIN_SAMPLES
    samples or ks_alpha outside (0, 1) (RangeError, 1); a target of the
    wrong shape or with a non-finite entry (InputError, 1); a target diagonal
    entry not > 0 (NotPSD, 2); a non-finite sample or a coordinate of zero
    variance (DegenerateSamples, 2).
    """
    rows = np.asarray(samples, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.shape[0] < _NORMALITY_MIN_SAMPLES:
        raise RangeError(f"normality check needs at least {_NORMALITY_MIN_SAMPLES} samples")
    crit = ks_critical(rows.shape[0], ks_alpha)
    target = np.atleast_2d(np.asarray(target_cov, dtype=float))
    if target.shape != (rows.shape[1], rows.shape[1]):
        raise InputError("target covariance has wrong shape")
    if not np.all(np.isfinite(target)):
        raise InputError("target covariance has a non-finite entry")
    if not np.all(np.diag(target) > 0.0):
        raise NotPSD("target covariance has a diagonal entry <= 0")
    if not np.all(np.isfinite(rows)):
        raise DegenerateSamples("a sample is not finite")
    var = np.var(rows, axis=0)
    if np.any(var == 0.0):
        raise DegenerateSamples("a coordinate has zero variance")

    mean, cov = _mean_cov(rows)
    frob = float(np.linalg.norm(cov - target) / np.linalg.norm(target))

    stats = []
    for j in range(rows.shape[1]):
        sd = math.sqrt(target[j, j])
        centered = rows[:, j] - mean[j]
        stats.append(ks_statistic(centered, lambda x: _norm_cdf(x / sd)))
    stats = np.asarray(stats)
    passed = bool(frob <= frob_tol and np.all(stats < crit))
    return NormalityReport(frob, stats, crit, passed)
