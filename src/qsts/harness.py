"""Reproducible Monte Carlo: counter-based streams, summaries, diagnostics.

Every random quantity in the package is drawn from a stream addressed by an
integer path (seed, stream_id).  Streams are Philox counter-based
generators keyed through numpy's SeedSequence hash of the path.  Monte Carlo
replicate i owns the stream (seed, i) and draws everything from its one
generator (a blocked measurement takes all r blocks as one batch), so it can
be regenerated in isolation.  Replicates run serially in replicate order and
summaries are plain numpy reductions over that fixed row order, so results
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateSamples, InputError, RangeError


@dataclass(frozen=True)
class RngStream:
    """A deterministic random stream addressed by (seed, stream_id).

    ``generator()`` always returns a fresh generator positioned at the
    start of the stream.
    """

    seed: int
    stream_id: int = 0

    @property
    def path(self) -> tuple:
        return (int(self.seed), int(self.stream_id))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(list(self.path))
        return np.random.Generator(np.random.Philox(seed=ss))


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """The stream's fresh generator, or ``rng`` itself if it is a Generator."""
    return rng.generator() if isinstance(rng, RngStream) else rng


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

    def to_json(self) -> dict:
        return {
            "replicates": self.replicates,
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
            "se": self.se.tolist(),
            "diagnostics": self.diagnostics,
        }


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
    rows = np.asarray([np.atleast_1d(np.asarray(r, dtype=float)) for r in results])
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


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided KS critical value at level alpha."""
    from scipy.special import kolmogi
    return float(kolmogi(alpha)) / math.sqrt(n)


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
    """
    rows = np.asarray(samples, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.shape[0] < 500:
        raise RangeError("normality check needs at least 500 samples")
    target = np.atleast_2d(np.asarray(target_cov, dtype=float))
    if target.shape != (rows.shape[1], rows.shape[1]):
        raise InputError("target covariance has wrong shape")
    var = np.var(rows, axis=0)
    if np.any(var == 0.0):
        raise DegenerateSamples("a coordinate has zero variance")

    mean, cov = _mean_cov(rows)
    frob = float(np.linalg.norm(cov - target) / np.linalg.norm(target))

    from scipy.special import ndtr
    crit = ks_critical(rows.shape[0], ks_alpha)
    stats = []
    for j in range(rows.shape[1]):
        sd = math.sqrt(target[j, j])
        centered = rows[:, j] - mean[j]
        stats.append(ks_statistic(centered, lambda x: ndtr(x / sd)))
    stats = np.asarray(stats)
    passed = bool(frob <= frob_tol and np.all(stats < crit))
    return NormalityReport(frob, stats, crit, passed)
