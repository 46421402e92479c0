"""Classical experiment simulators and finite-size equivalence audits.

The asymptotic statements behind this package assert vanishing statistical
distance between the quantum model, a geometric regression and a Gaussian
white noise model.  The distance itself is not computable, but every proof
runs through concrete quantities that are: Hellinger sums between geometric
regressions, relative entropy between symbol-perturbed states, and the
Pinsker bound.  The audits here evaluate exactly those quantities at desk
scale and check the proven inequalities and decay trends.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .distributions import (
    Geometric,
    hellinger_geo_exact_p,
    nb_sample,
    varstab_arccosh,
)
from .errors import DegenerateSamples, NotAdmissible, RangeError
from .estimators import phi_matrices
from .gaussian_states import relative_entropy
from .harness import RngStream, as_generator
from .spectral import (
    SpectralDensity,
    TWO_PI,
    _truncated_density,
    eval_density,
    fourier_frequencies,
    grids,
    local_averages,
    sobolev_norm,
)
from .toeplitz import (
    circulant_block,
    toeplitz_circulant_gap,
    toeplitz_from_density,
)

_BOUND_SLACK = 1e-9

#: distinct (theta, d) covariance roots kept per process by simulate_hetero_normal
_ROOT_CACHE_SIZE = 32

#: NB(1/pieces, p) draws summed per sufficiency draw
_NB_PIECES = 8


def _p_of(value: float) -> float:
    if value < 1.0:
        raise NotAdmissible(f"density value {value:.6g} below 1")
    return (value - 1.0) / (value + 1.0)


@dataclass(frozen=True)
class WhiteNoisePath:
    """Euler path of the signal-plus-white-noise model on [-pi, pi]."""

    grid: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        if self.cumulative[0] != 0.0:
            raise RangeError("cumulative path must start at 0")

    @functools.cached_property
    def increments(self) -> np.ndarray:
        return np.diff(self.cumulative)


@dataclass
class AuditRow:
    label: str
    n: int
    m: int
    value: float
    bound: float  # nan when the row has no bound
    passed: bool

    def as_csv(self) -> str:
        bound = "" if math.isnan(self.bound) else f"{self.bound!r}"
        return f"{self.label},{self.n},{self.m},{self.value!r},{bound},{self.passed}"


@dataclass
class AuditReport:
    """Rows of (label, n, m, value, bound, pass) plus run metadata."""

    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, label: str, n: int, m: int, value: float,
            bound: float = math.nan, slack: float = _BOUND_SLACK) -> AuditRow:
        passed = True if math.isnan(bound) else (value <= bound + slack)
        row = AuditRow(label, int(n), int(m), float(value), float(bound), passed)
        self.rows.append(row)
        return row

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def write_csv(self, fh: IO[str]):
        fh.write("label,n,m,value,bound,pass\n")
        for r in self.rows:
            fh.write(r.as_csv() + "\n")

    def to_json(self, no_timestamp: bool = True) -> dict:
        meta = dict(self.meta)
        if not no_timestamp:
            import datetime
            meta["written"] = datetime.datetime.now().isoformat()
        return {
            "meta": meta,
            "rows": [
                {"label": r.label, "n": r.n, "m": r.m, "value": r.value,
                 "bound": None if math.isnan(r.bound) else r.bound,
                 "pass": r.passed}
                for r in self.rows
            ],
        }


def simulate_geo_regression(a: SpectralDensity, n: int, variant: str,
                            rng: RngStream | np.random.Generator) -> np.ndarray:
    """n independent geometric draws indexed by cells or grid points.

    variant "averages": X_j ~ Geo(p(J_{j,n}(a))); variant "points":
    X_j ~ Geo(p(a(t_{j,n}))).
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    if variant == "averages":
        levels = local_averages(a, n)
    elif variant == "points":
        t, _ = grids(n, 1)
        levels = np.asarray(eval_density(a, t), dtype=float)
    else:
        raise RangeError(f"unknown variant {variant!r}")
    ps = np.array([_p_of(v) for v in levels])
    gen = as_generator(rng)
    # Geo(p) = failures before first success of probability 1-p
    return gen.geometric(1.0 - ps) - 1


def simulate_white_noise(a: SpectralDensity, n: int, L: int,
                         transform: str,
                         rng: RngStream | np.random.Generator,
                         a0: SpectralDensity | None = None,
                         noise_scale: float = 1.0) -> WhiteNoisePath:
    """Euler path of dY = drift(w) dw + noise dW on [-pi, pi] with L steps.

    transform "arccosh": drift = arccosh(a(w)), noise sd sqrt(2 pi / n);
    transform "local": drift = a(w), noise sd sqrt(2 pi / n) sqrt(a0(w)^2 - 1)
    with the localization center a0.  ``noise_scale`` = 0 recovers the
    deterministic drift quadrature.
    """
    if L < 64:
        raise RangeError("need L >= 64 grid steps")
    grid = np.linspace(-math.pi, math.pi, L + 1)
    w = grid[:-1]
    vals = np.asarray(eval_density(a, w), dtype=float)
    if np.any(vals <= 1.0) and transform == "arccosh":
        raise NotAdmissible("arccosh drift needs a > 1 on the grid")
    dt = TWO_PI / L
    if transform == "arccosh":
        drift = np.array([varstab_arccosh(v) for v in vals])
        sd = math.sqrt(TWO_PI / n) * np.ones(L)
    elif transform == "local":
        if a0 is None:
            raise RangeError("local transform needs the center density a0")
        center = np.asarray(eval_density(a0, w), dtype=float)
        if np.any(center <= 1.0):
            raise NotAdmissible("localization center must stay above 1")
        drift = vals
        sd = math.sqrt(TWO_PI / n) * np.sqrt(center ** 2 - 1.0)
    else:
        raise RangeError(f"unknown transform {transform!r}")
    gen = as_generator(rng)
    noise = gen.standard_normal(L) * sd * math.sqrt(dt) * noise_scale
    cumulative = np.concatenate([[0.0], np.cumsum(drift * dt + noise)])
    return WhiteNoisePath(grid=grid, cumulative=cumulative)


def simulate_hetero_normal(theta: np.ndarray, n: int, d: int,
                           rng: RngStream | np.random.Generator) -> np.ndarray:
    """One draw from N(theta, n^{-1} Phi_theta^{-1}).

    The factor of Phi_theta^{-1} is built once per process for each
    (values of theta, d).
    """
    theta = np.asarray(theta, dtype=float)
    root = _inverse_phi_root(theta.tobytes(), d)
    gen = as_generator(rng)
    return theta + (root @ gen.standard_normal(theta.size)) / math.sqrt(n)


@functools.lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _inverse_phi_root(theta: bytes, d: int) -> np.ndarray:
    """Read-only R with R R' = Phi^{-1}, from the eigensystem of Phi."""
    _, phi = phi_matrices(np.frombuffer(theta), d)
    lams, V = np.linalg.eigh(phi)
    root = V * (1.0 / np.sqrt(lams))
    root.setflags(write=False)
    return root


def _hellinger_sum(levels: np.ndarray, J: np.ndarray) -> float:
    """sum_j H^2(Geo(p(levels_j)), Geo(p(J_j)))."""
    return float(sum(
        hellinger_geo_exact_p(_p_of(x), _p_of(y)) for x, y in zip(levels, J)))


def nb_sufficiency_test(p: float, draws: int, stream: RngStream):
    """Chi-square two-sample test: sum of 8 NB(1/8, p) vs Geo(p).

    Returns (statistic, critical value at alpha = 0.001, p-value).  Bins are
    merged from the right until every expected count is at least 5; fewer
    than two bins left raises DegenerateSamples.
    """
    gen = stream.generator()
    sums = np.sum(nb_sample(1.0 / _NB_PIECES, p, gen, size=(draws, _NB_PIECES)), axis=1)
    geo = Geometric(p).sample(gen, size=draws)
    top = int(max(sums.max(), geo.max()))
    table = _merge_short_bins(np.vstack([np.bincount(sums, minlength=top + 1),
                                         np.bincount(geo, minlength=top + 1)]).astype(float))
    if table.shape[1] < 2:
        raise DegenerateSamples(
            f"{draws} draws at p = {p:g} leave fewer than two bins with 5 expected counts")
    return _pearson_2xk(table)


def _merge_short_bins(table: np.ndarray) -> np.ndarray:
    """Merge adjacent columns of a 2 x K count table until each has 5 expected counts.

    The rightmost short column joins its right neighbour when an adequate
    column lies to its left (the right-tail fold), else its left neighbour;
    so a run of short columns with nothing adequate to its left is grouped by
    itself.  Returns one column when even the total falls short.
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


def _pearson_2xk(table: np.ndarray):
    """(statistic, critical value at alpha = 0.001, p-value) of a 2 x K table.

    Pearson's sum over expected counts row sum x column sum / total, with
    Yates' correction when dof = 1; bit for bit what
    ``scipy.stats.chi2_contingency`` and ``chi2.ppf(1 - 0.001, dof)`` give.
    """
    from scipy.special import chdtrc, chdtri
    row_sums, col_sums = table.sum(axis=1, keepdims=True), table.sum(axis=0, keepdims=True)
    expected = row_sums * col_sums / table.sum()
    if np.any(expected == 0.0):
        raise RangeError("a bin of the 2 x K table is empty in both samples")
    dof = table.shape[1] - 1
    observed = table
    if dof == 1:
        # Yates' continuity correction, never past the expected count
        diff = expected - table
        observed = table + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    # 1 - (1 - alpha) is the tail mass chi2.ppf(1 - alpha) inverts; the
    # literal alpha, chdtri(dof, 0.001), differs in the last bit
    crit = float(chdtri(dof, 1.0 - (1.0 - 0.001)))
    # one column (dof = 0) is observed == expected, chi2 = 0 at p-value 1
    p_value = float(chdtrc(dof, chi2)) if dof else 1.0
    return chi2, crit, p_value


def audit_hellinger_chain(a: SpectralDensity, n_list: Sequence[int],
                          seed: int = 20240801) -> AuditReport:
    """Hellinger-sum decay audit over a ladder of odd sizes.

    Per n: (i) the circulant-grid vs cell-average geometric regression sum
    and (ii) the point vs cell-average sum, both exact.  One extra row runs
    the negative-binomial sufficiency two-sample test.  Pass requires both
    sums strictly decreasing along the ladder with final values below 0.05,
    and the chi-square below its 0.001 critical value.
    """
    ns = [int(n) for n in n_list]
    if any(n % 2 == 0 for n in ns):
        raise RangeError("audit sizes must be odd")
    report = AuditReport(meta={"density": a.label or "custom", "seed": seed,
                               "kind": "hellinger_chain"})
    sums_i, sums_ii = [], []
    for n in ns:
        J = local_averages(a, n)
        s1 = _hellinger_sum(eval_density(_truncated_density(a, n),
                                         fourier_frequencies(n)), J)
        s2 = _hellinger_sum(eval_density(a, grids(n, 1)[0]), J)
        sums_i.append(s1)
        sums_ii.append(s2)
        last = n == ns[-1]
        limit = 0.05 if last else math.nan
        report.add("hellinger_circulant_vs_avg", n, n, s1, limit)
        report.add("hellinger_points_vs_avg", n, n, s2, limit)
    def worst_ratio(seq):
        # exact zeros (constant density) count as trivially decreasing
        pairs = [(x, y) for x, y in zip(seq, seq[1:])]
        if not pairs:
            return 0.0
        return max((y / x if x > 0.0 else 0.0) for x, y in pairs)

    dec_i = worst_ratio(sums_i)
    dec_ii = worst_ratio(sums_ii)
    report.add("decay_ratio_circulant_vs_avg", ns[0], ns[-1], dec_i, 1.0, slack=-1e-12)
    report.add("decay_ratio_points_vs_avg", ns[0], ns[-1], dec_ii, 1.0, slack=-1e-12)
    p_mid = _p_of(eval_density(a, 0.0))
    chi2, crit, p_value = nb_sufficiency_test(p_mid, 50_000, RngStream(seed, 0))
    report.add("nb_sufficiency_chi2", ns[-1], _NB_PIECES, chi2, crit)
    report.meta["nb_sufficiency_p_value"] = p_value
    return report


def default_audit_m(n: int) -> int:
    """Default circulant size for the state audit: n + ceil(n^(1/3)), odd.

    The gap bound wants m - n large while m < 2(n - 1); a cube-root gap
    satisfies both comfortably at desk scale.
    """
    m = n + int(math.ceil(n ** (1.0 / 3.0)))
    if m % 2 == 0:
        m += 1
    if not n < m < 2 * (n - 1):
        raise RangeError(f"no valid default m for n = {n}")
    return m


def audit_state_approximation(a: SpectralDensity, n: int,
                              m_values: Sequence[int] | int | None = None,
                              alpha: float = 1.0,
                              M: float | None = None) -> AuditReport:
    """State-level audit of the circulant approximation at block sizes m.

    Per m: the squared HS symbol gap against its proven bound, the relative
    entropy between the Toeplitz state and the circulant-block state, and
    the Pinsker trace-distance bound sqrt(2 S) from that same S.  Every m
    is checked before the first entropy; the entropies are then taken in
    the order of ``m_values``, and A_n, shared by all of them, is
    diagonalized at most once.  With a ladder of m values the entropy must
    be nonincreasing as m - n grows, whatever order the ladder is given in.
    The gap, entropy and Pinsker rows keep the order of ``m_values``; the
    ``entropy_nonincreasing`` rows compare neighbours in ascending m, one
    row per step, at its larger m.  When ``m_values`` is omitted, m
    defaults to n + ceil(n^(1/3)) forced odd.
    """
    if m_values is None:
        m_values = default_audit_m(n)
    ms = [int(m_values)] if np.isscalar(m_values) else [int(m) for m in m_values]
    if M is None:
        _, M = sobolev_norm(a, alpha)
    report = AuditReport(meta={"density": a.label or "custom", "n": n,
                               "alpha": alpha, "M": M,
                               "kind": "state_approximation"})
    A_n = toeplitz_from_density(a, n)
    gaps = [toeplitz_circulant_gap(a, n, m, alpha, M) for m in ms]
    blocks = [circulant_block(a, m, n) for m in ms]
    entropies = [relative_entropy(A_n, block) for block in blocks]
    for m, (gap_sq, bound), S in zip(ms, gaps, entropies):
        report.add("symbol_gap_sq", n, m, gap_sq, bound)
        report.add("relative_entropy", n, m, S)
        report.add("pinsker_bound", n, m, math.sqrt(2.0 * S))
    ladder = sorted(zip(ms, entropies))
    for (_, s1), (m2, s2) in zip(ladder, ladder[1:]):
        report.add("entropy_nonincreasing", n, m2, s2, s1)
    return report
