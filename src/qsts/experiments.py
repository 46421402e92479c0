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

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .distributions import _nb_rates, geo_sample, hellinger_geo_exact
from .errors import DegenerateSamples, NotAdmissible, RangeError
from .estimators import phi_matrices
from .gaussian_states import relative_entropy
from .harness import _CHUNK_ROWS, _QUANTILE_STEPS, RngStream, _bracketed_newton
from .spectral import (
    SpectralDensity,
    TWO_PI,
    _on_grid,
    eval_density,
    local_averages,
    sobolev_norm,
)
from .toeplitz import (
    _gap_bound,
    _symbol_gap_sq,
    circulant_block,
    circulant_eigs,
    toeplitz_from_density,
)

_BOUND_SLACK = 1e-9

#: NB(1/pieces, p) draws summed per sufficiency draw
_NB_PIECES = 8

#: test level of the sufficiency chi-square; 1 - (1 - alpha) is the tail
#: mass that chi2.ppf(1 - alpha) inverts, one bit above the literal alpha
_CHI2_ALPHA = 0.001
_CHI2_TAIL = 1.0 - (1.0 - _CHI2_ALPHA)

#: the standard normal point with upper tail _CHI2_ALPHA, for the
#: Wilson-Hilferty start of the chi-square quantile
_Z_ALPHA = 3.090232306167813

#: the largest y in one factor e^{-y} of the chi-square tail; e^{-600} is normal
_EXP_PIECE = 600.0


def _admissible(values) -> np.ndarray:
    """Density values as floats; the first value below 1 is refused."""
    values = np.asarray(values, dtype=float)
    low = values < 1.0
    if low.any():
        raise NotAdmissible(f"density value {values.flat[np.argmax(low)]:.6g} below 1")
    return values


@dataclass(frozen=True)
class WhiteNoisePath:
    """Euler path of the signal-plus-white-noise model on [-pi, pi]."""

    grid: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        if self.cumulative[0] != 0.0:
            raise RangeError("cumulative path must start at 0")


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
                            rng: RngStream) -> np.ndarray:
    """n independent geometric draws indexed by cells or grid points.

    variant "averages": X_j ~ Geo(p(J_{j,n}(a))); variant "points":
    X_j ~ Geo(p(a(t_{j,n}))).
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    if variant == "averages":
        levels = local_averages(a, n)
    elif variant == "points":
        levels = _point_values(a, n)
    else:
        raise RangeError(f"unknown variant {variant!r}")
    return geo_sample(2.0 / (_admissible(levels) + 1.0), rng.generator())


def _point_values(a: SpectralDensity, n: int) -> np.ndarray:
    """a(t_{j,n}) on the point grid t_{j,n} = 2 pi (j/n - 1/2), j = 1..n, by ``_on_grid``."""
    return _on_grid(a.coeffs, n, 1.0 - n / 2)


def simulate_white_noise(a: SpectralDensity, n: int, L: int, transform: str,
                         rng: RngStream,
                         a0: SpectralDensity | None = None) -> WhiteNoisePath:
    """Euler path of dY = drift(w) dw + noise dW on [-pi, pi] with L steps.

    transform "arccosh": drift = arccosh(a(w)),
    noise sd sqrt(2 pi / n); transform "local": drift = a(w), noise sd
    sqrt(2 pi / n) sqrt(a0(w)^2 - 1) with the localization center a0.
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    if L < 64:
        raise RangeError("need L >= 64 grid steps")
    grid = np.linspace(-math.pi, math.pi, L + 1)
    vals = _on_grid(a.coeffs, L, -L / 2)
    if np.any(vals <= 1.0) and transform == "arccosh":
        raise NotAdmissible("arccosh drift needs a > 1 on the grid")
    dt = TWO_PI / L
    if transform == "arccosh":
        drift = np.arccosh(vals)
        sd = math.sqrt(TWO_PI / n) * np.ones(L)
    elif transform == "local":
        if a0 is None:
            raise RangeError("local transform needs the center density a0")
        center = _on_grid(a0.coeffs, L, -L / 2)
        if np.any(center <= 1.0):
            raise NotAdmissible("localization center must stay above 1")
        drift = vals
        sd = math.sqrt(TWO_PI / n) * np.sqrt(center - 1.0) * np.sqrt(center + 1.0)
    else:
        raise RangeError(f"unknown transform {transform!r}")
    noise = rng.generator().standard_normal(L) * sd * math.sqrt(dt)
    cumulative = np.concatenate([[0.0], np.cumsum(drift * dt + noise)])
    return WhiteNoisePath(grid=grid, cumulative=cumulative)


def simulate_hetero_normal(theta: np.ndarray, n: int, d: int,
                           rng: RngStream) -> np.ndarray:
    """One draw from N(theta, n^{-1} Phi_theta^{-1}).

    The factor R with R R' = Phi^{-1} comes from the eigensystem of Phi.
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    theta = np.asarray(theta, dtype=float)
    lams, V = np.linalg.eigh(phi_matrices(theta, d).phi)
    root = V * (1.0 / np.sqrt(lams))
    return theta + (root @ rng.generator().standard_normal(theta.size)) / math.sqrt(n)


def _hellinger_sum(levels: np.ndarray, J: np.ndarray) -> float:
    """sum_j H^2(Geo(p(levels_j)), Geo(p(J_j))), added in order j = 1, 2, ..."""
    pairs = _admissible(np.column_stack((levels, J)))
    return float(sum(hellinger_geo_exact(pairs[:, 0], pairs[:, 1]).tolist()))


def nb_sufficiency_test(p: float, draws: int, stream: RngStream):
    """Chi-square two-sample test: sum of 8 NB(1/8, p) vs Geo(p).

    Returns (statistic, critical value at alpha = 0.001, p-value).  Bins are
    merged from the right until every expected count is at least 5; fewer
    than two bins left raises DegenerateSamples.

    The draws x 8 Gamma rates of ``nb_sample`` are drawn and stored as one
    batch, and their Poisson draws are taken ``_CHUNK_ROWS`` rows at a time,
    each chunk summed into one int64 vector: numpy reads the stream one
    element at a time in C order, so these are the draws of one
    ``nb_sample`` call, without its second draws x 8 array.
    """
    if draws < 1:
        raise RangeError(f"sufficiency test needs draws >= 1, got {draws}")
    gen = stream.generator()
    lam = _nb_rates(1.0 / _NB_PIECES, p, gen, size=(draws, _NB_PIECES))
    sums = np.empty(draws, dtype=np.int64)
    for start in range(0, draws, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        np.sum(gen.poisson(lam[start:stop]), axis=1, out=sums[start:stop])
    del lam
    geo = geo_sample(1.0 - p, gen, size=draws)
    top = int(max(sums.max(), geo.max()))
    table = _merge_short_bins(np.vstack([np.bincount(sums, minlength=top + 1),
                                         np.bincount(geo, minlength=top + 1)]).astype(float))
    if table.shape[1] < 2:
        raise DegenerateSamples(
            f"{draws} draws at p = {p:g} leave fewer than two bins with 5 expected counts")
    return _pearson_2xk(table)


def _merge_short_bins(table: np.ndarray) -> np.ndarray:
    """Merge adjacent columns of a 2 x K count table until each has 5 expected counts.

    One right-to-left pass over the column sums, in prefix sums C:

    - the right tail folds left until it holds 5 expected counts, the
      shortest such suffix;
    - a short column with an adequate column to its left joins its right
      neighbour, so each group after the first adequate column f ends in
      an adequate column or in the tail;
    - the short columns left of f fold left in the shortest groups that
      hold 5 expected counts, and a short remainder at column 0 joins its
      right neighbour.

    Returns one column when even the total falls short.  Each group is
    summed by ``np.add.reduceat``, exactly, as the counts are integers.
    """
    cols = table.sum(axis=0)
    C = np.concatenate(([0.0], np.cumsum(cols))).tolist()
    if C[-1] / 2.0 < 5.0:
        return table.sum(axis=1, keepdims=True)
    t = bisect.bisect_right(C, C[-1] - 10.0) - 1
    adequate = np.flatnonzero(cols[:t] / 2.0 >= 5.0)
    starts = [int(adequate[0]) if adequate.size else t]
    while C[starts[-1]] / 2.0 >= 5.0:
        starts.append(bisect.bisect_right(C, C[starts[-1]] - 10.0) - 1)
    starts[-1] = 0
    return np.add.reduceat(table, np.concatenate((starts[::-1], adequate + 1)), axis=1)


def _pearson_2xk(table: np.ndarray):
    """(statistic, critical value at alpha = 0.001, p-value) of a 2 x K table.

    Pearson's sum over expected counts row sum x column sum / total, with
    Yates' correction when dof = 1; the statistic is bit for bit what
    ``scipy.stats.chi2_contingency`` gives, and the critical value and
    p-value come from the closed-form tail ``_chi2_sf``.
    """
    row_sums, col_sums = table.sum(axis=1, keepdims=True), table.sum(axis=0, keepdims=True)
    expected = row_sums * col_sums / table.sum()
    if np.any(expected == 0.0):
        raise RangeError("a bin of the 2 x K table is empty in both samples")
    dof = table.shape[1] - 1
    if dof == 0:
        # one column is observed == expected: chi2 = 0 at p-value 1, no critical value
        return 0.0, math.nan, 1.0
    observed = table
    if dof == 1:
        # Yates' continuity correction, never past the expected count
        diff = expected - table
        observed = table + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return chi2, _chi2_critical(dof), _chi2_sf(dof, chi2)


def _chi2_sf(dof: int, x: float) -> float:
    """Upper tail Q(dof, x) of the chi-square law with integer dof >= 1.

    The finite sums of Abramowitz & Stegun 26.4.4 and 26.4.5, with y = x/2:
    e^{-y} sum_{j < dof/2} y^j / j! for even dof, and erfc(sqrt y) +
    e^{-y} sum_{j < (dof-1)/2} y^{j+1/2} / Gamma(j + 3/2) for odd dof.
    Each term is the one before times y / (j + s), s = 0 or 1/2.  e^{-y}
    is applied in factors of at most e^{-_EXP_PIECE}: one on the first term,
    one on the running sum whenever a term passes 1e250, and the rest at
    the end.  The terms times e^{-y} sum to at most 1, so nothing overflows,
    and y less whole pieces is exact, so each factor costs one rounding.
    """
    y = 0.5 * x
    if y <= 0.0:
        return 1.0
    # Chernoff: Q <= exp(-(x - dof - dof log(x/dof)) / 2), here below the least double
    if x > dof and not x - dof * (1.0 + math.log(x / dof)) <= 1500.0:
        return 0.0
    odd = dof % 2
    head = math.erfc(math.sqrt(y)) if odd else 0.0
    if dof == 1:
        return head
    piece = min(y, _EXP_PIECE)
    owed = y - piece
    term = math.exp(-piece) * (2.0 * math.sqrt(y / math.pi) if odd else 1.0)
    total = term
    for j in range(1, dof // 2):
        term *= y / (j + 0.5 * odd)
        if term > 1e250:
            piece = min(owed, _EXP_PIECE)
            owed -= piece
            scale = math.exp(-piece)
            term *= scale
            total *= scale
        total += term
    while owed > 0.0 and total > 0.0:
        piece = min(owed, _EXP_PIECE)
        owed -= piece
        total *= math.exp(-piece)
    return head + total


def _chi2_critical(dof: int) -> float:
    """The x at which ``_chi2_sf(dof, x)`` equals _CHI2_TAIL, for dof >= 1.

    ``_bracketed_newton`` from the Wilson-Hilferty approximation, for at
    most _QUANTILE_STEPS steps; the slope of -Q is the chi-square density.
    """
    c = 2.0 / (9.0 * dof)
    x = dof * (1.0 - c + _Z_ALPHA * math.sqrt(c)) ** 3

    def excess(x):
        pdf = 0.5 * math.exp((0.5 * dof - 1.0) * math.log(0.5 * x) - 0.5 * x
                             - math.lgamma(0.5 * dof))
        return _chi2_sf(dof, x) - _CHI2_TAIL, pdf

    return _bracketed_newton(excess, x, _QUANTILE_STEPS,
                             f"chi-square critical value at dof {dof}")


def audit_hellinger_chain(a: SpectralDensity, n_list: Sequence[int],
                          seed: int = 20240801) -> AuditReport:
    """Hellinger-sum decay audit over a nonempty, strictly increasing ladder of odd sizes.

    Per n: (i) the circulant-grid vs cell-average geometric regression sum
    and (ii) the point vs cell-average sum, both exact.  One extra row runs
    the negative-binomial sufficiency two-sample test.  Pass requires both
    sums strictly decreasing along the ladder with final values below 0.05,
    and the chi-square below its 0.001 critical value.
    """
    ns = [int(n) for n in n_list]
    if any(n % 2 == 0 for n in ns):
        raise RangeError("audit sizes must be odd")
    if not ns or any(x >= y for x, y in zip(ns, ns[1:])):
        raise RangeError("audit sizes must be a nonempty, strictly increasing ladder")
    report = AuditReport(meta={"density": a.label or "custom", "seed": seed,
                               "kind": "hellinger_chain"})
    sums_i, sums_ii = [], []
    for n in ns:
        J = local_averages(a, n)
        s1 = _hellinger_sum(circulant_eigs(a, n), J)
        s2 = _hellinger_sum(_point_values(a, n), J)
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
    a_mid = _admissible(eval_density(a, 0.0))
    p_mid = (a_mid - 1.0) / (a_mid + 1.0)
    chi2, crit, p_value = nb_sufficiency_test(p_mid, 50_000, RngStream(seed, 0))
    report.add("nb_sufficiency_chi2", ns[-1], _NB_PIECES, chi2, crit)
    report.meta["nb_sufficiency_p_value"] = p_value
    return report


def default_audit_m(n: int) -> int:
    """Default circulant size for the state audit: n + ceil(n^(1/3)), odd.

    The gap bound wants m - n large while m < 2(n - 1); a cube-root gap
    satisfies both comfortably at desk scale.
    """
    if n < 1:
        raise RangeError("n must be >= 1")
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
    the Pinsker trace-distance bound sqrt(2 S) from that same S.  A_n and
    each circulant block are built once; the gap row of each m reads the
    same two symbols as its entropy (``toeplitz_circulant_gap`` builds its
    own pair and takes the same helper).  Every m is checked before the
    first entropy; the entropies are then taken in the order of
    ``m_values``, and A_n, shared by all of them, is diagonalized at most
    once.  With a ladder of m values the entropy must
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
    gaps, blocks = [], []
    for m in ms:
        bound = _gap_bound(n, m, alpha, M)
        block = circulant_block(a, m, n)
        blocks.append(block)
        gaps.append((_symbol_gap_sq(A_n, block, m), bound))
    entropies = [relative_entropy(A_n, block) for block in blocks]
    for m, (gap_sq, bound), S in zip(ms, gaps, entropies):
        report.add("symbol_gap_sq", n, m, gap_sq, bound)
        report.add("relative_entropy", n, m, S)
        report.add("pinsker_bound", n, m, math.sqrt(2.0 * S))
    ladder = sorted(zip(ms, entropies))
    for (_, s1), (m2, s2) in zip(ladder, ladder[1:]):
        report.add("entropy_nonincreasing", n, m2, s2, s1)
    return report
