"""Spectral densities, parameter spaces and approximation operators.

A density is a real function a(w) on [-pi, pi] stored through finitely many
Fourier coefficients a_k with the Hermitian symmetry a_{-k} = conj(a_k),

    a(w) = sum_k a_k exp(i k w).

All L2 norms on [-pi, pi] carry the 1/(2 pi) weight; the convention is fixed
here once and used by every module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import HermitianSymmetryViolation, InputError, NonConvergence, RangeError

TWO_PI = 2.0 * math.pi

#: membership's slack and largest grid; Taylor terms ((pi/8)^14/14! < 3e-17), Newton steps
_MEMBERSHIP_SLACK = 1e-12
_CERTIFY_GRID = 1 << 16
_TAYLOR_TERMS = 14
_NEWTON_STEPS = 50


def reduce_angle(omega: float) -> float:
    """Reduce an angle to [-pi, pi] with round-half-to-even; ties map to pi."""
    w = omega - TWO_PI * np.rint(omega / TWO_PI)
    if w == -math.pi:
        return math.pi
    return float(w)


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Finite Hermitian Fourier coefficient sequence.

    Parameters
    ----------
    coeffs : complex ndarray, shape (K_max + 1,)
        Coefficients a_0 .. a_{K_max}, all finite; negative lags are implied
        by a_{-k} = conj(a_k), so symmetry holds by construction.
    """

    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if c.size == 0:
            raise InputError("density needs at least the lag-0 coefficient")
        if not np.isfinite(c).all():
            raise InputError("density coefficients must be finite")
        if abs(c[0].imag) > 1e-12 * (1.0 + abs(c[0].real)):
            raise HermitianSymmetryViolation(
                f"a_0 must be real, got imaginary part {c[0].imag!r}"
            )
        c = c.copy()
        c[0] = c[0].real
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def _key(self) -> bytes:
        """What ``==`` and ``hash`` compare: the coefficient bytes (not the label)."""
        return self.coeffs.tobytes()

    def __eq__(self, other):
        if not isinstance(other, SpectralDensity):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coeff_map(cls, coeffs: Mapping[int, complex], label: str = "") -> "SpectralDensity":
        """Build from a map lag -> value, checking a_{-k} = conj(a_k).

        Lags may be given for either or both signs; when both are present
        they must be conjugate within 1e-12 or the construction is refused.
        """
        if not coeffs:
            raise InputError("empty coefficient map")
        kmax = max(abs(int(k)) for k in coeffs)
        out = np.zeros(kmax + 1, dtype=complex)
        seen = set()
        for k, v in coeffs.items():
            k = int(k)
            v = complex(v)
            pos, val = (k, v) if k >= 0 else (-k, np.conj(v))
            if pos in seen:
                if abs(out[pos] - val) > 1e-12 * (1.0 + abs(val)):
                    raise HermitianSymmetryViolation(
                        f"lags +-{pos} are not conjugate: {out[pos]!r} vs {val!r}"
                    )
            else:
                out[pos] = val
                seen.add(pos)
        return cls(out, label=label)

    @classmethod
    def constant(cls, a0: float, label: str = "") -> "SpectralDensity":
        return cls(np.array([float(a0)], dtype=complex), label=label or f"const:{a0:g}")

    @classmethod
    def cosine(cls, a0: float, a1: float, label: str = "") -> "SpectralDensity":
        """Density a(w) = a0 + a1 cos(w), i.e. coefficients (a0, a1/2)."""
        return cls(np.array([a0, a1 / 2.0], dtype=complex),
                   label=label or f"cos:{a0:g},{a1:g}")

    # -- basic queries -----------------------------------------------------

    @property
    def k_max(self) -> int:
        return self.coeffs.size - 1

    def coeff(self, k: int) -> complex:
        """Coefficient a_k for any integer lag (0 outside the support)."""
        k = int(k)
        if abs(k) > self.k_max:
            return 0.0 + 0.0j
        return complex(self.coeffs[k]) if k >= 0 else complex(np.conj(self.coeffs[-k]))

    def full_coeffs(self, k_max: int | None = None) -> np.ndarray:
        """Coefficients a_{-k_max} .. a_{k_max} as one array."""
        k_max = self.k_max if k_max is None else int(k_max)
        ks = np.arange(-k_max, k_max + 1)
        out = np.zeros(ks.size, dtype=complex)
        lim = min(k_max, self.k_max)
        out[k_max:k_max + lim + 1] = self.coeffs[:lim + 1]
        out[k_max - lim:k_max] = np.conj(self.coeffs[1:lim + 1][::-1])
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "K_max": self.k_max,
            "coeffs": [
                {"k": int(k), "re": float(c.real), "im": float(c.imag)}
                for k, c in enumerate(self.coeffs)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, label: str = "") -> "SpectralDensity":
        try:
            kmax = int(obj["K_max"])
            lags = [(int(e["k"]), complex(float(e["re"]), float(e["im"])))
                    for e in obj["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed density JSON: {exc}") from exc
        # as ``to_json`` writes it: each lag 0..K_max once, checked before allocating
        ks = sorted(k for k, _ in lags)
        if kmax != len(lags) - 1 or ks != list(range(len(lags))):
            raise InputError(f"density JSON with K_max = {kmax} must store each lag "
                             f"0..K_max exactly once, got lags {ks}")
        c = np.zeros(kmax + 1, dtype=complex)
        for k, v in lags:
            c[k] = v
        return cls(c, label=label)


class MembershipWitness(NamedTuple):
    """Outcome of a parameter-space membership test."""

    member: bool
    constraint: str      # "norm" or "lower_bound" or "support", "" if member
    location: float      # frequency of the violation when relevant
    value: float
    limit: float


@dataclass(frozen=True)
class ParameterSpace:
    """One of the three density classes used throughout.

    kind "theta1":      Sobolev ball of smoothness alpha, radius M, plus the
                        uniform lower bound a >= 1 + 1/M.
    kind "theta2":      band-limited to |k| <= d with sum |a_k|^2 <= M, plus
                        the same lower bound.
    kind "theta2prime": the same set seen through the real parameter theta
                        (the two norms coincide), used by the estimators.

    Each set is empty when (1 + 1/M)^2 > M, that is below M = 2.14790, and
    such an M is refused.
    """

    kind: str
    M: float
    alpha: float = 0.0
    d: int = 0

    def __post_init__(self):
        if self.kind not in ("theta1", "theta2", "theta2prime"):
            raise InputError(f"unknown parameter space kind {self.kind!r}")
        # written so that NaN fails them too
        if not self.M > 1.0:
            raise RangeError("parameter space needs M > 1")
        # a >= 1 + 1/M forces a_0 >= 1 + 1/M, and every kind bounds a_0^2 <= M
        if not (1.0 + 1.0 / self.M) ** 2 <= self.M:
            raise RangeError(
                f"parameter space is empty at M = {self.M!r}: it needs (1 + 1/M)^2 <= M, "
                "that is M >= 2.1478990357047874, the real root of M^3 - M^2 - 2M - 1")
        if self.kind == "theta1" and not self.alpha > 0.0:
            raise RangeError("theta1 needs alpha > 0")
        if self.d < 0:
            raise RangeError(f"parameter space needs d >= 0, got {self.d}")


def theta1_space(alpha: float, M: float) -> ParameterSpace:
    return ParameterSpace("theta1", M=float(M), alpha=float(alpha))


def theta2_space(d: int, M: float) -> ParameterSpace:
    return ParameterSpace("theta2", M=float(M), d=int(d))


def theta2prime_space(d: int, M: float) -> ParameterSpace:
    return ParameterSpace("theta2prime", M=float(M), d=int(d))


@dataclass(frozen=True)
class RealParam:
    """Real vector theta of length 2d+1 equivalent to a band-limited density.

    theta_0 = a_0, theta_j = sqrt(2) Re a_j, theta_{-j} = -sqrt(2) Im a_j.
    Stored as an array indexed j = -d..d (position j + d).
    """

    d: int
    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float).reshape(-1)
        if th.size != 2 * self.d + 1:
            raise InputError(f"theta must have length {2 * self.d + 1}, got {th.size}")
        th = th.copy()
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)

    def to_density(self, label: str = "") -> SpectralDensity:
        """a_0 = theta_0 and a_j = (theta_j - i theta_{-j}) / sqrt(2), by ``_theta_coeffs``."""
        return SpectralDensity(_theta_coeffs(self.theta), label=label)

    @classmethod
    def from_density(cls, a: SpectralDensity, d: int | None = None) -> "RealParam":
        d = a.k_max if d is None else int(d)
        c = a.full_coeffs(d)[d:]
        th = np.empty(2 * d + 1)
        th[d] = c[0].real
        th[d + 1:] = math.sqrt(2.0) * c[1:].real
        th[:d] = (-math.sqrt(2.0) * c[1:].imag)[::-1]
        return cls(d, th)


def _theta_coeffs(theta: np.ndarray) -> np.ndarray:
    """a_0 .. a_d of theta_{-d} .. theta_d: a_0 = theta_0, a_j = (theta_j - i theta_{-j}) / sqrt(2)."""
    d, s = theta.size // 2, math.sqrt(2.0)
    x, y = theta[d + 1:], theta[:d][::-1]
    c = np.empty(d + 1, dtype=complex)
    c[0] = theta[d]
    # Python's complex arithmetic for (x - 1j y) / s, spelled out so that
    # the signed zeros come out the same
    re, im = x - 0.0 * y, 0.0 - y
    c[1:].real = (re + 0.0 * im) / s
    c[1:].imag = (im - 0.0 * re) / s
    return c


def psi_matrix(d: int, omega) -> np.ndarray:
    """Design with columns psi_j(omega) for j = -d..d (column j + d) of the
    real orthonormal basis under the 1/(2 pi) inner product,

    psi_0 = 1, psi_j = sqrt(2) cos(j w), psi_{-j} = sqrt(2) sin(j w).
    """
    omega = np.asarray(omega, dtype=float).reshape(-1)
    jw = np.multiply.outer(omega, np.arange(1, d + 1))
    out = np.empty((omega.size, 2 * d + 1))
    out[:, d] = 1.0
    out[:, d + 1:] = math.sqrt(2.0) * np.cos(jw)
    out[:, :d] = (math.sqrt(2.0) * np.sin(jw))[:, ::-1]
    return out


def eval_density(a: SpectralDensity, omega) -> float | np.ndarray:
    """Evaluate a(w) as psi_matrix(K_max, w) @ theta, theta its real coordinates.

    For arbitrary points: a dense (points x (2 K_max + 1)) design.  Uniform grids
    go through ``_on_grid``, one FFT.  Scalars are reduced mod 2 pi first and
    return a float.
    """
    scalar = np.isscalar(omega)
    w = np.array([reduce_angle(float(omega))]) if scalar else omega
    out = psi_matrix(a.k_max, w) @ RealParam.from_density(a).theta
    return float(out[0]) if scalar else out


def _grid_size(k_max: int) -> int:
    """The smallest power of two G >= 8 (K_max + 1), the grid of a density's minimum."""
    return 1 << (8 * k_max + 7).bit_length()


#: the largest grid of ``_halving`` (then NonConvergence)
_GRID_CAP = 1 << 20


def _on_grid(lags: np.ndarray, G: int, start: float = 0.0) -> np.ndarray:
    """p(2 pi (j + start) / G), j < G, for each row a_0 .. a_K of ``lags``, by one FFT.

    The grid starts at w0 = 2 pi start / G, so the lags become a_k exp(i k w0); for
    ``start`` a multiple of 1/2, k start mod G is exact and each phase rounds once.
    hfft reads only the lags 0 .. G/2, so lags at or past G/2 are first folded onto
    k mod G, which is exact for the samples.
    """
    K = lags.shape[-1] - 1
    if start:
        lags = lags * np.exp(1j * TWO_PI / G * np.remainder(np.arange(K + 1) * start, G))
    if 2 * K >= G:
        full = np.concatenate((np.conj(lags[..., :0:-1]), lags), axis=-1)   # k = -K .. K
        pad = [(0, 0)] * (full.ndim - 1) + [(0, -full.shape[-1] % G)]
        rows = np.pad(full, pad).reshape(full.shape[:-1] + (-1, G)).sum(axis=-2)
        lags = np.roll(rows, -K, axis=-1)[..., :G // 2 + 1]   # bin m: the lags k = m mod G
    return np.fft.hfft(np.conj(lags), G)


def _halving(rule, G: int, what: str):
    """(value, G): the periodic trapezoid rule ``rule`` on the first of G, 2G, ... that converged.

    rule(G) returns (value, gap, rounding), with gap how far the rule on the even G/2
    samples lies from the rule on all G, and rounding what the samples' rounding
    alone may move it.  G doubles while gap > rounding; past _GRID_CAP it raises
    NonConvergence naming the G reached.  The rule converges geometrically for an
    analytic integrand (Trefethen and Weideman, SIAM Review 56, 2014), so the value
    on G is far closer than gap.
    """
    while True:
        value, gap, rounding = rule(G)
        if gap <= rounding:
            return value, G
        if G >= _GRID_CAP:
            raise NonConvergence(f"{what} not converged on G = {G} points")
        G *= 2


def _grid_slack(mags: np.ndarray, G: int) -> tuple[float, float]:
    """(curvature, allowance): how far min p may lie below p's minimum on G uniform points.

    ``mags`` (k = -K..K) bounds sum k^2 |a_k| and sum |a_k|.  p' vanishes at the
    minimizer, within pi/G of a grid point, and |p''| <= sum k^2 |a_k|, hence
    curvature = (pi/G)^2/2 sum k^2 |a_k|.  allowance = 4 (K + 1 + log2 G) eps
    sum |a_k| covers the rounding of p and an eigensolve's backward error.
    """
    K = mags.size // 2
    return ((math.pi / G) ** 2 / 2.0 * float(np.arange(-K, K + 1.0) ** 2 @ mags),
            _allowance(float(mags.sum()), K, G))


def _allowance(total: float, K: int, G: int) -> float:
    """``_grid_slack``'s allowance 4 (K + 1 + log2 G) eps total, for total = sum |a_k|."""
    return 4.0 * (K + 1 + math.log2(G)) * 2.0 ** -52 * total


def _certified_min(full: np.ndarray, G: int) -> tuple[float, float, float]:
    """(lower, value, location): the minimum of p for lags ``full`` = a_{-K} .. a_K.

    G >= 8 (K + 1) is a power of two, h = 2 pi / G and w = (j + t) h.  Cell j,
    |t| <= 1/2, is bounded by p(w_j) less ``_grid_slack``; only cells bounded
    below the grid minimum can hold the minimizer.  In each, Newton on p' = 0
    runs from t = 0, kept in the cell, with p and its t-derivatives summed from
    _TAYLOR_TERMS terms of their Taylor series (|k h t| <= pi/8).  ``value`` is
    the lowest p found, ``location`` its w in [-pi, pi], and ``lower`` the least
    cell bound, where a cell with p'' > 0 throughout (p''(w_j) >
    (h/2) sum |k|^3 |a_k|) may take its tangent there less the allowance.
    """
    K, h = full.size // 2, TWO_PI / G
    ks, mags, T = np.arange(-K, K + 1), np.abs(full), _TAYLOR_TERMS
    orders = np.arange(T + 2)
    curvature, allowance = _grid_slack(mags, G)
    derivs = _on_grid(full[K:] * (1j * h * ks[K:]) ** orders[:, None], G)   # h^r p^(r)(w_j)
    bound = derivs[0] - curvature - allowance
    cells = np.flatnonzero(~(bound > derivs[0].min()))
    Dc = derivs[:, cells].T
    # h^(r + s) p^(r + s)(w_j) / r! for p and its first two t-derivatives (s = 0, 1, 2)
    taylor = np.stack((Dc[:, :T], Dc[:, 1:T + 1], Dc[:, 2:]), axis=1) / np.cumprod(
        np.maximum(orders[:T], 1))
    (v, d1, d2), t = Dc[:, :3].T, np.zeros(cells.size)
    for _ in range(_NEWTON_STEPS):
        step = np.divide(-d1, d2, out=-np.sign(d1), where=d2 > 0.0)
        nxt = np.minimum(np.maximum(t + step, -0.5), 0.5)
        if np.abs(nxt - t).max() <= 1e-10:
            break
        t = nxt
        v, d1, d2 = (taylor @ (t[:, None] ** orders[:T])[..., None])[..., 0].T
    v, t, d1 = np.where(v <= Dc[:, 0], (v, t, d1), (Dc[:, 0], 0.0 * t, Dc[:, 1]))
    convex = Dc[:, 2] > h ** 3 / 2 * float(np.abs(ks) ** 3 @ mags)
    tangent = v - np.abs(d1) * (0.5 + np.sign(d1) * t) - allowance
    i = int(np.argmin(v))
    return (float(np.min(np.where(convex, np.maximum(bound[cells], tangent), bound[cells]))),
            float(v[i]), reduce_angle(h * (cells[i] + t[i])))


def density_min(a: SpectralDensity):
    """(min, argmin) of a over [-pi, pi], by ``_certified_min`` on _grid_size(K_max) points."""
    _, amin, at = _certified_min(a.full_coeffs(), _grid_size(a.k_max))
    return amin, at


def sobolev_norm(a: SpectralDensity, alpha: float):
    """Sobolev seminorm and norm squared.

    seminorm_sq = sum_{k != 0} |k|^{2 alpha} |a_k|^2  (both signs of k),
    norm_sq = a_0^2 + seminorm_sq.
    """
    if alpha <= 0:
        raise RangeError("alpha must be positive")
    ks = np.arange(1, a.k_max + 1, dtype=float)
    semi = 2.0 * float(np.sum(ks ** (2.0 * alpha) * np.abs(a.coeffs[1:]) ** 2))
    return semi, float(a.coeffs[0].real) ** 2 + semi


def membership(a: SpectralDensity, space: ParameterSpace) -> MembershipWitness:
    """Test membership of a density in a parameter space, with witness.

    True iff the norm constraint holds and min a(w) >= 1 + 1/M - _MEMBERSHIP_SLACK: a value
    ``_certified_min`` attains below that rejects, at its location; a lower bound
    at or above it accepts; else its grid doubles, to _CERTIFY_GRID, then NonConvergence.
    """
    if space.kind == "theta1":
        _, norm_sq = sobolev_norm(a, space.alpha)
        if norm_sq > space.M + _MEMBERSHIP_SLACK:
            return MembershipWitness(False, "norm", math.nan, norm_sq, space.M)
    else:
        if a.k_max > space.d:
            extra = np.abs(a.coeffs[space.d + 1:])
            if np.any(extra > 1e-12):
                k_bad = space.d + 1 + int(np.argmax(extra > 1e-12))
                return MembershipWitness(False, "support", float(k_bad),
                                         float(np.max(extra)), 0.0)
        norm_sq = float(a.coeffs[0].real) ** 2 + 2.0 * float(
            np.sum(np.abs(a.coeffs[1:space.d + 1]) ** 2))
        if norm_sq > space.M + _MEMBERSHIP_SLACK:
            return MembershipWitness(False, "norm", math.nan, norm_sq, space.M)
    floor = 1.0 + 1.0 / space.M
    full, G = a.full_coeffs(), _grid_size(a.k_max)
    while True:
        lower, amin, at = _certified_min(full, G)
        if amin < floor - _MEMBERSHIP_SLACK:
            return MembershipWitness(False, "lower_bound", at, amin, floor)
        if lower >= floor - _MEMBERSHIP_SLACK:
            return MembershipWitness(True, "", math.nan, amin, floor)
        if G >= _CERTIFY_GRID:
            raise NonConvergence(f"min a = {amin!r} not certified above {floor!r} on {G} points")
        G *= 2


def local_averages(a: SpectralDensity, n: int) -> np.ndarray:
    """Cell averages J_j = n int_{(j-1)/n}^{j/n} a(2 pi (x - 1/2)) dx, j = 1..n.

    Computed in closed form from the coefficients: the change of variables
    maps cell j to W_{j,n} = 2 pi ((j-1)/n - 1/2, j/n - 1/2), and the mean of
    exp(i k w) over a cell is exp(i k c) sinc(pi k / n) at its centre c.  So J
    is the density of lags a_k sinc(pi k / n) at the n cell centres
    -pi + pi/n + 2 pi (j - 1)/n, one ``_on_grid`` call.
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    return _on_grid(a.coeffs * np.sinc(np.arange(a.k_max + 1) / n), n, 0.5 - n / 2)


class TruncationResult(NamedTuple):
    density: SpectralDensity
    sup_error: float


def _truncated_density(a: SpectralDensity, m: int) -> SpectralDensity:
    """The lags |k| <= (m-1)/2 of a, for odd m >= 1."""
    if m < 1 or m % 2 == 0:
        raise RangeError("m must be odd and >= 1")
    half = (m - 1) // 2
    return SpectralDensity(a.coeffs[:min(half, a.k_max) + 1].copy(), label=a.label)


def fourier_truncate(a: SpectralDensity, m: int) -> TruncationResult:
    """Keep lags |k| <= (m-1)/2; sup_error = sup |tail| of the dropped lags, the larger
    of -``density_min`` of +-tail, as ``eigen_bracket_check`` takes sup a."""
    kept = _truncated_density(a, m)
    tail = a.coeffs.copy()
    tail[:kept.k_max + 1] = 0.0
    err = max(0.0, *(-density_min(SpectralDensity(s * tail))[0] for s in (1.0, -1.0)))
    return TruncationResult(kept, err)


def fourier_frequencies(m: int) -> np.ndarray:
    """w_{j,m} = 2 pi j / m for j = -(m-1)/2 .. (m-1)/2 (m odd)."""
    if m < 1 or m % 2 == 0:
        raise RangeError("m must be odd and >= 1")
    half = (m - 1) // 2
    return TWO_PI * np.arange(-half, half + 1) / m


def parse_density(text: str) -> SpectralDensity:
    """Parse the CLI shorthand: ``const:<v>``, ``cos:<a0>,<a1>`` or a JSON path."""
    if text.startswith("const:"):
        return SpectralDensity.constant(float(text[6:]))
    if text.startswith("cos:"):
        parts = text[4:].split(",")
        if len(parts) != 2:
            raise InputError(f"cos density wants two numbers, got {text!r}")
        return SpectralDensity.cosine(float(parts[0]), float(parts[1]))
    try:
        with open(text) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read density {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid density JSON in {text!r}: {exc}") from exc
    return SpectralDensity.from_json(obj, label=text)
