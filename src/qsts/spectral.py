"""Spectral densities, parameter spaces and approximation operators.

A density is a real function a(w) on [-pi, pi] stored through finitely many
Fourier coefficients a_k with the Hermitian symmetry a_{-k} = conj(a_k),

    a(w) = sum_k a_k exp(i k w).

All L2 norms on [-pi, pi] carry the 1/(2 pi) weight; the convention is fixed
here once and used by every module.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import HermitianSymmetryViolation, InputError, RangeError

TWO_PI = 2.0 * math.pi

#: grid used for sup-norm reports
_SUP_GRID = 4096

#: distinct sizes whose Fourier frequencies are kept per process
_FREQUENCY_CACHE_SIZE = 32


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
    """

    kind: str
    M: float
    alpha: float = 0.0
    d: int = 0
    grid_size: int = 1024

    def __post_init__(self):
        if self.kind not in ("theta1", "theta2", "theta2prime"):
            raise InputError(f"unknown parameter space kind {self.kind!r}")
        # written so that NaN fails them too
        if not self.M > 1.0:
            raise RangeError("parameter space needs M > 1")
        if self.kind == "theta1" and not self.alpha > 0.0:
            raise RangeError("theta1 needs alpha > 0")
        if self.grid_size < 256:
            raise RangeError("membership grid must have at least 256 points")


def theta1_space(alpha: float, M: float, grid_size: int = 1024) -> ParameterSpace:
    return ParameterSpace("theta1", M=float(M), alpha=float(alpha), grid_size=grid_size)


def theta2_space(d: int, M: float, grid_size: int = 1024) -> ParameterSpace:
    return ParameterSpace("theta2", M=float(M), d=int(d), grid_size=grid_size)


def theta2prime_space(d: int, M: float, grid_size: int = 1024) -> ParameterSpace:
    return ParameterSpace("theta2prime", M=float(M), d=int(d), grid_size=grid_size)


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

    def __getitem__(self, j: int) -> float:
        if abs(j) > self.d:
            raise IndexError(j)
        return float(self.theta[j + self.d])

    def to_density(self, label: str = "") -> SpectralDensity:
        """a_0 = theta_0 and a_j = (theta_j - i theta_{-j}) / sqrt(2)."""
        d, s = self.d, math.sqrt(2.0)
        x, y = self.theta[d + 1:], self.theta[:d][::-1]
        c = np.empty(d + 1, dtype=complex)
        c[0] = self.theta[d]
        # Python's complex arithmetic for (x - 1j y) / s, spelled out so that
        # the signed zeros come out the same
        re, im = x - 0.0 * y, 0.0 - y
        c[1:].real = (re + 0.0 * im) / s
        c[1:].imag = (im - 0.0 * re) / s
        return SpectralDensity(c, label=label)

    @classmethod
    def from_density(cls, a: SpectralDensity, d: int | None = None) -> "RealParam":
        d = a.k_max if d is None else int(d)
        c = a.full_coeffs(d)[d:]
        th = np.empty(2 * d + 1)
        th[d] = c[0].real
        th[d + 1:] = math.sqrt(2.0) * c[1:].real
        th[:d] = (-math.sqrt(2.0) * c[1:].imag)[::-1]
        return cls(d, th)


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

    Scalars are reduced mod 2 pi first and return a float.
    """
    scalar = np.isscalar(omega)
    w = np.array([reduce_angle(float(omega))]) if scalar else omega
    out = psi_matrix(a.k_max, w) @ RealParam.from_density(a).theta
    return float(out[0]) if scalar else out


def density_grid(a: SpectralDensity, size: int = _SUP_GRID):
    """Values of a on ``size`` + 1 uniform points over [-pi, pi], both endpoints
    included; returns (omegas, values)."""
    w = np.linspace(-math.pi, math.pi, size + 1)
    return w, eval_density(a, w)


def density_min(a: SpectralDensity, grid_size: int = 1024):
    """Minimum of a over [-pi, pi]; exact for K_max <= 2, grid surrogate above.

    For K_max <= 2 the critical points solve a small polynomial in
    z = exp(i w), so the global minimum is found exactly; larger supports
    fall back to the grid (plus both endpoints).  Returns (min, argmin).
    """
    w, vals = density_grid(a, grid_size)
    i = int(np.argmin(vals))
    best_w, best = float(w[i]), float(vals[i])
    if a.k_max <= 2 and a.k_max >= 1:
        # a'(w) = 0 as polynomial: sum_k i k a_k z^k = 0, z on the unit circle.
        # Multiply by z^{k_max}: poly of degree 2 k_max in z.
        K = a.k_max
        full = a.full_coeffs()                     # indices -K..K
        ks = np.arange(-K, K + 1)
        poly = (1j * ks * full)[::-1]              # np.roots wants leading-first
        if np.any(np.abs(poly) > 0):
            roots = np.roots(poly)
            for z in roots:
                if abs(abs(z) - 1.0) < 1e-8:
                    wc = float(np.angle(z))
                    vc = float(eval_density(a, wc))
                    if vc < best:
                        best, best_w = vc, wc
    return best, best_w


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

    True iff the norm constraint holds and min a(w) >= 1 + 1/M - 1e-12,
    the minimum taken over the space's frequency grid (exactly for
    K_max <= 2).
    """
    slack = 1e-12
    if space.kind == "theta1":
        _, norm_sq = sobolev_norm(a, space.alpha)
        if norm_sq > space.M + slack:
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
        if norm_sq > space.M + slack:
            return MembershipWitness(False, "norm", math.nan, norm_sq, space.M)
    lower = 1.0 + 1.0 / space.M
    amin, at = density_min(a, space.grid_size)
    if amin < lower - slack:
        return MembershipWitness(False, "lower_bound", at, amin, lower)
    return MembershipWitness(True, "", math.nan, amin, lower)


def local_averages(a: SpectralDensity, n: int) -> np.ndarray:
    """Cell averages J_j = n int_{(j-1)/n}^{j/n} a(2 pi (x - 1/2)) dx, j = 1..n.

    Computed in closed form from the coefficients: the change of variables
    maps cell j to W_{j,n} = 2 pi ((j-1)/n - 1/2, j/n - 1/2) and
    int exp(i k w) dw has an elementary antiderivative.
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    j = np.arange(1, n + 1)
    w_lo = TWO_PI * ((j - 1) / n - 0.5)
    w_hi = TWO_PI * (j / n - 0.5)
    out = np.full(n, float(a.coeffs[0].real))
    for k in range(1, a.k_max + 1):
        ak = a.coeffs[k]
        integral = (np.exp(1j * k * w_hi) - np.exp(1j * k * w_lo)) / (1j * k)
        # k and -k contribute conjugate terms: 2 Re(a_k * integral)
        out = out + (n / TWO_PI) * 2.0 * (ak * integral).real
    return out


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
    """Keep lags |k| <= (m-1)/2; reports the sup-error on a 4096 grid."""
    kept = _truncated_density(a, m)
    w = np.linspace(-math.pi, math.pi, _SUP_GRID + 1)
    err = float(np.max(np.abs(eval_density(a, w) - eval_density(kept, w))))
    return TruncationResult(kept, err)


def grids(n: int, m: int):
    """Equidistant point grid t_{j,n} and Fourier frequency grid w_{j,m}.

    t_{j,n} = 2 pi (j/n - 1/2) for j = 1..n;
    w_{j,m} = 2 pi j / m for j = -(m-1)/2 .. (m-1)/2 (m odd).
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    if m < 1 or m % 2 == 0:
        raise RangeError("m must be odd and >= 1")
    t = TWO_PI * (np.arange(1, n + 1) / n - 0.5)
    half = (m - 1) // 2
    w = TWO_PI * np.arange(-half, half + 1) / m
    return t, w


def fourier_frequencies(m: int) -> np.ndarray:
    """w_{j,m} for j = -(m-1)/2 .. (m-1)/2; built once per m, read-only."""
    return _fourier_frequencies(m)


@functools.lru_cache(maxsize=_FREQUENCY_CACHE_SIZE)
def _fourier_frequencies(m: int) -> np.ndarray:
    w = grids(1, m)[1]
    w.setflags(write=False)
    return w


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
