"""Parameter estimators for band-limited densities and their design matrices.

The averaged observable Pi_bar of a blocked measurement has mean
m^{1/2} W F^{-1} theta, with W the real trigonometric design psi_matrix over
the Fourier frequencies scaled by m^{-1/2}.  This makes theta estimable by
orthogonality (preliminary estimator) or by weighted least squares with the
inverse variance weights Delta(theta)^{-1} (improved estimator); the
one-step estimator applies the latter at the projected preliminary value.
Both reproduce theta exactly when fed the analytic mean.  The projection keeps
a feasible input (by its lag bound, else the grid, else ``membership``), else
adds one violated half-space per step of a dual active-set loop (a floor row
on the grid, a tangent cut of the ball, or the floor row where ``density_min``
finds a miss) until ``membership`` certifies the result.  The nonparametric
estimate is the preliminary estimator at full length n, and the complex
coefficients of its density are the unbiased symbol-coefficient estimates.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    NonConvergence,
    NotAdmissible,
    RangeError,
    SingularSystem,
)
from .spectral import (
    RealParam,
    ParameterSpace,
    TWO_PI,
    _allowance,
    _certified_min,
    _grid_size,
    _grid_slack,
    _halving,
    _on_grid,
    density_min,
    fourier_frequencies,
    membership,
    psi_matrix,
)

#: distinct (m, d) block designs, and (d, grid_size) designs of the
#: projection's uniform grid, kept per process
_DESIGN_CACHE_SIZE = 32

#: the projection's tolerance, how many rows its active-set loop may add
#: (then NonConvergence), and the uniform grid that enforces a >= 1 + 1/M
_PROJECTION_TOL = 1e-10
_PROJECTION_STEPS = 256
_PROJECTION_GRID = 512


class DesignMatrices(NamedTuple):
    """W (m x (2d+1), orthonormal columns), F and Delta (diagonals)."""

    W: np.ndarray
    F: np.ndarray
    Delta: np.ndarray


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _design(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, F) of block size m and bandwidth d, read-only: W = psi over the Fourier
    frequencies / sqrt(m), and F = m / (m - |j|), j = -d..d."""
    if m % 2 == 0:
        raise DimensionError("design needs odd m")
    if d < 0:
        raise DimensionError(f"design needs d >= 0, got {d}")
    if 2 * d + 1 > m:
        raise DimensionError(f"2d+1 = {2 * d + 1} exceeds m = {m}")
    W = psi_matrix(d, fourier_frequencies(m)) / math.sqrt(m)
    F = m / (m - np.abs(np.arange(-d, d + 1)))
    W.setflags(write=False)
    F.setflags(write=False)
    return W, F


def design_matrices(m: int, d: int, theta: np.ndarray) -> DesignMatrices:
    """Design matrices at block size m for a parameter theta.

    W and F are built once per (m, d) in the process and are read-only.
    Delta is the diagonal a_theta^2(w_{j,m}) - 1 over the Fourier
    frequencies; its minimum must be positive (so no entry is NaN) or the
    parameter is inadmissible.
    """
    W, F = _design(m, d)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != 2 * d + 1:
        raise DimensionError(f"theta must have length {2 * d + 1}")
    Delta = (math.sqrt(m) * (W @ theta)) ** 2 - 1.0
    if not Delta.min() > 0.0:           # NaN propagates through min
        raise NotAdmissible("a_theta^2 - 1 must be positive at all frequencies")
    return DesignMatrices(W, F, Delta)


def preliminary_estimator(pi_bar: np.ndarray, m: int, d: int) -> np.ndarray:
    """theta_hat = m^{-1/2} F W' pi_bar."""
    pi_bar = np.asarray(pi_bar, dtype=float).reshape(-1)
    if pi_bar.size != m:
        raise DimensionError(f"pi_bar must have length m = {m}")
    W, F = _design(m, d)
    return F * (W.T @ pi_bar) / math.sqrt(m)


def weighted_estimator(pi_bar: np.ndarray, delta: np.ndarray,
                       m: int, d: int) -> np.ndarray:
    """m^{-1/2} F (W' D^{-1} W)^{-1} W' D^{-1} pi_bar for a given diagonal D.

    Scale invariant in D by construction (the weights enter both the normal
    matrix and the right-hand side); the small system is solved, never
    inverted.  The SPD normal matrix is refused where its condition number
    lambda_max / lambda_min exceeds 1e12 or lambda_min <= 0, as is a non-finite
    weight.  W has orthonormal columns, so that number is at most max delta /
    min delta: one min and one max of delta (which NaN and +-inf reach) serve
    every check, and where min delta > 0 and that ratio is at most 1e9, no
    eigenvalue is computed.
    """
    pi_bar = np.asarray(pi_bar, dtype=float).reshape(-1)
    delta = np.asarray(delta, dtype=float).reshape(-1)
    if pi_bar.size != m or delta.size != m:
        raise DimensionError(f"pi_bar and delta must have length m = {m}")
    lo, hi = float(delta.min()), float(delta.max())   # NaN propagates through both
    if not -math.inf < lo <= hi < math.inf:
        raise SingularSystem("weights delta must all be finite")
    W, F = _design(m, d)
    Winv = W / delta[:, None]
    G = W.T @ Winv                       # W' Delta^{-1} W, symmetric PD
    if not (lo > 0.0 and hi <= 1e9 * lo):
        lams = np.linalg.eigvalsh(G)
        if lams[0] <= 0.0 or lams[-1] / lams[0] > 1e12:
            raise SingularSystem("weighted normal equations are too ill-conditioned")
    sol = np.linalg.solve(G, Winv.T @ pi_bar)
    return F * sol / math.sqrt(m)


def improved_estimator(pi_bar: np.ndarray, theta_bar: np.ndarray,
                       m: int, d: int) -> np.ndarray:
    """One-step weighted estimator with D = Delta(theta_bar),

    theta_tilde = m^{-1/2} F (W' D^{-1} W)^{-1} W' D^{-1} pi_bar.
    """
    _, _, Delta = design_matrices(m, d, theta_bar)
    return weighted_estimator(pi_bar, Delta, m, d)


def onestep_estimator(pi_bar: np.ndarray, m: int, d: int,
                      space: ParameterSpace) -> np.ndarray:
    """Weighted estimator at the projected preliminary estimate."""
    projected = project_theta(preliminary_estimator(pi_bar, m, d), space)
    return improved_estimator(pi_bar, projected, m, d)


def exact_pi_bar_mean(theta: np.ndarray, m: int) -> np.ndarray:
    """Analytic mean of the averaged observable, m^{1/2} W F^{-1} theta."""
    theta = np.asarray(theta, dtype=float)
    d = (theta.size - 1) // 2
    W, F = _design(m, d)
    return math.sqrt(m) * (W @ (theta / F))


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _grid_design(d: int, grid_size: int) -> np.ndarray:
    """psi design over the uniform grid -pi + 2 pi g / grid_size (read-only)."""
    C = psi_matrix(d, -math.pi + TWO_PI * np.arange(grid_size) / grid_size)
    C.setflags(write=False)
    return C


def _admissible(x: np.ndarray, space: ParameterSpace) -> bool:
    """Whether ``membership`` accepts theta = x, asked only when neither bound can tell.

    The lag bound theta_0 - sqrt(2) sum_j hypot(theta_j, theta_{-j}) <= a_theta, else
    (sampled only then) the grid minimum less ``_grid_slack``, accepts inside the ball once
    it clears the floor by sqrt(2) times the allowance of |theta_j| (which bounds that of
    the |a_j|).  A grid minimum below the floor's 1e-12 slack by the allowance rejects.
    """
    t, d, floor, G = x.tolist(), (x.size - 1) // 2, 1.0 + 1.0 / space.M, _PROJECTION_GRID
    inside, allowance = x @ x <= space.M, _allowance(sum(map(abs, t)), d, G)
    lag_bound = t[d] - math.sqrt(2.0) * sum(map(math.hypot, t[d + 1:], t[:d][::-1]))
    if inside and lag_bound - math.sqrt(2.0) * allowance >= floor:
        return True
    low, curvature = float((_grid_design(d, G) @ x).min()), _grid_slack(np.abs(x), G)[0]
    if inside and low - math.sqrt(2.0) * (curvature + allowance) >= floor:
        return True
    if low < floor - 1e-12 - math.sqrt(2.0) * allowance:
        return False
    try:
        return membership(RealParam(d, x).to_density(), space).member
    except NonConvergence:   # undecided is not certified feasible: x is projected
        return False


def _add_row(v: np.ndarray, N: np.ndarray, u: np.ndarray, c: np.ndarray, b: float):
    """One Goldfarb-Idnani step (identity Hessian) that makes c v >= b hold and active.

    v - x = N' u with multipliers u >= 0 makes v the projection of x onto the
    active rows N.  The entering row moves v along z, c minus its projection
    onto the active rows, while u falls by r, c's coefficients in them; an
    active row whose multiplier would turn negative first leaves.  Returns
    (v, N, u) once c v = b.
    """
    entering = 0.0
    while True:
        Q, R = np.linalg.qr(N.T)
        r = np.linalg.solve(R, Q.T @ c) if len(N) else u
        z = c - Q @ (Q.T @ c)
        zz = float(z @ z)
        full = (b - float(c @ v)) / zz if zz > 1e-20 * float(c @ c) else math.inf
        ratios = np.divide(u, r, out=np.full(len(u), math.inf), where=r > 0.0)
        k = int(np.argmin(np.append(full, ratios))) - 1   # -1: the full step
        t = full if k < 0 else float(ratios[k])
        if t == math.inf:
            raise NonConvergence("half-space family is numerically infeasible")
        v = v + t * z if full < math.inf else v
        u, entering = np.maximum(u - t * r, 0.0), entering + t
        if k < 0:
            return v, np.vstack([N, c]), np.append(u, entering)
        N, u = np.delete(N, k, axis=0), np.delete(u, k)


def project_theta(theta_hat: np.ndarray, space: ParameterSpace) -> np.ndarray:
    """Euclidean projection onto the admissible parameter set.

    The set is {||theta||^2 <= M} and a_theta >= 1 + 1/M, the radius
    shortened and the floor raised by _PROJECTION_TOL (as a distance: every
    psi row has norm sqrt(2d+1)).  One dual active-set loop (Goldfarb and
    Idnani, Math. Programming 27, 1983) starts at v = theta_hat and adds one
    violated row per ``_add_row``: the most violated floor row of the grid,
    else the ball's tangent cut at v, else the floor row where ``density_min``
    finds a_v below the floor.  It returns v once that minimum clears the floor
    and ``membership`` accepts v, and raises NonConvergence past
    _PROJECTION_STEPS rows.  Every row holds the
    shrunken set, so v is never farther from theta_hat than its projection
    onto that set.  A row that leaves needs no memory: grid rows are checked
    at every step, a violated old cut means ||v|| > radius, and
    ``density_min`` finds a missed witness again.  Feasible input, by the lag
    bound, else the grid, else ``membership`` (``_admissible``), is returned unchanged.
    """
    if space.kind != "theta2prime":
        raise RangeError("projection is defined for theta2prime spaces")
    x = np.asarray(theta_hat, dtype=float).reshape(-1).copy()
    if x.size % 2 == 0:
        raise DimensionError("theta must have odd length 2d + 1")
    if _admissible(x, space):
        return x
    d = (x.size - 1) // 2
    C = _grid_design(d, _PROJECTION_GRID)
    radius = math.sqrt(space.M) - _PROJECTION_TOL
    target = 1.0 + 1.0 / space.M + _PROJECTION_TOL * math.sqrt(2 * d + 1)
    v, N, u = x, np.empty((0, x.size)), np.empty(0)
    for added in range(_PROJECTION_STEPS + 1):
        gaps = C @ v - target
        g = int(np.argmin(gaps))
        nrm = float(np.linalg.norm(v))
        # a floor row's rounding grows with ||v||, so far outside the ball it
        # needs a wider margin to count as violated
        if gaps[g] < -0.5 * _PROJECTION_TOL * math.sqrt(2 * d + 1) * max(1.0, nrm / radius):
            row, b, kind = C[g], target, "floor grid row"
        elif nrm > radius + 0.5 * _PROJECTION_TOL:
            row, b, kind = -v / nrm, -radius, "tangent cut of the ball"
        else:
            a = RealParam(d, v).to_density()
            amin, at = density_min(a)   # at or above the floor, membership has 1e-12 to certify
            if amin >= 1.0 + 1.0 / space.M and membership(a, space).member:
                return v
            row, b, kind = psi_matrix(d, at)[0], target, "witness row"
        if added == _PROJECTION_STEPS:
            raise NonConvergence(f"projection not admissible after _PROJECTION_STEPS = "
                                 f"{added} added rows; next would be a {kind}")
        v, N, u = _add_row(v, N, u, row, b)


class FisherMatrices(NamedTuple):
    """Limit covariance phi0 of the plain estimator and the information phi."""

    phi0: np.ndarray
    phi: np.ndarray


def _fisher_from_lags(c: np.ndarray, d: int) -> np.ndarray:
    """(1/2 pi) int f psi_j psi_k dw from the lags c_l = (1/2 pi) int f e^{-ilw} dw.

    Row i of ``c`` holds the lags l = -2d..2d of a weight f, and slice i of the
    result its matrix.  F_l = Re c_l and S_l = -Im c_l are f's cosine and sine
    moments (F even, S odd), and the products of the psi turn into Toeplitz
    (k - j) plus Hankel (j + k) terms: 2 cos(jw) cos(kw) -> F_{k-j} + F_{j+k},
    2 sin(jw) sin(kw) -> F_{k-j} - F_{j+k} and 2 cos(jw) sin(kw) -> S_{k-j} +
    S_{j+k}.  Each gather is added into place, so at most one is held at a time.
    """
    F, S = c.real, -c.imag
    j = np.arange(d + 1)
    toe, han = j - j[:, None] + 2 * d, j + j[:, None] + 2 * d
    out = np.empty((len(c), 2 * d + 1, 2 * d + 1))
    # rows and columns d + j hold cos(jw), d - j sin(jw); psi_0 = cos(0w) is
    # 2 cos(0w) / sqrt(2) in these rules, hence its row and column / sqrt(2)
    cos_cos, sin_sin = out[:, d:, d:], out[:, :d, :d][:, ::-1, ::-1]
    cos_sin = out[:, d:, :d][:, :, ::-1]
    cos_cos[...] = F.take(toe, axis=-1)
    sin_sin[...] = cos_cos[:, 1:, 1:]
    hankel = F.take(han, axis=-1)
    cos_cos += hankel
    sin_sin -= hankel[:, 1:, 1:]
    del hankel
    cos_sin[...] = S.take(toe[:, 1:], axis=-1)
    cos_sin += S.take(han[:, 1:], axis=-1)
    out[:, :d, d:] = out[:, d:, :d].transpose(0, 2, 1)
    out[:, d] *= math.sqrt(0.5)
    out[:, :, d] *= math.sqrt(0.5)
    return out


def phi_matrices(theta: np.ndarray, d: int) -> FisherMatrices:
    """Limit matrices of the estimators,

    phi0_jk = (1/2 pi) int (a_theta^2 - 1) psi_j psi_k dw,
    phi_jk  = (1/2 pi) int (a_theta^2 - 1)^{-1} psi_j psi_k dw,

    assembled by ``_fisher_from_lags`` from the lags 0..2d of w = a_theta^2 - 1
    and 1/w, which one rfft of their samples on G points gives (the periodic
    trapezoid rule).  On the first grid, G = _grid_size(2d) >= 8 (2d + 1),
    a_theta > 1 is decided by its minimum less ``_grid_slack``, else by
    ``_certified_min`` (else NotAdmissible), and w's lags are exact.  G is
    sized by ``_halving``: the lags G/2 - 2d .. G/2 of 1/w are how far the
    rule on the even G/2 samples lies from the rule on all G at lags 0..2d,
    and the samples' rounding is the mean of 2 a_j / w_j^2 (the change of
    1/w_j per unit of a_j) times the ``_grid_slack`` allowance of a, plus
    4 log2(G) eps max 1/w for the rfft.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != 2 * d + 1:
        raise DimensionError(f"theta must have length {2 * d + 1}")
    if not np.all(np.isfinite(theta)):
        raise NotAdmissible("theta must be finite for the phi matrices")
    # a_0 .. a_d of a_theta by RealParam.to_density's rule, without building
    # and validating a SpectralDensity (theta is checked above)
    half = np.empty(d + 1, dtype=complex)
    half[0] = theta[d]
    half[1:] = (theta[d + 1:] - 1j * theta[:d][::-1]) / math.sqrt(2.0)
    full = np.concatenate((np.conj(half[:0:-1]), half))
    G0, mags = _grid_size(2 * d), np.abs(full)
    a0 = _on_grid(half, G0)
    curvature, allowance0 = _grid_slack(mags, G0)
    low = float(a0.min())
    if not (low - curvature - allowance0 > 1.0
            or (low > 1.0 and _certified_min(full, G0)[0] > 1.0)):
        raise NotAdmissible("a_theta must stay above 1 for the phi matrices")

    def rule(G):
        # the first grid reuses the admissibility test's samples and allowance
        a, allowance = (a0, allowance0) if G == G0 else (_on_grid(half, G),
                                                         _grid_slack(mags, G)[1])
        weights = np.empty((2, G))
        np.subtract(a * a, 1.0, out=weights[0])
        np.divide(1.0, weights[0], out=weights[1])
        lags = np.fft.rfft(weights, axis=-1, norm="forward")
        rounding = (float(a @ weights[1] ** 2) * 2.0 / G * allowance
                    + 4.0 * math.log2(G) * 2.0 ** -52 * float(weights[1].max()))
        return lags, float(np.abs(lags[1, G // 2 - 2 * d:]).max()), rounding

    lags, _ = _halving(rule, G0, "lags of 1/(a_theta^2 - 1)")
    phi0, phi = _fisher_from_lags(
        np.concatenate((np.conj(lags[:, 2 * d:0:-1]), lags[:, :2 * d + 1]), axis=-1), d)
    return FisherMatrices(phi0, phi)


def nonparametric_estimate(pi: np.ndarray, d_n: int):
    """Truncated-series density estimate from one full-length observable.

    The preliminary estimator at block size n = len(pi):
    theta_hat_j = (n^{1/2} / (n - |j|)) w_j' pi for |j| <= d_n and
    a_hat = sum_j theta_hat_j psi_j, whose complex coefficients are the
    unbiased symbol-coefficient estimates.  Returns (density, theta_hat).
    """
    pi = np.asarray(pi, dtype=float).reshape(-1)
    n = pi.size
    if n % 2 == 0:
        raise DimensionError("observable vector must have odd length")
    if d_n > math.sqrt(n) / 2.0:
        raise DimensionError(f"bandwidth d_n = {d_n} exceeds sqrt(n)/2")
    theta = preliminary_estimator(pi, n, d_n)
    return RealParam(d_n, theta).to_density(label="nonparametric"), theta
