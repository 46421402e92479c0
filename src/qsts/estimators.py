"""Parameter estimators for band-limited densities and their design matrices.

The averaged observable Pi_bar of a blocked measurement has mean
m^{1/2} W F^{-1} theta, with W the real trigonometric design psi_matrix over
the Fourier frequencies scaled by m^{-1/2}.  This makes theta estimable by
orthogonality (preliminary estimator) or by weighted least squares with the
inverse variance weights Delta(theta)^{-1} (improved estimator); the
one-step estimator applies the latter at the projected preliminary value.
Both reproduce theta exactly when fed the analytic mean.  The projection onto
the admissible set is one exact least-distance solve over the floor's
half-spaces, with the ball added as tangent cuts and missed floor
frequencies as new rows until ``membership`` accepts the result.  The
nonparametric estimate is the preliminary estimator at full length n, and
the complex coefficients of its density are the unbiased symbol-coefficient
estimates.
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
    fourier_frequencies,
    membership,
    psi_matrix,
)

_QUAD_GRID = 4096

#: distinct (m, d) designs and (d, grid_size) uniform-grid designs kept
#: per process
_DESIGN_CACHE_SIZE = 32

#: the projection's tolerance, how many tangent cuts of the ball one solve
#: may make (then NonConvergence), the uniform grid that enforces
#: a >= 1 + 1/M, and how often a frequency where ``membership`` finds the
#: floor violated may be added to that grid (then NonConvergence)
_PROJECTION_TOL = 1e-10
_BALL_CUTS = 64
_PROJECTION_GRID = 512
_MEMBERSHIP_ROUNDS = 64


class DesignMatrices(NamedTuple):
    """W (m x (2d+1), orthonormal columns), F and Delta (diagonals)."""

    W: np.ndarray
    F: np.ndarray
    Delta: np.ndarray


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _w_matrix(m: int, d: int) -> np.ndarray:
    if m % 2 == 0:
        raise DimensionError("design needs odd m")
    if 2 * d + 1 > m:
        raise DimensionError(f"2d+1 = {2 * d + 1} exceeds m = {m}")
    W = psi_matrix(d, fourier_frequencies(m)) / math.sqrt(m)
    W.setflags(write=False)
    return W


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _f_diagonal(m: int, d: int) -> np.ndarray:
    js = np.arange(-d, d + 1)
    F = m / (m - np.abs(js))
    F.setflags(write=False)
    return F


def design_matrices(m: int, d: int, theta: np.ndarray) -> DesignMatrices:
    """Design matrices at block size m for a parameter theta.

    W and F are built once per (m, d) in the process and are read-only.
    Delta is the diagonal a_theta^2(w_{j,m}) - 1 over the Fourier
    frequencies; every entry must be positive (so not NaN) or the parameter
    is inadmissible.
    """
    W = _w_matrix(m, d)
    F = _f_diagonal(m, d)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != 2 * d + 1:
        raise DimensionError(f"theta must have length {2 * d + 1}")
    Delta = (math.sqrt(m) * (W @ theta)) ** 2 - 1.0
    if not np.all(Delta > 0.0):
        raise NotAdmissible("a_theta^2 - 1 must be positive at all frequencies")
    return DesignMatrices(W, F, Delta)


def preliminary_estimator(pi_bar: np.ndarray, m: int, d: int) -> np.ndarray:
    """theta_hat = m^{-1/2} F W' pi_bar."""
    pi_bar = np.asarray(pi_bar, dtype=float).reshape(-1)
    if pi_bar.size != m:
        raise DimensionError(f"pi_bar must have length m = {m}")
    W = _w_matrix(m, d)
    F = _f_diagonal(m, d)
    return F * (W.T @ pi_bar) / math.sqrt(m)


def weighted_estimator(pi_bar: np.ndarray, delta: np.ndarray,
                       m: int, d: int) -> np.ndarray:
    """m^{-1/2} F (W' D^{-1} W)^{-1} W' D^{-1} pi_bar for a given diagonal D.

    Scale invariant in D by construction (the weights enter both the normal
    matrix and the right-hand side); the small system is solved, never
    inverted.  The condition number of the SPD normal matrix is
    lambda_max / lambda_min from its eigenvalues; beyond 1e12, with
    lambda_min <= 0, or with a non-finite weight, the system is refused.
    """
    pi_bar = np.asarray(pi_bar, dtype=float).reshape(-1)
    delta = np.asarray(delta, dtype=float).reshape(-1)
    if pi_bar.size != m or delta.size != m:
        raise DimensionError(f"pi_bar and delta must have length m = {m}")
    if not np.all(np.isfinite(delta)):
        raise SingularSystem("weights delta must all be finite")
    W = _w_matrix(m, d)
    F = _f_diagonal(m, d)
    Winv = W / delta[:, None]
    G = W.T @ Winv                       # W' Delta^{-1} W, symmetric PD
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
    W = _w_matrix(m, d)
    F = _f_diagonal(m, d)
    return math.sqrt(m) * (W @ (theta / F))


def _project_polyhedron(x: np.ndarray, C: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto {v : C v >= b} (least distance).

    Solved through the Lawson-Hanson reduction to nonnegative least
    squares: minimize ||u|| s.t. C u >= b - C x, then v = x + u.  The
    active-set NNLS terminates finitely, so the projection is exact up to
    rounding.
    """
    from scipy.optimize import nnls

    gaps = b - C @ x
    if np.all(gaps <= 0.0):
        return x.copy()
    n = x.size
    E = np.vstack([C.T, gaps[None, :]])
    f = np.zeros(n + 1)
    f[n] = 1.0
    z, _ = nnls(E, f)
    r = E @ z - f
    if abs(r[n]) < 1e-14:
        raise NonConvergence("half-space family is numerically infeasible")
    return x + (-r[:n] / r[n])


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _grid_design(d: int, grid_size: int) -> np.ndarray:
    """psi design over the uniform grid -pi + 2 pi g / grid_size (read-only)."""
    C = psi_matrix(d, -math.pi + TWO_PI * np.arange(grid_size) / grid_size)
    C.setflags(write=False)
    return C


def _project_ball_polyhedron(x: np.ndarray, C: np.ndarray, target: float,
                             radius: float) -> np.ndarray:
    """Projection of x onto {||v|| <= radius} and {C v >= target}.

    The ball enters as tangent half-spaces: while the polyhedral projection
    v lies outside the ball, the half-space -(v/||v||) u >= -radius, which
    holds the whole ball and cuts v off, joins the family and x is projected
    again.  Each solve is onto a superset of the set, so the result is never
    farther from x than the exact projection; it is returned once
    ||v|| <= radius + _PROJECTION_TOL / 2, after at most _BALL_CUTS cuts
    (then NonConvergence).
    """
    b = np.full(len(C), target)
    for _ in range(_BALL_CUTS + 1):
        v = _project_polyhedron(x, C, b)
        nrm = float(np.linalg.norm(v))
        if nrm <= radius + 0.5 * _PROJECTION_TOL:
            return v
        C = np.vstack([C, -v / nrm])
        b = np.append(b, -radius)
    raise NonConvergence(
        f"projection {nrm - radius:.3g} outside the ball after {_BALL_CUTS} cuts")


def _admissible(x: np.ndarray, C: np.ndarray, space: ParameterSpace) -> bool:
    """Whether ``membership`` accepts theta = x, asked only when the grid cannot tell.

    Every frequency lies within pi/G of one of the G uniform grid points and
    |a_theta'| <= sum_j |j| sqrt(2) |theta_j|, so a grid minimum that clears
    the floor by (pi/G) times that bound clears it everywhere.
    """
    d = (x.size - 1) // 2
    slope = math.sqrt(2.0) * float(np.abs(np.arange(-d, d + 1)) @ np.abs(x))
    if x @ x <= space.M and np.min(C @ x) - (1.0 + 1.0 / space.M) >= math.pi / len(C) * slope:
        return True
    return membership(RealParam(d, x).to_density(), space).member


def project_theta(theta_hat: np.ndarray, space: ParameterSpace) -> np.ndarray:
    """Euclidean projection onto the admissible parameter set.

    The set is {||theta||^2 <= M} intersected with the half-space family
    a_theta(w_g) >= 1 + 1/M over a uniform frequency grid, the radius
    shortened and each floor target raised by _PROJECTION_TOL (as a
    distance: every psi row has norm sqrt(2d+1)), and is solved by
    ``_project_ball_polyhedron``.  When ``membership`` still finds the floor
    violated between grid points, the frequency it reports joins the family
    and the input is projected again, at most _MEMBERSHIP_ROUNDS times (then
    NonConvergence); so the result is always a member of ``space``.
    Feasible input is returned unchanged.  The _PROJECTION_GRID x (2d+1)
    grid design is built once per d in the process and is read-only.
    """
    if space.kind != "theta2prime":
        raise RangeError("projection is defined for theta2prime spaces")
    x = np.asarray(theta_hat, dtype=float).reshape(-1).copy()
    d = (x.size - 1) // 2
    C = _grid_design(d, _PROJECTION_GRID)
    if _admissible(x, C, space):
        return x
    radius = math.sqrt(space.M) - _PROJECTION_TOL
    target = 1.0 + 1.0 / space.M + _PROJECTION_TOL * math.sqrt(2 * d + 1)
    for _ in range(_MEMBERSHIP_ROUNDS):
        out = _project_ball_polyhedron(x, C, target, radius)
        witness = membership(RealParam(d, out).to_density(), space)
        if witness.member:
            return out
        if witness.constraint != "lower_bound":
            raise NonConvergence(f"projection violates the {witness.constraint} constraint")
        C = np.vstack([C, psi_matrix(d, witness.location)])
    raise NonConvergence(
        f"projection still below the floor after {_MEMBERSHIP_ROUNDS} rounds")


class FisherMatrices(NamedTuple):
    """Limit covariance phi0 of the plain estimator and the information phi."""

    phi0: np.ndarray
    phi: np.ndarray


def phi_matrices(theta: np.ndarray, d: int, grid: int = _QUAD_GRID) -> FisherMatrices:
    """Limit matrices of the estimators,

    phi0_jk = (1/2 pi) int (a_theta^2 - 1) psi_j psi_k dw,
    phi_jk  = (1/2 pi) int (a_theta^2 - 1)^{-1} psi_j psi_k dw,

    by periodic trapezoid quadrature on ``grid`` points.  The grid x (2d+1)
    design is built once per (d, grid) in the process and is read-only.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != 2 * d + 1:
        raise DimensionError(f"theta must have length {2 * d + 1}")
    psi = _grid_design(d, grid)
    weight = (psi @ theta) ** 2 - 1.0
    if np.any(weight <= 0.0):
        raise NotAdmissible("a_theta must stay above 1 for the phi matrices")
    phi0 = (psi * weight[:, None]).T @ psi / grid
    phi = (psi / weight[:, None]).T @ psi / grid
    phi0 = 0.5 * (phi0 + phi0.T)
    phi = 0.5 * (phi + phi.T)
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
