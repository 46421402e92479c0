"""Gauge-invariant centered Gaussian states represented by their symbols.

A state with Hermitian symbol A = V diag(l) V* >= I is handled at the
symbol level through Q = (A - I)/2 and R = (A - I)(A + I)^{-1} =
V diag((l - 1)/(l + 1)) V*, read off the symbol's one cached
eigendecomposition.  In that eigenbasis the state is a product of thermal
modes with laws Geo(p(l_i)), so the relative entropy is the mixing-weighted
geometric KL sum_ij |V1* V2|^2_ij KL(Geo(p(l1_i)) || Geo(p(l2_j))), with no
matrix log and no clamp; ``s2_matrix`` in ``tests/oracles.py`` keeps the
operator trace formula as the reference.  Two real centrosymmetric symbols
(every Toeplitz symbol of a real density) have real eigenvectors of two
parities, symmetric and skew, and V1* V2 vanishes between parities; the sum
then runs per parity block over the half-size solves
(``SymbolMatrix.halves``), and no full V is built.  Two symbols with
equal entries give exactly 0 after the faithfulness gate on the first,
with no solve of the second and no KL sum.  That gate
(``SymbolMatrix.lambda_min_exceeds``) reads the eigenvalues of a symbol
already solved, and solves nothing for a lag-built symbol whose lag
polynomial clears it: by Grenander & Szego (*Toeplitz Forms and Their
Applications*, 1958) lambda_min(A_n) >= min_w sum_{|k|<n} a_k e^{ikw},
taken on a grid of G >= 8n points by one FFT, less the slope term
(pi/G) sum |k||a_k| and an allowance 4 (n + log2 G) eps sum |a_k| for the
FFT's and the eigensolver's rounding.  A symbol whose floor falls short,
or that has no lags, takes its one solve and gates on its eigenvalues, so
the inputs that raise and the message they print do not depend on the
floor.  No Fock-space density operator is ever materialized; the one
exception is the photon number law of a single thermal mode.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distributions import geo_kl
from .errors import NotFaithful, RangeError, SpectralRangeError
from .toeplitz import abs_square, as_symbol, hs_distance

#: relative gate on lambda_min(A) - 1 below which entropy ops refuse
EPS_FAITHFUL = 1e-8


def covariance_from_symbol(A) -> np.ndarray:
    """Real 2n x 2n covariance matrix of the state with symbol A,

    Sigma = (1/2) [[Re A, -Im A], [Im A, Re A]].
    """
    M = as_symbol(A).entries
    re, im = M.real, M.imag
    top = np.hstack([re, -im])
    bot = np.hstack([im, re])
    return 0.5 * np.vstack([top, bot])


def r_from_symbol(A) -> np.ndarray:
    """R = (A - I)(A + I)^{-1} = V diag((l - 1)/(l + 1)) V* from A's spectrum."""
    lams, V = as_symbol(A).spectrum
    return (V * ((lams - 1.0) / (lams + 1.0))) @ V.conj().T


def _check_r_open_interval(lams: np.ndarray, lo: float, hi: float, what: str):
    """Raise unless the ascending spectrum ``lams`` of R lies inside (lo, hi)."""
    if lams[0] <= lo or lams[-1] >= hi:
        raise SpectralRangeError(
            f"{what}: spectrum [{lams[0]:.6g}, {lams[-1]:.6g}] "
            f"not inside ({lo:g}, {hi:g})")


def _check_faithful(A):
    """Raise NotFaithful unless lambda_min(A) > 1 + EPS_FAITHFUL.

    ``SymbolMatrix.lambda_min_exceeds`` answers, from the lag floor when it
    clears the gate, else from the eigenvalues, which the message prints.
    """
    if not A.lambda_min_exceeds(1.0 + EPS_FAITHFUL):
        raise NotFaithful(f"lambda_min(A) = {A.eigenvalues[0]:.12g} "
                          f"is not above 1 + {EPS_FAITHFUL:g}")


def relative_entropy(A1, A2) -> float:
    """Relative entropy S(rho_1 || rho_2) between the states with these symbols.

    With the cached spectra A_k = V_k diag(l_k) V_k*,

        S = sum_ij |V1* V2|^2_ij KL(Geo(p(l1_i)) || Geo(p(l2_j))),

    which equals Re Tr[(I + Q1) s2_matrix(R1, R2)], the operator reference
    in ``tests/oracles.py``.  When both symbols have ``halves``, the
    overlaps between a symmetric and a skew eigenvector are zero, and the
    sum is taken over the symmetric and the skew block, each with the
    half-size overlap W1^T W2.  Every term is nonnegative, so S is real and
    >= 0 by construction.  Both symbols must be strictly faithful:
    lambda_min(A) > 1 + EPS_FAITHFUL.  Two symbols with equal entries
    (``SymbolMatrix.same_entries``) give exactly 0.0 once A1 passes that
    gate, from its lag floor or, when that falls short, the eigenvalues of
    its one solve; A2 is not diagonalized.
    """
    A1, A2 = as_symbol(A1), as_symbol(A2)
    if A1.n != A2.n:
        raise SpectralRangeError("symbols must have equal dimension")
    if A1.same_entries(A2):
        _check_faithful(A1)
        return 0.0
    # solved first, the gates read these eigenvalues and skip the lag floor
    if A1.halves is not None and A2.halves is not None:
        blocks = zip(A1.halves, A2.halves)
    else:
        blocks = [(A1.spectrum, A2.spectrum)]
    _check_faithful(A1)
    _check_faithful(A2)
    return float(sum(np.sum(abs_square(V1.conj().T @ V2) * geo_kl(l1[:, None], l2[None, :]))
                     for (l1, V1), (l2, V2) in blocks))


def pinsker_trace_bound(A1, A2) -> float:
    """sqrt(2 S(rho_1 || rho_2)), an upper bound on the trace distance."""
    return math.sqrt(2.0 * relative_entropy(A1, A2))


class SymbolBoundReport(NamedTuple):
    """Outcome of the symbol-distance entropy bound check."""

    delta: float
    holds: bool
    vacuous: bool       # True when ||R1 - R2|| >= delta, the bound's precondition fails
    h_norm: float       # ||R1 - R2||_2
    symbol_norm: float  # ||A1 - A2||_2
    entropy: float


def entropy_symbol_bound(A1, A2, lam: float) -> SymbolBoundReport:
    """Audit S(rho1||rho2) <= delta^{-1} ||R1 - R2||_2^2 for small perturbations.

    Requires (1 - lam) I < R_i < lam I for the given lam in (1/2, 1); then
    delta = min((1 - lam)/2, (1 - lam)^3 / (8 lam)) and the entropy bound
    holds whenever ||R1 - R2||_2 < delta.  The report also verifies the
    symbol-level control ||R1 - R2||_2^2 <= (1 - lam)^{-2} ||A1 - A2||_2^2.
    Each symbol takes its one vector solve before its R bracket.
    """
    if not 0.5 < lam < 1.0:
        raise RangeError("lam must lie in (1/2, 1)")
    A1, A2 = as_symbol(A1), as_symbol(A2)
    for what, A in (("R1 bracket", A1), ("R2 bracket", A2)):
        lams = A.spectrum[0]
        _check_r_open_interval((lams - 1.0) / (lams + 1.0), 1.0 - lam, lam, what)
    delta = min((1.0 - lam) / 2.0, (1.0 - lam) ** 3 / (8.0 * lam))
    h_norm = hs_distance(r_from_symbol(A1), r_from_symbol(A2))
    symbol_norm = hs_distance(A1, A2)
    S = relative_entropy(A1, A2)
    if h_norm ** 2 > (1.0 - lam) ** -2 * symbol_norm ** 2 + 1e-9:
        raise SpectralRangeError(
            "||R1-R2|| exceeds its symbol-distance control; inputs inconsistent")
    vacuous = h_norm >= delta
    holds = vacuous or (S <= h_norm ** 2 / delta + 1e-9)
    return SymbolBoundReport(delta, holds, vacuous, h_norm, symbol_norm, S)


def thermal_pmf(a: float, k_max: int):
    """Photon number pmf of a one-mode thermal state with symbol a >= 1.

    pmf(k) = (1 - p) p^k with p = (a - 1)/(a + 1) for k = 0..k_max;
    the second return value is the tail mass p^{k_max + 1}.
    """
    if a < 1.0:
        raise RangeError("thermal symbol must satisfy a >= 1")
    if k_max < 0:
        raise RangeError("k_max must be nonnegative")
    p = (a - 1.0) / (a + 1.0)
    ks = np.arange(k_max + 1)
    pmf = (1.0 - p) * p ** ks
    return pmf, float(p ** (k_max + 1))
