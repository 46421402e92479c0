"""Symbol matrices, circulant approximants and matrix distance bounds.

The n x n Hermitian Toeplitz matrix A_n(a) with entries A[j][k] = a_{k-j}
is the parameter of an n-mode gauge-invariant Gaussian state.  Its circulant
approximant shares the central Fourier band and is diagonalized exactly by
a reordered DFT unitary, which is what turns the state into a product of
thermal modes.

Each symbol is diagonalized once.  A real symmetric Toeplitz matrix
commutes with the reversal J, so a real symbol with A == J A J (every
Toeplitz symbol of a real density, and its circulant block) splits into two
half-size real symmetric eigenproblems, for the symmetric and the
skew-symmetric eigenvectors (``SymbolMatrix.halves``).  The relative
entropy works from the halves; the full ``SymbolMatrix.spectrum``
(lams, V), with V real, is assembled from them only when a consumer asks
for it.  Any other symbol takes one complex ``eigh``.  The eigenvalues
alone (``SymbolMatrix.eigenvalues``) are read from that same solve, so
every consumer, in any order, shares one eigensolve per symbol.

A faithfulness gate asks only whether lambda_min exceeds a threshold
(``SymbolMatrix.lambda_min_exceeds``).  Every eigenvalue of a Hermitian
Toeplitz matrix lies in [min p, max p], for the trigonometric polynomial
p(w) = sum_{|k|<n} a_k e^{ikw} of its own lags (Grenander & Szego, *Toeplitz
Forms and Their Applications*, 1958).  A lag-built symbol with no solve yet
answers from that bracket (``_lag_floor``): p on G >= 8n grid points by one
FFT of the lags, less the curvature term (pi/G)^2/2 sum k^2 |a_k| (p'
vanishes at the minimum) and an allowance 4 (n + log2 G) eps sum |a_k| for
the FFT's rounding and the eigensolver's backward error, by the one rule of
``spectral._grid_slack``.  Only when that floor does not clear the threshold
does the gate solve, so an input it clears is one the solve would clear too.

A symbol built from its 2n - 1 lags keeps them, so comparing two such
symbols (``SymbolMatrix.same_entries``) and their Hilbert-Schmidt distance
(``hs_distance``) cost O(n), with no n x n array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    EigenFailure,
    InputError,
    NotToeplitz,
    RangeError,
)
from .spectral import (SpectralDensity, _grid_size, _grid_slack, _on_grid, _truncated_density,
                       density_min)

_HERMITIZE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SymbolMatrix:
    """Dense Hermitian matrix with a structure tag.

    The tag records how the matrix was built ("toeplitz", "circulant" or
    "general"); operations that need the structure check the tag.  Entries
    given one by one (directly or from JSON) are checked and Hermitized here,
    in O(n^2): an asymmetry above 1e-12, or an entry that is non-finite
    before or after Hermitizing, is an error.  Entries that are already
    Hermitian exactly are kept as given, signed zeros included, so
    rebuilding a symbol from its own entries gives the same entry bytes.
    ``toeplitz_from_density``, ``circulant_from_density`` and
    ``circulant_block`` instead check their 2n - 1 lags and keep ``entries``
    as a read-only strided view of them, so the symbol costs O(n) memory.

    Symbols compare by identity; ``same_entries`` compares entries in value,
    whatever the tags, in O(n) for two lag-built symbols.
    """

    entries: np.ndarray
    tag: str = "general"
    # the lags -(n-1) .. n-1 under a lag-built symbol, else None
    _lags: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise DimensionError(f"symbol matrix must be square, got {e.shape}")
        if self.tag not in ("toeplitz", "circulant", "general"):
            raise InputError(f"unknown tag {self.tag!r}")
        scale = np.max(np.abs(e))
        if not np.isfinite(scale):
            raise InputError("matrix entries must be finite")
        eh = e.conj().T
        gap = np.max(np.abs(e - eh))
        if gap > _HERMITIZE_TOL * (1.0 + scale):
            raise InputError(f"matrix is not Hermitian (asymmetry {gap:g})")
        with np.errstate(over="ignore", invalid="ignore"):
            h = 0.5 * (e + eh)
        if not np.isfinite(h).all():
            raise InputError("matrix entries must be finite after Hermitizing")
        # 0.5 * (e + e^H) flips signed zeros, so exact Hermitian input is kept
        e = h if gap > 0.0 else e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @classmethod
    def _from_lags(cls, full: np.ndarray, tag: str = "toeplitz") -> "SymbolMatrix":
        """Symbol with entry (j, k) = full[n - 1 + k - j], checked in O(n).

        ``full`` (length 2n - 1) must equal its reversed conjugate exactly, so,
        like exactly Hermitian entries in ``__post_init__``, it is kept as given.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(full + full).all()
        if not finite:
            raise InputError("matrix entries must be finite after Hermitizing")
        if not np.array_equal(full, full[::-1].conj()):
            raise InputError("matrix is not Hermitian: a_{-k} != conj(a_k)")
        f = full.copy()
        f.setflags(write=False)   # and with it the view over f
        self = object.__new__(cls)
        for name, value in (("entries", _lag_view(f)), ("tag", tag), ("_lags", f)):
            object.__setattr__(self, name, value)
        return self

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def same_entries(self, other: "SymbolMatrix") -> bool:
        """True when both symbols have equal entries in value, whatever their tags.

        Two lag-built symbols compare their lags, in O(n); any other pair
        compares its entries, in O(n^2).
        """
        if self._lags is not None and other._lags is not None:
            return np.array_equal(self._lags, other._lags)
        return np.array_equal(self.entries, other.entries)

    @cached_property
    def halves(self) -> tuple | None:
        """``_centro_halves`` of a real symbol with A == J A J, else None (read-only).

        A lag-built symbol has A == J A J exactly when its lags are real, an
        O(n) test; one given entry by entry is compared with J A J in O(n^2).
        """
        if self._lags is not None:
            centro = not self._lags.imag.any()
        else:
            e = self.entries
            centro = not e.imag.any() and np.array_equal(e, e[::-1, ::-1])
        if not centro:
            return None
        halves = _solve(_centro_halves, self.entries.real)
        for arr in (*halves[0], *halves[1]):
            arr.setflags(write=False)
        return halves

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (read-only) of the symbol's one solve.

        The ``halves`` merged by a stable sort, else ``spectrum[0]``; either
        way equal, byte for byte, to the eigenvalues of ``spectrum``.
        """
        if self.halves is None:
            return self.spectrum[0]
        lams = np.sort(np.concatenate([ls for ls, _ in self.halves]), kind="stable")
        lams.setflags(write=False)
        return lams

    def lambda_min_exceeds(self, t: float) -> bool:
        """Whether lambda_min > t, with no eigensolve when the lags certify it.

        A symbol with ``halves`` or ``spectrum`` cached compares its
        lambda_min.  Otherwise a lag-built symbol whose ``_lag_floor``
        exceeds t answers True with no solve; when the floor falls short, or
        the symbol has no lags, the symbol takes its one solve and
        ``eigenvalues`` decides.  The floor lies below the solved lambda_min
        by more than the solve's rounding, so the answer is always that of
        ``eigenvalues[0] > t``.
        """
        solved = self.__dict__
        if (solved.get("halves") is None and "spectrum" not in solved
                and self._lags is not None and _lag_floor(self._lags) > t):
            return True
        return bool(self.eigenvalues[0] > t)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors, solved once per symbol (read-only).

        A symbol with ``halves`` assembles them by ``_centro_spectrum``, and
        V is real.  Any other symbol takes one complex ``eigh``.
        """
        if self.halves is not None:
            lams, V = _centro_spectrum(self.halves)
        else:
            lams, V = _solve(np.linalg.eigh, self.entries)
        lams.setflags(write=False)
        V.setflags(write=False)
        return lams, V

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tag": self.tag,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SymbolMatrix":
        try:
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
            tag = obj["tag"]
            n = int(obj["n"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed matrix JSON: {exc}") from exc
        if re.shape != (n, n) or im.shape != (n, n):
            raise DimensionError("matrix JSON dimensions do not match n")
        # re + 1j * im would turn every -0.0 imaginary part into +0.0
        e = np.empty((n, n), dtype=complex)
        e.real, e.imag = re, im
        return cls(e, tag=tag)


def _solve(solve, *args, **kwargs):
    """``solve(*args, **kwargs)``, with numpy's LinAlgError raised as EigenFailure."""
    try:
        return solve(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _lag_floor(full: np.ndarray) -> float:
    """Lower bound on lambda_min of the Toeplitz matrix with lags ``full`` = a_{-(n-1)} .. a_{n-1}:
    their polynomial's minimum on _grid_size(n - 1) points less its ``_grid_slack``.
    NaN or -inf, never above a threshold, when the sums overflow."""
    K = full.size // 2     # n - 1
    G = _grid_size(K)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_on_grid(full[K:], G).min()) - sum(_grid_slack(np.abs(full), G))


def _centro_halves(A: np.ndarray) -> tuple:
    """``eigh`` of a real symmetric A with A == J A J, as two half-size solves.

    With h = n // 2, B = A[:h, :h] and C = (A J)[:h, :h], the symmetric
    eigenvectors are [w; J w]/sqrt 2 for the eigenvectors w of B + C and the
    skew ones [w; -J w]/sqrt 2 for those of B - C (Cantoni & Butler 1976).
    For odd n, B + C gains the middle row and column, scaled by sqrt 2, with
    the middle diagonal entry, and a symmetric vector is
    [w_top/sqrt 2; w_mid; J w_top/sqrt 2].  Either way the overlap of two
    full vectors of one parity is the dot product of their half vectors.
    Returns ((ls, Ws), (lk, Wk)), each pair ascending from ``eigh``; for
    n = 1 the skew pair is empty and takes no solve.
    """
    n = A.shape[0]
    h, odd = divmod(n, 2)
    B, C = A[:h, :h], A[:h, ::-1][:, :h]
    S = np.empty((h + odd, h + odd))
    S[:h, :h] = B + C
    if odd:
        S[h, :h] = S[:h, h] = math.sqrt(2.0) * A[h, :h]
        S[h, h] = A[h, h]
    sym = tuple(np.linalg.eigh(S))
    if not h:
        return sym, (np.empty(0), np.empty((0, 0)))
    return sym, tuple(np.linalg.eigh(B - C))


def _centro_spectrum(halves: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Full (lams, V) from ``_centro_halves``, merged ascending by a stable sort."""
    (ls, Ws), (lk, Wk) = halves
    h, odd = lk.size, ls.size - lk.size
    r = math.sqrt(0.5)
    top_s, top_k = r * Ws[:h], r * Wk
    V = np.block([[top_s, top_k],
                  [Ws[h:], np.zeros((odd, h))],
                  [top_s[::-1], -top_k[::-1]]])
    lams = np.concatenate((ls, lk))
    order = np.argsort(lams, kind="stable")
    return lams[order], V[:, order]


def as_symbol(A) -> SymbolMatrix:
    """``A`` itself if it is a SymbolMatrix, else ``SymbolMatrix(A)``."""
    return A if isinstance(A, SymbolMatrix) else SymbolMatrix(A)


def dft_unitary(m: int) -> np.ndarray:
    """Reordered DFT unitary with columns u_j, j = -(m-1)/2 .. (m-1)/2.

    u_j = m^{-1/2} (1, e_j, e_j^2, ..., e_j^{m-1})' with e_j = exp(2 pi i j / m),
    returned as a read-only array.
    """
    if m < 1 or m % 2 == 0:
        raise RangeError("DFT unitary needs odd m >= 1")
    half = (m - 1) // 2
    rows = np.arange(m)[:, None]
    js = np.arange(-half, half + 1)[None, :]
    u = np.exp(2j * math.pi * rows * js / m) / math.sqrt(m)
    u.setflags(write=False)
    return u


def _lag_view(full: np.ndarray) -> np.ndarray:
    """n x n view with entry (j, k) = full[n - 1 + k - j] of a contiguous full of length 2n - 1."""
    n = (full.size + 1) // 2
    step = full.itemsize
    # row j starts at full[n - 1 - j]: one step back per row, one forward per column
    return np.ndarray((n, n), full.dtype, full, (n - 1) * step, (-step, step))


def toeplitz_from_density(a: SpectralDensity, n: int) -> SymbolMatrix:
    """Symbol matrix A_n(a) with A[j][k] = a_{k-j}, built from its 2n - 1 lags.

    The lags a_{-(n-1)} .. a_{n-1} are checked (finite, Hermitian) and
    Hermitized in O(n); ``entries`` is a read-only n x n view of them, equal
    byte for byte to ``SymbolMatrix`` of the dense matrix, and no n x n array
    is made until a consumer copies the view.
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    return SymbolMatrix._from_lags(a.full_coeffs(n - 1))


def toeplitz_first_row(A: SymbolMatrix) -> np.ndarray:
    """First row (a_0, a_1, ..., a_{n-1}) of a Toeplitz symbol, read-only.

    A symbol from ``toeplitz_from_density`` returns its stored lags, checked
    when it was built.  A Toeplitz-tagged symbol given entry by entry
    (directly or from JSON) is checked here, in O(n^2), against its
    diagonals, else NotToeplitz.
    """
    if A.tag != "toeplitz":
        raise NotToeplitz(f"matrix tagged {A.tag!r}")
    if A._lags is not None:
        return A._lags[A.n - 1:]
    row = A.entries[0]
    rebuilt = _lag_view(np.concatenate((row[:0:-1].conj(), row)))
    if np.max(np.abs(rebuilt - A.entries)) > 1e-12 * (1 + np.max(np.abs(row))):
        raise NotToeplitz("entries are not constant along the diagonals")
    return row


def _circulant_lags(a: SpectralDensity, m: int, lags: np.ndarray) -> np.ndarray:
    """Lags of the m-circulant of ``a``: a_t for |t| <= (m-1)/2, else a_{t - sign(t) m}."""
    if m < 1 or m % 2 == 0:
        raise RangeError("m must be odd and >= 1")
    half = (m - 1) // 2
    return a.full_coeffs(half)[(lags + half) % m]


def circulant_from_density(a: SpectralDensity, m: int) -> SymbolMatrix:
    """Hermitian circulant approximant with representing vector

    c = (a_0, a_{-1}, ..., a_{-(m-1)/2}, a_{(m-1)/2}, ..., a_1).

    Column k of the matrix is the k-th cyclic shift of c, so the entry at
    (j, k) is c_{(j-k) mod m}; on the central band |k-j| <= (m-1)/2 this
    agrees with the Toeplitz matrix of the truncated density.  It is built
    by ``SymbolMatrix._from_lags`` from its 2m - 1 lags in O(m), like
    ``circulant_block``, and keeps the tag "circulant".
    """
    return SymbolMatrix._from_lags(_circulant_lags(a, m, np.arange(1 - m, m)),
                                   tag="circulant")


def circulant_block(a: SpectralDensity, m: int, n: int) -> SymbolMatrix:
    """Leading n x n block of ``circulant_from_density(a, m)``, built from its lags.

    The block is Toeplitz with lag t equal to a_t for |t| <= (m-1)/2 and to
    a_{t - sign(t) m} otherwise; it is built by ``SymbolMatrix._from_lags``
    in O(n), with entries equal byte for byte to the dense block, and is
    tagged "toeplitz".
    """
    if n < 1 or n > m:
        raise DimensionError(f"block size {n} outside 1..{m}")
    return SymbolMatrix._from_lags(_circulant_lags(a, m, np.arange(1 - n, n)))


def circulant_eigs(a: SpectralDensity, m: int) -> np.ndarray:
    """Eigenvalues of ``circulant_from_density(a, m)``, indexed j = -(m-1)/2..(m-1)/2.

    The DFT diagonalizes the circulant, so eigenvalue j is the density of the
    lags |k| <= (m-1)/2 at the Fourier frequency w_{j,m} = 2 pi j / m (Gray,
    *Toeplitz and Circulant Matrices: A Review*, 2006, 3.1): one ``_on_grid``
    call, O(m log m), real by construction.  No matrix is built.
    """
    return _on_grid(_truncated_density(a, m).coeffs, m, (1 - m) / 2)


def abs_square(M: np.ndarray) -> np.ndarray:
    """Entrywise squared modulus |M_{jl}|^2 as a real matrix."""
    M = np.asarray(M)
    return (M * M.conj()).real


def hs_distance(A, B) -> float:
    """Hilbert-Schmidt (Frobenius) distance ||A - B||_2.

    Two lag-built symbols of equal n take the lag sum
    sqrt(sum_s (n - |s|) |a_s - b_s|^2), s = -(n-1) .. n-1, in O(n), with no
    n x n array; any other pair takes the dense norm of A - B.
    """
    if (isinstance(A, SymbolMatrix) and isinstance(B, SymbolMatrix)
            and A._lags is not None and B._lags is not None and A.n == B.n):
        weights = A.n - np.abs(np.arange(1 - A.n, A.n))
        return math.sqrt(float(weights @ abs_square(A._lags - B._lags)))
    A = A.entries if isinstance(A, SymbolMatrix) else np.asarray(A)
    B = B.entries if isinstance(B, SymbolMatrix) else np.asarray(B)
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch {A.shape} vs {B.shape}")
    return float(np.linalg.norm(A - B))


def toeplitz_circulant_gap(a: SpectralDensity, n: int, m: int,
                           alpha: float, M: float):
    """Squared HS gap between A_n(a) and the circulant block, with its bound.

    Requires odd m with n < m < 2(n-1).  The gap is computed both by
    ``hs_distance`` over the lags of the two symbols and through the
    wrap-around sum

        2 sum_{k=(m+1)/2}^{n-1} (n-k) |a_k - conj(a_{m-k})|^2,

    which must agree to 1e-10; both take O(n).  The returned bound is
    4 (m-n+1)^{1-2 alpha} M, valid whenever the Sobolev norm of a at
    smoothness alpha is at most M with alpha > 1/2; a NaN or infinite alpha
    or M is refused.
    """
    bound = _gap_bound(n, m, alpha, M)
    return _symbol_gap_sq(toeplitz_from_density(a, n), circulant_block(a, m, n), m), bound


def _gap_bound(n: int, m: int, alpha: float, M: float) -> float:
    """4 (m-n+1)^{1-2 alpha} M, once n, m, alpha and M pass the gap's checks."""
    if m % 2 == 0 or not (n < m < 2 * (n - 1)):
        raise RangeError(f"need odd m with n < m < 2(n-1), got n={n}, m={m}")
    if not 0.5 < alpha < math.inf:
        raise RangeError("the bound needs a finite alpha > 1/2")
    if not math.isfinite(M):
        raise RangeError("the bound needs a finite M")
    return 4.0 * (m - n + 1) ** (1.0 - 2.0 * alpha) * M


def _symbol_gap_sq(A: SymbolMatrix, C: SymbolMatrix, m: int) -> float:
    """||A - C||_2^2 of ``toeplitz_from_density(a, n)`` and ``circulant_block(a, m, n)``.

    Both symbols are read as given, from their lags; the wrap-around sum
    over A's lags must agree with the HS distance to 1e-10.
    """
    n = A.n
    hs_sq = hs_distance(A, C) ** 2
    ks = np.arange((m + 1) // 2, n)
    full = A._lags   # a_k at full[n - 1 + k]
    diffs = full[n - 1 + ks] - np.conj(full[n - 1 + m - ks])
    wrap_sum = 2.0 * float(np.sum((n - ks) * np.abs(diffs) ** 2))
    if abs(hs_sq - wrap_sum) > 1e-10 * (1.0 + abs(hs_sq)):
        raise EigenFailure(
            f"gap formulas disagree: lag-weighted HS {hs_sq!r} vs wrap-around sum {wrap_sum!r}")
    return hs_sq


def eigen_bracket_check(a: SpectralDensity, n: int):
    """Check inf a - tol <= lambda_min(A_n) and lambda_max(A_n) <= sup a + tol.

    The quadratic form <x, A_n x> is an average of a against |trig poly|^2,
    hence trapped between the extremes of a: inf a is ``density_min(a)`` and
    sup a is -``density_min(-a)``.  Returns (lambda_min, lambda_max, inf_a,
    sup_a, pass).
    """
    lams = toeplitz_from_density(a, n).eigenvalues
    lam_min, lam_max = float(lams[0]), float(lams[-1])
    inf_a, sup_a = density_min(a)[0], -density_min(SpectralDensity(-a.coeffs))[0]
    ok = (inf_a - 1e-9 <= lam_min) and (lam_max <= sup_a + 1e-9)
    return lam_min, lam_max, inf_a, sup_a, ok
