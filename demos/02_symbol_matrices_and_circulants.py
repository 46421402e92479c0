"""Symbol matrices, circulant approximants and the proven gap bound.

The n x n Toeplitz matrix A_n(a) with entries a_{k-j} parameterizes the
n-mode Gaussian state.  A circulant built from the same central band is
diagonalized exactly by the reordered DFT, and the upper-left n x n block
of the m-circulant differs from A_n only through wrap-around terms, whose
squared Hilbert-Schmidt size obeys the bound 4 (m-n+1)^(1-2 alpha) M on a
Sobolev ball.
"""

import numpy as np

from qsts import (
    SpectralDensity,
    circulant_eigs,
    circulant_from_density,
    dft_unitary,
    eigen_bracket_check,
    sobolev_norm,
    toeplitz_circulant_gap,
    toeplitz_from_density,
)

cos = SpectralDensity.cosine(2.0, 0.5)

A = toeplitz_from_density(cos, 4)
print("A_4 for 2 + 0.5 cos (tridiagonal, 0.25 off-diagonal):")
print(np.round(A.entries.real, 4))

C = circulant_from_density(cos, 5)
print("\ncirculant rows are cyclic shifts:")
print(np.round(C.entries.real, 4))

# exact diagonalization: eigenvalues are the truncated density at 2 pi j / m
eigs = circulant_eigs(cos, 5)
U = dft_unitary(5)
resid = np.max(np.abs(U.conj().T @ C.entries @ U - np.diag(eigs)))
print("\ncirculant eigenvalues:", np.round(eigs, 6))
print("off-diagonal residue after DFT conjugation:", f"{resid:.2e}")

# eigenvalues of the Toeplitz matrix sit between inf a and sup a
lam_min, lam_max, lo, hi, ok = eigen_bracket_check(cos, 64)
print(f"\neigenvalue bracket at n=64: {lo:.3f} <= {lam_min:.4f} .. "
      f"{lam_max:.4f} <= {hi:.3f}  (pass={ok})")

# the wrap-around gap and its bound, for a geometric-decay density
geom = SpectralDensity(np.array([2.0 ** -k for k in range(40)], dtype=complex))
_, M = sobolev_norm(geom, 1.0)
print("\nsquared HS gap ||A_n - circulant block||^2 vs bound (n = 32):")
for m in range(33, 62, 14):
    gap, bound = toeplitz_circulant_gap(geom, 32, m, alpha=1.0, M=M)
    print(f"  m={m}: gap = {gap:.3e} <= bound = {bound:.3e}")
