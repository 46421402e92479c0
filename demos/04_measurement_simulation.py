"""Simulating the commuting number-operator measurement exactly.

After a DFT change of basis the number observables commute and their joint
law is a Gaussian mixture of independent Poissons: draw a complex normal
alpha with E[alpha alpha*] = (U* A U - I)/2 and then Poisson(|alpha_j|^2).
The first two moments and the generating function identify the law, and
both are checked here against their analytic forms.
"""

import numpy as np

from qsts import (
    NumberOpSampler,
    RealParam,
    RngStream,
    SpectralDensity,
    block_scheme,
    pi_moments,
    preliminary_estimator,
    sample_pi_blocks,
    toeplitz_from_density,
)

cos = SpectralDensity.cosine(2.0, 0.5)
m = 7
A = toeplitz_from_density(cos, m)
mean, cov = pi_moments(A)

reps = 100_000
pi = 2.0 * NumberOpSampler(A).draw(RngStream(7, 1), size=reps) + 1.0
print("analytic E[Pi]:", np.round(mean, 4))
print("empirical mean:", np.round(pi.mean(axis=0), 4))
print("largest |empirical - analytic| covariance entry:",
      f"{np.max(np.abs(np.cov(pi.T) - cov)):.4f}")

# the blocked measurement: r independent m-mode blocks with gaps of d modes
scheme = block_scheme(1024, d=1)
print(f"\nblock scheme at n=1024, d=1: m={scheme.m}, r={scheme.r}")
draw = sample_pi_blocks(cos, scheme, RngStream(7, 2))
print("averaged observable Pi_bar:", np.round(draw.pi_bar, 4))

# the preliminary estimate's density has the unbiased coefficient estimates
theta = preliminary_estimator(draw.pi_bar, scheme.m, 1)
est = RealParam(1, theta).to_density()
print("coefficient estimates (a_-1, a_0, a_1):",
      np.round([est.coeff(j) for j in (-1, 0, 1)], 4))
print("truth:                                 ", [0.25, 2.0, 0.25])

# the draw takes the column totals from the one stream, and the r blocks,
# drawn when first read, come from it too, so the draw is reproducible
again = sample_pi_blocks(cos, scheme, RngStream(7, 2))
print("\nsame stream, same draw:", bool(np.array_equal(draw.blocks, again.blocks)))
