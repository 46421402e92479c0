"""The full estimation pipeline on simulated measurements.

Preliminary estimate by orthogonality, projection onto the admissible
parameter set, then the one-step weighted estimator.  A small Monte Carlo
run shows unbiasedness and the scaling of the estimator covariance; the
nonparametric truncated-series estimator closes the loop.
"""

import numpy as np

from qsts import (
    NumberOpSampler,
    RealParam,
    RngStream,
    SpectralDensity,
    block_scheme,
    mc_run,
    nonparametric_estimate,
    onestep_estimator,
    phi_matrices,
    sample_pi_blocks,
    theta2prime_space,
    toeplitz_from_density,
)

cos = SpectralDensity.cosine(2.0, 0.5)
truth = RealParam.from_density(cos, d=1).theta
print("true theta (sin, const, cos coordinates):", np.round(truth, 6))

scheme = block_scheme(2048, d=1)
space = theta2prime_space(1, 5.0)


def one_run(stream):
    draw = sample_pi_blocks(cos, scheme, stream)
    return onestep_estimator(draw.pi_bar, scheme.m, 1, space)


single = one_run(RngStream(11, 0))
print("one-step estimate from a single draw:", np.round(single, 4))

out = mc_run(one_run, 2000, seed=11)
print("\nMonte Carlo mean over 2000 draws:", np.round(out.mean, 4))
print("deviation from truth in SE units:",
      np.round((out.mean - truth) / out.se, 2))

# the information matrix whose inverse is the large-sample covariance target
_, phi = phi_matrices(truth, 1)
print("\nphi matrix:")
print(np.round(phi, 4))
scaled = out.cov * (scheme.r * scheme.m)
print("rm x empirical covariance (approaches inv(phi) as blocks grow):")
print(np.round(scaled, 4))

# nonparametric estimate from one long measurement vector
n = 513
sampler = NumberOpSampler(toeplitz_from_density(cos, n))
N = sampler.draw(RngStream(11, 999))
density, theta_hat = nonparametric_estimate(2.0 * N + 1.0, d_n=4)
print("\nnonparametric coefficient estimates at n=513:")
print("  a_0 =", round(density.coeff(0).real, 4), "(truth 2.0)")
print("  a_1 =", round(density.coeff(1).real, 4), "(truth 0.25)")
print("  a_3 =", round(density.coeff(3).real, 4), "(truth 0)")
