"""Quantum stationary time series: simulation, estimation and audits.

A shift- and gauge-invariant n-mode Gaussian state is parameterized by an
n x n Hermitian Toeplitz symbol built from a spectral density a(w) >= 1.
This package provides the symbol machinery, the closed-form relative
entropy between such states, an exact sampler for the commuting
number-operator measurement, the associated parameter estimators, and
finite-size numerical audits of the statistical-equivalence bounds that
link the quantum model to geometric regression and Gaussian white noise.
"""

__version__ = "0.1.0"

from .errors import (
    AuditFailure,
    DegenerateSamples,
    DimensionError,
    EigenFailure,
    HermitianSymmetryViolation,
    InputError,
    NonConvergence,
    NotAdmissible,
    NotFaithful,
    NotPSD,
    NumericalError,
    QstsError,
    RangeError,
    SchemaError,
    SingularSystem,
    SpectralRangeError,
    TooSmall,
)
from .spectral import (
    MembershipWitness,
    ParameterSpace,
    RealParam,
    SpectralDensity,
    eval_density,
    fourier_truncate,
    local_averages,
    membership,
    parse_density,
    psi_matrix,
    sobolev_norm,
    theta1_space,
    theta2_space,
    theta2prime_space,
)
from .toeplitz import (
    SymbolMatrix,
    abs_square,
    circulant_block,
    circulant_eigs,
    circulant_from_density,
    dft_unitary,
    eigen_bracket_check,
    hs_distance,
    toeplitz_circulant_gap,
    toeplitz_from_density,
)
from .gaussian_states import (
    covariance_from_symbol,
    entropy_symbol_bound,
    pinsker_trace_bound,
    relative_entropy,
    thermal_pmf,
)
from .distributions import (
    chernoff_geo,
    chernoff_geo_inf,
    chernoff_quantum,
    chernoff_quantum_inf,
    geo_kl,
    geo_sample,
    geo_stats,
    hellinger_geo,
    nb_hellinger_bound_shapes,
    nb_hellinger_bound_symbols,
    nb_sample,
    varstab_arccosh,
    varstab_ode_residual,
)
from .measurement import (
    BlockScheme,
    MeasurementDraw,
    NumberOpSampler,
    block_scheme,
    joint_pmf_from_pgf,
    pi_moments,
    sample_pi_blocks,
)
from .estimators import (
    DesignMatrices,
    FisherMatrices,
    design_matrices,
    exact_pi_bar_mean,
    improved_estimator,
    nonparametric_estimate,
    onestep_estimator,
    phi_matrices,
    preliminary_estimator,
    project_theta,
    weighted_estimator,
)
from .experiments import (
    AuditReport,
    WhiteNoisePath,
    audit_hellinger_chain,
    audit_state_approximation,
    nb_sufficiency_test,
    simulate_geo_regression,
    simulate_white_noise,
)
from .harness import (
    McSummary,
    NormalityReport,
    RngStream,
    ks_critical,
    ks_statistic,
    mc_run,
    normality_check,
)
