"""Exception hierarchy.

Two families matter for callers: bad input (rejected before any numerics
run) and numerical failure (a computation refused to produce a value it
could not stand behind). The CLI maps them to exit codes 1 and 2.
"""


class QstsError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(QstsError):
    """Invalid argument, configuration or file content."""

    exit_code = 1


class RangeError(InputError):
    """Scalar argument outside its admissible range."""


class DimensionError(InputError):
    """Incompatible vector or matrix dimensions."""


class HermitianSymmetryViolation(InputError):
    """Coefficient set breaks the a_{-k} = conj(a_k) symmetry."""


class NotAdmissible(InputError):
    """Density or parameter fails an admissibility constraint (a > 1 etc.)."""


class TooSmall(InputError):
    """Problem size too small for the requested block partition."""


class SchemaError(InputError):
    """Config or serialized object fails schema validation."""


class NumericalError(QstsError):
    """A numerical routine could not complete reliably."""

    exit_code = 2


class NotFaithful(NumericalError):
    """State is not strictly faithful: lambda_min(A) too close to 1."""


class NotPSD(NumericalError):
    """Matrix required positive semidefinite has a negative eigenvalue."""


class EigenFailure(NumericalError):
    """Eigendecomposition failed or required an inadmissible clamp."""


class SpectralRangeError(NumericalError):
    """Spectral bracket precondition (e.g. (1-lam)I < R < lam I) fails."""


class NonConvergence(NumericalError):
    """Iterative method did not reach tolerance within its budget."""


class SingularSystem(NumericalError):
    """Linear system too ill-conditioned to solve."""


class DegenerateSamples(NumericalError):
    """Monte Carlo sample set unusable (e.g. zero variance coordinate)."""


class AuditFailure(QstsError):
    """An audit row violated a bound that is a proven theorem."""

    exit_code = 3
