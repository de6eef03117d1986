"""Exception types shared across the library."""


class TLSpinError(Exception):
    """Base class for all tlspin errors."""


class SingularMatrix(TLSpinError):
    """Matrix is not invertible at the working tolerance."""


class DegenerateParameter(TLSpinError):
    """Parameter lands on an excluded point (tau = +-2, q = +-1, or |q| = 1)."""


class SizeBudgetExceeded(TLSpinError):
    """Requested operator exceeds the configured size budget."""


class ZeroSpectralParameter(TLSpinError):
    """Spectral parameter must be nonzero."""


class UnsupportedDimension(TLSpinError):
    """Operation requires a specific local dimension or family."""


class ConventionMismatch(TLSpinError):
    """The Casimir contraction is not a scalar within its threshold."""


class NoConsistentAssignment(TLSpinError):
    """Spectrum clusters disagree with the eigenvalues of the Temperley-Lieb standard modules."""


class NormalizationFailure(TLSpinError):
    """Trace normalization of a projector candidate is ill-defined or wrong."""


class ConvergenceFailure(TLSpinError):
    """An iterative eigensolver failed to converge."""
