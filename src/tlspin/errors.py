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


class NormalizationFailure(TLSpinError):
    """No symmetrizer exists: a coefficient Delta_{m-1} of its recursion vanishes (q a root of unity)."""


class ConvergenceFailure(TLSpinError):
    """An iterative eigensolver failed to converge."""
