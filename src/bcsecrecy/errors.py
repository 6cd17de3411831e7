"""Exception types raised by the numeric kernels.

Everything derives from :class:`SecrecyError` so callers (and the CLI)
can distinguish library failures from ordinary input mistakes.
"""


class SecrecyError(Exception):
    """Base class for all numeric-contract violations in this package."""


class DimensionMismatchError(SecrecyError):
    """Operands have incompatible shapes."""


class NonHermitianError(SecrecyError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPositiveDefiniteError(SecrecyError):
    """A matrix required to be positive definite has a null or negative direction."""


class NotPositiveSemidefiniteError(SecrecyError):
    """A matrix required to be PSD has an eigenvalue below the negative tolerance."""


class RankDeficientError(SecrecyError):
    """A matrix required to have full column rank is numerically singular."""


class NoConvergenceError(SecrecyError):
    """The underlying eigenvalue iteration failed to converge."""


class NotOrthogonalError(SecrecyError):
    """The eigenvector blocks are not orthogonal enough for an exact factorization."""


class ZeroChannelError(SecrecyError):
    """Both channel matrices are numerically zero."""


class NoStrongChannelsError(SecrecyError):
    """Power was requested for a user with no subchannel of positive secrecy value."""
