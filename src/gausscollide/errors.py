"""Exception types for numerical-degeneracy conditions."""


class GaussCollideError(Exception):
    """Base class for degeneracy errors raised by this package."""


class DegenerateCovarianceError(GaussCollideError):
    """Covariance determinant collapsed below the representable floor."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index  # stack position of the degenerate matrix, when known


class SingularIntermediateMapError(GaussCollideError):
    """Previous-step channel matrix is numerically singular, the
    intermediate map is undefined at this step."""
