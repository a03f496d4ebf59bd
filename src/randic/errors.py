"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the domain an operation supports."""


class UnsupportedFamilyError(ValueError):
    """The requested variant is not defined for this graph family."""


class EdgeNotFoundError(LookupError):
    """An edge required by an operation is absent from the graph."""


class ConvergenceError(RuntimeError):
    """dqds, the eigensolver's one iteration, did not converge within its cap.

    Carries in ``residual`` the Frobenius norm of the superdiagonal of the
    bidiagonal still to be reduced: the square root of the sum of the qd
    array e over the values not yet found.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
