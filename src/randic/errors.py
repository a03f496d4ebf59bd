"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the domain an operation supports."""


class UnsupportedFamilyError(ValueError):
    """The requested variant is not defined for this graph family."""


class EdgeNotFoundError(LookupError):
    """An edge required by an operation is absent from the graph."""


class ConvergenceError(RuntimeError):
    """The iterative eigensolver did not converge within its iteration cap.

    Carries the remaining off-diagonal Frobenius norm in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
