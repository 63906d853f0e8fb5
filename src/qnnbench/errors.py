"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class DegenerateActivationError(ArithmeticError):
    """Raised when a unit-circle activation receives an exactly zero sum."""

