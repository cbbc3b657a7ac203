"""Exception types shared across the package.

The CLI maps these onto process exit codes: invalid input 2, numerical
failure 3, a safety cap exceeded 4.
"""


class InvalidInputError(ValueError):
    """Malformed or inconsistent problem data (dimensions, budgets, flags)."""


class StructuralError(ValueError):
    """The graph or matrix lacks required structure, e.g. connectivity."""


class NumericalError(RuntimeError):
    """An iterative method failed to reach its tolerance."""

    def __init__(self, message: str, achieved_residual: float | None = None):
        super().__init__(message)
        self.achieved_residual = achieved_residual


class CapExceededError(RuntimeError):
    """A safety cap (branch-and-bound nodes, dense node count) was hit."""


class ResampleExhaustedError(NumericalError):
    """Rounding resample repair ran out of attempts; carries the last draw."""

    def __init__(self, message: str, last_draw=None):
        super().__init__(message)
        self.last_draw = last_draw


class InfeasibleShrinkageError(InvalidInputError):
    """The budget is too tight for the requested shrinkage failure rate."""
