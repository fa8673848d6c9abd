"""Exception types shared across the package."""


class FlutterSpecError(Exception):
    """Base class for all flutterspec errors."""


class NumericalError(FlutterSpecError):
    """An SVD broke down.  A singular bordered Newton system is a ConvergenceError."""


class ConvergenceError(FlutterSpecError):
    """An iterative solve did not reach tolerance.

    Carries the best iterate seen so that callers (step-size control,
    diagnostics) can act on partial progress.
    """

    def __init__(self, message, best=None, iterations=0):
        super().__init__(message)
        self.best = best
        self.iterations = iterations


class DegenerateTangentError(FlutterSpecError):
    """No tangent: a secant between coincident points, or a start at a non-simple eigenvalue."""
