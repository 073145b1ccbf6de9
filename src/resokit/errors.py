"""Exception types shared across the toolkit.

Every failure that a caller can reasonably branch on gets its own class;
plain ValueError is reserved for violated argument preconditions.
"""


class ToolkitError(Exception):
    """Base class for toolkit-specific failures."""


class TouchstoneError(ToolkitError):
    """Touchstone text could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SingularNetworkError(ToolkitError):
    """An S/Y conversion hit a numerically singular matrix, or one too large
    to invert in float64.

    ``frequency`` is the first grid point at which the conversion failed.
    """

    def __init__(self, message: str, frequency: float | None = None):
        self.frequency = frequency
        if frequency is not None:
            message = f"{message} at {frequency:.6g} Hz"
        super().__init__(message)


class EstimationError(ToolkitError):
    """A direct estimator could not produce a value from the given trace."""


class InductiveBackgroundError(EstimationError):
    """The static capacitance of the seed's whole-trace solve came out
    non-positive.

    That value (F), the slope of the static susceptance, is attached as
    ``slope`` so callers can report how inductive the background looked.
    """

    def __init__(self, slope: float):
        self.slope = slope
        super().__init__(
            f"static capacitance of the seed is not positive ({slope:.6g} F)"
        )


class DegenerateCouplingError(ToolkitError):
    """Requested coupling maps to a motional capacitance below the physical floor."""


class FitError(ToolkitError):
    """The fit engine could not run or produced a non-finite cost.

    ``iteration`` is the 1-based iteration index when the failure happened
    mid-run, None when the seed itself was bad.
    """

    def __init__(self, message: str, iteration: int | None = None):
        self.iteration = iteration
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)


class GeometryError(ToolkitError):
    """An electrode layout request is unbuildable or yields no coupled modes."""
