"""Exception hierarchy.

Everything user-facing derives from InputError so the CLI can map bad
input to exit code 2 uniformly.  CrossCheckError signals an internal
consistency failure (exit code 3).
"""


class InputError(ValueError):
    """Invalid user input (bad dimensions, malformed data, ...)."""

    code = "invalid-input"


class DimensionMismatchError(InputError):
    code = "dimension-mismatch"


class InvalidChartError(InputError):
    code = "invalid-chart"


class PointAtInfinityError(InputError):
    """The denominator polynomial vanishes at the requested parameter."""

    code = "point-at-infinity"


class InvalidInstanceError(InputError):
    """The chart vanishes on a ground-set parameter."""

    code = "invalid-instance"


class InvalidIndexError(InputError, IndexError):
    """A label or position outside its range, or positions out of order."""

    code = "invalid-index"


class InvalidDecompositionError(InputError):
    code = "invalid-decomposition"


class UnderdeterminedInstanceError(InputError):
    """Fewer generating points than d+1."""

    code = "underdetermined-instance"


class DegenerateComplexError(InputError):
    code = "degenerate-complex"


class CrossCheckError(RuntimeError):
    """Two supposedly equivalent computations disagreed."""

    code = "cross-check-failure"
