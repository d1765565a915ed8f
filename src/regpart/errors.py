"""Exception types shared across the library, and the internal-check helper."""


def ensure(condition, message):
    """Raise AssertionError, the sign of a bug in regpart, unless condition holds.

    Unlike an assert statement, python -O does not strip this check.
    """
    if not condition:
        raise AssertionError(message)


class RegPartError(Exception):
    """Base class for all regpart errors."""


class EmptySetError(RegPartError):
    """An operation received an empty vertex set where a nonempty one is required."""


class InvalidPartitionError(RegPartError):
    """Classes fail to partition the ground set, or sizes disagree with the graph."""


class BadEpsilonError(RegPartError):
    """Epsilon is out of range or not an exact rational."""


class TooLargeError(RegPartError):
    """Instance exceeds the configured size cap for an exhaustive procedure."""


class InvalidWitnessError(RegPartError):
    """A claimed irregularity witness fails exact re-validation."""


class NotSubsetError(RegPartError):
    """A set in a collection is not contained in the ground set being split."""


class BadParamsError(RegPartError):
    """Invalid generator or command parameters."""


class FormatError(RegPartError):
    """Malformed input file; carries the offending location when known."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)
