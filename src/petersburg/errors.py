"""Exception types shared across the package.

The hierarchy mirrors how callers need to react: bad numeric input
(``DomainError`` family) versus a numeric procedure that could not finish
(``SolverError`` family).  The CLI maps the first family to exit code 2 and
the second to exit code 3.
"""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class SignError(DomainError):
    """The belief parameter has the wrong sign for an unbounded utility family.

    When expected utilities grow without bound, only a strictly negative
    belief parameter yields a normalizable distribution.
    """


class SingularAttributeError(DomainError):
    """The inverse-absolute-value attribute is evaluated at utility zero."""


class SolverError(RuntimeError):
    """A root-finding or optimization procedure failed to converge."""


class TruncationError(SolverError):
    """Series truncation did not reach the requested tolerance by max_index."""


class CalibrationError(SolverError):
    """The self-consistency equation for the disbelief parameter has no root."""


def check_positive_index(value: object, name: str) -> None:
    """Raise DomainError unless ``value`` is an int >= 1; a bool is not."""
    if type(value) is not int or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
