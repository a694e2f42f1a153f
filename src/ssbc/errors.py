"""Exception types shared across the package, and the integer check that raises one.

The CLI maps these onto process exit codes: parameter/usage problems
exit 1, data problems exit 2, numerical failures and size-guard
violations exit 3.
"""

import numpy as np


class SsbcError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SsbcError):
    """An argument violates a documented precondition (bad shape, bad range)."""


class DataError(SsbcError):
    """Input data is unusable: I/O failure, unparseable cells, empty or degenerate sets."""


class NumericalError(SsbcError):
    """A numerical routine failed (SVD non-convergence, undefined basis)."""


class GuardError(SsbcError):
    """A dense-computation size guard was exceeded."""


def check_int(value, name, low, high=None):
    """value as an int, if it is an integer in [low, high] (no upper bound if high is None).

    Otherwise a ParameterError names the argument, its bound and the value given.
    """
    if (not isinstance(value, (int, np.integer)) or value < low
            or (high is not None and value > high)):
        bound = ">= %d" % low if high is None else "in [%d, %d]" % (low, high)
        raise ParameterError("%s must be an integer %s, got %r" % (name, bound, value))
    return int(value)
