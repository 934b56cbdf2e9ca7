"""Exception types shared across the package, and one checker per kind of argument.

The CLI maps these onto distinct exit codes, so library code should raise
them instead of bare ValueError/RuntimeError wherever the failure class
matters to a caller.  Each checker's ``name`` is the argument as the
user knows it: a field name in the library, a flag name in the CLI.
"""

import operator

import numpy as np


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class NumericalError(RuntimeError):
    """A linear-algebra or floating-point failure that survived retries.

    Carries optional context (subset size, iteration) so long runs can be
    diagnosed without a debugger.
    """

    def __init__(self, message, *, n=None, iteration=None):
        if n is not None:
            message += f" [n={n}]"
        if iteration is not None:
            message += f" [iteration={iteration}]"
        super().__init__(message)
        self.n = n
        self.iteration = iteration


def _checked_int(value, name: str, low=None, high=None) -> int:
    """``value`` as an int in [low, high], where an absent bound is open.

    ``operator.index`` accepts Python and NumPy integers and rejects
    floats, 2.0 included, so a count of 2.7 is an error rather than 2.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = (f"in [{low}, {high}]" if low is not None and high is not None
                  else f">= {low}" if low is not None else f"<= {high}")
        raise InvalidParameterError(f"{name} must be {bounds}, got {value}")
    return value


def _checked_seed(value, name: str = "seed") -> int:
    """The seed as an int; raises unless it is a 64-bit unsigned integer."""
    seed = _checked_int(value, name)
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"{name} must be a 64-bit unsigned integer, got {seed}")
    return seed


def _checked_positive(value, name: str) -> None:
    """Raises unless ``value`` is finite and > 0 (NaN fails)."""
    if not (value > 0.0 and np.isfinite(value)):
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value}")


def _checked_indices(values, name: str, N=None) -> np.ndarray:
    """``values`` as ``int64``; raises unless a nonempty 1-d list of sorted
    distinct integers >= 0 (and < N if given).  Integer dtypes only, so 0.5
    is no index."""
    a = np.asarray(values)
    if a.ndim == 1 and a.size >= 1 and a.dtype.kind in "iu":
        a = a.astype(np.int64, copy=False)
        if a[0] >= 0 and (N is None or a[-1] < N) and np.all(a[1:] > a[:-1]):
            return a
    below = "" if N is None else f" below {N}"
    raise InvalidParameterError(f"{name} must be a nonempty 1-d list of sorted distinct "
                                f"nonnegative integers{below}, got {a!r}")
