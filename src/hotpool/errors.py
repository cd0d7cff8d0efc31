"""Exception types shared across the package, and the input checks.

Each class carries its CLI exit code as exit_code: InputError 2, DomainError
3, DegenerateSpectrumError 4. cli.main returns the code of the class raised.

Every scalar parameter goes through one of two checks. _check_real takes a
real value and an interval: a non-finite value is always refused with
"must be finite", any other value outside the interval with a message built
from it ("must be positive", "must be >= lo" or "must lie in (lo, hi]").
_check_int takes an integer and a range lo..hi, or lo alone. Every array
goes through _check_finite: "<name> must be finite", raised with the error
class its caller passes, so each site keeps its own class and exit code.
"""

import math

import numpy as np


class InputError(ValueError):
    """Malformed or inconsistent input (files, shapes, unsupported orders)."""
    exit_code = 2


class DomainError(ValueError):
    """Mathematically out-of-domain input (SPSD violations, bad parameters)."""
    exit_code = 3


class DegenerateSpectrumError(DomainError):
    """Eigenvalue collision too tight for derivative formulas to apply or for
    a rank-q eigenspace projector to be well defined."""
    exit_code = 4


def _check_real(x, name: str, lo: float = -math.inf, hi: float = math.inf,
                ends: str = "()") -> float:
    """x as a float, or DomainError unless it is finite and inside the interval.

    ends gives the brackets: "(" or "[" at lo, ")" or "]" at hi.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    if (x >= lo if ends[0] == "[" else x > lo) and (x <= hi if ends[1] == "]" else x < hi):
        return x
    if hi < math.inf:
        rule = f"lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    elif ends[0] == "[":
        rule = f"be >= {lo:g}"
    else:
        rule = "be positive" if lo == 0.0 else f"be > {lo:g}"
    raise DomainError(f"{name} must {rule}, got {x}")


def _check_int(x, name: str, lo: int, hi: float = math.inf) -> int:
    """x as an int, or InputError unless it is an integer, not a bool, in lo..hi."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not lo <= x <= hi:
        rule = f"in {lo}..{hi}" if hi < math.inf else f">= {lo}"
        raise InputError(f"{name} must be an integer {rule}, got {x!r}")
    return int(x)


def _check_finite(a: np.ndarray, name: str, error: type) -> np.ndarray:
    """a itself, or error unless every entry is finite."""
    if not np.isfinite(a).all():
        raise error(f"{name} must be finite")
    return a
