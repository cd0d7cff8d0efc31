"""Exception types shared across the package.

The CLI maps these onto its exit codes: InputError -> 2, DomainError -> 3,
DegenerateSpectrumError -> 4.
"""


class InputError(ValueError):
    """Malformed or inconsistent input (files, shapes, unsupported orders)."""


class DomainError(ValueError):
    """Mathematically out-of-domain input (SPSD violations, bad parameters)."""


class DegenerateSpectrumError(DomainError):
    """Eigenvalue collision too tight for derivative formulas to apply or for
    a rank-q eigenspace projector to be well defined."""
