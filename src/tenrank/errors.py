"""Exception types shared across the package."""


class SelectionError(ValueError):
    """Invalid subtensor selection (empty, unsorted, or out-of-range indices)."""


class FormatError(ValueError):
    """Malformed tensor file (either .tns variant)."""


class CapacityError(RuntimeError):
    """Brute-force enumeration refused: input exceeds a fixed size limit or the search budget."""


class NumericError(RuntimeError):
    """Numerical linear algebra failure (e.g. SVD did not converge)."""


class NoFullRankError(ValueError):
    """A rank function leaves a nonzero tensor without any full-rank subtensor:
    no proper rank function does, unless a tolerance makes it 0 there."""
