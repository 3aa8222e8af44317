"""Error taxonomy shared by all abelmod modules.

Every domain error carries a stable ``code`` string so the command line
front end can map it to a machine-readable JSON payload.  Malformed input
(bad JSON, wrong schema) is a different failure class and is raised as
:class:`SchemaError`.
"""

from __future__ import annotations


class AbelmodError(Exception):
    """Base class for domain errors.  ``code`` is stable across releases."""

    code = "DomainError"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail or self.code)


class ModeMismatchError(AbelmodError):
    code = "ModeMismatch"


class NoSolutionError(AbelmodError):
    code = "NoSolution"


class NonSplitCharPolyError(AbelmodError):
    code = "NonSplitCharPoly"


class SingularGroupElementError(AbelmodError):
    code = "SingularGroupElement"


class DegeneratePeriodMatrixError(AbelmodError):
    code = "DegeneratePeriodMatrix"


class TauZeroError(AbelmodError):
    code = "TauZero"


class NotCommutingError(AbelmodError):
    code = "NotCommuting"

    def __init__(self, i: int, j: int, norm: float):
        self.pair = (i, j)
        self.norm = norm
        super().__init__(f"members {i} and {j} do not commute (commutator norm {norm:.3e})")


class NotStableError(AbelmodError):
    code = "NotStable"


class FlagNotInvariantError(AbelmodError):
    code = "FlagNotInvariant"


class WeightsNotDecreasingError(AbelmodError):
    code = "WeightsNotDecreasing"


class DuplicatePointError(AbelmodError):
    code = "DuplicatePoint"


class ZeroEigenvalueError(AbelmodError):
    code = "ZeroEigenvalue"


class LogAtZeroError(AbelmodError):
    code = "LogAtZero"


class PieceCollisionError(AbelmodError):
    code = "PieceCollision"


class SchemaError(Exception):
    """Malformed or unrecognized input payload (not a domain error)."""
