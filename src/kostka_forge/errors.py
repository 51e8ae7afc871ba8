"""Exception hierarchy for kostka_forge."""


class KostkaForgeError(Exception):
    """Base class for all library errors."""


class NotDivisible(KostkaForgeError):
    """Exact polynomial division left a nonzero remainder."""


class DivisionByZero(KostkaForgeError):
    """Division by the zero scalar or polynomial."""


class DimensionMismatch(KostkaForgeError):
    """Operands live in a different number of variables."""


class PoleAtSpecialization(KostkaForgeError):
    """A coefficient denominator vanishes at the requested (q, t) point."""


class IndexOutOfRange(KostkaForgeError):
    """Operator index outside the valid range for n variables."""


class NotAPartition(KostkaForgeError):
    """A partition was required but the parts are not weakly decreasing."""


class ZeroComposition(KostkaForgeError):
    """The operation needs a composition with at least one box."""


class TailNotPartition(KostkaForgeError):
    """The tail of the composition must be a partition for partial symmetrization."""


class NotInSpan(KostkaForgeError):
    """The polynomial does not lie in the span of the requested basis."""


class TooFewVariables(KostkaForgeError):
    """The construction needs at least as many variables as the degree."""


class SingularSystem(KostkaForgeError):
    """A linear system that is mathematically nonsingular failed to solve (bug signal)."""


class PreconditionViolated(KostkaForgeError):
    """An operation-specific precondition does not hold."""

