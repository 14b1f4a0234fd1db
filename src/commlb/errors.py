"""Exception hierarchy shared by all commlb modules."""


class CommlbError(Exception):
    """Base class for all library errors."""


class DimensionError(CommlbError):
    """Objects with incompatible sizes were combined."""


class ParameterError(CommlbError):
    """A numeric parameter is outside its documented range."""


class CapacityError(CommlbError):
    """An instance exceeds a configured enumeration or DP cap."""


class FormatError(CommlbError):
    """A text input (COMMDIST / COMMFN / COMMPROT) is malformed."""


class DegenerateInputError(CommlbError):
    """The input is structurally degenerate for the requested operation."""


class ConditioningError(CommlbError):
    """Conditioning on a zero-probability event was requested."""


class SolverError(CommlbError):
    """A numerical engine failed: the LP simplex stalled, or the two
    information-cost paths disagree."""
