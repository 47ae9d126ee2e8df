"""Exception hierarchy shared across the package."""


class NormMinError(Exception):
    """Base class for all package-specific failures."""


class InvalidInputError(NormMinError, ValueError):
    """Malformed numeric input: wrong shape, non-finite entries, bad parameters."""


class DimensionMismatchError(InvalidInputError):
    """Two vectors that must live in the same space do not."""


class ArityMismatchError(InvalidInputError):
    """Block count of an argument disagrees with the norm or instance arity."""


class MembershipViolationError(NormMinError):
    """A user-supplied generator left the admissible class on sampled points."""


class ContractError(NormMinError):
    """An operation was called outside its stated preconditions."""


class UnsupportedGeneratorError(ContractError):
    """The operation has no route for this generator kind."""


class BudgetExceededError(NormMinError):
    """A grid or enumeration request exceeds the configured size cap."""


class InputFormatError(NormMinError):
    """JSON input does not match the documented schema.

    ``field`` names the offending entry so command-line errors can point at it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field '{field}': {message}")
