"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all covertq errors."""


class NotHermitianError(ToolkitError):
    """Operator failed the Hermitian symmetry check."""


class DimMismatchError(ToolkitError):
    """Operator or state dimensions are incompatible."""


class SingularReferenceError(ToolkitError):
    """Reference state is singular where full rank / strict positivity is required."""


class InvalidGammaError(ToolkitError):
    """Hockey-stick parameter out of range (gamma < 1)."""


class InvalidParameterError(ToolkitError):
    """Scalar parameter outside its valid range."""


class NotTracePreservingError(ToolkitError):
    """Kraus family does not sum to the identity."""


class IndexOutOfRangeError(ToolkitError):
    """Message/key/basis index outside its valid range."""


class AssumptionViolationError(ToolkitError):
    """A support-inclusion assumption of the covert setting failed."""


class TrivialTestError(ToolkitError):
    """Warden's two outputs coincide, so the detection test is vacuous."""


class BudgetExceededError(ToolkitError):
    """A computation would hold more bytes than the memory budget allows."""


class DuplicateWordError(ToolkitError):
    """A classical string repeats inside one quantum codeword superposition."""
