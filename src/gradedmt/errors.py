"""Exception types shared across the package."""


class GradedmtError(Exception):
    """Base class for all library errors."""


class FormatError(GradedmtError):
    """Malformed input data: wrong table shape, out-of-range index, bad file."""


class SignatureError(GradedmtError):
    """Symbol clash, unknown symbol, or arity mismatch against a signature."""


class ChainMismatchError(GradedmtError):
    """A truth constant or algebra map does not fit the chain in use, or two structures are over two chains."""


class ParseError(GradedmtError):
    """Lexical or grammatical error in formula or theory text."""


class BudgetError(GradedmtError):
    """An enumerative search would exceed the configured budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class PreconditionError(GradedmtError):
    """A stated precondition of an operation failed; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalError(GradedmtError):
    """Two internal computations of the same value disagree: a bug in gradedmt."""
