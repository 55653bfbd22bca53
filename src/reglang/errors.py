"""Exception types shared across the package."""


class ReglangError(Exception):
    """Base class for all package-specific errors."""


class RegexSyntaxError(ReglangError):
    """Malformed regular-expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AlphabetError(ReglangError):
    """A symbol or alphabet violates a declared constraint."""


class StateLimitError(ReglangError):
    """An automaton construction exceeded the configured state budget."""


class BudgetError(ReglangError):
    """A computation or its output would exceed a budget: a brute-force
    enumeration the oracle budget, or an exact count printed by the
    command line the interpreter's limit on the digits of an int
    converted to text."""


class TrivialComponentError(ReglangError):
    """Period is undefined for a single vertex without a self-loop."""


class DuplicateLanguageError(ReglangError):
    """An operation requiring pairwise distinct languages saw a duplicate."""


class ConvergenceError(ReglangError):
    """An iterative computation missed its tolerance within its cap.

    Carries the partial value and whatever diagnostics were gathered, so
    callers can still report something useful.
    """

    def __init__(self, message: str, partial=None, diagnostics=None):
        super().__init__(message)
        self.partial = partial
        self.diagnostics = dict(diagnostics or {})
