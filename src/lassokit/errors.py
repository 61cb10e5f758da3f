"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised when expression or lasso text does not conform to the grammar."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class NullableLoopError(ValueError):
    """A loop operator (@ or $) was applied to an expression accepting the empty word."""


class AlphabetMismatchError(ValueError):
    """Two automata with different alphabets were combined."""


class StateLimitError(RuntimeError):
    """A construction exceeded langops.STATE_CAP states, or a certificate
    langops.POSITION_CAP positions: a resource limit, not a bug."""


class CertificationError(RuntimeError):
    """An internal self-check failed; indicates a bug, not bad input."""


class AutomatonFormatError(ValueError):
    """Raised when an automaton file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
