"""Exception types shared across the package."""


def _int_text(value: int) -> str:
    """str(value), or its sign and bit length, such as <66439-bit int>, where
    str() would exceed the interpreter's int/str digit limit: a message that
    holds a huge int then still raises the error it belongs to."""
    try:
        return str(value)
    except ValueError:
        return f"<{'-' if value < 0 else ''}{value.bit_length()}-bit int>"


class UniversalWordsError(Exception):
    """Base class for every error raised by this package."""


class SymbolOutOfRange(UniversalWordsError, ValueError):
    """A symbol lies outside the alphabet range [1, sigma]."""

    def __init__(self, position: int, value: int):
        super().__init__(
            f"symbol {_int_text(value)} at position {position} is not in the alphabet"
        )
        self.position = position
        self.value = value


class ParseError(UniversalWordsError, ValueError):
    """Word text does not follow the canonical format."""

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (position {position})")
        self.position = position


class LengthMismatch(UniversalWordsError, ValueError):
    """Two words, or a word and a table, disagree on length."""


class AlphabetMismatch(UniversalWordsError, ValueError):
    """An alphabet size is below 1, or operands were built over different alphabets."""


class InvalidK(UniversalWordsError, ValueError):
    """The universality target k is outside the supported range."""


class RankOutOfRange(UniversalWordsError, ValueError):
    """A rank does not address any word of the target set."""

    def __init__(self, rank: int, set_size: int):
        super().__init__(f"rank {_int_text(rank)} out of range (set size {_int_text(set_size)})")
        self.rank = rank
        self.set_size = set_size


class EmptySet(UniversalWordsError, ValueError):
    """The target set has no members at all."""


class GuardExceeded(UniversalWordsError, ValueError):
    """A brute-force call would exceed its hard size guard."""
