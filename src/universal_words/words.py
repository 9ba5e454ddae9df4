"""Words over the integer alphabet {1, ..., sigma} and their text format."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache

from .errors import AlphabetMismatch, ParseError, SymbolOutOfRange


class _Value:
    """An immutable record whose fields are its __slots__.

    Instances of the same class compare and hash by their fields, and repr
    as Class(field=value, ...). Fields are set once with object.__setattr__;
    assigning or deleting one afterwards raises AttributeError.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Alphabet(_Value):
    """The ordered alphabet {1, ..., sigma}."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: int):
        if sigma < 1:
            raise AlphabetMismatch(f"alphabet size must be at least 1, got {sigma}")
        object.__setattr__(self, "sigma", sigma)


@lru_cache(maxsize=None)
def _alphabet(sigma: int) -> Alphabet:
    return Alphabet(sigma)


class Word(_Value):
    """An immutable word; symbols are 1-based integers within the alphabet."""

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: tuple[int, ...], alphabet: Alphabet):
        sigma = alphabet.sigma
        if not all(1 <= s <= sigma for s in symbols):
            for pos, s in enumerate(symbols, 1):
                if not 1 <= s <= sigma:
                    raise SymbolOutOfRange(pos, s)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "alphabet", alphabet)

    @classmethod
    def _trusted(cls, symbols: tuple[int, ...], alphabet: Alphabet) -> "Word":
        """A word whose symbols are in range by construction: skips the O(n) check."""
        w = object.__new__(cls)
        object.__setattr__(w, "symbols", symbols)
        object.__setattr__(w, "alphabet", alphabet)
        return w

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, sigma={self.alphabet.sigma})"


def make_word(symbols: Sequence[int], sigma: int) -> Word:
    """Build a word over {1..sigma}, validating every symbol."""
    return Word(tuple(symbols), _alphabet(sigma))


# byte value s -> ASCII digit s, for words over at most nine symbols
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_word(w: Word) -> str:
    """Canonical text: concatenated digits (sigma <= 9) or comma-separated numbers."""
    symbols = tuple(w.symbols)
    if w.alphabet.sigma <= 9:
        return bytes(symbols).translate(_DIGITS).decode()
    return (",%d" * len(symbols))[1:] % symbols


class _Tokens(dict):
    """Canonical token text -> symbol for one sigma: "1" .. str(sigma), no
    leading zero. Filled on first sight, so it never holds more entries than
    distinct tokens seen; any other key raises KeyError and is not stored."""

    __slots__ = ("sigma", "width")

    def __init__(self, sigma: int):
        self.sigma = sigma
        self.width = len(str(sigma))

    def __missing__(self, token: str) -> int:
        if token.isascii() and token.isdigit() and token[0] != "0" and len(token) <= self.width:
            value = int(token)
            if value <= self.sigma:
                self[token] = value
                return value
        raise KeyError(token)


@lru_cache(maxsize=32)
def _tokens(sigma: int) -> _Tokens:
    return _Tokens(sigma)


# ASCII digit d -> byte value d, for words over at most nine symbols
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_word(text: str, sigma: int) -> Word:
    """Inverse of format_word. Empty text parses to the empty word.

    Only the ASCII digits 0-9 are accepted, never other Unicode digits. In
    comma mode a number with more digits than sigma is a ParseError, so no
    token is converted whatever its length.

    Well-formed text is read in C: in digit mode by deleting the allowed
    digits with bytes.translate and mapping the rest to symbols, in comma mode
    by one lookup per token in the _Tokens table of canonical tokens. Anything
    else (leading zeros, empty tokens, other characters, values out of range)
    falls through to a loop over characters or tokens, which accepts what is
    valid and reports the first bad position.
    """
    alphabet = _alphabet(sigma)
    if sigma <= 9:
        if text.isascii():
            data = text.encode()
            if not data.translate(None, b"123456789"[:sigma]):
                return Word._trusted(tuple(data.translate(_FROM_DIGITS)), alphabet)
        symbols = []
        for pos, ch in enumerate(text, 1):
            value = ord(ch) - 48  # "0".."9" -> 0..9; every other character falls outside
            if not 1 <= value <= sigma:
                if not 0 <= value <= 9:
                    raise ParseError(pos, f"expected a digit, got {ch!r}")
                raise SymbolOutOfRange(pos, value)
            symbols.append(value)
        return Word._trusted(tuple(symbols), alphabet)
    if text == "":
        return Word._trusted((), alphabet)
    tokens = text.split(",")
    table = _tokens(sigma)
    try:
        return Word._trusted(tuple(map(table.__getitem__, tokens)), alphabet)
    except KeyError:
        pass
    width = table.width
    symbols = []
    offset = 1  # 1-based character position of the current token
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ParseError(offset, f"expected a number, got {token!r}")
        if len(token) > width and len(token.lstrip("0")) > width:
            raise ParseError(offset, f"{len(token)}-digit number exceeds sigma={sigma}")
        value = int(token)
        if not 1 <= value <= sigma:
            raise SymbolOutOfRange(len(symbols) + 1, value)
        symbols.append(value)
        offset += len(token) + 1
    return Word._trusted(tuple(symbols), alphabet)
