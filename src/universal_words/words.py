"""Words over the integer alphabet {1, ..., sigma} and their text format."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from .counting import _check_params
from .errors import ParseError, SymbolOutOfRange, _int_text


class _Value:
    """An immutable record whose fields are its __slots__.

    Instances of the same class compare and hash by their fields, and repr
    as Class(field=value, ...). Fields are set once, by the __set__ of each
    field's slot descriptor, which a subclass looks up once after its class
    body; assigning or deleting one afterwards raises AttributeError.
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
        fields = ", ".join(
            f"{name}={_int_text(v) if type(v) is int else repr(v)}"
            for name, v in zip(self.__slots__, self._fields())
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Word(_Value):
    """An immutable word over {1, ..., sigma}: a tuple of 1-based integer symbols.

    Word(symbols, sigma) checks sigma and every symbol and stores the symbols
    as a tuple; make_word is the same constructor. A symbol must be an int
    (not a bool or a float, even one equal to an int) in 1..sigma. One loop
    checks the symbols in order and raises SymbolOutOfRange at the first bad
    one.
    """

    __slots__ = ("symbols", "sigma")

    def __init__(self, symbols: Iterable[int], sigma: int):
        _check_params(0, 0, sigma)
        symbols = tuple(symbols)
        for pos, s in enumerate(symbols, 1):
            if type(s) is not int or not 1 <= s <= sigma:
                raise SymbolOutOfRange(pos, s)
        _set_symbols(self, symbols)
        _set_sigma(self, sigma)

    @classmethod
    def _trusted(cls, symbols: tuple[int, ...], sigma: int) -> "Word":
        """A word whose symbols are in range by construction: skips the O(n) check."""
        w = _new(cls)
        _set_symbols(w, symbols)
        _set_sigma(w, sigma)
        return w

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, sigma={_int_text(self.sigma)})"


_new = object.__new__
_set_symbols = Word.symbols.__set__
_set_sigma = Word.sigma.__set__

make_word = Word


# byte value s -> ASCII digit s, for words over at most nine symbols
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class _Texts(dict):
    """Symbol -> its decimal text, filled on first sight, so it never holds
    more entries than distinct symbols formatted. A symbol's text does not
    depend on sigma, so one cache serves every alphabet."""

    __slots__ = ()

    def __missing__(self, symbol: int) -> str:
        text = self[symbol] = str(symbol)
        return text


_texts = _Texts()


def format_word(w: Word) -> str:
    """Canonical text: concatenated digits (sigma <= 9) or comma-separated numbers."""
    if w.sigma <= 9:
        return bytes(w.symbols).translate(_DIGITS).decode()
    return ",".join(map(_texts.__getitem__, w.symbols))


class _Tokens(dict):
    """Canonical token text -> symbol for one sigma: "1" .. str(sigma), no
    leading zero. Filled on first sight, so it never holds more entries than
    distinct tokens seen; any other key raises KeyError and is not stored."""

    __slots__ = ("sigma", "width")

    def __init__(self, sigma: int):
        self.sigma = sigma
        # the digits of sigma, counted without str(), which raises past the
        # int/str digit limit: (bit length - 1) * log10(2) is at most one less
        # than the count, and float rounding lifts it by at most one
        self.width = int((sigma.bit_length() - 1) * 0.30102999566398120)
        while 10**self.width <= sigma:
            self.width += 1

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
    else falls through to a loop that reports the first bad position. In
    digit mode that loop over characters only finds the bad one; in comma mode
    the loop over tokens also accepts valid tokens the table lacks (leading
    zeros) and rejects empty tokens, other characters and values out of range.
    """
    _check_params(0, 0, sigma)
    if sigma <= 9:
        if text.isascii():
            data = text.encode()
            if not data.translate(None, b"123456789"[:sigma]):
                return Word._trusted(tuple(data.translate(_FROM_DIGITS)), sigma)
        for pos, ch in enumerate(text, 1):
            value = ord(ch) - 48  # "0".."9" -> 0..9; every other character falls outside
            if not 1 <= value <= sigma:
                if not 0 <= value <= 9:
                    raise ParseError(pos, f"expected a digit, got {ch!r}")
                raise SymbolOutOfRange(pos, value)
        raise AssertionError("no bad character in text the fast path refused")
    if text == "":
        return Word._trusted((), sigma)
    tokens = text.split(",")
    table = _tokens(sigma)
    try:
        return Word._trusted(tuple(map(table.__getitem__, tokens)), sigma)
    except KeyError:
        pass
    width = table.width
    symbols = []
    offset = 1  # 1-based character position of the current token
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ParseError(offset, f"expected a number, got {token!r}")
        if len(token) > width and len(token.lstrip("0")) > width:
            raise ParseError(offset, f"{len(token)}-digit number exceeds sigma={_int_text(sigma)}")
        value = int(token)
        if not 1 <= value <= sigma:
            raise SymbolOutOfRange(len(symbols) + 1, value)
        symbols.append(value)
        offset += len(token) + 1
    return Word._trusted(tuple(symbols), sigma)
