import random
import sys

import pytest
from hypothesis import given, strategies as st

from universal_words import (
    AlphabetMismatch,
    ParseError,
    SymbolOutOfRange,
    UniversalWordsError,
    Word,
    format_word,
    make_word,
    parse_word,
)


def test_make_word_accepts_valid_symbols():
    w = make_word([1, 2, 1, 2], 2)
    assert w.symbols == (1, 2, 1, 2)
    assert len(w) == 4
    assert w.sigma == 2


def test_make_word_rejects_out_of_range_symbol_with_position():
    with pytest.raises(SymbolOutOfRange) as info:
        make_word([1, 3], 2)
    assert info.value.position == 2
    assert info.value.value == 3


def test_make_word_rejects_zero_symbol():
    with pytest.raises(SymbolOutOfRange):
        make_word([0], 3)


@pytest.mark.parametrize(
    "symbols, position",
    [
        ([1.5, 2], 1),
        ([True, 2], 1),
        ([1, 2, 2.0], 3),
        ([2, False], 2),
        ([1, "2"], 2),
        ([1, None], 2),
        ([1] * 600 + [1.0] + [2] * 600, 601),
    ],
    ids=["float", "true", "integral-float", "false", "text", "none", "long"],
)
def test_make_word_rejects_non_int_symbol_with_position(symbols, position):
    # a bool or a float equal to a symbol is refused too: it would pass a
    # range check, then fail in rank or format_word with a bare TypeError
    for construct in (make_word, Word):
        with pytest.raises(SymbolOutOfRange) as info:
            construct(symbols, 2)
        assert info.value.position == position
        assert info.value.value is symbols[position - 1]


def test_empty_word():
    w = make_word([], 5)
    assert len(w) == 0
    assert format_word(w) == ""
    assert parse_word("", 5) == w


def test_alphabet_requires_positive_sigma():
    with pytest.raises(ValueError):
        make_word([], 0)


def test_public_constructors_still_validate():
    with pytest.raises(SymbolOutOfRange):
        Word((0,), 2)
    with pytest.raises(SymbolOutOfRange):
        make_word([3], 2)


def test_bad_alphabet_size_is_a_package_error():
    for sigma in (0, -1):
        with pytest.raises(AlphabetMismatch):
            make_word((1,), sigma)
        with pytest.raises(UniversalWordsError):
            Word((1,), sigma)


def test_constructor_stores_any_iterable_as_a_tuple():
    expected = make_word((1, 2, 2), 2)
    for symbols in ([1, 2, 2], (s for s in (1, 2, 2))):
        w = Word(symbols, 2)
        assert type(w.symbols) is tuple
        assert w == expected and hash(w) == hash(expected)
        with pytest.raises(AttributeError):
            w.symbols.append(7)
        assert w.symbols == (1, 2, 2)
    source = [1, 2]
    w = make_word(source, 2)
    source.append(1)
    assert w.symbols == (1, 2)


def test_format_digits_and_comma_modes():
    assert format_word(make_word([1, 2, 2, 1], 2)) == "1221"
    assert format_word(make_word([10, 2, 10], 12)) == "10,2,10"
    rng = random.Random(9)
    for sigma in (1, 9, 10, 1000):
        sep = "" if sigma <= 9 else ","
        for n in (0, 1, 2000):
            syms = [rng.randint(1, sigma) for _ in range(n)]
            assert format_word(make_word(syms, sigma)) == sep.join(map(str, syms))


@pytest.mark.parametrize("sigma", [10, 12, 100, 10**9])
def test_format_matches_percent_formatting(sigma):
    # the text before the join over cached tokens: one "%d" per symbol
    rng = random.Random(sigma)
    for n in (0, 1, 2, 2000):
        syms = tuple([1, sigma] + [rng.randint(1, sigma) for _ in range(n)])[:n]
        assert format_word(make_word(syms, sigma)) == (",%d" * n)[1:] % syms


def test_format_token_cache_holds_only_symbols_seen():
    from universal_words.words import _texts

    sigma = 10**9
    _texts.cache_clear()
    w = make_word([7, sigma, 7, 1, sigma], sigma)
    assert format_word(w) == "7,1000000000,7,1,1000000000"
    assert len(_texts(sigma)) <= 3


def test_parse_digit_mode():
    assert parse_word("1221", 2).symbols == (1, 2, 2, 1)


def test_parse_comma_mode():
    assert parse_word("10,2,10", 12).symbols == (10, 2, 10)


def test_parse_rejects_bad_character_with_position():
    with pytest.raises(ParseError) as info:
        parse_word("12x1", 3)
    assert info.value.position == 3


def test_parse_rejects_symbol_out_of_range():
    with pytest.raises(SymbolOutOfRange) as info:
        parse_word("140", 4)
    assert info.value.position == 3
    assert info.value.value == 0


def test_parse_comma_mode_rejects_empty_token():
    with pytest.raises(ParseError):
        parse_word("10,,2", 12)
    with pytest.raises(SymbolOutOfRange):
        parse_word("10,13", 12)


def test_parse_accepts_ascii_digits_only():
    # str.isdigit and int() also take superscripts and other scripts' digits
    for text in ("1\u00b23", "1\u06632"):
        with pytest.raises(ParseError) as info:
            parse_word(text, 3)
        assert info.value.position == 2
    for text in ("10,\u00b2", "10,\u0663,2", "10,\uff11"):
        with pytest.raises(ParseError) as info:
            parse_word(text, 12)
        assert info.value.position == 4


def test_parse_comma_mode_rejects_overlong_number():
    # decided by the digits of sigma, not by the interpreter's int-from-text limit
    for text in ("1," + "9" * 5000, "1,100"):
        with pytest.raises(ParseError) as info:
            parse_word(text, 12)
        assert info.value.position == 3
    assert parse_word("1,0012", 12).symbols == (1, 12)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_parse_overlong_number_without_int_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        test_parse_comma_mode_rejects_overlong_number()
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def words(draw, max_sigma=6, max_len=40):
    sigma = draw(st.integers(1, max_sigma))
    n = draw(st.integers(0, max_len))
    syms = draw(st.lists(st.integers(1, sigma), min_size=n, max_size=n))
    return make_word(syms, sigma)


@given(words())
def test_parse_format_round_trip(w):
    assert parse_word(format_word(w), w.sigma) == w


@given(words(max_sigma=15))
def test_round_trip_survives_wide_alphabets(w):
    assert parse_word(format_word(w), w.sigma).symbols == w.symbols


def test_word_is_hashable_and_repr_readable():
    w = make_word([2, 1], 2)
    assert w in {w}
    assert repr(w) == "Word('21', sigma=2)"
    assert str(w) == "21"
    assert list(w) == [2, 1]


def reference_parse(text, sigma):
    """parse_word as one loop over characters (sigma <= 9) or tokens."""
    if sigma <= 9:
        symbols = []
        for pos, ch in enumerate(text, 1):
            value = ord(ch) - 48
            if not 1 <= value <= sigma:
                if not 0 <= value <= 9:
                    raise ParseError(pos, f"expected a digit, got {ch!r}")
                raise SymbolOutOfRange(pos, value)
            symbols.append(value)
        return make_word(symbols, sigma)
    if text == "":
        return make_word((), sigma)
    width = len(str(sigma))
    symbols = []
    offset = 1
    for token in text.split(","):
        if not (token.isascii() and token.isdigit()):
            raise ParseError(offset, f"expected a number, got {token!r}")
        if len(token) > width and len(token.lstrip("0")) > width:
            raise ParseError(offset, f"{len(token)}-digit number exceeds sigma={sigma}")
        value = int(token)
        if not 1 <= value <= sigma:
            raise SymbolOutOfRange(len(symbols) + 1, value)
        symbols.append(value)
        offset += len(token) + 1
    return make_word(symbols, sigma)


def assert_parses_like_reference(text, sigma):
    try:
        expected = reference_parse(text, sigma)
    except UniversalWordsError as err:
        with pytest.raises(type(err)) as info:
            parse_word(text, sigma)
        assert str(info.value) == str(err)
        assert info.value.position == err.position
    else:
        assert parse_word(text, sigma) == expected


@given(st.text("0123456789,x\u0663", max_size=30), st.sampled_from([1, 2, 9, 10, 12, 99, 100]))
def test_parse_matches_reference_loop(text, sigma):
    assert_parses_like_reference(text, sigma)


def test_parse_matches_reference_loop_on_edge_cases():
    assert parse_word("01,10", 12).symbols == (1, 10)
    assert parse_word("1,0012", 12).symbols == (1, 12)
    for sigma in (1, 2, 9, 10, 12, 99, 100):
        sep = "" if sigma <= 9 else ","
        ok = sep.join(map(str, range(1, sigma + 1)))
        for text in ("01,10", "1,0012", "0", str(sigma + 1), ok, ok + sep + "0"):
            assert_parses_like_reference(text, sigma)
        for bad in ("\u0663" + sep + ok, ok + sep + "\u0663" + sep + ok, ok + sep + "\u0663"):
            with pytest.raises(ParseError):
                parse_word(bad, sigma)
            assert_parses_like_reference(bad, sigma)
    with pytest.raises(SymbolOutOfRange) as info:
        parse_word("1,2,0", 12)
    assert (info.value.position, info.value.value) == (3, 0)
    with pytest.raises(SymbolOutOfRange) as info:
        parse_word("1,13", 12)
    assert (info.value.position, info.value.value) == (2, 13)


def test_parse_token_table_holds_only_tokens_seen():
    from universal_words.words import _tokens

    sigma = 10**9 + 7
    parse_word("5,1000000000,5", sigma)
    for bad in ("05", "1000000008", "", "\u0663"):
        with pytest.raises(UniversalWordsError):
            parse_word(f"5,{bad},x", sigma)
    assert sorted(_tokens(sigma)) == ["1000000000", "5"]
