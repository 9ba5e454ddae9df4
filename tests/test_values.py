"""Value semantics of the package's immutable records.

Word, RankResult and ArchFactorization compare and hash by their
fields, refuse assignment, keep their reprs, and survive copy and pickle.
"""

import copy
import pickle
import random

import pytest

from universal_words import (
    ArchFactorization,
    RankResult,
    Word,
    arch_factorize,
    build_table,
    count_universal,
    enumerate_words,
    format_word,
    make_word,
    parse_word,
    rank,
    unrank,
)
from universal_words.words import _tokens


# the stored fields, which equality, hashing and pickling use
FIELDS = {
    Word: ("_symbols", "sigma"),
    RankResult: ("rank", "member"),
    ArchFactorization: ("arch_starts", "arch_count", "suffix_start"),
}
# public names computed from the stored fields on each read
VIEWS = {Word: ("symbols",)}


def _triples():
    """(a, b, c): a and b are equal but distinct objects, c differs from both."""
    w = parse_word("11234432122314332144", 4)
    return [
        (make_word([1, 2, 1], 2), Word((1, 2, 1), 2), make_word([1, 2, 2], 2)),
        (make_word([1, 2], 2), Word._trusted(b"\x01\x02", 2), make_word([1, 2], 3)),
        (RankResult(5, True), RankResult(5, True), RankResult(5, False)),
        (
            arch_factorize(w),
            ArchFactorization((1, 6, 10, 15), 4, 20),
            arch_factorize(make_word(w.symbols[:18], 4)),
        ),
    ]


triples = pytest.mark.parametrize(
    "a, b, c",
    _triples(),
    ids=["Word", "trusted-Word", "RankResult", "ArchFactorization"],
)


@triples
def test_equal_values_compare_and_hash_equal(a, b, c):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2


@triples
def test_values_are_immutable(a, b, c):
    for name in FIELDS[type(a)]:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    for name in VIEWS.get(type(a), ()):
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == before
    with pytest.raises(AttributeError):
        a.extra = 1


@triples
def test_values_survive_copy_and_pickle(a, b, c):
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a)
        assert clone == a and hash(clone) == hash(a)


def test_values_of_different_classes_or_tuples_are_unequal():
    assert RankResult(1, True) != (1, True)
    assert make_word([1, 2], 2) != (1, 2)
    assert ArchFactorization((), 0, 1) != ((), 0, 1)


def test_reprs_are_unchanged():
    assert repr(make_word([1, 2, 2, 1], 2)) == "Word('1221', sigma=2)"
    assert repr(make_word([10, 2], 12)) == "Word('10,2', sigma=12)"
    assert repr(RankResult(7, False)) == "RankResult(rank=7, member=False)"
    assert repr(arch_factorize(parse_word("11234432122314332144", 4))) == (
        "ArchFactorization(arch_starts=(1, 6, 10, 15), arch_count=4, suffix_start=20)"
    )


def test_fields_are_positional_and_keyword():
    assert RankResult(3, True) == RankResult(rank=3, member=True)
    assert RankResult(3, True).rank == 3 and RankResult(3, True).member is True
    fact = ArchFactorization(arch_starts=(1,), arch_count=1, suffix_start=3)
    assert fact == ArchFactorization((1,), 1, 3)
    assert Word(symbols=(1,), sigma=1) == make_word([1], 1)


def test_rank_result_compares_as_tests_use_it():
    table = build_table(4, 2, 2)
    assert rank(parse_word("2112", 2), 2, table) == RankResult(2, True)
    assert rank(parse_word("1122", 2), 2, table) == RankResult(0, False)


@pytest.fixture
def own_token_tables():
    # parse_word caches one token table per sigma; drop the ones a test
    # filled, so no other test sees its tokens
    yield
    _tokens.cache_clear()


@pytest.mark.parametrize("sigma", [2, 9, 10, 255, 256, 10**9 + 7])
def test_every_path_builds_the_same_word(sigma, own_token_tables):
    # bytes storage up to sigma = 255 and tuples above: each path must give
    # one value, one hash and the same public tuple on both sides of 255
    n, k = (sigma + 3, 1) if sigma <= 256 else (4, 0)
    table = build_table(n, k, sigma)
    rng = random.Random(sigma)
    r = rng.randrange(6, count_universal(n, k, sigma, table))
    syms = list(unrank(r, n, k, sigma, table))
    assert all(type(s) is int for s in syms)
    sep = "" if sigma <= 9 else ","
    text = sep.join(map(str, syms))
    cursor = list(enumerate_words(n, k, sigma, from_rank=r - 6, limit=7, table=table))
    built = {
        "list": Word(syms, sigma),
        "unrank": unrank(r, n, k, sigma, table),
        "cursor-first": next(enumerate_words(n, k, sigma, from_rank=r, table=table)),
        "cursor-later": cursor[6],
        "parse": parse_word(text, sigma),
    }
    if max(syms) <= 255:
        built["bytes"] = Word(bytes(syms), sigma)
    if sigma > 9:  # a leading zero sends comma mode to its per-token loop
        built["parse-slow"] = parse_word("0" + text, sigma)
    built["pickle"] = pickle.loads(pickle.dumps(built["unrank"]))
    stored = bytes if sigma <= 255 else tuple
    for path, w in built.items():
        assert type(w._symbols) is stored, path
        assert w == built["list"] and hash(w) == hash(built["list"]), path
        assert type(w.symbols) is tuple and w.symbols == tuple(syms), path
        assert list(w) == syms and len(w) == n and format_word(w) == text, path
        assert rank(w, k, table) == RankResult(r, True), path
    assert [rank(w, k, table).rank for w in cursor] == list(range(r - 6, r + 1))
    if sigma >= 255:  # bytes given for a wide alphabet are stored in its form
        assert Word(b"\x01\xff", sigma) == Word([1, 255], sigma)
