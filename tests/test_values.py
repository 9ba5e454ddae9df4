"""Value semantics of the package's immutable records.

Word, Alphabet, RankResult and ArchFactorization compare and hash by their
fields, refuse assignment, keep their reprs, and survive copy and pickle.
"""

import copy
import pickle

import pytest

from universal_words import (
    Alphabet,
    ArchFactorization,
    RankResult,
    Word,
    arch_factorize,
    build_table,
    make_word,
    parse_word,
    rank,
)


FIELDS = {
    Alphabet: ("sigma",),
    Word: ("symbols", "alphabet"),
    RankResult: ("rank", "member"),
    ArchFactorization: ("arch_starts", "arch_count", "suffix_start", "source_length"),
}


def _triples():
    """(a, b, c): a and b are equal but distinct objects, c differs from both."""
    w = parse_word("11234432122314332144", 4)
    return [
        (Alphabet(3), Alphabet(3), Alphabet(4)),
        (make_word([1, 2, 1], 2), Word((1, 2, 1), Alphabet(2)), make_word([1, 2, 2], 2)),
        (make_word([1, 2], 2), Word._trusted((1, 2), Alphabet(2)), make_word([1, 2], 3)),
        (RankResult(5, True), RankResult(5, True), RankResult(5, False)),
        (
            arch_factorize(w),
            ArchFactorization((1, 6, 10, 15), 4, 20, 20),
            arch_factorize(make_word(w.symbols[:19], 4)),
        ),
    ]


triples = pytest.mark.parametrize(
    "a, b, c",
    _triples(),
    ids=["Alphabet", "Word", "trusted-Word", "RankResult", "ArchFactorization"],
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
    with pytest.raises(AttributeError):
        a.extra = 1


@triples
def test_values_survive_copy_and_pickle(a, b, c):
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a)
        assert clone == a and hash(clone) == hash(a)


def test_values_of_different_classes_or_tuples_are_unequal():
    assert RankResult(1, True) != (1, True)
    assert Alphabet(3) != 3
    assert make_word([1, 2], 2) != (1, 2)
    assert ArchFactorization((), 0, 1, 0) != ((), 0, 1, 0)


def test_reprs_are_unchanged():
    assert repr(Alphabet(3)) == "Alphabet(sigma=3)"
    assert repr(make_word([1, 2, 2, 1], 2)) == "Word('1221', sigma=2)"
    assert repr(make_word([10, 2], 12)) == "Word('10,2', sigma=12)"
    assert repr(RankResult(7, False)) == "RankResult(rank=7, member=False)"
    assert repr(arch_factorize(parse_word("11234432122314332144", 4))) == (
        "ArchFactorization(arch_starts=(1, 6, 10, 15), arch_count=4, "
        "suffix_start=20, source_length=20)"
    )


def test_fields_are_positional_and_keyword():
    assert RankResult(3, True) == RankResult(rank=3, member=True)
    assert RankResult(3, True).rank == 3 and RankResult(3, True).member is True
    fact = ArchFactorization(arch_starts=(1,), arch_count=1, suffix_start=3, source_length=2)
    assert fact == ArchFactorization((1,), 1, 3, 2)
    assert Word(symbols=(1,), alphabet=Alphabet(sigma=1)) == make_word([1], 1)


def test_rank_result_compares_as_tests_use_it():
    table = build_table(4, 2, 2)
    assert rank(parse_word("2112", 2), 2, table) == RankResult(2, True)
    assert rank(parse_word("1122", 2), 2, table) == RankResult(0, False)
