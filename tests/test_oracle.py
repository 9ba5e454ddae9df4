from itertools import product

import pytest

from universal_words import (
    AlphabetMismatch,
    GuardExceeded,
    InvalidK,
    LengthMismatch,
    format_word,
    make_word,
    parse_word,
)
from universal_words.oracle import brute_enumerate

from brute_force import brute_count, brute_index, brute_is_k_universal, brute_rank


def test_fixture_words():
    w = parse_word("11234432122314332144", 4)
    assert brute_is_k_universal(w, 4)
    assert not brute_is_k_universal(w, 5)
    v = parse_word("12234323134112344412", 4)
    assert brute_is_k_universal(v, 3)
    assert not brute_is_k_universal(v, 4)


def test_trivial_cases():
    assert brute_is_k_universal(parse_word("1111", 2), 0)
    assert not brute_is_k_universal(parse_word("1111", 2), 1)
    assert brute_is_k_universal(parse_word("111", 1), 3)
    assert not brute_is_k_universal(make_word([], 2), 1)
    assert brute_is_k_universal(make_word([], 2), 0)


def test_universality_index_examples():
    assert brute_index(parse_word("11234432122314332144", 4)) == 4
    assert brute_index(parse_word("1111", 2)) == 0
    assert brute_index(parse_word("121212", 2)) == 3


def test_enumerate_small_sets():
    assert [format_word(w) for w in brute_enumerate(4, 2, 2)] == [
        "1212", "1221", "2112", "2121",
    ]
    assert brute_enumerate(3, 2, 2) == []
    assert [format_word(w) for w in brute_enumerate(2, 1, 2)] == ["12", "21"]
    assert len(brute_enumerate(0, 0, 3)) == 1


def test_enumerate_is_sorted_and_distinct():
    members = [w.symbols for w in brute_enumerate(7, 2, 2)]
    assert members == sorted(set(members))


def test_brute_count_matches_enumeration():
    for sigma in (1, 2, 3):
        for n in range(0, 9):
            for k in range(0, n // sigma + 2):
                assert brute_count(n, k, sigma) == len(brute_enumerate(n, k, sigma))


def test_brute_rank_examples():
    assert brute_rank(parse_word("2112", 2), 2) == 2
    assert brute_rank(parse_word("1111", 2), 2) == 0
    assert brute_rank(parse_word("2222", 2), 2) == 4


def test_guards_are_hard_errors():
    with pytest.raises(GuardExceeded):
        brute_is_k_universal(make_word([1, 2] * 20, 2), 30)
    with pytest.raises(GuardExceeded):
        brute_enumerate(30, 1, 2)
    with pytest.raises(GuardExceeded, match=r"sigma\*\*k"):
        brute_enumerate(23, 20, 2)  # sigma**n passes, sigma**k trips before a word is listed
    with pytest.raises(GuardExceeded):
        brute_index(make_word(list(range(1, 11)) * 8, 10))


@pytest.mark.parametrize(
    "n, k, sigma, error",
    [(-1, 1, 2, LengthMismatch), (2, -1, 2, InvalidK), (2, 1, 0, AlphabetMismatch)],
)
def test_enumerate_rejects_bad_parameters_with_package_errors(n, k, sigma, error):
    with pytest.raises(error):
        brute_enumerate(n, k, sigma)


def test_check_agrees_with_containment_definition():
    # every candidate subsequence, matched one by one, nothing shared
    def contains(word, pattern):
        it = iter(word)
        return all(s in it for s in pattern)

    for sigma in (1, 2, 3):
        for n in range(0, 7):
            for tup in product(range(1, sigma + 1), repeat=n):
                w = make_word(tup, sigma)
                for k in range(0, n // sigma + 2):
                    naive = all(
                        contains(tup, pat)
                        for pat in product(range(1, sigma + 1), repeat=k)
                    )
                    assert brute_is_k_universal(w, k) == naive
