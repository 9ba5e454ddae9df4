from bisect import bisect_left
from itertools import product

import pytest

from universal_words import (
    AlphabetMismatch,
    InvalidK,
    LengthMismatch,
    build_table,
    count_universal,
    make_word,
    parse_word,
    rank,
)
from universal_words.oracle import brute_enumerate


def test_member_spot_ranks():
    t = build_table(4, 2, 2)
    expected = {"1212": 0, "1221": 1, "2112": 2, "2121": 3}
    for text, r in expected.items():
        res = rank(parse_word(text, 2), 2, t)
        assert (res.rank, res.member) == (r, True)


def test_non_member_insertion_ranks():
    t = build_table(4, 2, 2)
    res = rank(parse_word("2211", 2), 2, t)
    assert (res.rank, res.member) == (4, False)
    res = rank(parse_word("1111", 2), 2, t)
    assert (res.rank, res.member) == (0, False)


def test_rank_against_oracle_all_words():
    for sigma in (1, 2, 3):
        for n in range(0, 8):
            for k in range(1, n // sigma + 2):
                t = build_table(n, k, sigma)
                # what brute_rank does per word, with one enumeration per (n, k, sigma)
                ordered = [w.symbols for w in brute_enumerate(n, k, sigma)]
                members = set(ordered)
                for tup in product(range(1, sigma + 1), repeat=n):
                    w = make_word(tup, sigma)
                    res = rank(w, k, t)
                    assert res.rank == bisect_left(ordered, tup)
                    assert res.member == (tup in members)


def test_rank_is_strictly_monotone_on_members():
    t = build_table(6, 2, 2)
    members = brute_enumerate(6, 2, 2)
    ranks = [rank(w, 2, t).rank for w in members]
    assert ranks == list(range(len(members)))


def test_largest_word_ranks_at_set_size():
    for sigma in (2, 3):
        for n in (3, 5):
            k = 1
            t = build_table(n, k, sigma)
            top = make_word([sigma] * n, sigma)
            res = rank(top, k, t)
            assert res.rank == count_universal(n, k, sigma, t)
            assert not res.member


def test_rank_with_k_zero_is_positional_value():
    t = build_table(3, 0, 3)
    for tup in product((1, 2, 3), repeat=3):
        res = rank(make_word(tup, 3), 0, t)
        value = (tup[0] - 1) * 9 + (tup[1] - 1) * 3 + (tup[2] - 1)
        assert (res.rank, res.member) == (value, True)


def test_rank_validates_inputs():
    t = build_table(4, 2, 2)
    with pytest.raises(LengthMismatch):
        rank(parse_word("121", 2), 2, t)
    with pytest.raises(InvalidK):
        rank(parse_word("1212", 2), 1, t)
    with pytest.raises(InvalidK):
        rank(parse_word("1212", 2), -1, t)
    with pytest.raises(AlphabetMismatch):
        rank(parse_word("1212", 3), 2, t)


def test_rank_of_prefix_heavy_non_member():
    # words whose prefixes can no longer reach k arches must still rank cleanly
    t = build_table(6, 3, 2)
    res = rank(parse_word("222222", 2), 3, t)
    assert res.rank == count_universal(6, 3, 2, t)
    assert not res.member
