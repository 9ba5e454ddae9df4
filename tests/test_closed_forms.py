from itertools import product
from math import factorial

import pytest

from universal_words import (
    AlphabetMismatch,
    LengthMismatch,
    UniversalWordsError,
    count_arches,
    count_index_zero,
    count_one_universal,
    count_universal,
)


def test_spot_values():
    assert count_index_zero(3, 3) == 21
    assert count_one_universal(3, 3) == 6
    assert count_arches(3, 3) == 6
    assert count_arches(2, 2) == 2
    assert count_arches(3, 2) == 2


def test_single_symbol_alphabet():
    assert count_index_zero(5, 1) == 0
    assert count_one_universal(5, 1) == 1
    assert count_arches(1, 1) == 1
    assert count_arches(4, 1) == 0


def test_zero_length():
    assert count_index_zero(0, 3) == 1
    assert count_one_universal(0, 3) == 0
    assert count_arches(0, 3) == 0


def test_minimal_arches_are_permutations():
    for sigma in range(1, 7):
        assert count_arches(sigma, sigma) == factorial(sigma)


def test_partition_of_the_whole_space():
    for sigma in range(1, 11):
        for n in range(0, 65):
            assert count_index_zero(n, sigma) + count_one_universal(n, sigma) == sigma**n


def test_arch_count_identity():
    # an arch is a unique final symbol after a 1-universal body one letter short
    for sigma in range(2, 11):
        for n in range(1, 65):
            assert count_arches(n, sigma) == sigma * count_one_universal(n - 1, sigma - 1)


def _brute_counts(n, sigma):
    full = set(range(1, sigma + 1))
    zero = one = arches = 0
    for tup in product(range(1, sigma + 1), repeat=n):
        distinct = set(tup)
        if distinct == full:
            one += 1
            if tup and tup[-1] not in tup[:-1]:
                arches += 1
        else:
            zero += 1
    return zero, one, arches


@pytest.mark.parametrize("sigma", [1, 2, 3, 4])
def test_agreement_with_direct_enumeration(sigma):
    for n in range(0, 11):
        zero, one, arches = _brute_counts(n, sigma)
        assert count_index_zero(n, sigma) == zero
        assert count_one_universal(n, sigma) == one
        if n >= 1:
            assert count_arches(n, sigma) == arches


def test_one_universal_equals_table_count_spot():
    for sigma in (1, 2, 3, 5):
        for n in (0, 1, 4, 9):
            assert count_one_universal(n, sigma) == count_universal(n, 1, sigma)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        count_index_zero(-1, 2)
    with pytest.raises(ValueError):
        count_one_universal(3, 0)
    with pytest.raises(ValueError):
        count_arches(3, -1)


def test_bad_parameters_raise_package_errors():
    with pytest.raises(LengthMismatch):
        count_index_zero(-1, 2)
    for fn in (count_index_zero, count_one_universal, count_arches):
        with pytest.raises(AlphabetMismatch):
            fn(3, 0)
        with pytest.raises(UniversalWordsError):
            fn(-1, 2)
