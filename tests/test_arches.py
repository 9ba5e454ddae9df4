import tracemalloc
from itertools import product

import pytest
from hypothesis import given, strategies as st

from universal_words import (
    InvalidK,
    arch_factorize,
    is_k_universal,
    make_word,
    parse_word,
)

from brute_force import brute_index

FIG_W = parse_word("11234432122314332144", 4)
FIG_V = parse_word("12234323134112344412", 4)


def test_four_arch_fixture():
    f = arch_factorize(FIG_W)
    assert f.arch_starts == (1, 6, 10, 15)
    assert f.suffix_start == 20
    assert f.arch_count == 4


def test_three_arch_fixture():
    f = arch_factorize(FIG_V)
    assert f.arch_starts == (1, 6, 12)
    assert f.suffix_start == 17
    assert f.arch_count == 3


def test_fixture_factors():
    f = arch_factorize(FIG_W)
    texts = ["".join(map(str, FIG_W.symbols[s - 1 : e])) for s, e in f.arch_bounds()]
    assert texts == ["11234", "4321", "22314", "33214"]
    assert "".join(map(str, FIG_W.symbols[f.suffix_start - 1 :])) == "4"


def test_empty_word():
    f = arch_factorize(make_word([], 3))
    assert f.arch_starts == ()
    assert f.arch_count == 0
    assert f.suffix_start == 1


def test_all_residual_word():
    f = arch_factorize(parse_word("1111", 2))
    assert f.arch_count == 0
    assert f.suffix_start == 1
    assert arch_factorize(parse_word("1111", 2)).arch_count == 0


def test_unary_alphabet():
    f = arch_factorize(parse_word("111", 1))
    assert f.arch_starts == (1, 2, 3)
    assert f.suffix_start == 4


def test_is_k_universal():
    assert is_k_universal(FIG_V, 3)
    assert not is_k_universal(FIG_V, 4)
    assert is_k_universal(parse_word("1111", 2), 0)
    with pytest.raises(InvalidK):
        is_k_universal(FIG_V, -1)


def test_index_matches_brute_oracle_exhaustively():
    for sigma in (1, 2, 3):
        for n in range(0, 9):
            for tup in product(range(1, sigma + 1), repeat=n):
                w = make_word(tup, sigma)
                assert arch_factorize(w).arch_count == brute_index(w), tup


@st.composite
def words(draw):
    sigma = draw(st.integers(1, 6))
    n = draw(st.integers(0, 80))
    return make_word(draw(st.lists(st.integers(1, sigma), min_size=n, max_size=n)), sigma)


@given(words())
def test_factorization_invariants(w):
    sigma = w.sigma
    f = arch_factorize(w)
    bounds = f.arch_bounds()
    assert len(bounds) == f.arch_count
    covered = []
    for s, e in bounds:
        factor = w.symbols[s - 1 : e]
        assert set(factor) == set(range(1, sigma + 1))
        # greedy arches close at the first moment all symbols were seen
        assert factor[-1] not in factor[:-1]
        assert len(set(factor[:-1])) == sigma - 1
        covered.extend(factor)
    suffix = w.symbols[f.suffix_start - 1 :]
    assert len(set(suffix)) <= max(sigma - 1, 0)
    covered.extend(suffix)
    assert tuple(covered) == w.symbols


@given(words())
def test_index_is_maximal(w):
    # one more arch never fits: the word is not (index+1)-universal
    idx = arch_factorize(w).arch_count
    assert is_k_universal(w, idx)
    assert not is_k_universal(w, idx + 1)


def test_open_arch_costs_no_memory_per_alphabet_symbol():
    # a bitmask of the open arch would need a (10**8)-bit int per symbol
    sigma = 10**8
    syms = [sigma - i for i in range(20)] + [sigma]
    w = make_word(syms, sigma)
    tracemalloc.start()
    try:
        f = arch_factorize(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert (f.arch_count, f.suffix_start) == (0, 1)
    assert not is_k_universal(w, 1)
