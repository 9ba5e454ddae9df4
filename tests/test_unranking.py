import gc
import random
import sys

import pytest

from universal_words import (
    AlphabetMismatch,
    EmptySet,
    InvalidK,
    LengthMismatch,
    RankOutOfRange,
    RankResult,
    arch_factorize,
    build_table,
    count_universal,
    enumerate_words,
    format_word,
    make_word,
    rank,
    unrank,
)
from universal_words import counting, unranking
from universal_words.oracle import brute_enumerate
from universal_words.unranking import _descend
from universal_words.words import _storage


def test_spot_unranks():
    assert format_word(unrank(0, 4, 2, 2)) == "1212"
    assert format_word(unrank(3, 4, 2, 2)) == "2121"
    assert format_word(unrank(0, 3, 1, 2)) == "112"
    assert format_word(unrank(5, 3, 1, 2)) == "221"


def test_unrank_rejects_out_of_range():
    with pytest.raises(RankOutOfRange) as info:
        unrank(7, 4, 2, 2)
    assert info.value.rank == 7
    assert info.value.set_size == 4
    with pytest.raises(RankOutOfRange):
        unrank(-1, 4, 2, 2)


def _no_table(*args):
    raise AssertionError("a table was built for a rank that is refused")


@pytest.mark.parametrize(
    "r, n, k, sigma",
    [
        (2**60 + 0.0, 80, 2, 3),  # r + 1 == r
        (1.5, 12, 2, 4),
        (5.0, 10, 1, 2),
        (3.0, 4, 2, 2),
        (True, 4, 2, 2),
        (-1, 2000, 20, 10),  # negative ranks are refused before a build too,
        (-1, 3, 2, 2),  # also where the set is empty
        (count_universal(2000, 20, 10), 2000, 20, 10),  # rank = set size
    ],
)
def test_unrank_refuses_a_non_int_rank(monkeypatch, r, n, k, sigma):
    monkeypatch.setattr(unranking, "build_table", _no_table)
    with pytest.raises(RankOutOfRange) as info:
        unrank(r, n, k, sigma)
    assert info.value.rank is r
    assert info.value.set_size == count_universal(n, k, sigma)


def test_enumeration_refuses_a_non_int_start_or_limit(monkeypatch):
    monkeypatch.setattr(unranking, "build_table", _no_table)
    for start in (1.0, True, -1, count_universal(8, 2, 2) + 1):
        with pytest.raises(RankOutOfRange):
            enumerate_words(8, 2, 2, from_rank=start)
    for limit in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="limit must be a nonnegative int"):
            enumerate_words(8, 2, 2, limit=limit)
    # an empty slice is no refusal, and needs no table either
    assert list(enumerate_words(8, 2, 2, from_rank=count_universal(8, 2, 2))) == []
    assert list(enumerate_words(8, 2, 2, from_rank=3, limit=0)) == []


def test_unrank_rejects_empty_set():
    with pytest.raises(EmptySet):
        unrank(0, 3, 2, 2)


def test_unrank_empty_word():
    assert unrank(0, 0, 0, 3).symbols == ()


def test_round_trips_both_ways():
    for sigma, n, k in [(2, 7, 2), (2, 8, 3), (3, 6, 2), (1, 5, 5), (3, 5, 1)]:
        t = build_table(n, k, sigma)
        total = count_universal(n, k, sigma, t)
        for r in range(total):
            w = unrank(r, n, k, sigma, t)
            assert rank(w, k, t).rank == r
        for w in brute_enumerate(n, k, sigma):
            r = rank(w, k, t).rank
            assert unrank(r, n, k, sigma, t).symbols == w.symbols


def test_round_trips_through_long_free_suffixes():
    # k = 0 makes the whole word a free suffix; sigma > 36 is past int()'s text bases
    rng = random.Random(3)
    for n, k, sigma in [(300, 0, 2), (300, 0, 37), (299, 1, 40), (200, 2, 100)]:
        t = build_table(n, k, sigma)
        total = count_universal(n, k, sigma, t)
        for r in (0, 1, total - 1, rng.randrange(total)):
            w = unrank(r, n, k, sigma, t)
            assert rank(w, k, t) == RankResult(r, True)


@pytest.mark.parametrize("sigma, code", [(2, "b"), (8, "o"), (10, "d"), (16, "x")])
def test_unrank_at_k_zero_is_one_whole_width_format(sigma, code):
    # k = 0: the word of rank r is the n base-sigma digits of r, each plus one,
    # here read off a single format() of r instead of the split into leaves
    n = 5000
    t = build_table(n, 0, sigma)
    rng = random.Random(sigma)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for r in (0, sigma**n - 1, rng.randrange(sigma**n)):
            want = tuple(int(c, 16) + 1 for c in format(r, f"0{n}{code}"))
            w = unrank(r, n, 0, sigma, t)
            assert w.symbols == want
            assert rank(w, 0, t) == RankResult(r, True)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_free_suffix_conversions_leave_no_reference_cycles():
    # a self-calling closure would be a cycle holding each call's digit list
    n, k, sigma = 2000, 1, 10
    t = build_table(n, k, sigma)
    r = random.Random(4).randrange(count_universal(n, k, sigma, t))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        w = unrank(r, n, k, sigma, t)
        assert rank(w, k, t).rank == r
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumeration_matches_oracle():
    for sigma, n, k in [(2, 8, 2), (2, 6, 3), (3, 6, 2), (1, 4, 4), (3, 7, 1)]:
        got = [w.symbols for w in enumerate_words(n, k, sigma)]
        want = [w.symbols for w in brute_enumerate(n, k, sigma)]
        assert got == want


def test_enumeration_examples():
    assert [format_word(w) for w in enumerate_words(3, 1, 2)] == [
        "112", "121", "122", "211", "212", "221",
    ]
    assert [format_word(w) for w in enumerate_words(4, 2, 2, from_rank=2)] == [
        "2112", "2121",
    ]
    assert [format_word(w) for w in enumerate_words(2, 1, 2, from_rank=1, limit=1)] == ["21"]


@pytest.mark.parametrize(
    "n, k, sigma",
    # a bump where n - p == d skips one repeat at (7, 2, 3) and (9, 3, 3), and
    # up to two at (8, 2, 4); sigma = 1 and k = 0 take the same successor rule
    [(7, 2, 2), (7, 2, 3), (9, 3, 3), (8, 2, 4), (5, 5, 1), (6, 0, 2)],
)
def test_enumeration_is_resumable_anywhere(n, k, sigma):
    t = build_table(n, k, sigma)
    full = [w.symbols for w in enumerate_words(n, k, sigma, table=t)]
    assert full == [w.symbols for w in brute_enumerate(n, k, sigma)]
    for start in range(len(full) + 1):
        tail = [w.symbols for w in enumerate_words(n, k, sigma, from_rank=start, table=t)]
        assert tail == full[start:]


def test_enumeration_respects_limit():
    t = build_table(8, 2, 2)
    words = list(enumerate_words(8, 2, 2, limit=5, table=t))
    assert len(words) == 5
    assert list(enumerate_words(8, 2, 2, limit=0, table=t)) == []


def test_enumeration_from_set_size_is_empty():
    total = count_universal(5, 2, 2)
    assert list(enumerate_words(5, 2, 2, from_rank=total)) == []
    with pytest.raises(RankOutOfRange):
        enumerate_words(5, 2, 2, from_rank=total + 1)


def test_enumeration_of_empty_set_yields_nothing():
    assert list(enumerate_words(3, 2, 2)) == []


def test_enumeration_rejects_bad_arguments_at_call_time():
    # the words are produced lazily, but the checks must not wait for next()
    t = build_table(6, 2, 2)
    with pytest.raises(ValueError):
        enumerate_words(6, 2, 2, limit=-1, table=t)
    with pytest.raises(LengthMismatch):
        enumerate_words(7, 2, 2, table=t)
    with pytest.raises(InvalidK):
        enumerate_words(6, 1, 2, table=t)
    with pytest.raises(AlphabetMismatch):
        enumerate_words(6, 2, 3, table=t)


def test_cursor_lookup_delay_is_bounded():
    # only the first word reads cells; every successor comes from the arch states
    t = build_table(10, 2, 2)
    cursor = enumerate_words(10, 2, 2, table=t)
    seen = t.lookups
    for i, _ in enumerate(cursor):
        assert i == 0 or t.lookups == seen
        seen = t.lookups
    assert i + 1 == count_universal(10, 2, 2)


@pytest.mark.parametrize(
    "n, k, sigma",
    [
        (300, 10, 4),
        (200, 60, 3),
        (120, 3, 12),
        (100, 2, 40),
        (400, 0, 3),
        (60, 25, 2),
        (1000, 450, 2),
    ],
)
def test_enumeration_carries_past_free_suffix_at_large_n(n, k, sigma):
    # beyond the oracle's reach: slices that start 3 ranks before a carry out of
    # an all-sigma free suffix must still match unrank word for word
    t = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, t)
    rng = random.Random(n * k + sigma)
    starts = [rng.randrange(total) for _ in range(3)]
    for _ in range(3):
        w = unrank(rng.randrange(total), n, k, sigma, t)
        free = arch_factorize(w).arch_bounds()[k - 1][1] if k else 0
        top = make_word(w.symbols[:free] + (sigma,) * (n - free), sigma)
        r = rank(top, k, t)
        assert r.member
        starts.append(max(0, r.rank - 3))
    for start in starts:
        cursor = enumerate_words(n, k, sigma, from_rank=start, limit=60, table=t)
        prev = None
        for i, w in enumerate(cursor):
            if prev is not None:
                assert t.lookups == seen
                assert prev < w.symbols
            assert w.symbols == unrank(start + i, n, k, sigma, t).symbols
            prev = w.symbols
            seen = t.lookups
        assert i + 1 == min(60, total - start)


@pytest.mark.parametrize(
    "shape, reads",
    [
        ((300, 10, 4), [172, 96, 123, 158]),
        ((60, 25, 2), [94, 30, 16, 93]),
        ((120, 3, 12), [202, 159, 155, 234]),
    ],
)
def test_lookup_counts_are_exact(shape, reads):
    # one unrank, the rank of that member, the rank of a random word and a
    # 50-word slice, each counting one read per cell it takes; the slice reads
    # only for its first word, exactly what unrank of its start reads
    n, k, sigma = shape
    t = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, t)
    rng = random.Random(n * 1000 + k * 10 + sigma)
    seen = []

    def counted(call, *args):
        before = t.lookups
        result = call(*args)
        seen.append(t.lookups - before)
        return result

    w = counted(unrank, rng.randrange(total), n, k, sigma, t)
    assert counted(rank, w, k, t).member
    counted(rank, make_word(rng.choices(range(1, sigma + 1), k=n), sigma), k, t)
    start = rng.randrange(total)
    words = counted(lambda: list(enumerate_words(n, k, sigma, start, limit=50, table=t)))
    assert len(words) == 50
    assert seen == reads
    counted(unrank, start, n, k, sigma, t)
    assert seen[-1] == seen[3]


def _splits(length, leaf):
    """Power reads of a radix conversion that halves `length` symbols, the
    left half taking the floor, until a piece fits in a leaf."""
    if length <= leaf:
        return 0
    return 1 + _splits(length // 2, leaf) + _splits(length - length // 2, leaf)


def _reference_reads(symbols, k, sigma, unranking):
    """The table reads of unrank (unranking=True) or rank of a word, from its
    arch states alone. Until k arches close, unrank reads 1 cell where the
    open arch is empty, else the new-symbol count and, with slack left, the
    repeat count; rank reads each of the two counts that some smaller symbol
    needs. The free suffix after the k-th arch costs one power per split,
    with leaves of counting._C_LEAF symbols where C converts its base
    (format() in the split, int() in the join), else counting._LEAF."""
    n = len(symbols)
    owed, arch, reads = k * sigma, set(), 0
    for i, s in enumerate(symbols):
        if not owed:
            c_leaf = sigma in (2, 8, 10, 16) if unranking else 2 <= sigma <= 36
            return reads + _splits(n - i, counting._C_LEAF if c_leaf else counting._LEAF)
        slack = n - i - 1 - owed
        if unranking:
            reads += 1 if not arch else 1 + (slack >= 0)
        else:
            repeats = len([x for x in arch if x < s])
            reads += (repeats > 0 and slack >= 0) + (s - 1 - repeats > 0 and slack + 1 >= 0)
        if s not in arch:
            owed -= 1
            arch.add(s)
            if len(arch) == sigma:
                arch = set()
    return reads


@pytest.mark.parametrize(
    "n, k, sigma",
    [
        (300, 10, 4),
        (60, 25, 2),
        (120, 3, 12),
        (2000, 1, 10),
        (1500, 0, 16),
        (900, 1, 37),
        (700, 2, 3),
        (40, 3, 1),
    ],
)
def test_lookup_counts_follow_the_arch_states(n, k, sigma):
    t = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, t)
    rng = random.Random(n + k + sigma)
    words = [unrank(r, n, k, sigma, t) for r in (0, total - 1, rng.randrange(total))]
    words.append(make_word(rng.choices(range(1, sigma + 1), k=n), sigma))
    for w in words:
        before = t.lookups
        r = rank(w, k, t)
        assert t.lookups - before == _reference_reads(w.symbols, k, sigma, False)
        if r.member:
            before = t.lookups
            assert unrank(r.rank, n, k, sigma, t) == w
            # one more read: unrank checks r against the set size
            assert t.lookups - before == 1 + _reference_reads(w.symbols, k, sigma, True)


@pytest.mark.parametrize("n, k, sigma", [(300, 10, 4), (120, 3, 12), (60, 25, 2)])
def test_first_symbol_changes_at_each_block_boundary(n, k, sigma):
    # the first position is an arch start: every first symbol owns a block of
    # count / sigma ranks
    t = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, t)
    block, rem = divmod(total, sigma)
    assert rem == 0
    for c in range(1, sigma):
        for r, first in ((c * block - 1, c), (c * block, c + 1)):
            w = unrank(r, n, k, sigma, t)
            assert w.symbols[0] == first
            assert rank(w, k, t) == RankResult(r, True)
    with pytest.raises(AssertionError):
        _descend(t, [0] * n, total, [(0, 0)] * (n + 1))


def _reference_states(symbols, k, sigma):
    # (symbols still owed, open-arch bitset) after each position, from the arch sets
    closed, arch = 0, set()
    states = [(k * sigma, 0)]
    for s in symbols:
        arch.add(s)
        if len(arch) == sigma:
            closed, arch = closed + 1, set()
        states.append(((k - closed) * sigma - len(arch), sum(1 << x for x in arch)))
    return states


@pytest.mark.parametrize(
    "n, k, sigma", [(300, 10, 4), (60, 25, 2), (120, 3, 12), (1000, 450, 2), (2000, 1, 10)]
)
def test_descend_states_hold_exactly_the_prefix(n, k, sigma):
    t = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, t)
    rng = random.Random(n * k + sigma)
    for r in (0, total - 1, rng.randrange(total), rng.randrange(total)):
        # the buffers _stream allocates: _descend writes states[:free] alone
        syms = _storage(sigma)[1](n)
        states = [(0, 0)] * (n + 1)
        _descend(t, syms, r, states)
        reference = _reference_states(syms, k, sigma)
        free = next(i for i, (d, _) in enumerate(reference) if d == 0)
        assert states[:free] == reference[:free]
        assert all(d for d, _ in states[:free])  # the k-th arch closes at free
        assert set(states[free:]) == {(0, 0)}
        assert tuple(syms) == unrank(r, n, k, sigma, t).symbols


def test_unrank_validates_table_parameters():
    t = build_table(4, 2, 2)
    with pytest.raises(ValueError):
        unrank(0, 5, 2, 2, t)
