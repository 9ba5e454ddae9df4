import random
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from universal_words import (
    AlphabetMismatch,
    InvalidK,
    LengthMismatch,
    RankResult,
    build_table,
    count_universal,
    make_word,
    rank,
)
from universal_words import counting
from universal_words.closed_forms import count_one_universal
from universal_words.oracle import brute_count, brute_enumerate


def _completion_count(q, m, c, sigma):
    """Enumerate suffixes directly: q symbols already seen in the open arch."""
    length = m if c == 0 else m + (sigma - q) + sigma * (c - 1)
    total = 0
    for u in product(range(1, sigma + 1), repeat=length):
        seen = set(range(1, q + 1))
        closed = 0
        for s in u:
            seen.add(s)
            if len(seen) == sigma:
                closed += 1
                seen = set()
        if closed >= c:
            total += 1
    return total


def _cell(t, q, m, c):
    """The completions after q symbols of an open arch with c arches owed (the
    open one included) and slack m: row d = c*sigma - q, or 0 when c = 0."""
    return t.rows[c * t.sigma - q if c else 0][m]


def test_zero_slack_cells_are_forced_permutations():
    t = build_table(6, 3, 2)
    assert _cell(t, 1, 0, 2) == factorial(1) * factorial(2)
    assert _cell(t, 0, 0, 3) == factorial(2) ** 3
    assert _cell(t, 2, 0, 1) == 1


def test_no_arches_left_cells_are_powers():
    assert build_table(8, 1, 3).rows[0][5] == 3**5
    for sigma in (1, 2, 3):
        for k in (1, 2, 3):
            t = build_table(6 + k * sigma, k, sigma)
            assert t.rows[0] == [sigma**m for m in range(7)]


def test_single_cells_against_direct_enumeration():
    t2 = build_table(6, 2, 2)
    assert _cell(t2, 1, 1, 1) == 3
    assert _cell(t2, 1, 1, 2) == 8
    t3 = build_table(8, 2, 3)
    assert _cell(t3, 2, 1, 1) == _completion_count(2, 1, 1, 3)
    assert _cell(t3, 0, 2, 2) == _completion_count(0, 2, 2, 3)


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.integers(1, 3),
    q=st.integers(0, 2),
    m=st.integers(0, 3),
    c=st.integers(0, 2),
)
def test_cells_match_direct_enumeration(sigma, q, m, c):
    q = min(q, sigma - 1)  # q = sigma is the row of q = 0 with one arch fewer
    k = max(c, 1)
    t = build_table(m + k * sigma, k, sigma)  # slack m is stored up to n - k*sigma
    assert _cell(t, q, m, c) == _completion_count(q, m, c, sigma)


def test_fresh_arch_column_is_sigma_times_first():
    for sigma in (1, 2, 4):
        t = build_table(5 + 2 * sigma, 2, sigma)
        for m in range(6):
            for c in range(1, 3):
                assert _cell(t, 0, m, c) == sigma * _cell(t, 1, m, c)


def test_spot_counts():
    assert count_universal(4, 2, 2) == 4
    assert count_universal(3, 1, 2) == 6
    assert count_universal(5, 2, 2) == 16
    assert count_universal(3, 2, 2) == 0
    assert count_universal(0, 0, 4) == 1
    assert count_universal(0, 1, 4) == 0


def test_tight_words_are_permutation_blocks():
    for sigma in range(1, 5):
        for k in range(1, 4):
            assert count_universal(k * sigma, k, sigma) == factorial(sigma) ** k


def test_degenerate_alphabet():
    for n in range(6):
        for k in range(8):
            assert count_universal(n, k, 1) == (1 if n >= k else 0)


def test_counts_match_oracle_small_grid():
    for sigma in (1, 2, 3):
        for n in range(0, 9):
            for k in range(0, n // sigma + 2):
                assert count_universal(n, k, sigma) == len(brute_enumerate(n, k, sigma))


def test_counts_match_state_walk_oracle_at_larger_n():
    # beyond brute_enumerate's reach: every k up to n / sigma + 1
    for sigma in range(1, 6):
        for n in (17, 40, 63, 80):
            for k in range(0, n // sigma + 2):
                assert count_universal(n, k, sigma) == brute_count(n, k, sigma), (n, k, sigma)


def test_table_free_count_computes_no_unread_powers(monkeypatch):
    # sigma**m for m up to n costs O(n**2) bits; a count reads m <= n - k*sigma only
    widths = []
    chain = counting._chain

    def recording(n, k, sigma):
        rows = list(chain(n, k, sigma))
        widths.append([len(row) for row in rows])
        return iter(rows)

    monkeypatch.setattr(counting, "_chain", recording)
    assert count_universal(10**6, 0, 2) == 1 << 10**6
    assert widths == []
    # (16, 3, 4): 72 series steps against 5 * 13 cells, so the chain runs
    assert count_universal(16, 3, 4) == brute_count(16, 3, 4)
    assert widths == [[16 - 3 * 4 + 1] * (3 * 4 + 1)]
    # partial fractions are cheaper here: no chain
    assert count_universal(40, 3, 4) == brute_count(40, 3, 4)
    count_universal(2000, 20, 10)
    assert len(widths) == 1


def _chained(monkeypatch, n, k, sigma):
    """count_universal(n, k, sigma) and whether it ran the chain."""
    calls = []
    chain = counting._chain
    monkeypatch.setattr(counting, "_chain", lambda *a: calls.append(a) or chain(*a))
    count = count_universal(n, k, sigma)
    monkeypatch.undo()
    return count, calls == [(n, k, sigma)]


def test_table_free_count_equals_table_count_small_grid():
    for sigma in range(1, 8):
        for k in range(8):
            for n in range(50):
                expected = count_universal(n, k, sigma, build_table(n, k, sigma))
                assert count_universal(n, k, sigma) == expected, (n, k, sigma)


@pytest.mark.parametrize("k, sigma", [(1, 10), (5, 3), (3, 4), (20, 10), (2, 40)])
def test_table_free_count_agrees_on_both_sides_of_the_switch(monkeypatch, k, sigma):
    deg = (sigma - 1) * k + 1
    steps = deg * deg - (sigma - 1) * k * k - 1
    # the least slack M with (M + 1)(k*sigma + 1) >= steps
    first = -(-steps // (k * sigma + 1)) - 1
    assert first > 0
    for n, chained in ((k * sigma + first - 1, True), (k * sigma + first, False)):
        expected = count_universal(n, k, sigma, build_table(n, k, sigma))
        assert _chained(monkeypatch, n, k, sigma) == (expected, chained)
        assert counting._count_by_poles(n, k, sigma) == expected


def test_large_n_count_at_k_one_is_inclusion_exclusion():
    assert count_universal(10**5, 1, 10) == count_one_universal(10**5, 10)


@pytest.mark.parametrize("n, k, sigma", [(10**5, 2, 3), (5 * 10**4, 3, 4)])
def test_large_n_counts_satisfy_the_recurrence_of_q(n, k, sigma):
    # Q(x) = (1 - sigma x) prod_{0<i<sigma} (1 - i x)**k multiplied out; its
    # coefficients annihilate the counts, which are (sigma!)**k [x**M] 1/Q
    q = [1]
    for root in [sigma] + [i for i in range(1, sigma) for _ in range(k)]:
        q = [a - root * b for a, b in zip(q + [0], [0] + q)]
    counts = [count_universal(n - t, k, sigma) for t in range(len(q))]
    assert sum(c * u for c, u in zip(q, counts)) == 0
    block = factorial(sigma) ** k
    assert all(u % block == 0 for u in counts)
    assert counts[0] > counts[1] > 0


def test_count_monotone_in_k_and_bounded():
    for sigma in (2, 3):
        for n in range(0, 10):
            prev = sigma**n
            for k in range(0, n + 1):
                cur = count_universal(n, k, sigma)
                assert cur <= prev
                prev = cur


def test_rebuild_is_deterministic():
    a = build_table(7 + 2 * 3, 2, 3)
    b = build_table(7 + 2 * 3, 2, 3)
    for q in range(4):
        for m in range(8):
            for c in range(3):
                assert _cell(a, q, m, c) == _cell(b, q, m, c)


def test_count_accepts_prebuilt_table_and_rejects_wrong_one():
    t = build_table(6, 2, 2)
    assert count_universal(6, 2, 2, t) == count_universal(6, 2, 2)
    with pytest.raises(ValueError):
        count_universal(5, 2, 2, t)


def test_parameters_raise_typed_errors():
    with pytest.raises(LengthMismatch):
        build_table(-1, 1, 2)
    with pytest.raises(InvalidK):
        count_universal(4, -1, 2)
    with pytest.raises(AlphabetMismatch):
        count_universal(4, 1, 0)
    t = build_table(6, 2, 2)
    with pytest.raises(InvalidK):
        count_universal(6, 1, 2, t)
    with pytest.raises(AlphabetMismatch):
        count_universal(6, 2, 3, t)


def test_instrumentation_counters():
    t = build_table(10, 2, 2)
    # k*sigma + 1 rows, the powers included, over slack m <= 10 - 2*2
    assert t.build_ops == 5 * 7
    before = t.lookups
    count_universal(10, 2, 2, t)
    assert t.lookups == before + 1


@pytest.mark.parametrize(
    "n, k, sigma, stored", [(12, 2, 3, 49), (9, 4, 1, 30), (7, 0, 3, 8), (5, 2, 3, 0)]
)
def test_table_stores_each_row_once(n, k, sigma, stored):
    # every int reachable from the table's list attributes, each reference
    # counted: an aliased row would be counted twice
    t = build_table(n, k, sigma)
    stack = [getattr(t, name) for name in type(t).__slots__]
    stack = [v for v in stack if isinstance(v, (list, tuple))]
    cells = 0
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, int):
            cells += 1
    assert cells == stored == t.build_ops == (k * sigma + 1) * (n - k * sigma + 1)


def test_empty_set_table_still_ranks_every_word():
    # n = k*sigma - 1: no completion has room, so the rows are empty and no
    # rank reads a cell
    t = build_table(5, 2, 3)
    assert t.rows == [[]] * 7
    for syms in product(range(1, 4), repeat=5):
        assert rank(make_word(syms, 3), 2, t) == RankResult(0, False)
    assert t.lookups == 0


@pytest.mark.parametrize("sigma", [1, 2, 3, 10, 36, 37, 100])
def test_free_suffix_conversions_match_per_position_loop(sigma):
    rng = random.Random(sigma)
    for length in (0, 1, 31, 32, 33, 64, 65, 299):
        t = build_table(length + 2, 0, sigma)
        top = sigma**length
        for x in (0, top - 1, rng.randrange(top)):
            # the per-position loop: one divmod by sigma**left per symbol
            syms, rem = [], x
            for left in range(length - 1, -1, -1):
                digit, rem = divmod(rem, sigma**left)
                syms.append(digit + 1)
            assert t.free_suffix(x, length) == syms
            value = sum((s - 1) * sigma ** (length - 1 - j) for j, s in enumerate(syms))
            assert value == x
            assert t.free_rank(syms, 0) == x
            assert t.free_rank([sigma, 1] + syms, 2) == x


def test_free_suffix_power_reads_are_counted():
    t = build_table(299, 0, 10)
    before = t.lookups
    syms = t.free_suffix(10**299 - 1, 299)
    reads = t.lookups - before
    assert syms == [10] * 299
    assert 0 < reads <= 299 // 16
    t.free_rank(syms, 0)
    assert t.lookups - before == 2 * reads
