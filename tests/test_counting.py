import random
import sys
import tracemalloc
from itertools import islice, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from universal_words import (
    AlphabetMismatch,
    ArchFactorization,
    EmptySet,
    GuardExceeded,
    InvalidK,
    LengthMismatch,
    ParseError,
    RankOutOfRange,
    RankResult,
    SymbolOutOfRange,
    Word,
    build_table,
    count_universal,
    enumerate_words,
    is_k_universal,
    make_word,
    parse_word,
    rank,
    unrank,
)
from universal_words import counting
from universal_words.closed_forms import count_index_zero, count_one_universal
from universal_words.oracle import brute_enumerate

from brute_force import brute_count


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
    open one included) and slack m: row d = c*sigma - q, or 0 when c = 0. A
    row left out of the table (q = 0, sigma >= 2) is sigma*rows[d-1][m]. The
    table is filled down to slack m first."""
    t.fill(m)
    d = c * t.sigma - q if c else 0
    row = t.rows[d]
    return t.sigma * t.rows[d - 1][m] if row is None else row[m]


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
    assert count_universal(10**4, 0, 10) == 10**10000


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
    # the chain builds sigma**m for every m <= n - k*sigma, O(n**2) bits at
    # k = 0; a count without a table runs the series or the poles, never it
    def no_chain(*args):
        raise AssertionError("a table-free count ran the chain")

    monkeypatch.setattr(counting, "_chain", no_chain)
    assert count_universal(10**6, 0, 2) == 1 << 10**6
    assert count_universal(16, 3, 4) == brute_count(16, 3, 4)  # M = 4 < 9: the series
    assert count_universal(40, 3, 4) == brute_count(40, 3, 4)  # the poles
    count_universal(2000, 20, 10)


def _by_poles(monkeypatch, n, k, sigma):
    """count_universal(n, k, sigma) and whether it summed the poles."""
    calls = []
    poles = counting._count_by_poles
    monkeypatch.setattr(counting, "_count_by_poles", lambda *a: calls.append(a) or poles(*a))
    count = count_universal(n, k, sigma)
    monkeypatch.undo()
    return count, calls == [(n, k, sigma)]


def test_table_free_count_equals_table_count_small_grid():
    for sigma in range(1, 8):
        for k in range(8):
            for n in range(50):
                expected = count_universal(n, k, sigma, build_table(n, k, sigma))
                assert count_universal(n, k, sigma) == expected, (n, k, sigma)


@pytest.mark.parametrize(
    "k, sigma", [(1, 10), (5, 3), (3, 4), (20, 10), (2, 40), (10, 2), (1, 200), (450, 2)]
)
def test_table_free_count_agrees_on_both_sides_of_the_switch(monkeypatch, k, sigma):
    # the series runs while M + 1 < D = k(sigma - 1) + 1, the poles from
    # M = k(sigma - 1) on
    first = k * (sigma - 1)
    assert first > 0
    for n, poles in ((k * sigma + first - 1, False), (k * sigma + first, True)):
        expected = count_universal(n, k, sigma, build_table(n, k, sigma))
        assert _by_poles(monkeypatch, n, k, sigma) == (expected, poles)
        assert counting._count_by_poles(n, k, sigma) == expected


def _full_chain(n, k, sigma):
    """The chain over every slack m <= n - k*sigma, as build_table runs it."""
    return counting._chain(sigma, k, [sigma**m for m in range(n - k * sigma + 1)])


def _chain_count(n, k, sigma):
    """sigma * rows[k*sigma - 1][M] of the chain build_table runs, one row
    live at a time; it shares no code with the poles or the series."""
    return sigma * next(islice(_full_chain(n, k, sigma), k * sigma - 1, None))[-1]


def _series_count(n, k, sigma):
    """(sigma!)**k [x**M] prod_{i<sigma} (1 - i x)**-k / (1 - sigma x), the
    series of 1/Q itself, as a count with small slack takes it."""
    big_m = n - k * sigma
    series = counting._series(range(-1, -sigma, -1), k, -sigma, big_m + 1)
    return factorial(sigma) ** k * series[big_m]


@pytest.mark.parametrize(
    "n, k, sigma", [(2000, 20, 10), (400, 40, 10), (1000, 450, 2), (300, 60, 4)]
)
def test_poles_agree_with_the_chain_where_each_series_is_long(n, k, sigma):
    # each pole 1/i < 1/sigma carries a series of m_i = k terms
    assert counting._count_by_poles(n, k, sigma) == _chain_count(n, k, sigma)


def test_poles_agree_with_the_chain_on_a_grid_of_series_lengths():
    # the series of 1/Q runs at every slack here, past the switch too
    for sigma in range(1, 9):
        for k in (1, 2, 5, 9, 12):
            for big_m in (0, 1, 7, 24):
                n = k * sigma + big_m
                chained = _chain_count(n, k, sigma)
                assert counting._count_by_poles(n, k, sigma) == chained, (n, k, sigma)
                assert _series_count(n, k, sigma) == chained, (n, k, sigma)


def test_large_n_count_at_k_one_is_inclusion_exclusion():
    assert count_universal(10**5, 1, 10) == count_one_universal(10**5, 10)


@pytest.mark.parametrize("n, k, sigma", [(10**5, 2, 3), (5 * 10**4, 3, 4), (2 * 10**4, 10, 4)])
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


_MESSAGES = {
    AlphabetMismatch: "sigma must be at least 1, got 0",
    InvalidK: "k must be nonnegative, got -1",
    LengthMismatch: "length n must be nonnegative, got -1",
}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Word((), 0), AlphabetMismatch, None),
        (lambda: make_word([], 0), AlphabetMismatch, None),
        (lambda: parse_word("", 0), AlphabetMismatch, None),
        (lambda: build_table(1, 1, 0), AlphabetMismatch, None),
        (lambda: count_universal(1, 1, 0), AlphabetMismatch, None),
        (lambda: count_index_zero(1, 0), AlphabetMismatch, None),
        (lambda: brute_enumerate(1, 1, 0), AlphabetMismatch, None),
        (lambda: is_k_universal(make_word([1], 1), -1), InvalidK, None),
        (lambda: build_table(1, -1, 1), InvalidK, None),
        (lambda: count_universal(1, -1, 1), InvalidK, None),
        (lambda: build_table(-1, 1, 1), LengthMismatch, None),
        # a bool or a float is refused even where it equals a valid int
        (lambda: Word([1], 2.0), AlphabetMismatch, "sigma must be an int, got 2.0"),
        (lambda: parse_word("1", True), AlphabetMismatch, "sigma must be an int, got True"),
        (lambda: build_table(4, 1, 2.0), AlphabetMismatch, "sigma must be an int, got 2.0"),
        (lambda: brute_enumerate(2, 1, True), AlphabetMismatch, "sigma must be an int, got True"),
        (lambda: is_k_universal(make_word([1], 1), True), InvalidK, "k must be an int, got True"),
        (lambda: build_table(4, 1.0, 2), InvalidK, "k must be an int, got 1.0"),
        (lambda: count_universal(4, 0.5, 2), InvalidK, "k must be an int, got 0.5"),
        (lambda: build_table(4.0, 1, 2), LengthMismatch, "length n must be an int, got 4.0"),
        (lambda: count_universal(True, 0, 2), LengthMismatch, "length n must be an int, got True"),
        (
            lambda: count_universal(6.0, 2, 2, build_table(6, 2, 2)),
            LengthMismatch,
            "length n must be an int, got 6.0",
        ),
    ],
    ids=[
        "sigma0-Word", "sigma0-make_word", "sigma0-parse_word", "sigma0-build_table",
        "sigma0-count_universal", "sigma0-count_index_zero", "sigma0-brute_enumerate",
        "k-1-is_k_universal", "k-1-build_table", "k-1-count_universal", "n-1-build_table",
        "sigma-float-Word", "sigma-bool-parse_word", "sigma-float-build_table",
        "sigma-bool-brute_enumerate", "k-bool-is_k_universal", "k-float-build_table",
        "k-float-count_universal", "n-float-build_table", "n-bool-count_universal",
        "n-float-count_universal-with-table",
    ],
)
def test_every_entry_point_checks_parameters_alike(call, error, message):
    # each raises through counting._check_params, the one parameter check
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == (message or _MESSAGES[error])


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int/str digit limit for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
@pytest.mark.parametrize(
    "call, error, message",
    [
        # the set size has 20,000 digits
        (
            lambda: unrank(-1, 20000, 1, 10),
            RankOutOfRange,
            "rank -1 out of range (set size <66439-bit int>)",
        ),
        (
            lambda: make_word([1, 10**5000], 3),
            SymbolOutOfRange,
            "symbol <16610-bit int> at position 2 is not in the alphabet",
        ),
        (
            lambda: count_universal(5, -(10**5000), 2),
            InvalidK,
            "k must be nonnegative, got <-16610-bit int>",
        ),
        (
            lambda: unrank(0, 5, 10**5000, 2),
            EmptySet,
            "no <16610-bit int>-universal words of length 5 over 2 symbols",
        ),
        (
            lambda: brute_enumerate(5000, 1, 10),
            GuardExceeded,
            "sigma**n = <16610-bit int> exceeds the guard 10000000",
        ),
        (
            lambda: count_universal(6, 10**5000, 2, build_table(6, 2, 2)),
            InvalidK,
            "table built for k=2, queried with k=<16610-bit int>",
        ),
        (
            lambda: parse_word("1,x", 10**5000),
            ParseError,
            "expected a number, got 'x' (position 3)",
        ),
        (
            lambda: enumerate_words(5, 1, 2, limit=-(10**5000)),
            ValueError,
            "limit must be a nonnegative int, got <-16610-bit int>",
        ),
    ],
    ids=["rank", "symbol", "k", "empty-set", "guard", "table-mismatch", "parse", "limit"],
)
def test_errors_keep_their_type_past_the_int_str_digit_limit(
    default_digit_limit, call, error, message
):
    # under the interpreter's default limit str() of these ints raises a plain
    # ValueError; the messages write their sign and bit length instead, and
    # parse_word counts the digits of sigma without str()
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: parse_word("1,2", 10**5000), make_word([1, 2], 10**5000)),
        (lambda: repr(make_word([1, 2], 10**5000)), "Word('1,2', sigma=<16610-bit int>)"),
        (
            lambda: repr(RankResult(10**5000, True)),
            "RankResult(rank=<16610-bit int>, member=True)",
        ),
        (
            lambda: repr(ArchFactorization((1,), 1, 10**5000)),
            "ArchFactorization(arch_starts=(1,), arch_count=1, suffix_start=<16610-bit int>)",
        ),
    ],
    ids=["parse", "word-repr", "rank-result-repr", "arch-factorization-repr"],
)
def test_parse_and_reprs_hold_past_the_int_str_digit_limit(default_digit_limit, call, expected):
    # as above, with results in place of errors
    result = call()
    assert type(result) is type(expected)
    assert result == expected


def _built_cells(n, k, sigma):
    """k*(sigma - 1) + 1 rows, the powers included (at sigma = 1 the one row of
    ones), over slack m <= n - k*sigma: the cells build_table computes."""
    return (k * (sigma - 1) + 1) * max(n - k * sigma + 1, 0)


def _stored_cells(n, k, sigma):
    """The cells build_table keeps: the power row whole (at sigma = 1 the one
    row of ones, at k = 0 the only row), and of each of the k*(sigma - 1)
    other rows its top block of B = ceil(sqrt(M + 1)) slacks and one carry
    below each lower block, floor(M / B) of them, with M = n - k*sigma."""
    if n < k * sigma:
        return 0
    big_m = n - k * sigma
    block = next(b for b in range(1, big_m + 2) if b * b >= big_m + 1)
    return big_m + 1 + k * (sigma - 1) * (block + big_m // block)


def _ints(t):
    """Every int reachable from the table's list attributes, each list
    counted once by id(): a row stored as two copies would be counted twice."""
    stack = [getattr(t, name) for name in type(t).__slots__]
    stack = [v for v in stack if isinstance(v, (list, tuple))]
    seen = set()
    cells = 0
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            if id(item) not in seen:
                seen.add(id(item))
                stack.extend(item)
        elif isinstance(item, int):
            cells += 1
    return cells


def test_instrumentation_counters():
    t = build_table(10, 2, 2)
    assert t.build_ops == _built_cells(10, 2, 2) == 3 * 7
    assert _ints(t) == _stored_cells(10, 2, 2) == 7 + 2 * (3 + 2)
    before = t.lookups
    count_universal(10, 2, 2, t)
    assert t.lookups == before + 1
    t.fill(0)  # fills are neither lookups nor build operations
    assert (t.lookups, t.build_ops) == (before + 1, 3 * 7)


@pytest.mark.parametrize(
    "n, k, sigma, stored", [(12, 2, 3, 27), (9, 4, 1, 6), (7, 0, 3, 8), (5, 2, 3, 0)]
)
def test_table_stores_each_row_once(n, k, sigma, stored):
    t = build_table(n, k, sigma)
    assert _ints(t) == stored == _stored_cells(n, k, sigma)
    assert t.build_ops == _built_cells(n, k, sigma)
    # filled, the table holds every cell it built, each row once
    t.fill(0)
    assert _ints(t) == t.build_ops


def _reference_rows(n, k, sigma):
    """The chain cell by cell: rows[d][m] = (sigma - q)*rows[d-1][m] + q*rows[d][m-1]."""
    width = n - k * sigma + 1
    rows = [[sigma**m for m in range(width)]]
    for d in range(1, k * sigma + 1):
        q = -d % sigma
        row = []
        for m in range(width):
            row.append((sigma - q) * rows[d - 1][m] + q * (row[m - 1] if m else 0))
        rows.append(row)
    return rows


def _queries(t, rng):
    """rank, unrank and a 50-word enumeration slice on table t, each result
    paired with the cell reads it added to t.lookups."""
    n, k, sigma = t.n, t.k, t.sigma
    out = []

    def record(result):
        nonlocal before
        out.append((result, t.lookups - before))
        before = t.lookups

    before = t.lookups
    total = count_universal(n, k, sigma, t)
    record(total)
    ranks = [0, 1, total - 1] + [rng.randrange(total) for _ in range(6)]
    members = []
    for r in ranks:
        members.append(unrank(r, n, k, sigma, t))
        record(members[-1])
    randoms = [make_word(rng.choices(range(1, sigma + 1), k=n), sigma) for _ in range(6)]
    for w in members + randoms:
        record(rank(w, k, t))
    for start in (0, rng.randrange(total - 50), total - 50):
        record(list(enumerate_words(n, k, sigma, from_rank=start, limit=50, table=t)))
    return out


@pytest.mark.parametrize("n, k, sigma", [(300, 10, 4), (120, 3, 12), (400, 20, 10), (1000, 450, 2)])
def test_folded_table_queries_like_the_full_rectangle(n, k, sigma):
    # the full rectangle of the cell recurrence stores the q = 0 rows that
    # build_table leaves out, so every read there is a plain cell; the folded
    # table reads sigma times the row below instead, counted as one read
    full = counting.SuffixCountTable(n, k, sigma, _reference_rows(n, k, sigma))
    folded = build_table(n, k, sigma)
    assert None not in full.rows
    assert sum(row is None for row in folded.rows) == k
    assert _ints(folded) == _stored_cells(n, k, sigma) < _built_cells(n, k, sigma)
    expected = _queries(full, random.Random(n + k + sigma))
    assert _queries(folded, random.Random(n + k + sigma)) == expected
    assert full.lookups == folded.lookups


def _window_queries(t, deep_first):
    """rank 0 and the last rank, which read deepest, and random ranks, each
    unranked and ranked back, then random words, two 5-word slices and
    20-word cursors from rank 0, the last rank and a random rank, on t: each
    result paired with the cell reads it added to t.lookups."""
    n, k, sigma = t.n, t.k, t.sigma
    rng = random.Random(n * k + sigma)
    total = count_universal(n, k, sigma)
    ranks = [rng.randrange(total) for _ in range(4)] if total else []
    if total:
        ranks = [0, total - 1] + ranks if deep_first else ranks + [0, total - 1]
    out = []
    for r in ranks:
        before = t.lookups
        w = unrank(r, n, k, sigma, t)
        out.append((w, t.lookups - before))
        before = t.lookups
        assert rank(w, k, t) == RankResult(r, True)
        out.append(t.lookups - before)
    for _ in range(4):
        before = t.lookups
        out.append((rank(make_word(rng.choices(range(1, sigma + 1), k=n), sigma), k, t),
                    t.lookups - before))
    starts = [0, total - 1, rng.randrange(total)] if total else []
    for start, limit in [(0, 5), (max(total - 5, 0), 5)] + [(r, 20) for r in starts]:
        before = t.lookups
        out.append((list(enumerate_words(n, k, sigma, start, limit, t)), t.lookups - before))
    return out


@pytest.mark.parametrize("deep_first", [True, False], ids=["deep-first", "shallow-first"])
@pytest.mark.parametrize(
    "n, k, sigma",
    [(12, 2, 3), (300, 10, 4), (120, 3, 12), (1000, 450, 2), (60, 10, 3), (50, 1, 26),
     (40, 7, 1), (5, 2, 3)],
)
def test_window_fills_only_cells_equal_to_the_reference(n, k, sigma, deep_first):
    # every cell a query reads is stored (an unfilled one is None and fails
    # the read), and every stored cell equals the cell recurrence; the reads
    # are those of a fully filled table
    t = build_table(n, k, sigma)
    full = build_table(n, k, sigma)
    full.fill(0)
    assert _window_queries(t, deep_first) == _window_queries(full, deep_first)
    assert t.lookups == full.lookups
    reference = _reference_rows(n, k, sigma) if n >= k * sigma else []
    for d, (row, ref) in enumerate(zip(t.rows, reference)):
        if row is not None:
            assert [x for x in row if x is not None] == [
                y for x, y in zip(row, ref) if x is not None
            ], (n, k, sigma, d)
    # rank 0 repeats symbol 1 down to slack 0 before its first arch closes
    assert t.filled == 0


@pytest.mark.parametrize(
    "n, k, sigma",
    [(12, 2, 3), (300, 10, 4), (120, 3, 12), (1000, 450, 2), (60, 10, 3), (50, 1, 26)],
)
def test_each_query_fills_down_to_the_block_of_its_lowest_read_and_no_further(
    n, k, sigma, monkeypatch
):
    # after a query, filled is what fill() of the lowest slack it read gives
    # on a twin table: no block is filled that the query does not read. Each
    # query runs on a fresh table and, in turn, on one shared table
    seen = []

    class Row(list):
        def __getitem__(self, i):
            if type(i) is int:  # count_universal reads the top cell as [-1]
                seen.append(i % len(self))
            return list.__getitem__(self, i)

    def unseen(method):  # the carries that fill reads and the power row reads
        def call(self, *args):
            mark = len(seen)
            try:
                return method(self, *args)
            finally:
                del seen[mark:]

        return call

    table_class = counting.SuffixCountTable
    for name in ("fill", "power"):
        monkeypatch.setattr(table_class, name, unseen(getattr(table_class, name)))

    def tables():
        t = build_table(n, k, sigma)
        t.rows[:] = [row if row is None else Row(row) for row in t.rows]
        return t, build_table(n, k, sigma)

    def run(query, t, twin):
        del seen[:]
        query(t)
        if seen:
            twin.fill(min(seen))
        assert t.filled == twin.filled
        return t.filled

    ref = build_table(n, k, sigma)
    big_m, top = n - k * sigma, ref.filled
    below = ref.fill(top - 1)  # the next block start
    # members whose repeats lower the slack to exactly a block start m, so
    # that the next position reads the repeat count at m - 1, a block lower
    arches = list(range(2, sigma + 1)) + list(range(1, sigma + 1)) * (k - 1)
    edges = [[1] * (big_m - m + 1) + arches + [1] * m for m in (top, below)]
    edge_ranks = [rank(make_word(w, sigma), k, ref).rank for w in edges]
    total = count_universal(n, k, sigma)
    rng = random.Random(n - k + sigma)
    ranks = edge_ranks + [rng.randrange(total) for _ in range(4)] + [total - 1, 0]
    words = [unrank(r, n, k, sigma, ref) for r in ranks]
    words += [make_word(rng.choices(range(1, sigma + 1), k=n), sigma) for _ in range(4)]
    ones = make_word([1] * n, sigma)
    queries = [lambda t: rank(ones, k, t)]
    queries += [lambda t, r=r: unrank(r, n, k, sigma, t) for r in ranks]
    queries += [lambda t, w=w: rank(w, k, t) for w in words]
    queries += [
        lambda t, start=start: list(enumerate_words(n, k, sigma, start, 20, t))
        for start in (edge_ranks[0], rng.randrange(total), total - 20)
    ]
    fresh = [run(query, *tables()) for query in queries]
    assert fresh[0] == top  # rank reads no cell of 1...1
    # the first edge member, unranked and then ranked, reads one block down;
    # the second one block further
    assert fresh[1] == fresh[1 + len(ranks)] == below and fresh[2] < below
    shared = tables()
    for query in queries:
        run(query, *shared)
    assert shared[0].filled == 0  # rank 0 repeats symbol 1 down to slack 0


@pytest.mark.parametrize("n, k, sigma", [(12, 2, 3), (300, 10, 4), (120, 3, 12), (1000, 450, 2)])
def test_unfilled_cells_are_none_until_filled(n, k, sigma):
    t = build_table(n, k, sigma)
    reference = _reference_rows(n, k, sigma)
    big_m = n - k * sigma
    block = next(b for b in range(1, big_m + 2) if b * b >= big_m + 1)
    assert t.filled == big_m + 1 - block
    assert t.rows[0] == reference[0]
    for d in range(1, k * sigma + 1):
        if d % sigma == 0:
            assert t.rows[d] is None
            continue
        for m, (cell, ref) in enumerate(zip(t.rows[d], reference[d])):
            kept = m >= t.filled or (big_m - m) % block == 0  # top block or a carry
            assert cell == (ref if kept else None), (d, m)
    # each fill reaches the start of the block holding its slack
    for s in (t.filled - 1, big_m // 2, 1):
        low = t.fill(s)
        assert low == t.filled <= s < low + block or low == 0
        assert (big_m + 1 - low) % block == 0 or low == 0
    assert t.fill(0) == 0
    assert t.rows == [None if d and d % sigma == 0 else row for d, row in enumerate(reference)]


@pytest.mark.parametrize("n, k, sigma", [(12, 2, 3), (300, 10, 4), (1000, 450, 2), (40, 7, 1)])
def test_fill_below_slack_zero_is_fill_zero_and_a_full_table_runs_no_chain(
    n, k, sigma, monkeypatch
):
    # a repeat that lowers the slack to 0 fills down to slack -1
    t, u = build_table(n, k, sigma), build_table(n, k, sigma)
    assert t.fill(-1) == u.fill(0) == 0
    assert t.rows == u.rows and t.filled == u.filled == 0

    def no_chain(*args):
        raise AssertionError("a fill of a full table ran the chain")

    monkeypatch.setattr(counting, "_chain", no_chain)
    rows = [row if row is None else list(row) for row in t.rows]
    for s in (-1, 0, 1, n - k * sigma):
        assert t.fill(s) == 0
    assert t.rows == rows


def test_build_keeps_a_small_window_of_the_readme_table():
    # the full table of (2000, 20, 10) holds 325,981 cells in 149 MB traced;
    # the build holds two full rows at a time and keeps about 2*sqrt(M + 1)
    # cells a row, 14.6 MB traced on CPython 3.11
    tracemalloc.start()
    try:
        t = build_table(2000, 20, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.build_ops == _built_cells(2000, 20, 10) == 325_981
    assert peak < 20 * 2**20


def _row_kind(d, sigma):
    q = -d % sigma
    if d == 0:
        return "powers"
    if q == 0:
        return "q0, sigma 1" if sigma == 1 else "left out"
    if q == 1:
        return "q1, grow 1" if sigma == 2 and d == 1 else "q1, grow > 1"
    return "other, folded" if q == sigma - 1 and d > sigma else "other"


def test_chain_rows_match_the_cell_recurrence():
    shapes = [(1000, 450, 2)]  # the tight benchmark case, 45,551 stored cells
    for sigma in (1, 2, 3, 4, 10, 37):
        for k in (0, 1, 2, 3):
            shapes += [(k * sigma + w, k, sigma) for w in (0, 1, 2, 17)]
            if k:
                shapes.append((k * sigma - 1, k, sigma))
    kinds = set()
    for n, k, sigma in shapes:
        rows = list(_full_chain(n, k, sigma))
        reference = _reference_rows(n, k, sigma)
        assert len(rows) == len(reference) == k * sigma + 1
        for d, (row, ref) in enumerate(zip(rows, reference)):
            if _row_kind(d, sigma) == "left out":
                assert row is None, (n, k, sigma, d)
                assert ref == [sigma * x for x in reference[d - 1]], (n, k, sigma, d)
            else:
                assert row == ref, (n, k, sigma, d)
        stored = [row for row in rows if row is not None]
        assert len(stored) == (k * (sigma - 1) + 1 if sigma > 1 else k + 1)
        assert all(len(row) == max(n - k * sigma + 1, 0) for row in stored)
        # every row its own list, but at sigma = 1 the one row of ones
        assert len({id(row) for row in stored}) == (len(stored) if sigma > 1 else 1)
        if n >= k * sigma:
            kinds.update(_row_kind(d, sigma) for d in range(1, k * sigma + 1))
    assert kinds == {
        "q0, sigma 1", "left out", "q1, grow 1", "q1, grow > 1", "other", "other, folded"
    }


def test_empty_set_table_still_ranks_every_word():
    # n = k*sigma - 1: no completion has room, so the rows are empty and no
    # rank reads a cell
    t = build_table(5, 2, 3)
    assert t.rows == []
    assert t.build_ops == 0
    for syms in product(range(1, 4), repeat=5):
        assert rank(make_word(syms, 3), 2, t) == RankResult(0, False)
    assert t.lookups == 0


class _Range:
    """A sequence over items that fails on any read outside [lo, hi)."""

    def __init__(self, items, lo, hi):
        self.items, self.lo, self.hi = items, lo, hi

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            assert i.step is None and self.lo <= i.start <= i.stop <= self.hi, i
        else:
            assert self.lo <= i < self.hi, i
        return self.items[i]


@pytest.mark.parametrize("sigma", [1, 2, 3, 8, 10, 16, 36, 37, 100])
def test_free_suffix_conversions_match_per_position_loop(sigma):
    rng = random.Random(sigma)
    for length in (0, 1, 31, 32, 33, 64, 65, 299, 511, 512, 513, 1025):
        t = build_table(length + 2, 0, sigma)
        top = sigma**length
        for x in (0, top - 1, rng.randrange(top)):
            # the per-position loop: one divmod by sigma**left per symbol
            syms, rem = [], x
            for left in range(length - 1, -1, -1):
                digit, rem = divmod(rem, sigma**left)
                syms.append(digit + 1)
            value = sum((s - 1) * sigma ** (length - 1 - j) for j, s in enumerate(syms))
            assert value == x
            # powers from the table's power row, and from pow() with no table
            for power in (t.power, sigma.__pow__):
                out = [0] * length
                counting.free_suffix(x, out, 0, length, sigma, power)
                assert out == syms
                assert counting.free_rank(syms, 0, length, sigma, power) == x
                assert counting.free_rank([sigma, 1] + syms, 2, length + 2, sigma, power) == x
                # a range of a sentinel-filled buffer, starting at lo = 3: the
                # split writes only out[lo:hi], and the join reads only there
                lo, hi = 3, 3 + length
                out = [-1] * (hi + 2)
                counting.free_suffix(x, out, lo, hi, sigma, power)
                assert out == [-1] * lo + syms + [-1] * 2
                assert counting.free_rank(_Range(out, lo, hi), lo, hi, sigma, power) == x


def test_free_suffix_power_reads_are_counted():
    # longer than one C leaf, so the split and the join each read powers
    t = build_table(2999, 0, 10)
    before = t.lookups
    syms = [0] * 2999
    counting.free_suffix(10**2999 - 1, syms, 0, 2999, 10, t.power)
    reads = t.lookups - before
    assert syms == [10] * 2999
    assert 0 < reads <= 2999 // 256
    counting.free_rank(syms, 0, 2999, 10, t.power)
    assert t.lookups - before == 2 * reads


@pytest.mark.parametrize("sigma", [3, 10])  # a divmod leaf and a format() leaf
# one leaf; 70 symbols, a split whose top leaf overflows at sigma = 3 and one
# format() leaf at sigma = 10; 1100 symbols, a split in both leaf kinds
@pytest.mark.parametrize("length", [5, 70, 1100])
def test_free_suffix_rejects_rank_beyond_its_length(sigma, length):
    t = build_table(length, 0, sigma)
    with pytest.raises(AssertionError):
        counting.free_suffix(sigma**length, [0] * length, 0, length, sigma, t.power)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_free_suffix_converts_no_more_than_a_leaf_to_text():
    # a whole-width decimal conversion of 5000 digits would exceed the limit,
    # and no leaf can: it spans at most _C_LEAF symbols
    assert counting._C_LEAF <= sys.int_info.str_digits_check_threshold
    n = 5000
    t = build_table(n, 0, 10)
    x = random.Random(5).randrange(10**n)
    limit = sys.get_int_max_str_digits()
    syms = [0] * n
    sys.set_int_max_str_digits(640)
    try:
        counting.free_suffix(x, syms, 0, n, 10, t.power)
    finally:
        sys.set_int_max_str_digits(limit)
    assert counting.free_rank(syms, 0, n, 10, t.power) == x
