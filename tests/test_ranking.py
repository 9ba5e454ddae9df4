import random
import tracemalloc
from bisect import bisect_left
from itertools import product

import pytest
from brute_force import brute_state_rank

from universal_words import (
    AlphabetMismatch,
    InvalidK,
    LengthMismatch,
    RankResult,
    build_table,
    count_universal,
    make_word,
    parse_word,
    rank,
    unrank,
)
from universal_words import counting
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


def _rank_by_products(w, k, table):
    """(rank, member, reads) with one product per read, added at once: the
    reference for rank's per-multiplier sums. Asserts at every position where
    row d - 1 is left out that at most one smaller symbol is new."""
    syms = w.symbols
    n = len(syms)
    sigma = w.sigma
    rows = table.rows
    total = 0
    reads = 0
    d = sigma * k
    mask = 0
    for i in range(n):
        if not d:
            before = table.lookups
            total += counting.free_rank(syms, i, sigma, table.power)
            reads += table.lookups - before
            table.lookups = before
            break
        s = syms[i]
        repeats = (mask & ((1 << s) - 1)).bit_count()
        news = s - 1 - repeats
        slack = n - i - 1 - d
        if rows and rows[d - 1] is None:  # an empty set's table has no rows
            assert news <= 1, (syms, k, i)
        if repeats and slack >= 0:
            total += repeats * rows[d][slack]
            reads += 1
        if news and slack + 1 >= 0:
            below = rows[d - 1]
            if below is None:
                total += news * sigma * rows[d - 2][slack + 1]
            else:
                total += news * below[slack + 1]
            reads += 1
        bit = 1 << s
        if not mask & bit:
            d -= 1
            mask = 0 if d % sigma == 0 else mask | bit
    return total, not d, reads


@pytest.mark.parametrize(
    "n, k, sigma",
    [
        (2000, 20, 10), (1000, 450, 2), (120, 3, 12), (60, 2, 25), (900, 1, 37),
        (40, 7, 1), (300, 0, 4), (30, 0, 1), (20, 3, 8), (0, 0, 3), (0, 2, 2),
    ],
)
def test_per_multiplier_sums_match_a_product_per_read(n, k, sigma):
    rng = random.Random(f"{n}-{k}-{sigma}")
    table = build_table(n, k, sigma)
    size = count_universal(n, k, sigma, table)
    words = [make_word(rng.choices(range(1, sigma + 1), k=n), sigma) for _ in range(10)]
    if size:
        words += [unrank(rng.randrange(size), n, k, sigma, table) for _ in range(10)]
    # and two words whose arches close late or never
    words.append(make_word([sigma] * n, sigma))
    words.append(make_word(sorted(rng.choices(range(1, sigma + 1), k=n)), sigma))
    for w in words:
        before = table.lookups
        res = rank(w, k, table)
        reads = table.lookups - before
        assert (res.rank, res.member, reads) == _rank_by_products(w, k, table)


def test_one_new_symbol_at_most_where_row_d_minus_1_is_left_out():
    # _rank_by_products asserts it at every position of every word
    for sigma in (2, 3, 4):
        for n in range(sigma, 8):
            for k in range(1, n // sigma + 1):
                table = build_table(n, k, sigma)
                for tup in product(range(1, sigma + 1), repeat=n):
                    w = make_word(tup, sigma)
                    assert rank(w, k, table).rank == _rank_by_products(w, k, table)[0]


@pytest.mark.parametrize(
    "n, k, sigma", [(600, 100, 3), (1000, 50, 4), (2000, 1, 5), (400, 20, 6), (300, 60, 2)]
)
def test_rank_agrees_with_the_state_walk_at_large_n(n, k, sigma):
    # the state walk shares no table or arch code with rank
    rng = random.Random(f"{n}-{k}-{sigma}")
    table = build_table(n, k, sigma)
    r = rng.randrange(count_universal(n, k, sigma, table))
    member = unrank(r, n, k, sigma, table)
    other = make_word(rng.choices(range(1, sigma + 1), k=n), sigma)
    assert rank(member, k, table) == RankResult(r, True)
    assert brute_state_rank(member.symbols, k, sigma) == r
    assert rank(other, k, table).rank == brute_state_rank(other.symbols, k, sigma)


@pytest.mark.parametrize("n, k, sigma", [(600, 100, 3), (300, 60, 2)])
def test_non_member_rank_agrees_with_the_state_walk_at_large_n(n, k, sigma):
    # half of the word is one symbol, so too few arches close
    rng = random.Random(f"{n}-{k}-{sigma}")
    table = build_table(n, k, sigma)
    w = make_word([sigma] * (n // 2) + rng.choices(range(1, sigma + 1), k=n - n // 2), sigma)
    res = rank(w, k, table)
    assert not res.member
    assert res.rank == brute_state_rank(w.symbols, k, sigma)


def test_rank_allocates_nothing_per_symbol_where_it_reads_no_cell():
    # k = 0 reads only powers, and a word shorter than k*sigma no cell at all:
    # neither may allocate sigma sums (80 MB of list slots at sigma = 10**7)
    sigma = 10**7
    for syms, k, want in [((5,), 0, RankResult(4, True)), ((1, 2), 1, RankResult(0, False))]:
        t = build_table(len(syms), k, sigma)
        w = make_word(syms, sigma)
        tracemalloc.start()
        try:
            assert rank(w, k, t) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (syms, k, peak)


def _stop(symbols, k, sigma):
    """Where rank stops on a non-member: the first repeated symbol that meets
    slack 0, from the word's arch sets alone; None when k arches close first."""
    n = len(symbols)
    owed, arch = k * sigma, set()
    for i, s in enumerate(symbols):
        if not owed:
            return None
        if s in arch:
            if n - i - owed == 0:
                return i
        else:
            owed -= 1
            arch.add(s)
            if len(arch) == sigma:
                arch = set()
    return None


def _runs_out_at(n, k, sigma, p, rng):
    """A random word that spends its n - k*sigma repeats before position p and
    repeats a symbol of the open arch at p, where no slack is left. p - (n -
    k*sigma) new symbols precede p, fewer than k*sigma and not a multiple of
    sigma, so an arch is open there; the symbols after p are random."""
    repeats, news = n - k * sigma, p - (n - k * sigma)
    assert 0 < news < k * sigma and news % sigma
    arch, syms = set(), []
    for _ in range(p):
        if arch and rng.randrange(repeats + news) < repeats:
            syms.append(rng.choice(sorted(arch)))
            repeats -= 1
            continue
        x = rng.choice([x for x in range(1, sigma + 1) if x not in arch])
        syms.append(x)
        news -= 1
        arch.add(x)
        if len(arch) == sigma:
            arch = set()
    syms.append(rng.choice(sorted(arch)))
    return syms + rng.choices(range(1, sigma + 1), k=n - p - 1)


@pytest.mark.parametrize(
    "n, k, sigma, brute",
    [(1000, 450, 2, 1), (60, 10, 3, None), (120, 3, 12, 0), (12, 2, 3, None)],
)
def test_non_member_rank_depends_only_on_the_prefix_up_to_its_stop(n, k, sigma, brute):
    # rank stops at the first repeated symbol that meets slack 0: no word with
    # that prefix completes, so whatever follows changes neither the rank nor
    # the reads. brute_state_rank checks every word here, or only `brute` of
    # them where one walk takes seconds (4 s each at (120, 3, 12))
    rng = random.Random(f"stop-{n}-{k}-{sigma}")
    table = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, table)
    big_m = n - k * sigma
    owed = [t for t in range(1, k * sigma) if t % sigma]
    words = [rng.choices(range(1, sigma + 1), k=n) for _ in range(4)]
    words += [_runs_out_at(n, k, sigma, big_m + t, rng) for t in (owed[0], owed[-1])]
    words += [_runs_out_at(n, k, sigma, big_m + t, rng) for t in rng.sample(owed, 3)]
    stopped = 0
    for syms in words:
        stop = _stop(syms, k, sigma)
        if stop is None:
            continue
        stopped += 1
        seen = []
        for tail in (syms[stop + 1 :], [1] * (n - stop - 1), [sigma] * (n - stop - 1)):
            w = make_word(syms[: stop + 1] + tail, sigma)
            before = table.lookups
            seen.append((rank(w, k, table), table.lookups - before))
        assert seen[0] == seen[1] == seen[2], (syms, stop)
        res = seen[0][0]
        assert not res.member
        # the insertion point: every member below the rank is smaller
        if res.rank:
            assert unrank(res.rank - 1, n, k, sigma, table).symbols < tuple(syms)
        if res.rank < total:
            assert unrank(res.rank, n, k, sigma, table).symbols > tuple(syms)
        if brute is None or stopped <= brute:
            assert res.rank == brute_state_rank(tuple(syms), k, sigma)
    assert stopped >= 5
