"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion N: PASS|FAIL" line so a verbose run reads as a checklist.
Expensive oracle enumerations are cached at module level and shared
between criteria.
"""

import random
from functools import lru_cache
from itertools import groupby, product
from math import factorial

from universal_words.arches import arch_factorize
from universal_words.closed_forms import (
    count_arches,
    count_index_zero,
    count_one_universal,
)
from universal_words.counting import build_table, count_universal
from universal_words.ranking import rank
from universal_words.unranking import enumerate_words, unrank
from universal_words.words import format_word, make_word, parse_word

from brute_force import brute_index, brute_is_k_universal


@lru_cache(maxsize=None)
def _members_by_k(n, sigma):
    """Member tuples of every k <= n / sigma, from one pass over all sigma**n words."""
    members = [[] for _ in range(n // sigma + 1)]
    for tup in product(range(1, sigma + 1), repeat=n):
        index = brute_index(make_word(tup, sigma))
        for k in range(index + 1):
            members[k].append(tup)
    return tuple(map(tuple, members))


def _members(n, k, sigma):
    return _members_by_k(n, sigma)[k]


@lru_cache(maxsize=None)
def _table(n, k, sigma):
    return build_table(n, k, sigma)


def _grid():
    for sigma in (1, 2, 3):
        for n in range(1, 13):
            for k in range(1, n // sigma + 1):
                yield n, k, sigma
    for n in range(1, 9):
        for k in range(1, n // 4 + 1):
            yield n, k, 4


def _report(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_count_matches_oracle():
    failures = []
    for n, k, sigma in _grid():
        expected = len(_members(n, k, sigma))
        got = count_universal(n, k, sigma, _table(n, k, sigma))
        if got != expected:
            failures.append((n, k, sigma, got, expected))
    _report(1, not failures, f"first mismatches {failures[:3]}")


def test_criterion_2_spot_values():
    ok = count_universal(4, 2, 2) == 4
    ok = ok and [format_word(make_word(s, 2)) for s in _members(4, 2, 2)] == [
        "1212", "1221", "2112", "2121",
    ]
    ok = ok and count_universal(3, 1, 2) == 6
    ok = ok and count_universal(5, 2, 2) == 16
    for sigma in range(1, 6):
        for k in range(1, 5):
            ok = ok and count_universal(k * sigma, k, sigma) == factorial(sigma) ** k
    _report(2, ok)


def test_criterion_3_closed_form_cross_checks():
    failures = []
    for sigma in range(1, 9):
        for n in range(0, 31):
            if count_index_zero(n, sigma) + count_one_universal(n, sigma) != sigma**n:
                failures.append(("partition", n, sigma))
            if count_one_universal(n, sigma) != count_universal(n, 1, sigma):
                failures.append(("one-universal", n, sigma))
            if sigma >= 2 and n >= 1:
                if count_arches(n, sigma) != sigma * count_one_universal(n - 1, sigma - 1):
                    failures.append(("arches", n, sigma))
    _report(3, not failures, f"first mismatches {failures[:3]}")


def test_criterion_4_rank_unrank_bijection():
    failures = []
    # the grid lists the ks of one (n, sigma) together
    for (n, sigma), shapes in groupby(_grid(), key=lambda shape: shape[::2]):
        ks = [k for _, k, _ in shapes]
        for k in ks:
            members = _members(n, k, sigma)
            table = _table(n, k, sigma)
            for i, syms in enumerate(members):
                word = unrank(i, n, k, sigma, table)
                res = rank(word, k, table)
                if word.symbols != syms or res.rank != i or not res.member:
                    failures.append((n, k, sigma, i))
                    break
        # one walk over all sigma**n words builds each word once and ranks
        # it for every k where it is not a member; pointer[k] counts the
        # members passed so far, which is the rank a non-member must get
        pending = [(k, _members(n, k, sigma), _table(n, k, sigma)) for k in ks]
        pointer = dict.fromkeys(ks, 0)
        for tup in product(range(1, sigma + 1), repeat=n):
            word = make_word(tup, sigma)
            for k, members, table in pending:
                at = pointer[k]
                if at < len(members) and members[at] == tup:
                    pointer[k] = at + 1
                    continue
                res = rank(word, k, table)
                if res.rank != at or res.member:
                    failures.append((n, k, sigma, tup))
                    pending = [p for p in pending if p[0] != k]
    _report(4, not failures, f"first failures {failures[:3]}")


def test_criterion_5_enumeration_correct_and_complete():
    failures = []
    for n, k, sigma in _grid():
        stream = list(enumerate_words(n, k, sigma, table=_table(n, k, sigma)))
        seq = [w.symbols for w in stream]
        if any(a >= b for a, b in zip(seq, seq[1:])):
            failures.append(("ordering", n, k, sigma))
        if tuple(seq) != _members(n, k, sigma):
            failures.append(("completeness", n, k, sigma))
        if not all(brute_is_k_universal(w, k) for w in stream):
            failures.append(("membership", n, k, sigma))
    _report(5, not failures, f"first failures {failures[:3]}")


def test_criterion_6_enumeration_delay_bounded():
    n, k, sigma = 20, 3, 4
    bound = 2 * n * sigma
    table = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, table)
    worst = 0
    emitted = 0
    for start in (0, total - 10_000):
        cursor = enumerate_words(n, k, sigma, from_rank=start, limit=10_000, table=table)
        # the first delta covers cursor startup (one unrank), the rest are
        # successor steps; one constant must bound them all
        prev = table.lookups
        for _ in cursor:
            worst = max(worst, table.lookups - prev)
            prev = table.lookups
            emitted += 1
    ok = worst <= bound and emitted == 20_000
    _report(6, ok, f"worst lookup delay {worst} vs bound {bound}, emitted {emitted}")


def test_criterion_7_scaling_smoke():
    half = build_table(1000, 20, 10)
    full = build_table(2000, 20, 10)
    value = count_universal(2000, 20, 10, full)
    ratio = full.build_ops / half.build_ops
    ok = value > 0 and 1.6 <= ratio <= 2.4
    _report(7, ok, f"count positive: {value > 0}, doubling ratio {ratio:.3f}")


def test_criterion_8_arch_factorization():
    w = parse_word("11234432122314332144", 4)
    fw = arch_factorize(w)
    ok = fw.arch_starts == (1, 6, 10, 15)
    ok = ok and fw.suffix_start == 20 and fw.arch_count == 4
    ok = ok and [
        format_word(make_word(w.symbols[s - 1 : e], 4)) for s, e in fw.arch_bounds()
    ] == ["11234", "4321", "22314", "33214"]
    v = parse_word("12234323134112344412", 4)
    fv = arch_factorize(v)
    ok = ok and fv.arch_starts == (1, 6, 12)
    ok = ok and fv.suffix_start == 17 and fv.arch_count == 3

    rng = random.Random(191)
    bad = None
    for _ in range(100_000):
        sigma = rng.randint(1, 6)
        n = rng.randint(0, 200)
        syms = tuple(rng.choices(range(1, sigma + 1), k=n))
        fact = arch_factorize(make_word(syms, sigma))
        pos = 1
        sound = True
        for s, e in fact.arch_bounds():
            factor = syms[s - 1 : e]
            sound = sound and s == pos
            # closes exactly when the alphabet completes, not later
            sound = sound and factor[-1] not in factor[:-1]
            sound = sound and len(set(factor[:-1])) == sigma - 1
            pos = e + 1
        residual = syms[pos - 1 :]
        sound = sound and fact.suffix_start == pos
        sound = sound and len(set(residual)) <= sigma - 1
        if not sound:
            bad = (sigma, syms)
            break
    _report(8, ok and bad is None, f"fixtures ok: {ok}, counterexample: {bad}")
