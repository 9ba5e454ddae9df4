"""Recovering words from ranks and streaming the set in lexicographic order."""

from __future__ import annotations

from collections.abc import Iterator

from .counting import SuffixCountTable, build_table, count_universal, free_suffix
from .errors import EmptySet, RankOutOfRange
from .words import Word


def _descend(
    table: SuffixCountTable, syms: list[int], states: list[tuple[int, int]], rem: int
) -> int:
    """Write into syms[j:] the completion of rank rem of the prefix syms[:j].

    states[i] is the arch state after syms[:i], (symbols still owed,
    open-arch bitset), for i = 0..j, so j = len(states) - 1. At each position
    the completion counts of the candidate symbols are accumulated until they
    exceed rem, and the first symbol to do so is chosen; the state after it
    is appended to states. A candidate either repeats the open arch or is
    new, and each kind has one count: a new symbol's is one read, and a
    repeat's a second read only where the open arch is non-empty and a repeat
    can still complete. Every state visited can still complete (n - j >= d),
    so the count of a new symbol is always a cell; where that symbol closes
    an arch its row is left out of the table, and the one read is
    sigma * rows[d - 2][slack + 1]. Once k arches have closed
    every suffix completes the word, so the rest is the base-sigma digits of
    what is left of rem, filled in one conversion (counting.free_suffix, its
    powers read through table.power).
    Returns where that free suffix starts, len(states) - 1. unrank()
    descends from the empty prefix; an enumeration carry descends at rem = 0.
    """
    n, sigma = table.n, table.sigma
    rows = table.rows
    candidates = range(1, sigma + 1)
    reads = 0
    j = len(states) - 1
    d, mask = states[j]
    while d:
        slack = n - j - 1 - d  # slack after a repeated symbol
        below = rows[d - 1]
        if below is None:  # a new symbol closes the arch
            new_count = sigma * rows[d - 2][slack + 1]
        else:
            new_count = below[slack + 1]
        if mask and slack >= 0:
            rep_count = rows[d][slack]
            reads += 2
        else:  # no symbol repeats, or a repeat cannot complete
            rep_count = 0
            reads += 1
        for x in candidates:
            if mask >> x & 1:
                if rem < rep_count:
                    break
                rem -= rep_count
            elif rem < new_count:
                break
            else:
                rem -= new_count
        else:
            raise AssertionError("rank exhausted before the word was complete")
        syms[j] = x
        if not mask >> x & 1:
            d -= 1
            mask = 0 if d % sigma == 0 else mask | 1 << x
        j += 1
        states.append((d, mask))
    table.lookups += reads
    syms[j:] = free_suffix(rem, n - j, sigma, table.power)
    return j


def unrank(r: int, n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> Word:
    """The k-universal word of length n with 0-based rank r.

    Inverts rank() symbol by symbol, with at most two table reads per
    position until the k-th arch closes, and one where the open arch is
    empty; the free suffix after it is one base-sigma conversion that reads
    O((n - j) / 32) powers, or O((n - j) / 512) when sigma is 2, 8, 10 or 16.
    A rank that is not an int, a bool or a float such as 3.0 included, or a
    negative one raises RankOutOfRange before any table is built.
    """
    if type(r) is not int or r < 0:
        raise RankOutOfRange(r, count_universal(n, k, sigma, table))
    if table is None:
        table = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, table)
    if total == 0:
        raise EmptySet(f"no {k}-universal words of length {n} over {sigma} symbols")
    if r >= total:
        raise RankOutOfRange(r, total)
    return next(_stream(table, r, r + 1))


def _stream(table: SuffixCountTable, r: int, stop: int) -> Iterator[Word]:
    """The k-universal words of ranks r..stop-1, smallest first.

    The first word is unranked by _descend, which leaves in states the arch
    state after each position before the free suffix, and nothing more;
    unrank() takes only this word. Inside the free suffix a successor adds
    one in base sigma and reads no table cell. A carry past it bumps the
    rightmost arch position p that can take a larger symbol, reading no cell:
    a prefix owing d symbols at p completes iff n - p >= d, so with
    n - p == d only a new symbol fits. states is cut back to end with the
    state after p, and the next word is the smallest completion, a descent
    at rank 0.
    """
    if r >= stop:
        return
    n, sigma = table.n, table.sigma
    syms = [0] * n
    states = [(table.k * sigma, 0)]
    free = _descend(table, syms, states, r)  # start of the free suffix
    yield Word._trusted(tuple(syms), sigma)
    for _ in range(r + 1, stop):
        for p in range(n - 1, free - 1, -1):
            if syms[p] < sigma:
                syms[p] += 1
                break
            syms[p] = 1
        else:
            for p in range(free - 1, -1, -1):
                d, mask = states[p]
                x = syms[p] + 1
                if n - p == d:  # no free slot: skip the symbols that repeat
                    while mask >> x & 1:
                        x += 1
                if x <= sigma:
                    break
            else:
                raise AssertionError("no successor although the rank is below the set size")
            syms[p] = x
            if not mask >> x & 1:
                d -= 1
                mask = 0 if d % sigma == 0 else mask | 1 << x
            states[p + 1:] = [(d, mask)]
            free = _descend(table, syms, states, 0)
        yield Word._trusted(tuple(syms), sigma)


def enumerate_words(
    n: int,
    k: int,
    sigma: int,
    from_rank: int = 0,
    limit: int | None = None,
    table: SuffixCountTable | None = None,
) -> Iterator[Word]:
    """Stream the k-universal words of length n in strictly increasing order.

    The arguments are checked when this is called, not when the first word is
    taken: a limit that is not an int >= 0, a start rank that is not an int
    in 0..count, or a table built for other parameters raise here. A limit
    or start rank that is not an int >= 0 raises before any table is built.
    """
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError(f"limit must be a nonnegative int, got {limit!r}")
    if type(from_rank) is not int or from_rank < 0:
        raise RankOutOfRange(from_rank, count_universal(n, k, sigma, table))
    if table is None:
        table = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, table)
    if from_rank > total:
        raise RankOutOfRange(from_rank, total)
    stop = total if limit is None else min(total, from_rank + limit)
    return _stream(table, from_rank, stop)
