"""Recovering words from ranks and streaming the set in lexicographic order."""

from __future__ import annotations

from collections.abc import Iterator

from .counting import SuffixCountTable, build_table, count_universal, free_suffix
from .errors import EmptySet, RankOutOfRange
from .words import Word


def _descend(table: SuffixCountTable, syms: list[int], rem: int) -> int:
    """Write into syms the k-universal word of rank rem, and return the
    position j where its free suffix starts, just after the k-th arch closes.

    At each position the completion counts of the candidate symbols are
    accumulated until they exceed rem, and the first symbol to do so is
    chosen. A candidate either repeats the open arch or is new, and each kind
    has one count: a new symbol's is one read, and a repeat's a second read
    only where the open arch is non-empty and a repeat can still complete.
    Every state visited can still complete (n - j >= d), so the count of a
    new symbol is always a cell; where that symbol closes an arch its row is
    left out of the table, and the one read is sigma * rows[d - 2][slack + 1].
    A repeat's read is the lowest slack read so far, so the table is filled
    down to it there (SuffixCountTable.fill); a new symbol's read is at a
    slack that the position before read too, or at the top slack. Once k
    arches have closed every suffix completes the word, so the rest is the
    base-sigma digits of what is left of rem, filled in one conversion
    (counting.free_suffix, its powers read through table.power). Only the
    first word of a cursor, and so unrank(), descends; the successors that
    follow read no cell.
    """
    n, sigma = table.n, table.sigma
    rows = table.rows
    low = table.filled
    candidates = range(1, sigma + 1)
    reads = 0
    j = 0
    d, mask = table.k * sigma, 0
    while d:
        slack = n - j - 1 - d  # slack after a repeated symbol
        below = rows[d - 1]
        if below is None:  # a new symbol closes the arch
            new_count = sigma * rows[d - 2][slack + 1]
        else:
            new_count = below[slack + 1]
        if mask and slack >= 0:
            if slack < low:
                low = table.fill(slack)
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
    table.lookups += reads
    syms[j:] = free_suffix(rem, n - j, sigma, table.power)
    return j


def _arch_states(syms: list[int], j: int, k: int, sigma: int) -> list[tuple[int, int]]:
    """states[i], the arch state after syms[:i], for i = 0..n: (symbols still
    owed, open-arch bitset), in one pass over the arches syms[:j]; from the
    free suffix's start j on every state is (0, 0)."""
    states = [(0, 0)] * (len(syms) + 1)
    d, mask = k * sigma, 0
    for i in range(j):
        states[i] = (d, mask)
        x = syms[i]
        if not mask >> x & 1:
            d -= 1
            mask = 0 if d % sigma == 0 else mask | 1 << x
    return states


def unrank(r: int, n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> Word:
    """The k-universal word of length n with 0-based rank r.

    Inverts rank() symbol by symbol, with at most two table reads per
    position until the k-th arch closes, and one where the open arch is
    empty; the free suffix after it is one base-sigma conversion that reads
    O((n - j) / 32) powers, or O((n - j) / 512) when sigma is 2, 8, 10 or 16.
    The set size comes first, from the table-free count when no table is
    given, so a rank outside 0..size - 1 (one that is not an int, a bool or a
    float such as 3.0 included) raises RankOutOfRange before any table is
    built.
    """
    total = count_universal(n, k, sigma, table)
    if type(r) is not int or r < 0:
        raise RankOutOfRange(r, total)
    if total == 0:
        raise EmptySet(f"no {k}-universal words of length {n} over {sigma} symbols")
    if r >= total:
        raise RankOutOfRange(r, total)
    return next(_stream(table or build_table(n, k, sigma), r, r + 1))


def _stream(table: SuffixCountTable, r: int, stop: int) -> Iterator[Word]:
    """The k-universal words of ranks r..stop-1, r < stop, smallest first.

    The first word is unranked by _descend, which returns where its free
    suffix starts; unrank() takes only this word. When a second word is
    asked for, the arch state after each position is worked out from the
    first word in one pass (_arch_states), and each successor is found from
    the states alone, reading no table cell. A prefix owing d symbols at
    position p completes iff n - p >= d, so the rightmost position p that can
    take a larger symbol is bumped to the next symbol while n - p > d, and to
    the next symbol new to the open arch when n - p == d. Every later
    position then takes the smallest symbol that fits: 1 while a free slot
    remains, else the smallest new symbol, and all 1s once k arches have
    closed. The scan for p sets each position it passes to 1, so only where
    p lies in the arches is anything refilled.
    """
    n, sigma = table.n, table.sigma
    syms = [0] * n
    j = _descend(table, syms, r)
    yield Word._trusted(tuple(syms), sigma)
    if stop == r + 1:
        return
    states = _arch_states(syms, j, table.k, sigma)
    for _ in range(r + 1, stop):
        for p in range(n - 1, -1, -1):
            if syms[p] < sigma:  # tested first: a run of sigmas reads no state
                x = syms[p] + 1
                d, mask = states[p]
                while n - p == d and mask >> x & 1:  # no free slot: skip the repeats
                    x += 1
                if x <= sigma:
                    break
            syms[p] = 1
        else:
            raise AssertionError("no successor although the rank is below the set size")
        syms[p] = x
        if d:  # p lies in the arches: refill them up to where the k-th closes
            j = p + 1
            while d:  # the state after syms[j - 1], then the smallest symbol that fits at j
                if not mask >> x & 1:
                    d -= 1
                    mask = 0 if d % sigma == 0 else mask | 1 << x
                states[j] = (d, mask)
                if d:
                    low = mask | 1  # its lowest clear bit is the smallest new symbol
                    x = syms[j] = 1 if n - j > d else (~low & low + 1).bit_length() - 1
                    j += 1
            states[j + 1:] = [(0, 0)] * (n - j)  # where the old arches ran on
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
    in 0..count, or a table built for other parameters raise here. The count
    is table-free when no table is given, so no refusal waits for a build,
    and an empty slice builds no table.
    """
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError(f"limit must be a nonnegative int, got {limit!r}")
    total = count_universal(n, k, sigma, table)
    if type(from_rank) is not int or not 0 <= from_rank <= total:
        raise RankOutOfRange(from_rank, total)
    stop = total if limit is None else min(total, from_rank + limit)
    if from_rank == stop:
        return iter(())
    return _stream(table or build_table(n, k, sigma), from_rank, stop)
