"""Recovering words from ranks and streaming the set in lexicographic order."""

from __future__ import annotations

from collections.abc import Iterator

from .counting import SuffixCountTable, build_table, count_universal, free_suffix
from .errors import EmptySet, RankOutOfRange, _int_text
from .words import Word


def _descend(
    table: SuffixCountTable, syms: list[int], rem: int, states: list[tuple[int, int]]
) -> None:
    """Write into syms[0:n] the k-universal word of rank rem, and into
    states[j] the arch state (symbols still owed, open-arch bitset) before
    each position j that it fills up to the k-th arch's close, where its
    free suffix starts. No other place of states is written.

    At each position the completion counts of the candidate symbols are
    accumulated until they exceed rem, and the first symbol to do so is
    chosen. The slack is the free symbols left after a new symbol here: it
    starts at n - k*sigma and falls by one at each repeated symbol, as in
    rank(). A candidate either repeats the open arch or is new, and each kind
    has one count: a new symbol's is rows[d - 1][slack], or
    sigma * rows[d - 2][slack] where it closes an arch and row d - 1 is left
    out of the table; a repeat's is rows[d][slack - 1], read only where the
    open arch is non-empty and slack is left. Every state visited can still
    complete, so the slack never falls below 0. The window is filled where a
    repeat lowers the slack, down to the repeat count that the next position
    reads (SuffixCountTable.fill), so no read checks it. Once k arches have
    closed every suffix completes the word, so the rest, syms[j:n], is the
    base-sigma digits of what is left of rem, written in place by one
    conversion (counting.free_suffix, its powers read through table.power).
    Only the first word of a cursor, and so unrank(), descends; the
    successors that follow read no cell.
    """
    n, sigma = table.n, table.sigma
    rows = table.rows
    low = table.filled
    candidates = range(1, sigma + 1)
    reads = 0
    d, mask = table.k * sigma, 0
    slack = n - d
    j = 0
    while d:
        states[j] = (d, mask)
        below = rows[d - 1]
        new_count = sigma * rows[d - 2][slack] if below is None else below[slack]
        if mask and slack:
            rep_count = rows[d][slack - 1]
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
        if mask >> x & 1:
            slack -= 1
            if slack <= low:
                low = table.fill(slack - 1)
        else:
            d -= 1
            mask = 0 if d % sigma == 0 else mask | 1 << x
        j += 1
    table.lookups += reads
    free_suffix(rem, syms, j, n, sigma, table.power)


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
        raise EmptySet(
            f"no {_int_text(k)}-universal words of length {_int_text(n)}"
            f" over {_int_text(sigma)} symbols"
        )
    if r >= total:
        raise RankOutOfRange(r, total)
    return next(_stream(table or build_table(n, k, sigma), r, r + 1))


def _stream(table: SuffixCountTable, r: int, stop: int) -> Iterator[Word]:
    """The k-universal words of ranks r..stop-1, r < stop, smallest first.

    syms and states = [(0, 0)] * (n + 1) are allocated once. The first word
    is unranked by _descend(table, syms, r, states), which writes the arch
    state before each position of its arches; every later place keeps
    (0, 0), the state of every position from the free suffix's start on.
    unrank() takes only this word. Each successor is found from the states
    alone, reading no table cell. A prefix owing d symbols at position p
    completes iff n - p >= d, so the rightmost position p that can take a
    larger symbol is bumped to the next symbol while n - p > d, and to the
    next symbol new to the open arch when n - p == d. Every later position
    then takes the smallest symbol that fits: 1 while a free slot remains,
    else the smallest new symbol, and all 1s once k arches have closed. The
    scan for p sets each position it passes to 1, so only where p lies in
    the arches is anything refilled, and the refill resets the states where
    the old arches ran on.
    """
    n, sigma = table.n, table.sigma
    syms = [0] * n
    states = [(0, 0)] * (n + 1)
    _descend(table, syms, r, states)
    yield Word._trusted(tuple(syms), sigma)
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
        shown = _int_text(limit) if type(limit) is int else repr(limit)
        raise ValueError(f"limit must be a nonnegative int, got {shown}")
    total = count_universal(n, k, sigma, table)
    if type(from_rank) is not int or not 0 <= from_rank <= total:
        raise RankOutOfRange(from_rank, total)
    stop = total if limit is None else min(total, from_rank + limit)
    if from_rank == stop:
        return iter(())
    return _stream(table or build_table(n, k, sigma), from_rank, stop)
