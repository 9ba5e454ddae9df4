"""Recovering words from ranks and streaming the set in lexicographic order."""

from __future__ import annotations

from .counting import SuffixCountTable, _check_params, build_table, count_universal
from .errors import EmptySet, RankOutOfRange
from .words import Word, _alphabet


def _descend(
    table: SuffixCountTable, syms: list[int], states: list[tuple[int, int]], j: int, rem: int
) -> int:
    """Write into syms[j:] the completion of rank rem of the prefix syms[:j].

    states[j] is the arch state after the prefix: (symbols still owed,
    open-arch bitset). At each position the completion counts of the
    candidate symbols are accumulated until they exceed rem, and the first
    symbol to do so is chosen, with two table reads; the state after it goes
    to states[j + 1]. Once k arches have closed every suffix completes the
    word, so the rest is the base-sigma digits of what is left of rem, filled
    in one conversion (table.free_suffix). Returns where that free suffix starts.
    """
    n, sigma = table.n, table.sigma
    rows = table.rows
    reads = 0
    d, mask = states[j]
    while d:
        slack = n - j - 1 - d  # slack after a repeated symbol
        rep_count = rows[d][slack] if slack >= 0 else 0
        new_count = rows[d - 1][slack + 1] if slack + 1 >= 0 else 0
        reads += (slack >= 0) + (slack + 1 >= 0)
        for x in range(1, sigma + 1):
            cnt = rep_count if mask >> x & 1 else new_count
            if rem < cnt:
                break
            rem -= cnt
        else:
            raise AssertionError("rank exhausted before the word was complete")
        syms[j] = x
        if not mask >> x & 1:
            d -= 1
            mask = 0 if d % sigma == 0 else mask | 1 << x
        j += 1
        states[j] = (d, mask)
    table.lookups += reads
    syms[j:] = table.free_suffix(rem, n - j)
    return j


def unrank(r: int, n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> Word:
    """The k-universal word of length n with 0-based rank r.

    Inverts rank() symbol by symbol, with two table reads per position until
    the k-th arch closes; the free suffix after it is one base-sigma
    conversion that reads O((n - j) / 32) powers.
    """
    if table is None:
        table = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, table)
    if total == 0:
        raise EmptySet(f"no {k}-universal words of length {n} over {sigma} symbols")
    if not 0 <= r < total:
        raise RankOutOfRange(r, total)
    syms = [0] * n
    _descend(table, syms, [(k * sigma, 0)] * (n + 1), 0, r)
    return Word._trusted(tuple(syms), _alphabet(sigma))


class EnumerationCursor:
    """Iterator over the k-universal words of length n, smallest first.

    The first word is unranked by the same descent as unrank(), which keeps
    the arch state after every position before the free suffix. Inside the
    free suffix a successor adds one in base sigma and reads no table cell.
    A carry past it moves to the rightmost arch position that still has a
    viable larger symbol (a slack sign check), counts the completions up to
    the current symbol there with two reads, and descends again from there.
    """

    def __init__(self, table: SuffixCountTable, from_rank: int = 0, limit: int | None = None):
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be nonnegative, got {limit}")
        self.table = table
        self.count = count_universal(table.n, table.k, table.sigma, table)
        if not 0 <= from_rank <= self.count:
            raise RankOutOfRange(from_rank, self.count)
        self.next_rank = from_rank
        self._left = limit
        self._alpha = _alphabet(table.sigma)
        self._syms: list[int] | None = None
        self._states: list[tuple[int, int]] = []
        self._free = 0  # start of the free suffix of the current word

    def __iter__(self) -> "EnumerationCursor":
        return self

    def __next__(self) -> Word:
        if self._left is not None and self._left == 0:
            raise StopIteration
        if self.next_rank >= self.count:
            raise StopIteration
        if self._syms is None:
            table = self.table
            self._syms = [0] * table.n
            self._states = [(table.k * table.sigma, 0)] * (table.n + 1)
            self._free = _descend(table, self._syms, self._states, 0, self.next_rank)
        else:
            self._advance()
        self.next_rank += 1
        if self._left is not None:
            self._left -= 1
        return Word._trusted(tuple(self._syms), self._alpha)

    def _advance(self) -> None:
        table = self.table
        n, sigma = table.n, table.sigma
        syms = self._syms
        free = self._free
        for p in range(n - 1, free - 1, -1):
            if syms[p] < sigma:
                syms[p] += 1
                return
            syms[p] = 1
        for p in range(free - 1, -1, -1):
            cur = syms[p]
            d, mask = self._states[p]
            slack = n - p - 1 - d  # slack after a repeated symbol
            if cur == sigma or slack < -1:
                continue
            if slack == -1 and mask >> (cur + 1) == (1 << (sigma - cur)) - 1:
                continue  # every larger symbol repeats, and repeats have no room
            repeats = (mask & ((2 << cur) - 1)).bit_count()
            rem = (cur - repeats) * table.rows[d - 1][slack + 1]
            if slack >= 0:
                rem += repeats * table.rows[d][slack]
            table.lookups += 1 + (slack >= 0)
            self._free = _descend(table, syms, self._states, p, rem)
            return
        raise AssertionError("no successor although next_rank < count")


def enumerate_words(
    n: int,
    k: int,
    sigma: int,
    from_rank: int = 0,
    limit: int | None = None,
    table: SuffixCountTable | None = None,
) -> EnumerationCursor:
    """Stream the k-universal words of length n in strictly increasing order."""
    if table is None:
        table = build_table(n, k, sigma)
    else:
        _check_params(n, k, sigma, table)
    return EnumerationCursor(table, from_rank, limit)
