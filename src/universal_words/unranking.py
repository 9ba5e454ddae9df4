"""Recovering words from ranks and streaming the set in lexicographic order."""

from __future__ import annotations

from .counting import SuffixCountTable, _check_params, build_table, count_universal
from .errors import EmptySet, RankOutOfRange
from .words import Word, _alphabet


def unrank(r: int, n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> Word:
    """The k-universal word of length n with 0-based rank r.

    Inverts rank() symbol by symbol: at each position the completion counts of
    the candidate symbols are accumulated until they exceed what is left of r,
    and the first symbol to do so is chosen, with two table reads. Once k
    arches have closed every suffix completes the word, so the remaining
    symbols are the base-sigma digits of what is left of r, filled in one
    conversion (table.free_suffix) that reads O((n - j) / 32) powers.
    """
    if table is None:
        table = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, table)
    if total == 0:
        raise EmptySet(f"no {k}-universal words of length {n} over {sigma} symbols")
    if not 0 <= r < total:
        raise RankOutOfRange(r, total)

    lookup = table.lookup
    syms = [0] * n
    completed = 0
    q = 0
    mask = 0
    rem = r
    for j in range(n):
        if completed >= k:
            syms[j:] = table.free_suffix(rem, n - j)
            break
        c = k - completed
        slack = n - j - 1 - sigma * c + q
        rep_count = lookup(q, slack, c) if slack >= 0 else 0
        new_count = lookup(q + 1, slack + 1, c) if slack + 1 >= 0 else 0
        x = 0
        for s in range(1, sigma + 1):
            cnt = rep_count if mask >> s & 1 else new_count
            if rem < cnt:
                x = s
                break
            rem -= cnt
        if not x:
            raise AssertionError("rank exhausted before the word was complete")
        syms[j] = x
        if not mask >> x & 1:
            if q + 1 == sigma:
                completed += 1
                q = 0
                mask = 0
            else:
                q += 1
                mask |= 1 << x
    return Word._trusted(tuple(syms), _alphabet(sigma))


class EnumerationCursor:
    """Iterator over the k-universal words of length n, smallest first.

    The first word is unranked; every further word is derived from the one
    before it by bumping the rightmost position that still has a viable larger
    symbol and refilling the tail minimally. Viability is a slack sign check,
    so moving from one word to the next costs no table lookups at all.
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
        # _state[j] is (closed arches, open-arch size, open-arch bitset)
        # after the first j symbols
        self._state: list[tuple[int, int, int]] = []

    def __iter__(self) -> "EnumerationCursor":
        return self

    def __next__(self) -> Word:
        if self._left is not None and self._left == 0:
            raise StopIteration
        if self.next_rank >= self.count:
            raise StopIteration
        if self._syms is None:
            self._seed()
        else:
            self._advance()
        self.next_rank += 1
        if self._left is not None:
            self._left -= 1
        return Word._trusted(tuple(self._syms), self._alpha)

    def _seed(self) -> None:
        table = self.table
        word = unrank(self.next_rank, table.n, table.k, table.sigma, table)
        self._syms = list(word.symbols)
        self._state = [(0, 0, 0)] * (table.n + 1)
        for j, s in enumerate(self._syms, 1):
            self._apply(j, s)

    def _apply(self, position: int, symbol: int) -> None:
        completed, q, mask = self._state[position - 1]
        if mask >> symbol & 1:
            self._state[position] = (completed, q, mask)
        elif q + 1 == self.table.sigma:
            self._state[position] = (completed + 1, 0, 0)
        else:
            self._state[position] = (completed, q + 1, mask | 1 << symbol)

    def _advance(self) -> None:
        syms = self._syms
        state = self._state
        n = self.table.n
        k = self.table.k
        sigma = self.table.sigma
        for p in range(n, 0, -1):
            cur = syms[p - 1]
            completed, q, mask = state[p - 1]
            if completed >= k:
                x = cur + 1 if cur < sigma else 0
            else:
                left = n - p
                slack = left - sigma * (k - completed) + q
                if slack >= 0:
                    x = cur + 1 if cur < sigma else 0
                elif slack == -1:
                    # only symbols new to the open arch stay viable
                    x = next(
                        (s for s in range(cur + 1, sigma + 1) if not mask >> s & 1), 0
                    )
                else:
                    x = 0
            if x:
                syms[p - 1] = x
                self._apply(p, x)
                self._fill_min(p + 1)
                return
        raise AssertionError("no successor although next_rank < count")

    def _fill_min(self, start: int) -> None:
        syms = self._syms
        state = self._state
        n = self.table.n
        k = self.table.k
        sigma = self.table.sigma
        for t in range(start, n + 1):
            completed, q, mask = state[t - 1]
            if completed >= k:
                x = 1
            else:
                slack = (n - t) - sigma * (k - completed) + q
                if slack >= 0:
                    x = 1
                else:
                    x = next(s for s in range(1, sigma + 1) if not mask >> s & 1)
            syms[t - 1] = x
            self._apply(t, x)


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
