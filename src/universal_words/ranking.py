"""Lexicographic rank of any word within the k-universal set of its length.

The rank of w is the number of k-universal words that are strictly smaller.
Scanning w left to right, every position i contributes the completions of
w[1,i-1]x for each symbol x below w[i]: smaller symbols that repeat one already
seen in the open arch keep the arch state and burn a free slot, smaller new
symbols grow the arch. Both contributions are single table reads once the
slack is fixed by the remaining length, so a rank costs O(n) lookups plus
O(n sigma) bit work. Words that are not members get the rank they would
receive on insertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import SuffixCountTable, _check_params
from .words import Word


@dataclass(frozen=True)
class RankResult:
    rank: int
    member: bool


def rank(w: Word, k: int, table: SuffixCountTable) -> RankResult:
    """0-based rank of w among the k-universal words of its length."""
    n = len(w.symbols)
    sigma = w.alphabet.sigma
    _check_params(n, k, sigma, table)

    lookup = table.lookup
    syms = w.symbols
    total = 0
    completed = 0  # arches closed within the scanned prefix
    q = 0  # distinct symbols in the open arch
    mask = 0  # their bitset
    for i in range(n):
        s = syms[i]
        if s > 1:
            left = n - i - 1
            if completed >= k:
                total += (s - 1) * lookup(0, left, 0)
            else:
                c = k - completed
                repeats = (mask & ((1 << s) - 1)).bit_count()
                news = s - 1 - repeats
                slack = left - sigma * c + q  # slack after a repeated symbol
                if repeats and slack >= 0:
                    total += repeats * lookup(q, slack, c)
                if news and slack + 1 >= 0:
                    total += news * lookup(q + 1, slack + 1, c)
        bit = 1 << s
        if not mask & bit:
            if q + 1 == sigma:
                completed += 1
                q = 0
                mask = 0
            else:
                q += 1
                mask |= bit
    return RankResult(total, completed >= k)
