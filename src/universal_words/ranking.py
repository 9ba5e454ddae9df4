"""Lexicographic rank of any word within the k-universal set of its length.

The rank of w is the number of k-universal words that are strictly smaller.
Scanning w left to right, every position i contributes the completions of
w[1,i-1]x for each symbol x below w[i]: smaller symbols that repeat one already
seen in the open arch keep the arch state and burn a free slot, smaller new
symbols grow the arch. Both contributions are single table reads once the
slack is fixed by the remaining length, so the scan makes at most two lookups
per position. Once k arches have closed the word is a member whatever follows,
and the rest of it is a free suffix: its completions are counted in one
base-sigma conversion, table.free_rank, which reads O((n - i) / 32) powers.
Words that are not members get the rank they would receive on insertion.
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
        if completed >= k:
            total += table.free_rank(syms, i)
            break
        s = syms[i]
        if s > 1:
            c = k - completed
            repeats = (mask & ((1 << s) - 1)).bit_count()
            news = s - 1 - repeats
            slack = n - i - 1 - sigma * c + q  # slack after a repeated symbol
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
