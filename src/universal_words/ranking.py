"""Lexicographic rank of any word within the k-universal set of its length.

The rank of w is the number of k-universal words that are strictly smaller.
Scanning w left to right, every position i contributes the completions of
w[1,i-1]x for each symbol x below w[i]: smaller symbols that repeat one already
seen in the open arch keep the d symbols still owed and burn a free slot,
smaller new symbols owe one less. Once the slack is fixed by the remaining
length both contributions are single cells, rows[d][slack] and
rows[d - 1][slack + 1], so the scan makes at most two reads per position.
Where a new symbol would close an arch, row d - 1 is not stored (it is sigma
times the row below, see counting), so that one read is
sigma * rows[d - 2][slack + 1]. Once k arches have closed the word is a
member whatever follows, and the rest of it is a free suffix: its
completions are counted in one base-sigma conversion, table.free_rank, which
reads O((n - i) / 512) powers for 2 <= sigma <= 36 and O((n - i) / 32)
otherwise.
Words that are not members get the rank they would receive on insertion.
"""

from __future__ import annotations

from .counting import SuffixCountTable, _check_params
from .words import Word, _Value


class RankResult(_Value):
    """The rank of a word, and whether the word itself is in the set."""

    __slots__ = ("rank", "member")

    def __init__(self, rank: int, member: bool):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "member", member)


def rank(w: Word, k: int, table: SuffixCountTable) -> RankResult:
    """0-based rank of w among the k-universal words of its length.

    Reads at most two cells per position, one of them sigma * rows[d - 2]
    where row d - 1 is left out of the table; table.lookups counts each read
    once."""
    n = len(w.symbols)
    sigma = w.sigma
    _check_params(n, k, sigma, table)

    rows = table.rows
    syms = w.symbols
    total = 0
    reads = 0
    d = sigma * k  # symbols still owed before k arches close
    mask = 0  # the symbols of the open arch, as a bitset
    for i in range(n):
        if not d:
            total += table.free_rank(syms, i)
            break
        s = syms[i]
        if s > 1:
            repeats = (mask & ((1 << s) - 1)).bit_count()
            news = s - 1 - repeats
            slack = n - i - 1 - d  # slack after a repeated symbol
            if repeats and slack >= 0:
                total += repeats * rows[d][slack]
                reads += 1
            if news and slack + 1 >= 0:
                below = rows[d - 1]
                if below is None:  # a new symbol closes the arch
                    total += news * sigma * rows[d - 2][slack + 1]
                else:
                    total += news * below[slack + 1]
                reads += 1
        bit = 1 << s
        if not mask & bit:
            d -= 1
            mask = 0 if d % sigma == 0 else mask | bit
    table.lookups += reads
    return RankResult(total, not d)
