"""Lexicographic rank of any word within the k-universal set of its length.

The rank of w is the number of k-universal words that are strictly smaller.
Scanning w left to right, every position i contributes the completions of
w[1,i-1]x for each symbol x below w[i]: smaller symbols that repeat one already
seen in the open arch keep the d symbols still owed and burn a free slot,
smaller new symbols owe one less. The slack is the free symbols left after a
new symbol here: it starts at n - k*sigma and falls by one at each repeated
symbol of w, the rule unranking._descend follows too. Both contributions are
then single cells times a multiplier, the number c of such symbols:
c * rows[d][slack - 1] and c * rows[d - 1][slack], so the scan makes at most
two reads per position. Each read is added to the sum S_c of its multiplier,
one big-integer addition and no product. The rank is sum(c * S_c), taken
once at the end as the sum of the suffix sums S_sigma, S_sigma +
S_(sigma-1), ...: 2 sigma - 1 additions in C.
Where a new symbol would close an arch, row d - 1 is not stored (it is sigma
times the row below, see counting), so that read is
sigma * rows[d - 2][slack]. Its multiplier is always 1: the open arch
holds sigma - 1 symbols, so exactly one symbol is new. Those reads go to the
closing sum, S_sigma, whose multiplier is sigma. Once k arches have
closed the word is a member whatever follows, and the rest of it is a free
suffix: its completions are counted in one base-sigma conversion,
counting.free_rank(syms, i, n, sigma, table.power), which reads only
syms[i:n] and O((n - i) / 512) powers for 2 <= sigma <= 36, O((n - i) / 32)
otherwise, each through table.power. A word shorter than k*sigma reads no
cell, and its walk is skipped.
Words that are not members get the rank they would receive on insertion. The
scan of such a word stops at its first repeated symbol that meets slack 0:
no word with that prefix completes, so nothing after it adds to the rank.
"""

from __future__ import annotations

from itertools import accumulate

from .counting import SuffixCountTable, _check_params, free_rank
from .words import Word, _Value


class RankResult(_Value):
    """The rank of a word, and whether the word itself is in the set."""

    __slots__ = ("rank", "member")

    def __init__(self, rank: int, member: bool):
        _set_rank(self, rank)
        _set_member(self, member)


_set_rank = RankResult.rank.__set__
_set_member = RankResult.member.__set__


def rank(w: Word, k: int, table: SuffixCountTable) -> RankResult:
    """0-based rank of w among the k-universal words of its length.

    Reads at most two cells per position, the repeat count rows[d][slack - 1]
    and the new count rows[d - 1][slack], and adds each, with one big-integer
    addition, to the sum S_c of its multiplier c; a read below a left-out
    row d - 1 goes to the closing sum, S_sigma. Each read below the filled
    window fills it first (SuffixCountTable.fill): a word need not read at
    every slack it reaches (the symbol 1 reads nothing), so rank fills no
    block that it does not read. The scan stops at the first repeated symbol
    that meets slack 0. The rank is the free suffix's rank plus
    sum(c * S_c), taken once as the sum of the suffix sums of S.
    table.lookups counts each read once."""
    syms = w.symbols
    n = len(syms)
    sigma = w.sigma
    _check_params(n, k, sigma, table)

    rows = table.rows
    low = table.filled  # every row holds its cells from this slack up
    total = reads = 0
    d = sigma * k  # symbols still owed before k arches close
    slack = n - d  # free symbols left after a new symbol here
    mask = 0  # the symbols of the open arch, as a bitset
    if d and slack >= 0:  # else no cell can be read: the slack never grows
        # sums[c - 1] is S_c, the cells read with multiplier c; sigma <= d <= n
        sums = [0] * sigma
        for s in syms:
            if s > 1:
                repeats = (mask & ((1 << s) - 1)).bit_count()
                news = s - 1 - repeats
                if repeats and slack:  # a repeat at slack 0 cannot complete
                    if slack <= low:
                        low = table.fill(slack - 1)
                    sums[repeats - 1] += rows[d][slack - 1]
                    reads += 1
                if news:
                    if slack < low:
                        low = table.fill(slack)
                    below = rows[d - 1]
                    if below is None:  # a new symbol closes the arch: news is 1
                        sums[sigma - 1] += rows[d - 2][slack]
                    else:
                        sums[news - 1] += below[slack]
                    reads += 1
            bit = 1 << s
            if mask & bit:
                if not slack:  # no completion is left, and nothing later is read
                    break
                slack -= 1
            else:
                d -= 1
                if not d:
                    break
                mask = 0 if d % sigma == 0 else mask | bit
        # sum(c * S_c): S_c is in c of the suffix sums S_sigma + ... + S_j
        total = sum(accumulate(reversed(sums)))
    table.lookups += reads
    # once k arches have closed, the last `slack` symbols are a free suffix
    if not d and slack:
        total += free_rank(syms, n - slack, n, sigma, table.power)
    return RankResult(total, not d)
