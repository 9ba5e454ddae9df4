"""Suffix-completion counts and the exact size of the k-universal word set.

A suffix count is indexed by a state (q, m, c):

    q  distinct symbols already seen in the arch currently being built
       (q = 0: a fresh arch with nothing seen, q = sigma: the arch just closed),
    m  free symbols left, i.e. slack beyond the forced first occurrences,
    c  arches still owed, counting the one in progress.

entry(q, m, c) is the number of words u of length m + (sigma - q) + sigma*(c - 1)
(or plain length m when c = 0) that close at least c more arches when appended
after such a partial arch. Which q symbols were seen does not matter, only how
many. With no arches owed every symbol is free, entry(q, m, 0) = sigma**m; a
closed arch opens a fresh one, entry(sigma, m, c) = entry(0, m, c - 1); and for
q < sigma a repeated symbol burns one free slot while a new one grows the arch:

    entry(q, m, c) = (sigma - q) * entry(q + 1, m, c) + q * entry(q, m - 1, c)

So the counts form one chain of rows: sigma**m first, then for c = 1..k the
rows q = sigma - 1 down to 0, each one pass over the row before it. In
generating-function terms every arch multiplies the series 1/(1 - sigma x) by
sigma! x**sigma / prod_{i<sigma} (1 - i x). The zero-slack cells come out of
the same pass as (sigma - q)! * (sigma!)**(c - 1).

Only slack m <= n - k*sigma is ever read when c >= 1: after i symbols with
`completed` arches closed and q symbols open, i >= sigma*completed + q, so the
slack n - i - sigma*(k - completed) + q of any completion is at most n - k*sigma.
The chain rows for c >= 1 therefore stop there. The set of k-universal words
of length n has size entry(0, n - k*sigma, k), or 0 when n < k*sigma.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import AlphabetMismatch, InvalidK, LengthMismatch

# The free-suffix conversions split segments longer than this; shorter ones
# take one small divmod or Horner step per symbol.
_LEAF = 32


class SuffixCountTable:
    """The chain rows of suffix-completion counts for fixed (n, k, sigma).

    Rows are indexed [c][q][m]. [0][q] is sigma**m for m <= n and every q; for
    c >= 1, [c][q] covers m <= n - k*sigma and [c][sigma] is the same list as
    [c - 1][0]. Values are exact arbitrary-precision integers. ``lookups``
    counts cell reads made through lookup(), the power-row reads of
    free_suffix() and free_rank() included, and ``build_ops`` the cells
    evaluated during construction; both are advisory instrumentation, not
    value state.
    """

    __slots__ = ("n", "k", "sigma", "_cells", "build_ops", "lookups")

    def __init__(self, n: int, k: int, sigma: int, cells: list, build_ops: int):
        self.n = n
        self.k = k
        self.sigma = sigma
        self._cells = cells
        self.build_ops = build_ops
        self.lookups = 0

    def lookup(self, q: int, m: int, c: int) -> int:
        """Instrumented cell read; negative slack means no completion exists."""
        self.lookups += 1
        if m < 0:
            return 0
        return self._cells[c][q][m]

    def free_suffix(self, x: int, length: int) -> list[int]:
        """The free suffix of rank x among all sigma**length words: symbol j is
        base-sigma digit j of x (most significant first) plus one."""
        out = [0] * length
        self._split(x, out, 0, length)
        return out

    def free_rank(self, syms: Sequence[int], start: int) -> int:
        """Rank of the free suffix syms[start:] among all words of its length:
        the base-sigma number whose digits are its symbols minus one."""
        return self._join(syms, start, len(syms))

    # Divide-and-conquer radix conversion (Knuth, TAOCP Vol. 2, 4.4): halves
    # are split and joined by sigma**h from the power row, so the big-integer
    # work is a few wide divisions or products rather than one full-width
    # step per symbol. These are methods, not nested closures: a closure that
    # calls itself is a reference cycle, which keeps the digit list of every
    # call alive until the cyclic garbage collector runs.

    def _split(self, x: int, out: list[int], lo: int, hi: int) -> None:
        if hi - lo <= _LEAF:
            sigma = self.sigma
            for j in range(hi - 1, lo - 1, -1):
                x, d = divmod(x, sigma)
                out[j] = d + 1
            return
        mid = (lo + hi) // 2
        high, low = divmod(x, self.lookup(0, hi - mid, 0))
        self._split(high, out, lo, mid)
        self._split(low, out, mid, hi)

    def _join(self, syms: Sequence[int], lo: int, hi: int) -> int:
        if hi - lo <= _LEAF:
            sigma = self.sigma
            x = 0
            for j in range(lo, hi):
                x = x * sigma + syms[j] - 1
            return x
        mid = (lo + hi) // 2
        return self._join(syms, lo, mid) * self.lookup(0, hi - mid, 0) + self._join(syms, mid, hi)

    def __repr__(self) -> str:
        return f"SuffixCountTable(n={self.n}, k={self.k}, sigma={self.sigma})"


def _check_params(n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> None:
    """Reject negative n or k and sigma < 1, or a table built for other parameters."""
    if table is not None:
        if k != table.k:
            raise InvalidK(f"table built for k={table.k}, queried with k={k}")
        if n != table.n:
            raise LengthMismatch(f"table built for length {table.n}, queried with length {n}")
        if sigma != table.sigma:
            raise AlphabetMismatch(
                f"table built for sigma={table.sigma}, queried with sigma={sigma}"
            )
        return
    if k < 0:
        raise InvalidK(f"k must be nonnegative, got {k}")
    if n < 0:
        raise LengthMismatch(f"length n must be nonnegative, got {n}")
    if sigma < 1:
        raise AlphabetMismatch(f"sigma must be at least 1, got {sigma}")


def _chain(n: int, k: int, sigma: int, top: int) -> Iterator[list[int]]:
    """Yield sigma**m for m <= top, then the rows c = 1..k, q = sigma-1..0 over m <= n - k*sigma."""
    row = [1] * (top + 1)
    for m in range(1, top + 1):
        row[m] = row[m - 1] * sigma
    yield row
    width = n - k * sigma + 1
    for _ in range(k):
        for q in range(sigma - 1, -1, -1):
            grow = sigma - q
            nxt = [0] * width
            prev = 0
            for m in range(width):
                prev = grow * row[m] + q * prev
                nxt[m] = prev
            row = nxt
            yield row


def build_table(n: int, k: int, sigma: int) -> SuffixCountTable:
    """Keep every row of the chain, (n + 1) + k*sigma*(n - k*sigma + 1) cells."""
    _check_params(n, k, sigma)
    rows = _chain(n, k, sigma, n)
    cells = [[next(rows)] * (sigma + 1)]
    ops = n + 1
    for _ in range(k):
        layer = [None] * sigma + [cells[-1][0]]
        for q in range(sigma - 1, -1, -1):
            layer[q] = next(rows)
            ops += len(layer[q])
        cells.append(layer)
    return SuffixCountTable(n, k, sigma, cells, ops)


def count_universal(n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> int:
    """Exact number of k-universal words of length n over {1..sigma}.

    Without a table only the current row of the chain is kept, and every row
    stops at the slack n - k*sigma that the answer reads.
    """
    _check_params(n, k, sigma, table)
    if n < k * sigma:
        return 0
    if table is not None:
        return table.lookup(0, n - k * sigma, k)
    if k == 0:
        return sigma**n
    for row in _chain(n, k, sigma, n - k * sigma):
        pass
    return row[n - k * sigma]
