"""Suffix-completion counts and the exact size of the k-universal word set.

The state of a partial word is the number d of symbols it still owes: with
`completed` arches closed and q distinct symbols seen in the arch being built,
d = sigma*(k - completed) - q, the fewest symbols that can close the k-th arch.
Which q symbols were seen does not matter, only how many. A suffix count

    rows[d][m]

is the number of words u of length d + m that, appended after a state owing d
symbols, close the k-th arch; m is the slack, the free symbols beyond the owed
ones. With nothing owed every symbol is free, rows[0][m] = sigma**m. For d >= 1
let q = -d mod sigma be the size of the open arch: a repeated symbol (q
choices) burns one free slot and keeps d, a new one (sigma - q choices) owes
one symbol less, and a new symbol that closes an arch opens a fresh one:

    rows[d][m] = (sigma - q) * rows[d - 1][m] + q * rows[d][m - 1]

So the counts form one chain of rows, d = 0..k*sigma, each one pass over the
row before it. In generating-function terms every arch multiplies the series
1/(1 - sigma x) by sigma! x**sigma / prod_{i<sigma} (1 - i x). The zero-slack
cells come out of the same pass as (sigma - q)! * (sigma!)**(c - 1), with c
the arches still owed.

Only slack m <= n - k*sigma is ever read: after i symbols owing d,
i >= k*sigma - d, so the slack n - i - d of any completion is at most
n - k*sigma. That holds for the powers too: rows[0] is read either after a
symbol that closes the k-th arch, which the bound above covers, or by the
base-sigma conversion of the free suffix after that arch, which is at most
n - k*sigma symbols long and reads powers of at most half its length. So
every row, the power row included, stops at slack n - k*sigma, and the table
is a rectangle of (k*sigma + 1) * (n - k*sigma + 1) cells, empty when
n < k*sigma. The set of k-universal words of length n has size
rows[k*sigma][n - k*sigma], or 0 when n < k*sigma.

A count alone needs no table. With M = n - k*sigma the generating function
above gives |U| = (sigma!)**k [x**M] 1/Q(x), where

    Q(x) = (1 - sigma x) * prod_{0<i<sigma} (1 - i x)**k

has the poles 1/i, i = 1..sigma, of multiplicity m_i = k for i < sigma and
m_sigma = 1, and degree D = (sigma - 1)*k + 1. By partial fractions
(Flajolet & Sedgewick, Analytic Combinatorics, 2009, IV.5)

    [x**M] 1/Q = sum_i i**M sum_{j<=m_i} A_ij C(M + j - 1, j - 1),

with A_ij the coefficient of y**-j in the Laurent series of 1/Q at y = 0,
where y = 1 - i x. There 1 - l x = ((i - l)/i) (1 + l y/(i - l)), so

    1/Q = y**-m_i i**(D - m_i) / E_i * prod_{l != i} (1 + l y/(i - l))**-m_l,

with E_i = prod_{l != i} (i - l)**m_l. Putting y = D_i z with
D_i = prod_{l != i} (i - l) makes every s_l = l D_i/(i - l) an integer, so the
product is a series sum_t b_t z**t with integer coefficients, built to
t = m_i - 1 by m_l divisions by each (1 + s_l z): b[t] -= s_l * b[t - 1].
Then A_ij = i**(D - m_i) b_(m_i - j) / (E_i D_i**(m_i - j)), and each pole
contributes one fraction over E_i D_i**(m_i - 1). The fractions are joined
over the lcm of their denominators and divided exactly, with an
AssertionError on a remainder; nothing is rounded. The cost is about
sum_i m_i (D - m_i) = D**2 - (sigma - 1)*k**2 - 1 small series steps plus
sigma powers of M*log2(sigma) bits, against (M + 1)(k*sigma + 1) cells for
the chain, so a count without a table takes partial fractions exactly when
the first is at most the second, and the chain otherwise (when M is small
against k*sigma).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import factorial, lcm, prod

from .errors import AlphabetMismatch, InvalidK, LengthMismatch

# The free-suffix conversions split segments longer than this. A shorter
# segment of the split takes one small divmod per symbol; one of the join is
# read by int() in base sigma, symbol s being base-36 digit s - 1, when
# 2 <= sigma <= 36 (the bases int() accepts), else by one Horner step per
# symbol. Wider leaves would make the join cheaper still, but every split
# reads one power, and the lookup counts that tests pin follow this size.
_LEAF = 32
_BASE36 = bytes.maketrans(bytes(range(1, 37)), b"0123456789abcdefghijklmnopqrstuvwxyz")


class SuffixCountTable:
    """The chain rows of suffix-completion counts for fixed (n, k, sigma).

    rows[d][m] counts the completions of a state owing d symbols with slack m
    (see the module docstring): rows[0] is sigma**m, and every row d = 0 to
    k*sigma covers m <= n - k*sigma. Each row is stored once. Values are exact
    arbitrary-precision integers. ``lookups`` counts cell reads: the one of
    count_universal(), the power-row reads of free_suffix() and free_rank(),
    and the reads that rank, unrank and enumeration make in place and add
    once per call. ``build_ops`` is the number of cells built. Both are
    advisory instrumentation, not value state.
    """

    __slots__ = ("n", "k", "sigma", "rows", "build_ops", "lookups")

    def __init__(self, n: int, k: int, sigma: int, rows: list[list[int]]):
        self.n = n
        self.k = k
        self.sigma = sigma
        self.rows = rows
        self.build_ops = sum(map(len, rows))
        self.lookups = 0

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
        self.lookups += 1
        high, low = divmod(x, self.rows[0][hi - mid])
        self._split(high, out, lo, mid)
        self._split(low, out, mid, hi)

    def _join(self, syms: Sequence[int], lo: int, hi: int) -> int:
        if hi - lo <= _LEAF:
            sigma = self.sigma
            if 2 <= sigma <= 36 and lo < hi:
                return int(bytes(syms[lo:hi]).translate(_BASE36), sigma)
            x = 0
            for j in range(lo, hi):
                x = x * sigma + syms[j] - 1
            return x
        mid = (lo + hi) // 2
        self.lookups += 1
        return self._join(syms, lo, mid) * self.rows[0][hi - mid] + self._join(syms, mid, hi)

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


def _chain(n: int, k: int, sigma: int) -> Iterator[list[int]]:
    """Yield row d = 0..k*sigma over slack m <= n - k*sigma, row 0 being sigma**m."""
    width = n - k * sigma + 1
    row = [1] * width
    for m in range(1, width):
        row[m] = row[m - 1] * sigma
    yield row
    for d in range(1, k * sigma + 1):
        q = -d % sigma  # size of the open arch
        grow = sigma - q
        nxt = [0] * width
        prev = 0
        for m in range(width):
            prev = grow * row[m] + q * prev
            nxt[m] = prev
        row = nxt
        yield row


def build_table(n: int, k: int, sigma: int) -> SuffixCountTable:
    """Keep every row of the chain: (k*sigma + 1) * (n - k*sigma + 1) cells,
    none when n < k*sigma."""
    _check_params(n, k, sigma)
    return SuffixCountTable(n, k, sigma, list(_chain(n, k, sigma)))


def _count_by_poles(n: int, k: int, sigma: int) -> int:
    """(sigma!)**k [x**M] 1/Q(x) in exact integers, by partial fractions over
    the poles 1/i of Q (see the module docstring)."""
    big_m = n - k * sigma
    poles = range(1, sigma + 1)
    mult = [0] + [k] * (sigma - 1) + [1]  # mult[i] of the pole 1/i
    deg = (sigma - 1) * k + 1
    nums = []
    dens = []
    for i in poles:
        m_i = mult[i]
        others = [l for l in poles if l != i]
        d_i = prod(i - l for l in others)
        # b = prod_{l != i} (1 + s_l z)**-m_l up to z**(m_i - 1)
        b = [1] + [0] * (m_i - 1)
        for l in others:
            s = l * d_i // (i - l)
            for _ in range(mult[l]):
                for t in range(1, m_i):
                    b[t] -= s * b[t - 1]
        acc = 0
        binom = 1  # C(M + j - 1, j - 1)
        power = 1  # d_i**(j - 1)
        for j in range(1, m_i + 1):
            acc += binom * power * b[m_i - j]
            binom = binom * (big_m + j) // j
            power *= d_i
        nums.append(i ** (big_m + deg - m_i) * acc)
        dens.append(prod((i - l) ** mult[l] for l in others) * d_i ** (m_i - 1))
    common = lcm(*dens)
    coeff, rem = divmod(sum(num * (common // den) for num, den in zip(nums, dens)), common)
    if rem:
        raise AssertionError("partial fractions left a nonzero remainder")
    return coeff * factorial(sigma) ** k


def count_universal(n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> int:
    """Exact number of k-universal words of length n over {1..sigma}.

    With a table this is its last cell. Without one it is the partial-fraction
    sum of the module docstring, or, when the chain has fewer cells than that
    sum has series steps, the chain with only its current row kept.
    """
    _check_params(n, k, sigma, table)
    if n < k * sigma:
        return 0
    if table is not None:
        table.lookups += 1
        return table.rows[-1][-1]
    if k == 0:
        return sigma**n
    deg = (sigma - 1) * k + 1
    if deg * deg - (sigma - 1) * k * k - 1 <= (n - k * sigma + 1) * (k * sigma + 1):
        return _count_by_poles(n, k, sigma)
    for row in _chain(n, k, sigma):
        pass
    return row[-1]
