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
the arches still owed. Rows whose open arch holds 1 symbol are built in C (see
_chain); at sigma = 2 that is every row that is built.

Only slack m <= n - k*sigma is ever read: after i symbols owing d,
i >= k*sigma - d, so the slack n - i - d of any completion is at most
n - k*sigma. That holds for the powers too: rows[0] is read either after a
symbol that closes the k-th arch, which the bound above covers, or by the
base-sigma conversion of the free suffix after that arch, which is at most
n - k*sigma symbols long and reads powers of at most half its length. So
every row, the power row included, stops at slack n - k*sigma.

Not every row is stored. A row d = c*sigma, c >= 1, whose open arch is empty
(q = 0) is by the recurrence sigma times the row below it,
rows[c*sigma][m] = sigma * rows[c*sigma - 1][m]. For sigma >= 2 it is not
built: the next row takes the factor sigma into its own pass, and the only
read that reaches it, the count of a new symbol that closes an arch, reads
sigma times the row below (no read repeats a symbol of an empty arch). Its
place holds None, so row indices stay d and a stray read fails loudly. The
build computes k*(sigma - 1) + 1 rows of n - k*sigma + 1 cells, half the
rectangle at sigma = 2. When n < k*sigma the set is empty, no query reads a
cell, and the table stores no row at all. sigma = 1 has no row with
q >= 1 to fold into: all k + 1 of its rows are the row of ones, and each
place holds that one list. The set of k-universal words of length n has
size rows[k*sigma][n - k*sigma], that is sigma * rows[k*sigma - 1][n - k*sigma]
for k >= 1, or 0 when n < k*sigma.

Nor is every cell kept. A query starts at slack M = n - k*sigma, and its
slack falls by one only at a repeated symbol, so most queries read only the
top slacks: at (2000, 20, 10) 300 random queries read down to slack 1200
or so, of 1800. So each row d >= 1 is a window, cut into blocks of
B = ceil(sqrt(M + 1)) slacks from the top down. The build runs the chain
once over every slack and keeps of each row its top block and one carry per
lower block, the row's cell just below that block: about 2*sqrt(M + 1)
cells, against M + 1. rows[0] stays whole, since the free suffix reads its
powers. A block is recomputed on demand, forward from its carries with the
chain's own row step, since a row's cells over a range of slacks follow
from the row below over that range and the row's cell just below it. So
the table fills downward, block by block, as far as the deepest query
has read (SuffixCountTable.fill), and at most to the full rows.

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
D_i = prod_{l != i} (i - l) makes every s_l = l D_i/(i - l) an integer. Both
constants come from one table of factorials in O(1) products per pole:
D_i = (-1)**(sigma - i) (i - 1)! (sigma - i)!, E_sigma = D_sigma**k, and
E_i = (D_i/(i - sigma))**k (i - sigma) for i < sigma. The product is a
series b(z) = sum_t b_t z**t with integer coefficients, built to t = m_i - 1
by _series from its logarithmic derivative; the s_l are built only where
m_i > 1. Let c be the product over the k-fold poles l < sigma alone. Then
c'/c = sum_l -k s_l/(1 + s_l z) gives

    t c_t = -k sum_l h_l(t - 1),   h_l(t) = s_l (c_t - h_l(t - 1)),

with h_l(0) = s_l; h_l(t) is s_l times the coefficient of z**t in
c/(1 + s_l z). That is one running sum per k-fold pole and one exact division
by t per coefficient, with an AssertionError on a remainder. One division by
the simple pole's (1 + s_sigma z), b_t = c_t - s_sigma b_(t - 1), then gives
b. At sigma = 2 no pole has a k-fold partner, c = 1, and only that division
runs. The series cost (sigma - 1)(k - 1)(sigma - 2) running-sum updates and
2 (sigma - 1)(k - 1) steps, about 1,700 at (k, sigma) = (20, 10).
Then A_ij = i**(D - m_i) b_(m_i - j) / (E_i D_i**(m_i - j)), and each pole
contributes one fraction over E_i D_i**(m_i - 1). The fractions are joined
over the lcm of their denominators and divided exactly, with an
AssertionError on a remainder; nothing is rounded.

With small slack the poles are not needed: 1/Q is itself a series of that
form in x, the roots s_l being -l for 0 < l < sigma and s_sigma = -sigma, so

    |U| = (sigma!)**k [x**M] prod_{0<l<sigma} (1 - l x)**-k / (1 - sigma x)

is _series run to M + 1 terms of sigma - 1 running sums each. The poles
compute the D coefficients A_ij, each term of a pole's series again about
sigma steps. So a count without a table runs the series iff M + 1 < D, that
is M < k(sigma - 1), and the poles otherwise; at k = 0 the poles are the
single power sigma**n. No constant is fitted, and the rule misses the
crossover both ways. The measured first M at which the poles beat the
series, against the rule's k(sigma - 1), is for (k, sigma) = (1, 10) 8/9,
(1, 200) 60/199, (2, 40) 109/78, (2, 200) 995/398, (20, 10) 216/180,
(20, 40) 1092/780, (60, 4) 252/180, (450, 2) 270/450 and (1000, 2)
700/1000 (in-process medians of 3, shared 2-vCPU VM, Python 3.11). The
rule is early where the poles' series run on constants of about
log2(sigma!) bits, and late at k = 1, where no pole has a series, and at
sigma = 2, where none has a running sum. At (1, 200) the series takes up to
4.7 times the poles' time just below the switch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import accumulate, repeat
from math import factorial, isqrt, lcm
from operator import mul

from .errors import AlphabetMismatch, InvalidK, LengthMismatch, _int_text

# The free-suffix conversions split segments longer than a leaf. A leaf of
# the split is written by one format() in base sigma, digit c being symbol
# c + 1, when sigma is 2, 8, 10 or 16 (the bases format() writes); a leaf of
# the join is read by one int() in base sigma, symbol s being base-36 digit
# s - 1, when 2 <= sigma <= 36 (the bases int() accepts). Such a C-converted
# leaf spans up to _C_LEAF symbols, below the smallest int/str digit limit
# Python accepts (640), so no leaf can trip it. Other alphabets take one
# small divmod or Horner step per symbol in leaves of up to _LEAF symbols,
# which keeps their ints one or two limbs wide. Every split reads one power.
_LEAF = 32
_C_LEAF = 512
_BASE36 = bytes.maketrans(bytes(range(1, 37)), b"0123456789abcdefghijklmnopqrstuvwxyz")
_FORMAT_CODE = {2: "b", 8: "o", 10: "d", 16: "x"}
_FROM_BASE16 = bytes.maketrans(b"0123456789abcdef", bytes(range(1, 17)))


class SuffixCountTable:
    """The chain rows of suffix-completion counts for fixed (n, k, sigma),
    filled downward on demand.

    rows[d][m] counts the completions of a state owing d symbols with slack m
    (see the module docstring): rows[0] is sigma**m, and every row d = 0 to
    k*sigma covers m <= n - k*sigma. For sigma >= 2 a row d = c*sigma, c >= 1,
    is None: it is sigma * rows[d - 1], and readers multiply. At sigma = 1
    every place holds the one row of ones; otherwise no row is stored twice.
    Values are exact arbitrary-precision integers.

    Every row holds all cells at slack >= ``filled``; below it only its carry
    cells are stored (see build_table), and every other place holds None, so
    a read there fails loudly. fill(s) lowers ``filled`` to the start of the
    block that holds slack s. rank and unrank share one slack rule: the slack
    is the free symbols left after a new symbol, it falls by one at each
    repeated symbol, and at slack m they read the repeat count at m - 1 and
    the new count at m. unrank reads both at every position of an open arch,
    so it fills at one point, fill(m - 1) where a repeat lowers its slack to
    m <= ``filled``, and no read checks the window. rank reads only the
    counts of the symbols below each of its own, so it fills before a read
    below ``filled``, and no block that it does not read. rows[0] is always
    complete, and so is every row when ``filled`` is 0.

    ``lookups`` counts cell reads, a read of sigma times a cell of the row
    below a left-out row included: the one of count_universal(), the
    power-row reads through power(), which rank and unrank pass to
    free_suffix() and free_rank(), and the reads that rank and unrank make in
    place and add once per call. An enumeration reads only for its first
    word, which it unranks. rows is empty when n < k*sigma, where the set is
    empty and no query reads a cell. ``build_ops`` is the number of cells the
    build computed, each stored list counted once at its full length. Both
    are advisory instrumentation, not value state; fills count in neither.
    """

    __slots__ = ("n", "k", "sigma", "rows", "filled", "build_ops", "lookups")

    def __init__(
        self, n: int, k: int, sigma: int, rows: list[list[int | None] | None], filled: int = 0
    ):
        self.n = n
        self.k = k
        self.sigma = sigma
        self.rows = rows
        self.filled = filled
        # each stored list once: at sigma = 1 every place holds the same row
        self.build_ops = sum(map(len, {id(row): row for row in rows if row}.values()))
        self.lookups = 0

    def power(self, h: int) -> int:
        """sigma**h from the power row rows[0], counted as one lookup."""
        self.lookups += 1
        return self.rows[0][h]

    def fill(self, s: int) -> int:
        """Fill every row down to the start of the block that holds slack s,
        and return the new ``filled``.

        One forward chain pass over the slacks from there up to ``filled``,
        seeded by each row's carry just below them; the carries it passes are
        recomputed to the values they hold. An s below 0, which unrank asks
        for where a repeat lowers its slack to 0, is taken as 0. Nothing is
        done when s >= filled, and so nothing once filled is 0.
        """
        low = self.filled
        if max(s, 0) >= low:
            return low
        big_m = self.n - self.k * self.sigma
        block = _block(big_m + 1)
        lo = max(big_m + 1 - ((big_m - s) // block + 1) * block, 0)
        rows = self.rows
        carries = [row[lo - 1] if lo and row else 0 for row in rows]
        for row, cells in zip(rows, _chain(self.sigma, self.k, rows[0][lo:low], carries)):
            if cells is not None:
                row[lo:low] = cells
        self.filled = lo
        return lo


# Divide-and-conquer radix conversion (Knuth, TAOCP Vol. 2, 4.4): halves are
# split and joined by sigma**h, so the big-integer work is a few wide
# divisions or products rather than one full-width step per symbol.
def free_suffix(
    x: int, out: list[int], lo: int, hi: int, sigma: int, power: Callable[[int], int]
) -> None:
    """Write into out[lo:hi] the free suffix of rank x among all
    sigma**(hi - lo) words: symbol j is base-sigma digit j of x (most
    significant first) plus one. power(h) returns sigma**h. No other place
    of out is written.

    For sigma in {2, 8, 10, 16} each leaf of the split, up to _C_LEAF = 512
    symbols, is written in C by format(), as free_rank reads its leaves by
    int() for 2 <= sigma <= 36; other alphabets split down to _LEAF = 32
    symbols and convert those one symbol at a time.
    Raises AssertionError when x >= sigma**(hi - lo)."""
    width = hi - lo
    code = _FORMAT_CODE.get(sigma)
    if width <= (_C_LEAF if code else _LEAF):
        if code and width:
            digits = format(x, f"0{width}{code}").encode().translate(_FROM_BASE16)
            if len(digits) != width:
                raise AssertionError("free suffix rank exceeds sigma**length")
            out[lo:hi] = digits
            return
        for j in range(hi - 1, lo - 1, -1):
            x, d = divmod(x, sigma)
            out[j] = d + 1
        if x:
            raise AssertionError("free suffix rank exceeds sigma**length")
        return
    mid = (lo + hi) // 2
    high, low = divmod(x, power(hi - mid))
    free_suffix(high, out, lo, mid, sigma, power)
    free_suffix(low, out, mid, hi, sigma, power)


def free_rank(
    syms: Sequence[int], lo: int, hi: int, sigma: int, power: Callable[[int], int]
) -> int:
    """Rank of the free suffix syms[lo:hi] among all words of its length:
    the base-sigma number whose digits are its symbols minus one. power(h)
    returns sigma**h. No other place of syms is read."""
    by_int = 2 <= sigma <= 36
    if hi - lo <= (_C_LEAF if by_int else _LEAF):
        if by_int and lo < hi:
            return int(bytes(syms[lo:hi]).translate(_BASE36), sigma)
        x = 0
        for j in range(lo, hi):
            x = x * sigma + syms[j] - 1
        return x
    mid = (lo + hi) // 2
    high = free_rank(syms, lo, mid, sigma, power)
    return high * power(hi - mid) + free_rank(syms, mid, hi, sigma, power)


def _check_params(n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> None:
    """Reject a non-int (bool included), negative n or k, sigma < 1, or a
    table built for other parameters.

    The package's one parameter check: words, tables, counts and the oracle
    all call it, so a bad value raises the same typed error everywhere."""
    if type(k) is not int:
        raise InvalidK(f"k must be an int, got {k!r}")
    if type(n) is not int:
        raise LengthMismatch(f"length n must be an int, got {n!r}")
    if type(sigma) is not int:
        raise AlphabetMismatch(f"sigma must be an int, got {sigma!r}")
    if table is not None:
        if k != table.k:
            raise InvalidK(f"table built for k={table.k}, queried with k={_int_text(k)}")
        if n != table.n:
            raise LengthMismatch(
                f"table built for length {table.n}, queried with length {_int_text(n)}"
            )
        if sigma != table.sigma:
            raise AlphabetMismatch(
                f"table built for sigma={table.sigma}, queried with sigma={_int_text(sigma)}"
            )
        return
    if k < 0:
        raise InvalidK(f"k must be nonnegative, got {_int_text(k)}")
    if n < 0:
        raise LengthMismatch(f"length n must be nonnegative, got {_int_text(n)}")
    if sigma < 1:
        raise AlphabetMismatch(f"sigma must be at least 1, got {_int_text(sigma)}")


def _block(width: int) -> int:
    """The block length B = ceil(sqrt(width)) of a row of width slacks: its
    carries, one per block below the top one, then cost about one block."""
    return isqrt(width - 1) + 1


def _chain(
    sigma: int, k: int, powers: list[int], carries: Sequence[int] | None = None
) -> Iterator[list[int] | None]:
    """Yield row d = 0..k*sigma over one range of slacks, row 0 being powers,
    sigma**m over that range.

    carries[d] is row d's cell just below the range; without carries the
    range starts at slack 0, below which every row d >= 1 is 0. Each row built
    is a new list, one pass over the last row built, seeded by its carry.
    With q the open arch's size, a q = 0 row d >= sigma is sigma times the
    row before: for sigma >= 2 it is yielded as None and not built, and the
    next row, whose grow = sigma - q is 1, multiplies by sigma instead. At
    sigma = 1 every row is q = 0 and equal to the row of ones, so powers is
    yielded again. A q = 1 row is the prefix sums of grow times the row
    before from its carry on (one accumulate, with no product when grow = 1),
    which runs in C. Other rows take one interpreter step per cell, two
    small-by-big products and a sum.
    """
    row = powers
    yield row
    fold = 1  # sigma after a row left out: the next row multiplies for it
    for d in range(1, k * sigma + 1):
        q = -d % sigma  # size of the open arch
        if q == 0 and sigma > 1:
            fold = sigma
            yield None
            continue
        grow = (sigma - q) * fold
        fold = 1
        prev = carries[d] if carries else 0
        if q == 1:
            row = list(accumulate(row if grow == 1 else map(grow.__mul__, row), initial=prev))
            del row[0]
        elif q:
            nxt = [0] * len(row)
            for m, below in enumerate(row):
                prev = grow * below + q * prev
                nxt[m] = prev
            row = nxt
        yield row


def build_table(n: int, k: int, sigma: int) -> SuffixCountTable:
    """Run the chain once over every slack m <= M = n - k*sigma, keeping of
    each row only its window.

    The build computes (k*(sigma - 1) + 1) * (M + 1) cells for sigma >= 2
    (``build_ops``), the k rows d = c*sigma being None. It keeps rows[0]
    whole, for power(), and of every other row only its top block of
    B = ceil(sqrt(M + 1)) slacks, M - B + 1..M, and one carry per block below
    it: the row's cell at M - j*B for j >= 1, just below block j. So a row
    stores about 2*sqrt(M + 1) cells, and ``filled`` is M - B + 1; fill()
    recomputes a lower block from its carries. For sigma = 1 the n - k + 1
    cells of the one row of ones, which every row d refers to, are all kept,
    as is the power row at k = 0. No row at all when n < k*sigma, where the
    set is empty and no query reads one.
    """
    _check_params(n, k, sigma)
    if n < k * sigma:
        return SuffixCountTable(n, k, sigma, [])
    width = n - k * sigma + 1
    powers = list(accumulate(repeat(sigma, width - 1), mul, initial=1))
    block = _block(width)
    top = width - block if k and sigma > 1 else 0
    rows = []
    for row in _chain(sigma, k, powers):
        if row is not None and row is not powers:
            window = [None] * width
            window[top:] = row[top:]
            if top:  # the carries at M - B, M - 2*B, ... >= 0
                window[top - 1::-block] = row[top - 1::-block]
            row = window
        rows.append(row)
    return SuffixCountTable(n, k, sigma, rows, top)


def _series(roots: Sequence[int], k: int, s: int, length: int) -> list[int]:
    """[z**t] prod_r (1 + r z)**-k / (1 + s z) for t < length, in exact
    integers: one running sum per root r and one exact division by t per
    coefficient, then one division by (1 + s z) (see the module docstring).
    Raises AssertionError on a remainder."""
    b = [1] + [0] * (length - 1)
    h = roots  # h_r(t - 1): r times [z**(t - 1)] c / (1 + r z)
    for t in range(1, length if roots else 1):
        c, rem = divmod(-k * sum(h), t)
        if rem:
            raise AssertionError("a series left a nonzero remainder")
        b[t] = c
        h = [r * (c - h_r) for r, h_r in zip(roots, h)]
    for t in range(1, length):
        b[t] -= s * b[t - 1]
    return b


def _count_by_poles(n: int, k: int, sigma: int) -> int:
    """(sigma!)**k [x**M] 1/Q(x) in exact integers, by partial fractions over
    the poles 1/i of Q (see the module docstring). At k = 0 only 1/sigma is a
    pole, and the sum is sigma**n."""
    if not k:
        return sigma**n
    big_m = n - k * sigma
    deg = (sigma - 1) * k + 1
    fact = list(accumulate(range(1, sigma), mul, initial=1))  # fact[j] = j!
    nums = []
    dens = []
    for i in range(1, sigma + 1):
        m_i = k if i < sigma else 1
        # d_i = prod_{l != i} (i - l) = (-1)**(sigma - i) (i - 1)! (sigma - i)!
        d_i = fact[i - 1] * fact[sigma - i] * (-1) ** (sigma - i)
        # b = prod_{l != i} (1 + s_l z)**-m_l up to z**(m_i - 1), the roots
        # being the k-fold poles' s_l (none at sigma = 2) and s the simple
        # pole's; m_i = 1 leaves b = [1]
        b = [1]
        if m_i > 1:
            folds = [l * d_i // (i - l) for l in range(1, sigma) if l != i]
            b = _series(folds, k, sigma * d_i // (i - sigma), m_i)
        acc = 0
        binom = 1  # C(M + j - 1, j - 1)
        power = 1  # d_i**(j - 1)
        for j in range(1, m_i + 1):
            acc += binom * power * b[m_i - j]
            binom = binom * (big_m + j) // j
            power *= d_i
        nums.append(i ** (big_m + deg - m_i) * acc)
        # E_i = prod_{l != i} (i - l)**m_l: d_i**k at i = sigma, and below it
        # the k-th power of d_i without its factor (i - sigma), times that factor
        e_i = d_i**k if i == sigma else (d_i // (i - sigma)) ** k * (i - sigma)
        dens.append(e_i * d_i ** (m_i - 1))
    common = lcm(*dens)
    coeff, rem = divmod(sum(num * (common // den) for num, den in zip(nums, dens)), common)
    if rem:
        raise AssertionError("partial fractions left a nonzero remainder")
    return coeff * factorial(sigma) ** k


def count_universal(n: int, k: int, sigma: int, table: SuffixCountTable | None = None) -> int:
    """Exact number of k-universal words of length n over {1..sigma}.

    With a table this is its last cell, sigma times the last cell of row
    k*sigma - 1 when k >= 1. Without one it is (sigma!)**k [x**M] 1/Q(x),
    M = n - k*sigma: from the series of 1/Q itself while its M + 1 terms are
    fewer than the D = k*(sigma - 1) + 1 coefficients of the partial
    fractions, and from the partial-fraction sum otherwise (see the module
    docstring).
    """
    _check_params(n, k, sigma, table)
    if n < k * sigma:
        return 0
    if table is not None:
        table.lookups += 1
        return sigma * table.rows[-2][-1] if k else table.rows[0][-1]
    big_m = n - k * sigma
    if big_m < k * (sigma - 1):
        return factorial(sigma) ** k * _series(range(-1, -sigma, -1), k, -sigma, big_m + 1)[big_m]
    return _count_by_poles(n, k, sigma)
