"""Naive reference implementations used to cross-check every fast path.

Everything here works straight from the definition: a word is k-universal when
every length-k word over its alphabet occurs as a subsequence. No factorization
or table code is shared with the rest of the package. The guards are hard
errors, not truncations.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import product

from .errors import GuardExceeded, InvalidK
from .words import Word, _alphabet

CHECK_GUARD = 10**6  # ceiling on sigma**k for one universality check
ENUM_GUARD = 10**7  # ceiling on sigma**n for a full enumeration


def _occurrence_rows(symbols, sigma, n):
    # rows[p][x] = first index >= p holding symbol x, or n when there is none
    rows = [None] * (n + 1)
    cur = (n,) * (sigma + 1)
    rows[n] = cur
    for p in range(n - 1, -1, -1):
        row = list(cur)
        row[symbols[p]] = p
        cur = tuple(row)
        rows[p] = cur
    return rows


def _every_pattern_embeds(rows, n, sigma, k):
    # greedy leftmost matching of all sigma**k patterns, shared prefix by prefix
    if k <= 0:
        return True
    stack = [(0, k)]
    while stack:
        p, d = stack.pop()
        row = rows[p]
        nd = d - 1
        for x in range(1, sigma + 1):
            pos = row[x]
            if pos >= n:
                return False
            if nd:
                stack.append((pos + 1, nd))
    return True


def brute_is_k_universal(w: Word, k: int) -> bool:
    """Check every length-k word for subsequence containment, no shortcuts."""
    if k < 0:
        raise InvalidK(f"k must be nonnegative, got {k}")
    sigma = w.alphabet.sigma
    if sigma**k > CHECK_GUARD:
        raise GuardExceeded(f"sigma**k = {sigma**k} exceeds the guard {CHECK_GUARD}")
    n = len(w.symbols)
    rows = _occurrence_rows(w.symbols, sigma, n)
    return _every_pattern_embeds(rows, n, sigma, k)


def brute_universality_index(w: Word) -> int:
    """Largest k passing brute_is_k_universal."""
    sigma = w.alphabet.sigma
    n = len(w.symbols)
    cap = n // sigma  # every symbol must occur k times, so k <= n / sigma
    rows = _occurrence_rows(w.symbols, sigma, n)
    k = 0
    while k < cap:
        if sigma ** (k + 1) > CHECK_GUARD:
            raise GuardExceeded(
                f"sigma**{k + 1} = {sigma ** (k + 1)} exceeds the guard {CHECK_GUARD}"
            )
        if not _every_pattern_embeds(rows, n, sigma, k + 1):
            break
        k += 1
    return k


def brute_enumerate(n: int, k: int, sigma: int) -> list[Word]:
    """All k-universal words of length n, in lexicographic order."""
    if n < 0 or k < 0 or sigma < 1:
        raise ValueError(f"bad parameters n={n}, k={k}, sigma={sigma}")
    if sigma**n > ENUM_GUARD:
        raise GuardExceeded(f"sigma**n = {sigma**n} exceeds the guard {ENUM_GUARD}")
    if sigma**k > CHECK_GUARD:
        raise GuardExceeded(f"sigma**k = {sigma**k} exceeds the guard {CHECK_GUARD}")
    alpha = _alphabet(sigma)
    full = (2 << sigma) - 2  # bits 1..sigma
    members = []
    for tup in product(range(1, sigma + 1), repeat=n):
        if k:
            seen = 0
            for s in tup:
                seen |= 1 << s
            if seen != full:
                continue  # some length-1 word is not even a subsequence
            rows = _occurrence_rows(tup, sigma, n)
            if not _every_pattern_embeds(rows, n, sigma, k):
                continue
        members.append(Word(tup, alpha))
    return members


def brute_rank(w: Word, k: int) -> int:
    """Position where w sits (or would be inserted) in the enumerated set."""
    members = brute_enumerate(len(w.symbols), k, w.alphabet.sigma)
    return bisect_left([m.symbols for m in members], w.symbols)


def brute_count(n: int, k: int, sigma: int) -> int:
    """|U(n, k, sigma)| by a walk over (arches closed, open-arch symbol set) states.

    The open arch is tracked as the bitmask of its symbols, not by their number,
    so this does not rely on counts depending only on how many were seen. It
    reaches lengths far beyond brute_enumerate: the work is n * (k + 1) * 2**sigma * sigma.
    """
    if n < 0 or k < 0 or sigma < 1:
        raise ValueError(f"bad parameters n={n}, k={k}, sigma={sigma}")
    full = (2 << sigma) - 2  # bits 1..sigma
    states = {(0, 0): 1}  # (arches closed, capped at k; open-arch bitmask) -> words
    for _ in range(n):
        step: dict[tuple[int, int], int] = defaultdict(int)
        for (closed, mask), ways in states.items():
            if closed == k:
                step[closed, mask] += ways * sigma
                continue
            for s in range(1, sigma + 1):
                grown = mask | 1 << s
                step[(closed + 1, 0) if grown == full else (closed, grown)] += ways
        states = step
    return sum(ways for (closed, _), ways in states.items() if closed == k)
