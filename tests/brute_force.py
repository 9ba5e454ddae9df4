"""Brute-force references that only the tests use.

They work straight from the definition of k-universality, as
universal_words.oracle.brute_enumerate does, and share its pattern walk and
guards; no factorization or table code of the package is used.
"""

from bisect import bisect_left
from collections import defaultdict

from universal_words.errors import GuardExceeded, InvalidK
from universal_words.oracle import (
    CHECK_GUARD,
    _every_pattern_embeds,
    _occurrence_rows,
    brute_enumerate,
)
from universal_words.words import Word


def brute_is_k_universal(w: Word, k: int) -> bool:
    """Check every length-k word for subsequence containment, no shortcuts."""
    if k < 0:
        raise InvalidK(f"k must be nonnegative, got {k}")
    sigma = w.sigma
    if sigma**k > CHECK_GUARD:
        raise GuardExceeded(f"sigma**k = {sigma**k} exceeds the guard {CHECK_GUARD}")
    n = len(w.symbols)
    rows = _occurrence_rows(w.symbols, sigma, n)
    return _every_pattern_embeds(rows, n, sigma, k)


def brute_index(w: Word) -> int:
    """Largest k passing brute_is_k_universal."""
    sigma = w.sigma
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


def brute_rank(w: Word, k: int) -> int:
    """Position where w sits (or would be inserted) in the enumerated set."""
    members = brute_enumerate(len(w.symbols), k, w.sigma)
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
