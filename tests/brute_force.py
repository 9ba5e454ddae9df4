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
    symbols = w.symbols  # a new tuple on each read
    n = len(symbols)
    rows = _occurrence_rows(symbols, sigma, n)
    return _every_pattern_embeds(rows, n, sigma, k)


def brute_index(w: Word) -> int:
    """Largest k passing brute_is_k_universal."""
    sigma = w.sigma
    symbols = w.symbols
    n = len(symbols)
    cap = n // sigma  # every symbol must occur k times, so k <= n / sigma
    rows = _occurrence_rows(symbols, sigma, n)
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


def _step(states: dict[tuple[int, int], int], k: int, sigma: int) -> dict[tuple[int, int], int]:
    """Append every symbol to the words counted in states, keyed by (arches
    closed, capped at k; open-arch bitmask of bits 1..sigma)."""
    full = (2 << sigma) - 2
    bits = [1 << s for s in range(1, sigma + 1)]
    step: dict[tuple[int, int], int] = defaultdict(int)
    for (closed, mask), ways in states.items():
        if closed == k:
            step[closed, mask] += ways * sigma
            continue
        for bit in bits:
            grown = mask | bit
            step[(closed + 1, 0) if grown == full else (closed, grown)] += ways
    return step


def brute_count(n: int, k: int, sigma: int) -> int:
    """|U(n, k, sigma)| by a walk over (arches closed, open-arch symbol set) states.

    The open arch is tracked as the bitmask of its symbols, not by their number,
    so this does not rely on counts depending only on how many were seen. It
    reaches lengths far beyond brute_enumerate: the work is n * (k + 1) * 2**sigma * sigma.
    """
    if n < 0 or k < 0 or sigma < 1:
        raise ValueError(f"bad parameters n={n}, k={k}, sigma={sigma}")
    states = {(0, 0): 1}
    for _ in range(n):
        states = _step(states, k, sigma)
    return sum(ways for (closed, _), ways in states.items() if closed == k)


def brute_state_rank(symbols: tuple[int, ...], k: int, sigma: int) -> int:
    """Number of k-universal words of length len(symbols) below symbols, by the
    state walk of brute_count.

    smaller holds the states of the prefixes already below the word's prefix of
    the same length. At each position they take every symbol, and the word's
    own prefix adds one state for each symbol below its next one. No table,
    arch or ranking code is used, so this checks rank at any n the walk
    reaches.
    """
    full = (2 << sigma) - 2
    smaller: dict[tuple[int, int], int] = {}
    own = (0, 0)
    for x in symbols:
        smaller = _step(smaller, k, sigma)
        closed, mask = own
        for s in range(1, x + 1):
            if closed == k:
                state = own
            else:
                grown = mask | 1 << s
                state = (closed + 1, 0) if grown == full else (closed, grown)
            if s < x:
                smaller[state] += 1
            else:
                own = state
    return sum(ways for (closed, _), ways in smaller.items() if closed == k)
