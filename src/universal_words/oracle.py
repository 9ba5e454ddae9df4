"""The naive enumeration that `uwords verify` cross-checks the fast paths against.

It works straight from the definition: a word is k-universal when every
length-k word over its alphabet occurs as a subsequence. It shares only the
parameter check (counting._check_params) with the rest of the package, so a bad
n, k or sigma raises the package's own error; no factorization or table code is
shared. The guards are hard errors, not truncations.
"""

from __future__ import annotations

from itertools import product

from .counting import _check_params
from .errors import GuardExceeded, _int_text
from .words import Word

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


def brute_enumerate(n: int, k: int, sigma: int) -> list[Word]:
    """All k-universal words of length n, in lexicographic order."""
    _check_params(n, k, sigma)
    if sigma**n > ENUM_GUARD:
        raise GuardExceeded(f"sigma**n = {_int_text(sigma**n)} exceeds the guard {ENUM_GUARD}")
    if sigma**k > CHECK_GUARD:
        raise GuardExceeded(f"sigma**k = {_int_text(sigma**k)} exceeds the guard {CHECK_GUARD}")
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
        members.append(Word(tup, sigma))
    return members
