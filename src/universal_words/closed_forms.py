"""Inclusion-exclusion counts: words missing a symbol, 1-universal words, arches."""

from math import comb

from .counting import _check_params


def count_index_zero(n: int, sigma: int) -> int:
    """Words of length n over {1..sigma} in which some symbol never occurs."""
    _check_params(n, 0, sigma)
    return sum(
        (-1) ** (i + 1) * comb(sigma, i) * (sigma - i) ** n
        for i in range(1, sigma + 1)
    )


def count_one_universal(n: int, sigma: int) -> int:
    """Words of length n that contain every alphabet symbol at least once."""
    _check_params(n, 0, sigma)
    return sigma**n - count_index_zero(n, sigma)


def count_arches(n: int, sigma: int) -> int:
    """Words of length n that are arches: all symbols occur, the last is unique.

    Returns 0 for n = 0 since the empty word contains no symbol at all.
    """
    _check_params(n, 0, sigma)
    if n == 0:
        return 0
    return sigma * (sigma - 1) ** (n - 1) - sum(
        (-1) ** i * i * comb(sigma, i) * (sigma - i) ** (n - 1)
        for i in range(2, sigma + 1)
    )
