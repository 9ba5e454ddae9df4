"""Greedy arch factorization and the universality index it yields.

An arch is a shortest factor that contains every alphabet symbol: scanning left
to right, it closes at the position where the last missing symbol first shows
up. Factoring a word into consecutive arches greedily leaves a residual suffix
with at most sigma - 1 distinct symbols, and the number of arches is exactly
the largest k for which every length-k word is a subsequence.
"""

from __future__ import annotations

from .errors import InvalidK
from .words import Word, _Value


class ArchFactorization(_Value):
    """Greedy factorization of one word; positions are 1-based."""

    __slots__ = ("arch_starts", "arch_count", "suffix_start", "source_length")

    def __init__(
        self,
        arch_starts: tuple[int, ...],
        arch_count: int,
        suffix_start: int,  # n + 1 when the residual suffix is empty
        source_length: int,
    ):
        object.__setattr__(self, "arch_starts", arch_starts)
        object.__setattr__(self, "arch_count", arch_count)
        object.__setattr__(self, "suffix_start", suffix_start)
        object.__setattr__(self, "source_length", source_length)

    def arch_bounds(self) -> list[tuple[int, int]]:
        """(start, end) of each arch, 1-based inclusive."""
        ends = list(self.arch_starts[1:]) + [self.suffix_start]
        return [(s, e - 1) for s, e in zip(self.arch_starts, ends)]


def arch_factorize(w: Word) -> ArchFactorization:
    """Factor w into greedy arches plus a residual suffix."""
    sigma = w.alphabet.sigma
    n = len(w.symbols)
    starts: list[int] = []
    mask = 0
    distinct = 0
    start = n + 1
    for i, s in enumerate(w.symbols, 1):
        if distinct == 0:
            start = i
        bit = 1 << s
        if not mask & bit:
            mask |= bit
            distinct += 1
        if distinct == sigma:
            starts.append(start)
            mask = 0
            distinct = 0
            start = n + 1
    return ArchFactorization(
        arch_starts=tuple(starts),
        arch_count=len(starts),
        suffix_start=start if distinct else n + 1,
        source_length=n,
    )


def universality_index(w: Word) -> int:
    """Largest k such that every length-k word over the alphabet is a subsequence."""
    return arch_factorize(w).arch_count


def is_k_universal(w: Word, k: int) -> bool:
    if k < 0:
        raise InvalidK(f"k must be nonnegative, got {k}")
    return k == 0 or universality_index(w) >= k
