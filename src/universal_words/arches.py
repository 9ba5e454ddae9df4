"""Greedy arch factorization, whose arch count is the universality index.

An arch is a shortest factor that contains every alphabet symbol: scanning left
to right, it closes at the position where the last missing symbol first shows
up. Factoring a word into consecutive arches greedily leaves a residual suffix
with at most sigma - 1 distinct symbols, and the number of arches is exactly
the largest k for which every length-k word is a subsequence.
"""

from __future__ import annotations

from .counting import _check_params
from .words import Word, _Value


class ArchFactorization(_Value):
    """Greedy factorization of one word; positions are 1-based."""

    __slots__ = ("arch_starts", "arch_count", "suffix_start")

    def __init__(
        self,
        arch_starts: tuple[int, ...],
        arch_count: int,
        suffix_start: int,  # n + 1 when the residual suffix is empty
    ):
        _set_arch_starts(self, arch_starts)
        _set_arch_count(self, arch_count)
        _set_suffix_start(self, suffix_start)

    def arch_bounds(self) -> list[tuple[int, int]]:
        """(start, end) of each arch, 1-based inclusive."""
        ends = list(self.arch_starts[1:]) + [self.suffix_start]
        return [(s, e - 1) for s, e in zip(self.arch_starts, ends)]


_set_arch_starts = ArchFactorization.arch_starts.__set__
_set_arch_count = ArchFactorization.arch_count.__set__
_set_suffix_start = ArchFactorization.suffix_start.__set__


def arch_factorize(w: Word) -> ArchFactorization:
    """Factor w into greedy arches plus a residual suffix."""
    sigma = w.sigma
    n = len(w)
    starts: list[int] = []
    seen: set[int] = set()  # the symbols of the open arch
    for i, s in enumerate(w._symbols, 1):
        if not seen:
            start = i  # where the open arch starts
        seen.add(s)
        if len(seen) == sigma:
            starts.append(start)
            seen.clear()
    return ArchFactorization(
        arch_starts=tuple(starts),
        arch_count=len(starts),
        suffix_start=start if seen else n + 1,
    )


def is_k_universal(w: Word, k: int) -> bool:
    """Whether every length-k word over the alphabet is a subsequence of w."""
    _check_params(len(w), k, w.sigma)
    return k == 0 or arch_factorize(w).arch_count >= k
