"""Exact combinatorics of k-subsequence-universal words of fixed length.

A word over {1..sigma} is k-universal when every length-k word over the same
alphabet occurs in it as a subsequence. This package counts those words
exactly, ranks and unranks them lexicographically, streams them in order with
bounded per-word work, exposes the greedy arch factorization behind all of it,
and ships a naive brute-force enumeration to validate the fast paths against.
"""

from .arches import (
    ArchFactorization,
    arch_factorize,
    is_k_universal,
)
from .closed_forms import count_arches, count_index_zero, count_one_universal
from .counting import SuffixCountTable, build_table, count_universal
from .errors import (
    AlphabetMismatch,
    EmptySet,
    GuardExceeded,
    InvalidK,
    LengthMismatch,
    ParseError,
    RankOutOfRange,
    SymbolOutOfRange,
    UniversalWordsError,
)
from .ranking import RankResult, rank
from .unranking import enumerate_words, unrank
from .words import Word, format_word, make_word, parse_word

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatch",
    "ArchFactorization",
    "EmptySet",
    "GuardExceeded",
    "InvalidK",
    "LengthMismatch",
    "ParseError",
    "RankOutOfRange",
    "RankResult",
    "SuffixCountTable",
    "SymbolOutOfRange",
    "UniversalWordsError",
    "Word",
    "arch_factorize",
    "build_table",
    "count_arches",
    "count_index_zero",
    "count_one_universal",
    "count_universal",
    "enumerate_words",
    "format_word",
    "is_k_universal",
    "make_word",
    "parse_word",
    "rank",
    "unrank",
]
