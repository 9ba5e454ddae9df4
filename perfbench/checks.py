"""Output checks, run outside the timed regions.

Each check returns the layers whose answer was wrong; an empty list means the
operation passed. The count check derives |U(n, k, sigma)| independently of
the library's table, from the arch generating function.
"""

from __future__ import annotations

import json
from math import factorial

from universal_words import (
    arch_factorize,
    count_arches,
    count_index_zero,
    count_one_universal,
    format_word,
    make_word,
    unrank,
)


def gf_count(n: int, k: int, sigma: int) -> int:
    """|U(n, k, sigma)| = (sigma!)^k [x^(n - k sigma)] 1/((1 - sigma x) prod_{i<sigma} (1 - i x)^k).

    Each greedy arch contributes sigma! x^sigma / prod_{i=1}^{sigma-1} (1 - i x)
    and the unconstrained rest 1 / (1 - sigma x). Dividing a series by
    (1 - i x) is the pass b[m] = a[m] + i b[m - 1].
    """
    if n < k * sigma:
        return 0
    slack = n - k * sigma
    series = [1] + [0] * slack
    for i in [sigma] + [i for i in range(1, sigma) for _ in range(k)]:
        for m in range(1, slack + 1):
            series[m] += i * series[m - 1]
    return factorial(sigma) ** k * series[slack]


def check_position(w, result, n, k, sigma, table, total, arch_count) -> list[str]:
    """A ranked word sits between unrank(rank - 1) and unrank(rank).

    Members equal unrank(rank); non-members lie strictly below it, and their
    rank may be total (past the last member). Membership must agree with the
    arch factorization.
    """
    member = arch_count(w) >= k
    r = result.rank
    if result.member != member or not 0 <= r <= total or (member and r == total):
        return ["ranking"]
    syms = w.symbols
    if r > 0 and not unrank(r - 1, n, k, sigma, table).symbols < syms:
        return ["ranking"]
    if r < total:
        at = unrank(r, n, k, sigma, table).symbols
        placed = at == syms if member else syms < at
        if not placed:
            return ["ranking"]
    return []


def check_slice(words, first, last, limit, k, arch_count) -> list[str]:
    """Strictly increasing words, the expected ends, and every word a member."""
    bad = []
    syms = [w.symbols for w in words]
    if (
        len(syms) != limit
        or syms[0] != first
        or syms[-1] != last
        or any(a >= b for a, b in zip(syms, syms[1:]))
    ):
        bad.append("unranking")
    if any(arch_count(w) < k for w in words):
        bad.append("arches")
    return bad


def arch_answer(w, sigma):
    """What `uwords arch` prints for w: text lines and the JSON result."""
    fact = arch_factorize(w)
    pieces = [format_word(make_word(w.symbols[s - 1 : e], sigma)) for s, e in fact.arch_bounds()]
    suffix = format_word(make_word(w.symbols[fact.suffix_start - 1 :], sigma))
    sep = "," if sigma <= 9 else "|"
    line = sep.join(pieces + [suffix] if suffix else pieces)
    result = {
        "arches": pieces,
        "suffix": suffix,
        "index": fact.arch_count,
        "arch_starts": list(fact.arch_starts),
        "suffix_start": fact.suffix_start,
    }
    return [line, f"index: {fact.arch_count}"], [result]


def closed_forms_answer(n, sigma):
    zero = count_index_zero(n, sigma)
    one = count_one_universal(n, sigma)
    arches = count_arches(n, sigma)
    lines = [f"index-zero: {zero}", f"one-universal: {one}", f"arches: {arches}"]
    return lines, [{"index_zero": str(zero), "one_universal": str(one), "arches": str(arches)}]


def rank_answer(result):
    member = "true" if result.member else "false"
    return [str(result.rank), f"member: {member}"], [
        {"rank": str(result.rank), "member": result.member}
    ]


def enum_answer(from_rank, texts):
    return list(texts), [
        {"rank": str(from_rank + i), "word": text} for i, text in enumerate(texts)
    ]


def cli_output_matches(stdout: str, command: str, as_json: bool, answer) -> bool:
    """Compare a child's stdout with the library's answer (lines, JSON results)."""
    lines, results = answer
    got = stdout.splitlines()
    if not as_json:
        return got == lines
    try:
        objects = [json.loads(line) for line in got]
    except ValueError:
        return False
    return [o.get("command") for o in objects] == [command] * len(results) and [
        o.get("result") for o in objects
    ] == results
