"""Command-line interface.

Subcommands: count, rank, unrank, enum, arch, verify, closed-forms. Exit codes:
0 success, 1 usage or parse error, 2 domain error (rank out of range, symbol
out of range, empty set, exceeded oracle guard). --json wraps each result in
one {"command", "params", "result"} object; enum emits one object per word.
Ranks and counts cross the boundary as decimal strings.
"""

from __future__ import annotations

import argparse
import sys

from .arches import arch_factorize
from .closed_forms import count_arches, count_index_zero, count_one_universal
from .counting import build_table, count_universal
from .errors import ParseError, UniversalWordsError
from .ranking import rank
from .unranking import enumerate_words, unrank
from .words import format_word, make_word, parse_word


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, leaving 2 for domain errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _emit(args, text_lines, payload) -> None:
    if args.json:
        import json

        print(json.dumps({"command": args.command, "params": _params(args), "result": payload}))
    else:
        for line in text_lines:
            print(line)


def _params(args) -> dict:
    out = {}
    for key in ("n", "k", "sigma"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    if hasattr(args, "word"):
        out["word"] = args.word
    if hasattr(args, "rank"):
        out["rank"] = str(args.rank)
    if hasattr(args, "from_rank"):
        out["from"] = str(args.from_rank)
    if hasattr(args, "limit"):
        out["limit"] = args.limit
    return out


# Above this many bits (about 15,000 decimal digits) a count or rank is
# printed through decimal.Decimal: on Python 3.11 str(int) is quadratic in the
# digits, and splitting the bits in halves joined by powers of two in Decimal,
# whose products are subquadratic, overtakes it there, its import included.
# At 100,000 digits it takes about 35 ms against 170 ms for str().
_STR_BITS = 50_000


def _decimal_text(value: int) -> str:
    """str(value) for an int value >= 0, in subquadratic time when it is long."""
    bits = value.bit_length()
    if bits <= _STR_BITS:
        return str(value)
    import decimal

    # nothing may round: Inexact raises instead
    context = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
    )
    with decimal.localcontext(context):
        return str(_to_decimal(value, bits, {}, decimal.Decimal))


def _to_decimal(value: int, bits: int, powers: dict, dec):
    """0 <= value < 2**bits as a Decimal: its high and low bits converted
    apart and joined by 2**half, each power of two made once in powers."""
    if bits <= 1024:
        return dec(value)
    half = bits >> 1
    high = _to_decimal(value >> half, bits - half, powers, dec)
    low = _to_decimal(value & ((1 << half) - 1), half, powers, dec)
    return high * _power_of_two(half, powers, dec) + low


def _power_of_two(w: int, powers: dict, dec):
    p = powers.get(w)
    if p is None:
        if w <= 1024:
            p = dec(1 << w)
        else:
            p = _power_of_two(w >> 1, powers, dec) * _power_of_two(w - (w >> 1), powers, dec)
        powers[w] = p
    return p


def _cmd_count(args) -> int:
    text = _decimal_text(count_universal(args.n, args.k, args.sigma))
    _emit(args, [text], text)
    return 0


def _cmd_rank(args) -> int:
    word = parse_word(args.word, args.sigma)
    table = build_table(len(word), args.k, args.sigma)
    result = rank(word, args.k, table)
    text = _decimal_text(result.rank)
    _emit(
        args,
        [text, f"member: {'true' if result.member else 'false'}"],
        {"rank": text, "member": result.member},
    )
    return 0


def _cmd_unrank(args) -> int:
    word = unrank(args.rank, args.n, args.k, args.sigma)
    text = format_word(word)
    _emit(args, [text], {"word": text})
    return 0


def _cmd_enum(args) -> int:
    cursor = enumerate_words(
        args.n, args.k, args.sigma, from_rank=args.from_rank, limit=args.limit
    )
    if not args.json:
        for word in cursor:
            print(format_word(word))
        return 0
    import json

    # every line is json.dumps({"command", "params", "result"}); only the
    # result changes, and its rank and word hold nothing that needs escaping
    head = json.dumps({"command": "enum", "params": _params(args)})[:-1]
    for r, word in enumerate(cursor, args.from_rank):
        print(head + ', "result": {"rank": "%d", "word": "%s"}}' % (r, format_word(word)))
    return 0


def _cmd_arch(args) -> int:
    word = parse_word(args.word, args.sigma)
    fact = arch_factorize(word)
    pieces = [
        format_word(make_word(word.symbols[s - 1 : e], args.sigma))
        for s, e in fact.arch_bounds()
    ]
    suffix = format_word(make_word(word.symbols[fact.suffix_start - 1 :], args.sigma))
    if suffix:
        pieces.append(suffix)
    sep = "," if args.sigma <= 9 else "|"
    _emit(
        args,
        [sep.join(pieces), f"index: {fact.arch_count}"],
        {
            "arches": pieces[: fact.arch_count],
            "suffix": suffix,
            "index": fact.arch_count,
            "arch_starts": list(fact.arch_starts),
            "suffix_start": fact.suffix_start,
        },
    )
    return 0


def _cmd_closed_forms(args) -> int:
    zero = count_index_zero(args.n, args.sigma)
    one = count_one_universal(args.n, args.sigma)
    arches = count_arches(args.n, args.sigma)
    _emit(
        args,
        [f"index-zero: {zero}", f"one-universal: {one}", f"arches: {arches}"],
        {"index_zero": str(zero), "one_universal": str(one), "arches": str(arches)},
    )
    return 0


def _cmd_verify(args) -> int:
    from . import oracle

    n, k, sigma = args.n, args.k, args.sigma
    members = oracle.brute_enumerate(n, k, sigma)
    table = build_table(n, k, sigma)
    checks: dict[str, bool] = {}
    checks["count"] = count_universal(n, k, sigma, table) == len(members)
    streamed = list(enumerate_words(n, k, sigma, table=table))
    checks["enumeration"] = [w.symbols for w in streamed] == [w.symbols for w in members]
    checks["rank"] = all(
        (res := rank(w, k, table)).rank == i and res.member
        for i, w in enumerate(members)
    )
    checks["unrank"] = all(
        unrank(i, n, k, sigma, table).symbols == w.symbols for i, w in enumerate(members)
    )
    if sigma**n <= 100_000:
        from itertools import product

        ok = True
        pointer = 0
        for tup in product(range(1, sigma + 1), repeat=n):
            if pointer < len(members) and members[pointer].symbols == tup:
                pointer += 1
                continue
            res = rank(make_word(tup, sigma), k, table)
            if res.rank != pointer or res.member:
                ok = False
                break
        checks["non-member ranks"] = ok
    passed = all(checks.values())
    lines = [f"{name}: {'ok' if good else 'MISMATCH'}" for name, good in checks.items()]
    lines.append("PASS" if passed else "FAIL")
    _emit(args, lines, {"passed": passed, "checks": checks})
    return 0 if passed else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="uwords", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, *, n=False, k=False, word=False, rank_arg=False):
        if n:
            p.add_argument("--n", type=_nonneg, required=True, help="word length")
        if k:
            p.add_argument("--k", type=_nonneg, required=True, help="universality target")
        p.add_argument("--sigma", type=_positive, required=True, help="alphabet size")
        if word:
            p.add_argument("word", help="word text (digits, or comma-separated for sigma > 9)")
        if rank_arg:
            p.add_argument("rank", type=_nonneg, help="0-based rank, decimal")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("count", help="size of the k-universal set")
    common(p, n=True, k=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("rank", help="rank of a word (length inferred)")
    common(p, k=True, word=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("unrank", help="word with a given rank")
    common(p, n=True, k=True, rank_arg=True)
    p.set_defaults(func=_cmd_unrank)

    p = sub.add_parser("enum", help="stream the set in lexicographic order")
    common(p, n=True, k=True)
    p.add_argument("--from", dest="from_rank", type=_nonneg, default=0,
                   help="first rank to emit (default 0)")
    p.add_argument("--limit", type=_nonneg, default=None, help="stop after this many words")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("arch", help="arch factorization and universality index")
    common(p, word=True)
    p.set_defaults(func=_cmd_arch)

    p = sub.add_parser("verify", help="cross-check the fast paths against brute force")
    common(p, n=True, k=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("closed-forms", help="closed-form counts for one length")
    common(p, n=True)
    p.set_defaults(func=_cmd_closed_forms)
    return parser


def main(argv=None) -> int:
    # counts and ranks run to thousands of digits: lift the interpreter's
    # int/str conversion limit (where it has one) while the command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(_build_parser().parse_args(argv))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    try:
        return args.func(args)
    except ParseError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 1
    except UniversalWordsError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
