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
from .ranking import RankResult, rank
from .unranking import enumerate_words, unrank
from .words import Word, format_word, make_word, parse_word


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
    """The command's arguments in their declared order, ranks as decimal text."""
    out = {}
    for name in _COMMANDS[args.command][2]:
        value = getattr(args, _ARGUMENTS[name][1].get("dest", name))
        out[name] = str(value) if name in ("rank", "from") else value
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
    if half not in powers:
        powers[half] = dec(2) ** half
    return high * powers[half] + low


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
    # result changes, and its rank and word hold nothing that needs escaping.
    # The rank is kept as decimal text and incremented digit by digit:
    # converting each rank from int would be quadratic in its digits.
    head = json.dumps({"command": "enum", "params": _params(args)})[:-1]
    text = _decimal_text(args.from_rank)
    for word in cursor:
        print(head + ', "result": {"rank": "%s", "word": "%s"}}' % (text, format_word(word)))
        text = _successor(text)
    return 0


def _successor(text: str) -> str:
    """The decimal text of int(text) + 1: the trailing 9s become 0s and the
    digit before them goes up by one."""
    head = text.rstrip("9")
    zeros = "0" * (len(text) - len(head))
    if not head:
        return "1" + zeros
    return head[:-1] + chr(ord(head[-1]) + 1) + zeros


def _cmd_arch(args) -> int:
    word = parse_word(args.word, args.sigma)
    fact = arch_factorize(word)
    # slices of the stored symbols are in their storage form already
    syms = word._symbols
    pieces = [
        format_word(Word._trusted(syms[s - 1 : e], args.sigma)) for s, e in fact.arch_bounds()
    ]
    suffix = format_word(Word._trusted(syms[fact.suffix_start - 1 :], args.sigma))
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
    zero = _decimal_text(count_index_zero(args.n, args.sigma))
    one = _decimal_text(count_one_universal(args.n, args.sigma))
    arches = _decimal_text(count_arches(args.n, args.sigma))
    _emit(
        args,
        [f"index-zero: {zero}", f"one-universal: {one}", f"arches: {arches}"],
        {"index_zero": zero, "one_universal": one, "arches": arches},
    )
    return 0


def _cmd_verify(args) -> int:
    from . import oracle

    n, k, sigma = args.n, args.k, args.sigma
    members = oracle.brute_enumerate(n, k, sigma)
    table = build_table(n, k, sigma)
    checks: dict[str, bool] = {}
    checks["count"] = count_universal(n, k, sigma, table) == len(members)
    checks["enumeration"] = list(enumerate_words(n, k, sigma, table=table)) == members
    checks["rank"] = all(rank(w, k, table) == RankResult(i, True) for i, w in enumerate(members))
    checks["unrank"] = all(unrank(i, n, k, sigma, table) == w for i, w in enumerate(members))
    if sigma**n <= 100_000:
        from itertools import product

        checks["non-member ranks"] = True
        below = 0  # members before the word
        for tup in product(range(1, sigma + 1), repeat=n):
            word = make_word(tup, sigma)
            if below < len(members) and word == members[below]:
                below += 1
            elif rank(word, k, table) != RankResult(below, False):
                checks["non-member ranks"] = False
                break
    passed = all(checks.values())
    lines = [f"{name}: {'ok' if good else 'MISMATCH'}" for name, good in checks.items()]
    lines.append("PASS" if passed else "FAIL")
    _emit(args, lines, {"passed": passed, "checks": checks})
    return 0 if passed else 2


# Each argument a command can take: its flag and its add_argument keywords,
# in the order --help lists them. Every command takes --json.
_ARGUMENTS = {
    "n": ("--n", {"type": _nonneg, "required": True, "help": "word length"}),
    "k": ("--k", {"type": _nonneg, "required": True, "help": "universality target"}),
    "sigma": ("--sigma", {"type": _positive, "required": True, "help": "alphabet size"}),
    "word": ("word", {"help": "word text (digits, or comma-separated for sigma > 9)"}),
    "rank": ("rank", {"type": _nonneg, "help": "0-based rank, decimal"}),
    "json": ("--json", {"action": "store_true", "help": "emit JSON"}),
    "from": ("--from", {"dest": "from_rank", "type": _nonneg, "default": 0,
                        "help": "first rank to emit (default 0)"}),
    "limit": ("--limit", {"type": _nonneg, "default": None,
                          "help": "stop after this many words"}),
}

# name: (handler, help, the arguments it takes in their --json params order)
_COMMANDS = {
    "count": (_cmd_count, "size of the k-universal set", ("n", "k", "sigma")),
    "rank": (_cmd_rank, "rank of a word (length inferred)", ("k", "sigma", "word")),
    "unrank": (_cmd_unrank, "word with a given rank", ("n", "k", "sigma", "rank")),
    "enum": (_cmd_enum, "stream the set in lexicographic order",
             ("n", "k", "sigma", "from", "limit")),
    "arch": (_cmd_arch, "arch factorization and universality index", ("sigma", "word")),
    "verify": (_cmd_verify, "cross-check the fast paths against brute force",
               ("n", "k", "sigma")),
    "closed-forms": (_cmd_closed_forms, "closed-form counts for one length", ("n", "sigma")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="uwords", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        # in _ARGUMENTS order, the order --help lists them in
        for name, (flag, spec) in _ARGUMENTS.items():
            if name in names or name == "json":
                command_parser.add_argument(flag, **spec)
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
        return _COMMANDS[args.command][0](args)
    except UniversalWordsError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 1 if isinstance(err, ParseError) else 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
