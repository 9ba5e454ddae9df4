"""Fingerprint the output of a fixed corpus of `uwords` commands.

Each command runs as `python -m universal_words ...` with PYTHONPATH set to
CHECKOUT/src alone, and prints one line: the exit code, the SHA-256 of its
stdout, the SHA-256 of its stderr, and the command. Ranks come from the
checkout's own `count`, and the words that are ranked from its own `unrank`
or from a seeded random generator, so two checkouts that print the same
lines gave the same bytes for the same commands. Compare two checkouts with

    python tools/cli_outputs.py OLD > old.txt
    python tools/cli_outputs.py NEW > new.txt
    diff old.txt new.txt

The corpus: every --help; usage errors (exit 1); refused ranks, an empty set,
a symbol out of range and the oracle's guard (exit 2); at (4, 2, 2),
(300, 10, 4), (120, 3, 12), (1000, 450, 2), (2000, 20, 10), and at
(300, 1, 255) and (300, 1, 256), either side of the largest alphabet whose
words are stored as bytes, every subcommand but verify, as text and with
--json: count, unrank of the first, the last and a random rank, rank of that
random member, of 1...1 and of a random word, enum slices of 20 at both ends,
arch and closed-forms; verify at small shapes; and one count of 20,000
digits, which is printed through Decimal.
"""

import hashlib
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

SHAPES = [
    (4, 2, 2), (300, 10, 4), (120, 3, 12), (1000, 450, 2), (2000, 20, 10),
    (300, 1, 255), (300, 1, 256),
]
VERIFY_SHAPES = [(4, 2, 2), (6, 2, 2), (7, 1, 3), (4, 4, 1), (8, 2, 3)]
SLICE = 20


def run(checkout, args):
    """Run one command against CHECKOUT/src; return its line and its stdout."""
    src = Path(checkout).resolve() / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "universal_words", *args],
        capture_output=True, env=env, cwd=src, check=False,
    )
    digests = [hashlib.sha256(stream).hexdigest() for stream in (proc.stdout, proc.stderr)]
    return f"{proc.returncode} {digests[0]} {digests[1]} {shlex.join(args)}", proc.stdout


def _text(symbols, sigma):
    return ("" if sigma <= 9 else ",").join(map(str, symbols))


def corpus(checkout):
    """Yield the line and the stdout of each command of the corpus, in order."""

    def both(args):
        yield run(checkout, args)
        yield run(checkout, [*args, "--json"])

    yield run(checkout, ["--help"])
    for command in ("count", "rank", "unrank", "enum", "arch", "verify", "closed-forms"):
        yield run(checkout, [command, "--help"])
    for args in (
        [],
        ["frob"],
        ["count"],
        ["count", "--n", "-1", "--k", "1", "--sigma", "2"],
        ["count", "--n", "x", "--k", "1", "--sigma", "2"],
        ["count", "--n", "4", "--k", "1", "--sigma", "0"],
        ["rank", "--k", "1", "--sigma", "2", "12a"],
        ["enum", "--n", "4", "--k", "2", "--sigma", "2", "--limit", "-1"],
    ):
        yield run(checkout, args)
    for args in (
        ["unrank", "--n", "4", "--k", "2", "--sigma", "2", "4"],
        ["enum", "--n", "4", "--k", "2", "--sigma", "2", "--from", "5"],
        ["unrank", "--n", "3", "--k", "2", "--sigma", "2", "0"],
        ["rank", "--k", "1", "--sigma", "2", "13"],
        ["verify", "--n", "30", "--k", "1", "--sigma", "2"],
    ):
        yield from both(args)
    for n, k, sigma in SHAPES:
        nks = ["--n", str(n), "--k", str(k), "--sigma", str(sigma)]
        rng = random.Random(f"{n},{k},{sigma}")
        counted = list(both(["count", *nks]))
        yield from counted
        total = int(counted[0][1])
        chosen = rng.randrange(total)
        for r in (0, total - 1, chosen):
            unranked = list(both(["unrank", *nks, str(r)]))
            yield from unranked
        member = unranked[0][1].decode().strip()
        kis = ["--k", str(k), "--sigma", str(sigma)]
        random_word = _text(rng.choices(range(1, sigma + 1), k=n), sigma)
        for word in (member, _text([1] * n, sigma), random_word):
            yield from both(["rank", *kis, word])
        for start in (0, total - min(total, SLICE)):
            yield from both(["enum", *nks, "--from", str(start), "--limit", str(SLICE)])
        yield from both(["arch", "--sigma", str(sigma), member])
        yield from both(["closed-forms", "--n", str(n), "--sigma", str(sigma)])
    for n, k, sigma in VERIFY_SHAPES:
        yield from both(["verify", "--n", str(n), "--k", str(k), "--sigma", str(sigma)])
    yield from both(["count", "--n", "20000", "--k", "1", "--sigma", "10"])


def main(checkout: str) -> None:
    for line, _ in corpus(checkout):
        print(line, flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_outputs.py CHECKOUT")
    main(sys.argv[1])
