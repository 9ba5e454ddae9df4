import argparse
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from universal_words import cli
from universal_words.cli import _decimal_text, main
from universal_words.closed_forms import count_arches, count_index_zero, count_one_universal
from universal_words.counting import count_universal
from universal_words.ranking import RankResult
from universal_words.unranking import enumerate_words
from universal_words.words import format_word


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_count_golden(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "4", "--k", "2", "--sigma", "2")
    assert (code, out, err) == (0, "4\n", "")


def test_arch_golden(capsys):
    code, out, err = run_cli(capsys, "arch", "--sigma", "4", "11234432122314332144")
    assert code == 0
    assert out == "11234,4321,22314,33214,4\nindex: 4\n"


def test_unrank_out_of_range_golden(capsys):
    code, out, err = run_cli(capsys, "unrank", "--n", "4", "--k", "2", "--sigma", "2", "7")
    assert code == 2
    assert out == ""
    assert err == "RankOutOfRange: rank 7 out of range (set size 4)\n"


def test_rank_member(capsys):
    code, out, _ = run_cli(capsys, "rank", "--k", "2", "--sigma", "2", "2112")
    assert (code, out) == (0, "2\nmember: true\n")


def test_rank_non_member(capsys):
    code, out, _ = run_cli(capsys, "rank", "--k", "2", "--sigma", "2", "2211")
    assert (code, out) == (0, "4\nmember: false\n")


def test_unrank_word(capsys):
    code, out, _ = run_cli(capsys, "unrank", "--n", "4", "--k", "2", "--sigma", "2", "0")
    assert (code, out) == (0, "1212\n")


def test_enum_full_set(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "4", "--k", "2", "--sigma", "2")
    assert (code, out) == (0, "1212\n1221\n2112\n2121\n")


def test_enum_from_and_limit(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--n", "4", "--k", "2", "--sigma", "2", "--from", "1", "--limit", "2"
    )
    assert (code, out) == (0, "1221\n2112\n")


def test_enum_empty_outputs(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "3", "--k", "2", "--sigma", "2")
    assert (code, out) == (0, "")
    code, out, _ = run_cli(
        capsys, "enum", "--n", "4", "--k", "2", "--sigma", "2", "--limit", "0"
    )
    assert (code, out) == (0, "")
    code, out, _ = run_cli(
        capsys, "enum", "--n", "4", "--k", "2", "--sigma", "2", "--from", "4"
    )
    assert (code, out) == (0, "")


def test_enum_rank_round_trip(capsys):
    start = 4
    code, out, _ = run_cli(
        capsys, "enum", "--n", "5", "--k", "2", "--sigma", "2",
        "--from", str(start), "--limit", "5",
    )
    assert code == 0
    words = out.splitlines()
    assert len(words) == 5
    for i, text in enumerate(words):
        code, out, _ = run_cli(capsys, "rank", "--k", "2", "--sigma", "2", text)
        assert code == 0
        assert out == f"{start + i}\nmember: true\n"


def test_closed_forms_golden(capsys):
    code, out, _ = run_cli(capsys, "closed-forms", "--n", "3", "--sigma", "3")
    assert (code, out) == (0, "index-zero: 21\none-universal: 6\narches: 6\n")


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--k", "2", "--sigma", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "PASS"
    assert "count: ok" in lines
    assert "rank: ok" in lines
    assert "non-member ranks: ok" in lines
    # sigma**n = 103,823 is above the sweep's limit: the set is empty, and
    # only the four fast paths are checked
    argv = ("verify", "--n", "3", "--k", "1", "--sigma", "47")
    checks = ["count", "enumeration", "rank", "unrank"]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, "".join(f"{name}: ok\n" for name in checks) + "PASS\n")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"passed": True, "checks": dict.fromkeys(checks, True)}


def test_verify_reports_a_mismatch(capsys, monkeypatch):
    # a fast path that disagrees with brute force fails the run with exit 2
    real = cli.rank

    def off_by_one(word, k, table):
        return RankResult(real(word, k, table).rank + 1, True)

    monkeypatch.setattr(cli, "rank", off_by_one)
    argv = ("verify", "--n", "4", "--k", "2", "--sigma", "2")
    assert run_cli(capsys, *argv) == (
        2,
        "count: ok\nenumeration: ok\nrank: MISMATCH\nunrank: ok\n"
        "non-member ranks: MISMATCH\nFAIL\n",
        "",
    )
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (2, "")
    assert json.loads(out)["result"] == {
        "passed": False,
        "checks": {
            "count": True, "enumeration": True, "rank": False, "unrank": True,
            "non-member ranks": False,
        },
    }


@pytest.mark.parametrize(
    "argv, params",
    [
        (["count", "--n", "4", "--k", "2", "--sigma", "2"],
         {"n": 4, "k": 2, "sigma": 2}),
        (["rank", "--k", "2", "--sigma", "2", "2112"],
         {"k": 2, "sigma": 2, "word": "2112"}),
        (["unrank", "--n", "80", "--k", "2", "--sigma", "2", str(2**70)],
         {"n": 80, "k": 2, "sigma": 2, "rank": str(2**70)}),
        (["enum", "--limit", "1", "--from", "2", "--sigma", "2", "--k", "2", "--n", "4"],
         {"n": 4, "k": 2, "sigma": 2, "from": "2", "limit": 1}),
        (["enum", "--n", "4", "--k", "2", "--sigma", "2"],
         {"n": 4, "k": 2, "sigma": 2, "from": "0", "limit": None}),
        (["arch", "--sigma", "10", "1,2,3,4,5,6,7,8,9,10,1"],
         {"sigma": 10, "word": "1,2,3,4,5,6,7,8,9,10,1"}),
        (["verify", "--n", "4", "--k", "2", "--sigma", "2"],
         {"n": 4, "k": 2, "sigma": 2}),
        (["closed-forms", "--n", "3", "--sigma", "3"],
         {"n": 3, "sigma": 3}),
    ],
)
def test_json_params_golden(capsys, argv, params):
    # the params object echoes the command's arguments, in this key order,
    # with ranks as decimal strings whatever order they were given in
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    obj = json.loads(out.splitlines()[0])
    assert obj["command"] == argv[0]
    assert json.dumps(obj["params"]) == json.dumps(params)


def test_json_count(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "4", "--k", "2", "--sigma", "2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "command": "count",
        "params": {"n": 4, "k": 2, "sigma": 2},
        "result": "4",
    }


def test_json_count_large_is_decimal_string(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "80", "--k", "2", "--sigma", "2", "--json"
    )
    assert code == 0
    value = json.loads(out)["result"]
    assert isinstance(value, str)
    assert int(value) == count_universal(80, 2, 2)
    assert int(value) > 2**63


def test_json_rank(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--k", "2", "--sigma", "2", "2112", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == {"rank": "2", "member": True}
    assert obj["params"]["word"] == "2112"


def test_json_enum_one_object_per_line(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--n", "4", "--k", "2", "--sigma", "2", "--json",
        "--from", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    objs = [json.loads(line) for line in lines]
    assert [o["result"] for o in objs] == [
        {"rank": "1", "word": "1221"},
        {"rank": "2", "word": "2112"},
        {"rank": "3", "word": "2121"},
    ]
    assert all(o["command"] == "enum" for o in objs)
    assert objs[0]["params"]["from"] == "1"


@pytest.mark.parametrize(
    "argv, params",
    [
        (["--n", "4", "--k", "2", "--sigma", "2"],
         {"n": 4, "k": 2, "sigma": 2, "from": "0", "limit": None}),
        (["--n", "7", "--k", "1", "--sigma", "3", "--from", "100", "--limit", "40"],
         {"n": 7, "k": 1, "sigma": 3, "from": "100", "limit": 40}),
        (["--n", "5", "--k", "0", "--sigma", "12", "--from", "7", "--limit", "30"],
         {"n": 5, "k": 0, "sigma": 12, "from": "7", "limit": 30}),
        (["--n", "60", "--k", "2", "--sigma", "10", "--from", "10" * 25, "--limit", "5"],
         {"n": 60, "k": 2, "sigma": 10, "from": "10" * 25, "limit": 5}),
        (["--n", "5", "--k", "1", "--sigma", "5", "--limit", "0"],
         {"n": 5, "k": 1, "sigma": 5, "from": "0", "limit": 0}),
        # the rank carries through a run of 9s
        (["--n", "60", "--k", "2", "--sigma", "10", "--from", "9" * 30 + "7", "--limit", "6"],
         {"n": 60, "k": 2, "sigma": 10, "from": "9" * 30 + "7", "limit": 6}),
        # ranks of 96 digits, carrying into a 97th
        (["--n", "210", "--k", "0", "--sigma", "3", "--from", "9" * 95 + "8", "--limit", "4"],
         {"n": 210, "k": 0, "sigma": 3, "from": "9" * 95 + "8", "limit": 4}),
    ],
)
def test_json_enum_lines_equal_json_dumps(capsys, argv, params):
    code, out, err = run_cli(capsys, "enum", *argv, "--json")
    assert (code, err) == (0, "")
    start = int(params["from"])
    words = enumerate_words(
        params["n"], params["k"], params["sigma"], from_rank=start, limit=params["limit"]
    )
    expected = [
        json.dumps({
            "command": "enum",
            "params": params,
            "result": {"rank": str(start + i), "word": format_word(w)},
        })
        for i, w in enumerate(words)
    ]
    assert expected or params["limit"] == 0
    assert out.splitlines() == expected


def test_json_arch_shape(capsys):
    code, out, _ = run_cli(
        capsys, "arch", "--sigma", "4", "11234432122314332144", "--json"
    )
    assert code == 0
    obj = json.loads(out)["result"]
    assert obj["arches"] == ["11234", "4321", "22314", "33214"]
    assert obj["suffix"] == "4"
    assert obj["index"] == 4
    assert obj["arch_starts"] == [1, 6, 10, 15]
    assert obj["suffix_start"] == 20


def test_arch_wide_alphabet_separator(capsys):
    code, out, _ = run_cli(
        capsys, "arch", "--sigma", "10", "1,2,3,4,5,6,7,8,9,10,1"
    )
    assert code == 0
    assert out == "1,2,3,4,5,6,7,8,9,10|1\nindex: 1\n"


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "4", "--k", "2")
    assert code == 1
    assert "sigma" in err
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1
    code, _, err = run_cli(capsys, "count", "--n", "-1", "--k", "2", "--sigma", "2")
    assert code == 1
    code, out, err = run_cli(capsys, "count", "--n", "4", "--k", "2", "--sigma", "0")
    assert (code, out) == (1, "")
    assert err.endswith("argument --sigma: must be at least 1, got 0\n")


def test_parser_gives_each_command_its_arguments(capsys):
    parser = cli._build_parser()
    args = parser.parse_args(["count", "--n", "4", "--k", "2", "--sigma", "2"])
    assert (args.n, args.k, args.sigma, args.json) == (4, 2, 2, False)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # each command's flags, positionals by name, in the order --help lists them
    flags = {
        name: [flag for action in p._actions for flag in action.option_strings or [action.dest]]
        for name, p in sub.choices.items()
    }
    nks = ["--n", "--k", "--sigma"]
    assert flags == {
        "count": ["-h", "--help", *nks, "--json"],
        "rank": ["-h", "--help", "--k", "--sigma", "word", "--json"],
        "unrank": ["-h", "--help", *nks, "rank", "--json"],
        "enum": ["-h", "--help", *nks, "--json", "--from", "--limit"],
        "arch": ["-h", "--help", "--sigma", "word", "--json"],
        "verify": ["-h", "--help", *nks, "--json"],
        "closed-forms": ["-h", "--help", "--n", "--sigma", "--json"],
    }
    assert list(flags) == list(cli._COMMANDS)
    # help and usage errors still see every subcommand and its arguments
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and all(f"    {name}" in out for name in cli._COMMANDS)
    code, out, _ = run_cli(capsys, "rank", "--help")
    assert code == 0
    assert out.startswith("usage: uwords rank [-h] --k K --sigma SIGMA [--json] word\n")
    code, _, err = run_cli(capsys, "frob")
    assert code == 1 and "invalid choice: 'frob'" in err
    assert all(repr(name) in err for name in cli._COMMANDS)


def test_parse_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "rank", "--k", "1", "--sigma", "2", "12a")
    assert code == 1
    assert err.startswith("ParseError:")


def test_non_ascii_digits_are_parse_errors(capsys):
    for word in ("1\u00b23", "1\u06632"):
        code, out, err = run_cli(capsys, "rank", "--k", "1", "--sigma", "3", word)
        assert (code, out) == (1, "")
        assert err.startswith("ParseError:")


def test_plain_value_error_is_not_a_domain_error(capsys, monkeypatch):
    # only the package's own errors map to exit 2; anything else is a bug
    def broken(*args):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "count_universal", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["count", "--n", "4", "--k", "2", "--sigma", "2"])


def test_count_beyond_int_str_limit(capsys):
    # about 10**5000, past the interpreter's default 4300-digit int/str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "count", "--n", "5000", "--k", "1", "--sigma", "10")
    assert (code, err) == (0, "")
    assert len(out) == 5001 and out.endswith("\n")
    assert Decimal(out) == count_universal(5000, 1, 10)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.fixture
def no_int_str_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_decimal_text_matches_str(no_int_str_limit):
    switch = len(str(1 << cli._STR_BITS))  # digits where str() hands over to Decimal
    values = [0, 9, 10, 1 << cli._STR_BITS, (1 << cli._STR_BITS) + 1]
    for j in range(switch - 2, switch + 3):
        values += [10**j - 1, 10**j, 10**j + 1]
    values.append(random.Random(5).randrange(10**99_999, 10**100_000))
    for value in values:
        assert cli._decimal_text(value) == str(value)


def test_long_results_print_like_str(capsys, monkeypatch, no_int_str_limit):
    expected = str(count_universal(20_000, 1, 10))
    assert len(expected) > len(str(1 << cli._STR_BITS))
    argv = ("count", "--n", "20000", "--k", "1", "--sigma", "10")
    assert run_cli(capsys, *argv) == (0, expected + "\n", "")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert (code, json.loads(out)["result"]) == (0, expected)

    counts = {
        "index_zero": count_index_zero(20_000, 10),
        "one_universal": count_one_universal(20_000, 10),
        "arches": count_arches(20_000, 10),
    }
    assert all(value.bit_length() > cli._STR_BITS for value in counts.values())
    converted = []
    monkeypatch.setattr(
        cli, "_decimal_text", lambda value: converted.append(value) or _decimal_text(value)
    )
    argv = ("closed-forms", "--n", "20000", "--sigma", "10")
    text = "index-zero: {index_zero}\none-universal: {one_universal}\narches: {arches}\n"
    assert run_cli(capsys, *argv) == (0, text.format(**counts), "")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert (code, json.loads(out)["result"]) == (0, {k: str(v) for k, v in counts.items()})
    assert converted == list(counts.values()) * 2


def test_symbol_out_of_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "rank", "--k", "1", "--sigma", "2", "132")
    assert code == 2
    assert err.startswith("SymbolOutOfRange:")


def test_empty_set_exits_2(capsys):
    code, _, err = run_cli(capsys, "unrank", "--n", "3", "--k", "2", "--sigma", "2", "0")
    assert code == 2
    assert err.startswith("EmptySet:")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "universal_words",
         "count", "--n", "4", "--k", "2", "--sigma", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


def test_enum_into_a_closed_pipe_exits_quietly():
    # `uwords enum ... | head -1`: the reader leaves after 1 of 16,777,124 words
    src = Path(cli.__file__).resolve().parents[1]
    with subprocess.Popen(
        [sys.executable, "-m", "universal_words", "enum", "--n", "24", "--k", "2", "--sigma", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        assert proc.stdout.readline() == b"111111111111111111111212\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_cli_imports_only_what_a_command_needs():
    # every command but verify, which needs the oracle, runs in one process
    # -S keeps site, and any .pth file it reads, from importing modules first
    src = Path(cli.__file__).resolve().parents[1]
    runs = {
        ("count", "--n", "4", "--k", "2", "--sigma", "2"): "4",
        ("rank", "--k", "2", "--sigma", "2", "2112"): "2\nmember: true",
        ("unrank", "--n", "4", "--k", "2", "--sigma", "2", "3"): "2121",
        ("enum", "--n", "4", "--k", "2", "--sigma", "2", "--from", "1", "--limit", "2"):
            "1221\n2112",
        ("arch", "--sigma", "4", "11234432122314332144"): "11234,4321,22314,33214,4\nindex: 4",
        ("closed-forms", "--n", "3", "--sigma", "3"):
            "index-zero: 21\none-universal: 6\narches: 6",
    }
    script = (
        "import sys; from universal_words.cli import main; "
        f"codes = [main(list(argv)) for argv in {list(runs)!r}]; "
        "print(codes); print(*sorted(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *outputs, codes, modules = proc.stdout.splitlines()
    loaded = set(modules.split())
    assert outputs == "\n".join(runs.values()).splitlines()
    assert codes == str([0] * len(runs)) and "universal_words.cli" in loaded
    unwanted = {
        "dataclasses", "decimal", "fractions", "inspect", "json", "typing",
        "universal_words.oracle",
    }
    assert not loaded & unwanted
