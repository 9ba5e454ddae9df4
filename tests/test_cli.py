import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from universal_words import cli
from universal_words.cli import main
from universal_words.counting import count_universal
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


def test_long_results_print_like_str(capsys, no_int_str_limit):
    expected = str(count_universal(20_000, 1, 10))
    assert len(expected) > len(str(1 << cli._STR_BITS))
    argv = ("count", "--n", "20000", "--k", "1", "--sigma", "10")
    assert run_cli(capsys, *argv) == (0, expected + "\n", "")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert (code, json.loads(out)["result"]) == (0, expected)


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


def test_cli_imports_only_what_a_command_needs():
    # -S keeps site, and any .pth file it reads, from importing modules first
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys; from universal_words.cli import main; "
        "main(['count', '--n', '4', '--k', '2', '--sigma', '2']); "
        "print(*sorted(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    count, modules = proc.stdout.splitlines()
    loaded = set(modules.split())
    assert count == "4" and "universal_words.cli" in loaded
    unwanted = {
        "dataclasses", "decimal", "fractions", "inspect", "json", "typing",
        "universal_words.oracle",
    }
    assert not loaded & unwanted
