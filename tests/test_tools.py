import hashlib
import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
cli_outputs = _load("cli_outputs")

_MODULE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """A class docstring."""

    x = 1

    def f(self):
        """A function docstring

        with a blank line."""
        # a comment in a body
        return os.path.join(
            "a", "b"
        )


async def g():
    \'\'\'An async function docstring.\'\'\'
    s = """a string that is
    not a docstring"""
    return s
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    # import, class, x = 1, def f, the three-line call, async def, the
    # two-line string and return s
    path = tmp_path / "synthetic.py"
    path.write_text(_MODULE)
    assert code_lines.code_lines(path) == 1 + 1 + 1 + 1 + 3 + 1 + 2 + 1


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = (\n    1\n)\n')
    code_lines.main(str(tmp_path))
    assert capsys.readouterr().out.splitlines() == [
        "    11  a.py",
        "     3  b.py",
        "    14  total",
    ]


def test_cli_outputs_prints_exit_code_digests_and_command():
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    count = ["count", "--n", "4", "--k", "2", "--sigma", "2"]
    refused = ["unrank", "--n", "4", "--k", "2", "--sigma", "2", "7"]
    lines = [cli_outputs.run(_ROOT, args)[0] for args in (count, refused)]
    out, error = b"4\n", b"RankOutOfRange: rank 7 out of range (set size 4)\n"
    assert lines == [
        f"0 {sha(out)} {sha(b'')} count --n 4 --k 2 --sigma 2",
        f"2 {sha(b'')} {sha(error)} unrank --n 4 --k 2 --sigma 2 7",
    ]
