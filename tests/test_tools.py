import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

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
