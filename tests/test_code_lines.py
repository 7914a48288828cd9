"""tools/code_lines.py counts code lines: docstrings, comments and blank
lines are left out, and a string that spans lines inside an expression
counts on every line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""

import sys  # a trailing comment

# a comment line


class Point:
    """A class docstring."""

    def norm(self):
        """A function
        docstring."""
        text = """a string
        that is a value"""
        "a bare string statement"
        return (text,
                sys.argv)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_snippet_is_counted_exactly():
    # import, class, def, the two lines of the text assignment and the two
    # lines of the return
    assert load_tool().code_lines(SNIPPET) == 7


def test_the_tool_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    load_tool().main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     7  %s" % (tmp_path / "a.py"),
        "     1  %s" % (tmp_path / "b.py"),
        "     8  %s (total)" % tmp_path,
    ]
