"""Count the code lines of Python modules.

    python3 tools/code_lines.py [PATH ...]

prints one line per module, `lines  path`, and the total under each
directory given (src/quiverdg when no path is given).  A code line is a
physical line that holds part of a token other than a comment; blank lines,
comment lines and docstrings are left out.  A docstring here is any string
literal that stands alone as a statement, as a module, class or function
docstring does; a string that spans lines inside an expression counts on
every line it spans.
"""

import io
import sys
import tokenize
from pathlib import Path

# the tokens that never make a line code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# a statement starts after one of these
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source):
    """The number of code lines in the Python source text."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    previous = tokenize.NEWLINE
    for pos, token in enumerate(tokens):
        if token.type not in LAYOUT:
            standalone = (token.type == tokenize.STRING
                          and previous in STATEMENT_START
                          and tokens[pos + 1].type in (tokenize.NEWLINE,
                                                       tokenize.ENDMARKER))
            if not standalone:
                lines.update(range(token.start[0], token.end[0] + 1))
        previous = token.type
    return len(lines)


def modules(path):
    path = Path(path)
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    for root in argv or ["src/quiverdg"]:
        total = 0
        for module in modules(root):
            count = code_lines(module.read_text(encoding="utf-8"))
            total += count
            print("%6d  %s" % (count, module))
        if Path(root).is_dir():
            print("%6d  %s (total)" % (total, root))


if __name__ == "__main__":
    main(sys.argv[1:])
