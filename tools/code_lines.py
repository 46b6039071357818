"""Code lines of the Python modules in a directory, one line per module and a total.

Usage (from the root of a checkout):

    python3 tools/code_lines.py [DIRECTORY]    # default: src/insa

A code line is a line that holds a token other than a comment, a line
break (NL, NEWLINE), an INDENT or a DEDENT, leaving out the statements
that are only a string (docstrings).  A token that spans lines, such as a
multi-line string, counts on each of them.  Blank lines and comments
count nowhere.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):  # not a docstring
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default="src/insa")
    directory = Path(parser.parse_args(argv).directory)
    total = 0
    for path in sorted(directory.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
