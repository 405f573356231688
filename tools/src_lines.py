"""Count physical and code lines of the Python files under a directory.

Code lines are the lines that hold a token of a statement other than a
docstring: blank lines, comment-only lines and docstrings (a statement of
string literals alone) do not count.  Usage: python tools/src_lines.py [src]
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def count(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one Python file."""
    code, statement = set(), []
    with tokenize.open(path) as fh:
        text = fh.read()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(text.splitlines()), len(code)


def main(root: str = "src") -> None:
    total = [0, 0]
    for path in sorted(Path(root).rglob("*.py")):
        lines, code = count(path)
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d}  total (physical, code)")


if __name__ == "__main__":
    main(*sys.argv[1:])
