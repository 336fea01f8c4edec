"""Count the lines of code in sheafnet's modules.

A line holds code when some token of the program lies on it, a token of a
string that spans lines included; blank lines, comment lines and the lines
of docstrings (the string opening a module, class or function body) do not
count.  The report lists each module of the package, and the total.
Stdlib only.

Usage, from the root of a checkout:

    python3 tools/codelines.py                   # src/sheafnet/*.py
    python3 tools/codelines.py path/to/dir_or_file.py ...
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of ``source`` (Python text) that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    paths = []
    for arg in args or [ROOT / "src" / "sheafnet"]:
        path = Path(arg)
        paths += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
