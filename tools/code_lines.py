"""Count code-only lines of Python source: no docstrings, comments or blanks.

A line counts when it holds a token of code.  Module, class and function
docstrings, comments and blank lines do not count; a string that is not a
docstring counts on every line it spans.  Uses only the standard library.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py`` files; the default
is ``src/gklab`` next to this script.  Prints one count per file and the
total.  A PATH that does not exist exits 2 with usage and one ``error:``
line.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING
                                    and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH",
                        help="a file, or a directory searched for *.py "
                        "files (default: src/gklab next to this script)")
    args = parser.parse_args(argv)
    roots = args.paths or [Path(__file__).parent.parent / "src" / "gklab"]
    if missing := [str(r) for r in roots if not r.exists()]:
        parser.error(f"no such file or directory: {', '.join(missing)}")
    files = [f for r in roots
             for f in (sorted(r.rglob("*.py")) if r.is_dir() else [r])]
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
