"""Code lines of each src/plstm module: the physical lines that hold code,
not counting docstrings, comments or blank lines. Every claim that a change
adds or removes code uses this count.

    python3 tests/code_lines.py [SOURCE_DIR]

SOURCE_DIR defaults to the repository's src/plstm.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "plstm"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of `text` that hold a token of code outside a
    docstring."""
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main(argv):
    src = Path(argv[0]) if argv else SRC
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(src.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
