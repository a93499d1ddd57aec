"""Print physical lines and code lines per `src/trajbehav` module and in total.

Code lines leave out docstrings, comments and blank lines: a line counts when
a token other than a comment or a docstring lies on it. Run from anywhere:

    python tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's `src/trajbehav`. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source):
    """(physical lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "trajbehav"
    total_physical = total_code = 0
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<16}{physical:>10}{code:>8}")
    print(f"{'total':<16}{total_physical:>10}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
