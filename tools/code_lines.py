"""Line counts of the package modules: for each `src/alphaeuler/*.py` the
physical lines (as `wc -l` counts them) and the code lines, those that hold
a token other than a comment or a line break once the docstrings (found
with `ast`) are taken out; then the totals.

Run:  python3 tools/code_lines.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alphaeuler"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The lines of every module, class and function docstring."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, kinds) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple:
    """(physical lines, code lines) of one module's text."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    code = {line for tok in tokens if tok.type not in LAYOUT for line in range(tok.start[0], tok.end[0] + 1)}
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = [0, 0]
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total = [total[0] + lines, total[1] + code]
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total[0]:>6} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
