"""Count the code lines of src/galerig, per module and in total.

A code line is a non-blank line that holds at least one token other than a
comment and lies outside every docstring (the string statement that opens a
module, class or function, found with ast).  A line inside a multi-line
string that is not a docstring counts.  This is the count that ROADMAP.md
and CHANGES.md quote as "code lines".

Run from the repository root:  python3 checks/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    counts = {f: code_lines(f) for f in sorted((ROOT / "src" / "galerig").glob("*.py"))}
    for f, count in counts.items():
        print(f"{count:>6,}  {f.relative_to(ROOT)}")
    print(f"{sum(counts.values()):>6,}  total")


if __name__ == "__main__":
    main()
