"""Line counts of ``src/spinlab``: total lines and code-only lines per module.

Code-only lines leave out blank lines, comment-only lines and the lines of
docstring statements (a string literal that opens a module, class or
function body).  Run from anywhere: ``python tools/src_lines.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinlab"


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines: set[int] = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    total = code = 0
    print(f"{'module':<12} {'lines':>5} {'code':>5}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        t, c = len(text.splitlines()), code_lines(text)
        total, code = total + t, code + c
        print(f"{path.stem:<12} {t:>5} {c:>5}")
    print(f"{'total':<12} {total:>5} {code:>5}")


if __name__ == "__main__":
    main()
