"""Code lines per module of src/veronese, without blanks, comments or docstrings.

    python3 scripts/code_lines.py

A line counts when it holds a token other than a comment and is not part
of a module, class or function docstring.  One row per module, then the
total.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "veronese"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    counts = {p.stem: code_lines(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
