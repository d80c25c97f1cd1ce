"""Count the lines of each engine module, in total and as code only.

    python3 tools/srclines.py [SRC_DIR]

For each .py file under SRC_DIR (default: the src/ directory next to tools/),
in path order, it prints the file's total line count and its code-only count:
the lines that hold a token other than a comment, where a docstring (of the
module, a class or a function) does not count as a token. Blank lines hold no
token. A last line sums both columns. Run it on two trees to report a
change's per-module line delta. It needs only the standard library.
"""

import ast
import sys
import tokenize
from pathlib import Path

# Token types that hold no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers every docstring of the module spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(total lines, code-only lines) of one source file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source, filename=str(path)))
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docs):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    rows = [(str(path.relative_to(root)), *counts(path))
            for path in sorted(root.rglob("*.py"))]
    if not rows:
        print(f"no .py files under {root}", file=sys.stderr)
        return 1
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':{width}s} {'total':>6s} {'code':>6s}")
    for name, total, code in rows:
        print(f"{name:{width}s} {total:6d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
