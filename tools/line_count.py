"""Print the source line count of ``src/qsobolev``, per module and in total.

Two counts per module: all lines, then those that are neither docstring,
comment nor blank.  A line counts if a token other than a comment starts or
spans it, unless it lies in the span of a module, class or function
docstring.  Run from the repository root: ``python tools/line_count.py``.
"""

import ast
import glob
import io
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(lines - docs)


def main() -> None:
    total = code = 0
    print(f"{'lines':>6} {'code':>6}  module")
    for path in sorted(glob.glob("src/qsobolev/*.py")):
        with open(path) as handle:
            n, c = counts(handle.read())
        print(f"{n:6d} {c:6d}  {path}")
        total, code = total + n, code + c
    print(f"{total:6d} {code:6d}  total (all lines; lines neither docstring, comment nor blank)")


if __name__ == "__main__":
    main()
