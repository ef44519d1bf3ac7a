"""Print the source line and token counts of ``src/qsobolev``, per module and in total.

Three counts per module: all lines, those that are neither docstring,
comment nor blank, and parser tokens.  A line counts if a token other than a
comment starts or spans it, unless it lies in the span of a module, class or
function docstring.  Every ``tokenize`` token counts as a parser token except
``COMMENT``, ``NL`` and ``ENCODING``: the tokens CPython's parser holds, so a
docstring is one token whatever its length, and ``NEWLINE``, ``INDENT`` and
``DEDENT`` count.  Run from the repository root: ``python tools/line_count.py``.
"""

import ast
import glob
import io
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
NOT_PARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def counts(text: str) -> tuple[int, int, int]:
    """(all lines, code lines, parser tokens) of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    tokens = 0
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        tokens += tok.type not in NOT_PARSED
    return text.count("\n"), len(lines - docs), tokens


def main() -> None:
    total = code = tokens = 0
    print(f"{'lines':>6} {'code':>6} {'tokens':>6}  module")
    for path in sorted(glob.glob("src/qsobolev/*.py")):
        with open(path) as handle:
            n, c, t = counts(handle.read())
        print(f"{n:6d} {c:6d} {t:6d}  {path}")
        total, code, tokens = total + n, code + c, tokens + t
    print(f"{total:6d} {code:6d} {tokens:6d}  total (all lines; lines neither docstring, comment nor blank; "
          "parser tokens)")


if __name__ == "__main__":
    main()
