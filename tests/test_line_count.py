"""The counting rules of ``tools/line_count.py``."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "line_count.py"


@pytest.fixture(scope="module")
def counts():
    spec = importlib.util.spec_from_file_location("line_count", PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.counts


def test_comments_and_docstring_length_are_free(counts):
    short = 'def f(x):\n    """Doc."""\n    return x\n'
    long = (
        "# A module comment.\n\n"
        'def f(x):\n    """A longer docstring,\n\n    over several lines.\n    """\n'
        "    # A comment line.\n\n    return x  # A trailing comment.\n"
    )
    # def f ( x ) : NEWLINE INDENT STRING NEWLINE return x NEWLINE DEDENT ENDMARKER.
    assert counts(short) == (3, 2, 15)
    assert counts(long) == (10, 2, 15)


@pytest.mark.parametrize(
    "text, tokens",
    [
        # NAME OP NUMBER NEWLINE ENDMARKER.
        ("x = 1\n", 5),
        # NAME NAME OP NEWLINE INDENT NAME NEWLINE DEDENT ENDMARKER.
        ("if x:\n    y\n", 9),
        # One more level: NAME NAME OP NEWLINE INDENT before the body, DEDENT after it.
        ("if x:\n    if y:\n        z\n", 15),
    ],
)
def test_newline_indent_and_dedent_count(counts, text, tokens):
    assert counts(text)[2] == tokens
