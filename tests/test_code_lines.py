"""``tools/code_lines.py`` counts all lines and code lines of Python text."""

from __future__ import annotations

import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _load_code_lines():
    spec = importlib.util.spec_from_file_location("tools_code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load_code_lines()

SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,

        with a blank line inside."""
        # Another comment.
        return 0


async def fetch():
    """Async function docstring."""
    return None


TEXT = """a string
that is no docstring"""
TOTAL = (1 +
         2)
'''


def test_docstrings_comments_and_blanks_are_not_code():
    # Code: import os, class Shape, def area, return 0, async def fetch,
    # return None, the two lines of TEXT and the two of TOTAL.
    assert code_lines.count(SOURCE) == (len(SOURCE.splitlines()), 10)

