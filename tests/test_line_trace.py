"""``tools/line_trace.py`` reports the executable lines a run never reached."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

LINE_TRACE = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


line_trace = _load("tools_line_trace", LINE_TRACE)

SOURCE = '''"""A module."""
import functools


@functools.lru_cache
def sign(x):
    try:
        1 / x
    except ZeroDivisionError:
        return 0
    if x > 0:
        return 1
    x = -x
    return -1


class Point:
    """A point."""

    def norm(self):
        return 0
'''


def test_unreached_lines_are_reported_by_file(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "mod.py").write_text(SOURCE, encoding="utf-8")
    result, seen = line_trace.trace(
        lambda: [_load("line_trace_pkg_mod", root / "mod.py").sign(x) for x in (1, 0)], root
    )
    assert result == [1, 0]
    # The negative branch (two lines) and the method body never ran; the
    # empty __init__.py has no executable line, and every other line ran.
    assert line_trace.unreached(root, seen) == {root / "mod.py": [13, 14, 21]}
    assert line_trace._ranges([13, 14, 21]) == "13-14, 21"


def test_lines_outside_the_root_are_not_recorded(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    _, seen = line_trace.trace(lambda: sys.getrecursionlimit(), root)
    assert seen == {}
