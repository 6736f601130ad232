"""Print the lines of the Python files under a directory (``src`` by default)
that no test runs.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
and records each line executed in a file under that directory. Then, for
each file, prints the executable lines, read from each code object's
``co_lines()``, that never ran. Code that tests run in a child process is
not seen. Extra arguments go to pytest; the exit code is pytest's.

    python3 tools/line_trace.py [--root DIR] [PYTEST_ARG ...]
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Callable


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        # A module's first instruction sits on line 0.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def trace(run: Callable[[], object], root: Path) -> tuple[object, dict[str, set[int]]]:
    """Call ``run`` and return its result and the lines it executed, by the
    absolute path of each file under ``root``."""
    prefix = os.path.abspath(root) + os.sep
    files: dict[str, str | None] = {}  # co_filename -> absolute path under root, or None
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        # Every event counts: a call event is the only one a function's
        # first line (its ``def`` or first decorator) gets.
        seen[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.abspath(name)
            files[name] = path if path.startswith(prefix) else None
        if files[name] is None:
            return None
        seen.setdefault(files[name], set())
        return local(frame, event, arg)

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(scope)
    sys.settrace(scope)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, seen


def unreached(root: Path, seen: dict[str, set[int]]) -> dict[Path, list[int]]:
    """The executable lines ``seen`` lacks, by file under ``root``; files
    with none left out."""
    out = {}
    for path in sorted(root.rglob("*.py")):
        missing = executable_lines(path) - seen.get(os.path.abspath(path), set())
        if missing:
            out[path] = sorted(missing)
    return out


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path("src"))
    args, pytest_args = parser.parse_known_args(argv)
    import pytest

    code, seen = trace(lambda: pytest.main(pytest_args), args.root)
    missing = unreached(args.root, seen)
    for path, lines in missing.items():
        print(f"{path.as_posix()}: {_ranges(lines)}")
    print(f"{sum(map(len, missing.values()))} lines in {len(missing)} files never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
