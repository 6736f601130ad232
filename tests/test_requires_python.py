"""Every source file parses under the oldest Python that ``pyproject.toml``
admits, so its ``requires-python`` floor stays true."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert match, "pyproject.toml names no requires-python floor"
    return int(match.group(1)), int(match.group(2))


def test_every_source_file_parses_at_the_requires_python_floor():
    floor = _floor()
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
