"""Every source file parses under the oldest Python that ``pyproject.toml``
admits, and the package imports and runs there when that interpreter is on
``PATH``, so its ``requires-python`` floor stays true. Parsing alone misses a
construct that is new only at run time, such as a regular expression with an
atomic group, which ``re`` compiles from 3.11 on."""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

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


_PROBE = """
import nl2sql.cli
from nl2sql.pipeline import extract_sql
from nl2sql.sqlast.tokens import tokenize

sql = extract_sql("Here:\\n```sql\\nSELECT a FROM t WHERE b = 'x' -- note\\n```")
assert sql == "SELECT a FROM t WHERE b = 'x' -- note", sql
kinds = [token.kind for token in tokenize(sql)]
assert kinds == ["ident"] * 6 + ["op", "string", "end"], kinds
"""


def test_the_package_imports_and_runs_under_the_floor_interpreter():
    major, minor = _floor()
    python = shutil.which(f"python{major}.{minor}")
    if python is None:
        pytest.skip(f"no python{major}.{minor} on PATH")
    # pyenv's shims run only a selected version; naming the floor selects it.
    env = {
        **os.environ,
        "PYENV_VERSION": f"{major}.{minor}",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [python, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )

    version = run("import sys; print(*sys.version_info[:2])")
    if version.returncode != 0 or version.stdout.split() != [str(major), str(minor)]:
        pytest.skip(f"python{major}.{minor} on PATH does not run as {major}.{minor}")
    probe = run(_PROBE)
    assert probe.returncode == 0, probe.stderr
