"""Host speed, measured by a fixed calibration kernel run beside the work.

On a shared host the same code runs at two or more speeds up to half
apart, switching within tens of milliseconds, in a mix that drifts over tens
of seconds; a pure-Python loop slows by about the same share as the harness
does, except that system calls and thread wake-ups slow more than pure
interpreter work. ``kernel`` is a fixed piece of work in the harness's own
mix -- about a millisecond of dict and string work, regex tokenizing, JSON
and sha256, a timer thread started and cancelled, a SQLite file opened and
queried, a path resolved and a file read -- that uses nothing from the
harness, so a change to the harness cannot change it. The benchmark times it between
stretches of about ``INTERVAL_S`` of measured work and scales each
stretch's wall time by ``REFERENCE_S / kernel time``: the time the work
would have taken on a host where the kernel takes ``REFERENCE_S``. A
harness that gets faster still reads faster; a host that gets slower for a
while does not.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import sqlite3
import statistics
import threading
import time
from pathlib import Path

# The kernel's time on a host of the reference speed. Scaled times are
# wall times converted to this host; the value is a fixed convention.
REFERENCE_S = 0.001
# Measured work between two kernel samples, where the work can be cut.
INTERVAL_S = 0.04
# Kernel runs per sample; their median is taken, so one run slowed by the
# scheduler does not count.
SAMPLES = 3

_SQL = (
    "SELECT T1.name , count(*) FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id "
    "WHERE T2.year > 2014 AND T1.country = 'France' GROUP BY T1.name ORDER BY count(*) DESC LIMIT 3"
)
_WORDS = _SQL.split()
_TOKEN = re.compile(r"\s*(?:(\d+)|('[^']*')|(\w+)|(.))")
_PAYLOAD = {"model": "m", "messages": [{"role": "user", "content": _SQL * 4}]}
_files: tuple[Path, Path] | None = None  # the kernel's database and JSON file


def prepare(directory: Path) -> None:
    """Write the small database and JSON file the kernel reads."""
    global _files
    db = directory / "hostspeed.sqlite"
    conn = sqlite3.connect(db)
    try:
        conn.execute("create table t(a integer, b text)")
        conn.executemany(
            "insert into t values (?, ?)", [(i, f"name{i % 97}") for i in range(400)]
        )
        conn.commit()
    finally:
        conn.close()
    doc = directory / "hostspeed.json"
    doc.write_text(json.dumps(_PAYLOAD), encoding="utf-8")
    _files = (db, doc)


def _nothing() -> None:
    pass


def kernel() -> float:
    """Seconds one run of the calibration kernel takes now."""
    if _files is None:
        raise RuntimeError("hostspeed.prepare() has not been called")
    db, doc = _files
    enabled = gc.isenabled()
    gc.disable()  # the harness's heap must not change the kernel's cost
    try:
        start = time.perf_counter()
        counts: dict[tuple[str, int], int] = {}
        for i in range(500):
            word = _WORDS[i % len(_WORDS)]
            key = (word.upper(), i % 50)
            counts[key] = counts.get(key, 0) + len(word)
            "".join((word, str(i)))
        for _ in range(5):
            _TOKEN.findall(_SQL)
        for _ in range(5):
            text = json.dumps(_PAYLOAD, sort_keys=True)
            hashlib.sha256(text.encode()).hexdigest()
            json.loads(text)
        timer = threading.Timer(60.0, _nothing)
        timer.start()
        timer.cancel()
        timer.join()
        conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
        try:
            conn.execute("select b, count(*), sum(a) from t group by b order by 2 desc").fetchall()
        finally:
            conn.close()
        json.loads(doc.resolve().read_text(encoding="utf-8"))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample() -> float:
    """The median of ``SAMPLES`` kernel runs, in seconds."""
    return statistics.median(kernel() for _ in range(SAMPLES))


class Segments:
    """Wall time of one stretch of work, cut into segments by kernel samples.

    Each ``split`` ends a segment, samples the kernel and starts the next
    segment; a segment is scaled by the mean kernel time at its two ends.
    The kernel's own time is in no segment.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.scaled = 0.0
        self._mark = sample()
        self._start = time.perf_counter()

    def due(self) -> bool:
        """Whether the current segment has run for ``INTERVAL_S``."""
        return time.perf_counter() - self._start >= INTERVAL_S

    def split(self) -> float:
        """End the current segment; returns the factor it was scaled by."""
        wall = time.perf_counter() - self._start
        after = sample()
        factor = REFERENCE_S / ((self._mark + after) / 2)
        self.wall += wall
        self.scaled += wall * factor
        self._mark = after
        self._start = time.perf_counter()
        return factor
