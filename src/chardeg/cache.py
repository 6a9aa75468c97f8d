"""Persistent degree-multiset cache: one JSON record per line.

Entries are keyed by canonical spec text plus engine version, so a stale
engine never serves old multisets.  The file is guarded by an advisory lock
for concurrent CLI processes.  A line is skipped with a warning, so the
multiset is computed afresh, if it is unreadable, breaks a DegreeMultiset
law (squares summing to the order, a linear character, every degree
dividing the order), or is looked up under another order than its own.
A hit that passes these checks is served as it stands, not recomputed.
The next store rewrites the file without the lines that are unreadable or
break a law, so such a line is warned about until then, not forever.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import CheckFailed

log = logging.getLogger(__name__)

CACHE_FILE = "degrees.jsonl"
_BAD_LINE = (ValueError, KeyError, TypeError)  # what CacheEntry.from_json raises


@dataclass(frozen=True)
class CacheEntry:
    spec_text: str
    order: int
    degrees: tuple[int, ...]
    engine_version: str
    timestamp: str  # ISO-8601, UTC

    def to_json(self) -> str:
        return json.dumps(
            {
                "spec_text": self.spec_text,
                "order": self.order,
                "degrees": list(self.degrees),
                "engine_version": self.engine_version,
                "timestamp": self.timestamp,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(line: str) -> "CacheEntry":
        raw = json.loads(line)
        entry = CacheEntry(
            spec_text=raw["spec_text"],
            order=int(raw["order"]),
            degrees=tuple(int(d) for d in raw["degrees"]),
            engine_version=str(raw["engine_version"]),
            timestamp=str(raw["timestamp"]),
        )
        from .degrees import DegreeMultiset
        try:
            DegreeMultiset(entry.degrees, entry.order)
        except CheckFailed as exc:
            raise ValueError(exc) from exc
        return entry


def utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parses(line: str) -> bool:
    try:
        CacheEntry.from_json(line)
    except _BAD_LINE:
        return False
    return True


class DegreeCache:
    def __init__(self, directory: str | os.PathLike):
        self.path = Path(directory) / CACHE_FILE

    def _load(self) -> list[CacheEntry]:
        if not self.path.exists():
            return []
        entries = []
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                lines = fh.readlines()
                fcntl.flock(fh, fcntl.LOCK_UN)
        except OSError as exc:
            log.warning("cache unreadable, ignoring it: %s", exc)
            return []
        for i, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                entries.append(CacheEntry.from_json(line))
            except _BAD_LINE as exc:
                log.warning("cache line %d corrupt, skipping: %s", i, exc)
        return entries

    def lookup(self, spec_text: str, engine_version: str, order) -> CacheEntry | None:
        """The first entry for the spec and engine whose order is the spec's,
        order(), a callable that is called only on lines of the spec and engine."""
        for entry in self._load():
            if (entry.spec_text, entry.engine_version) != (spec_text, engine_version):
                continue
            if entry.order == order():
                return entry
            log.warning("cache entry of order %d, not %d, skipping", entry.order, order())
        return None

    def store(self, entry: CacheEntry):
        """Append the entry, first dropping, under the same exclusive lock,
        every line that fails CacheEntry.from_json.  A location that cannot
        be written (the directory is a regular file, say) is warned about,
        and the entry is not stored."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+", encoding="utf-8") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                fh.seek(0)
                lines = fh.readlines()
                kept = [line.rstrip("\n") + "\n" for line in lines if _parses(line)]
                if kept != lines:
                    fh.truncate(0)
                    fh.writelines(kept)
                fh.write(entry.to_json() + "\n")
                fh.flush()
                fcntl.flock(fh, fcntl.LOCK_UN)
        except OSError as exc:
            log.warning("cache not writable, entry not stored: %s", exc)

    def stats(self) -> dict:
        entries = self._load()
        return {
            "path": str(self.path),
            "entries": len(entries),
            "specs": sorted({e.spec_text for e in entries}),
        }

    def clear(self) -> int:
        """Delete the file and return how many entries it held.  An OSError
        (the file is a directory, say) propagates."""
        entries = self._load() if self.path.is_file() else []
        if self.path.exists():
            self.path.unlink()
        return len(entries)
