"""Content-addressed on-disk result store for campaign cells.

Each completed task is written to ``<root>/<key[:2]>/<key>.json`` where
``key`` is the task's content hash (spec + code fingerprint, see
:meth:`~repro.campaign.spec.TaskSpec.key`).  Writes go through a
temporary file in the same directory followed by ``os.replace``, so a
crash mid-write can never leave a truncated record that a later
``--resume`` would trust.  Every ``put`` also appends one line to
``<root>/index.jsonl`` — a human-greppable ledger of what the cache
holds and when each cell landed.

The store never invalidates by time: a key either exists (the exact
same spec was run by the exact same code version) or it does not.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterator, Optional

#: Bumped when the on-disk record layout changes incompatibly; records
#: with a different layout version are treated as misses.
STORE_FORMAT = 1

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


class ResultStore:
    """Durable task-result cache with hit/miss accounting."""

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        # No in-memory key set: every lookup opens the record file, so a
        # record another store or process wrote is a hit at once.

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for record in sorted(shard.glob("*.json")):
                yield record.stem

    def get(self, key: str) -> Optional[dict]:
        """Return the stored record for ``key`` or None, updating the
        hit/miss counters.  Missing, corrupt or format-incompatible
        records count as misses rather than raising."""
        try:
            with self._path(key).open("r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if record.get("store_format") != STORE_FORMAT:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, task: dict, result: dict, **extra) -> Path:
        """Atomically persist one task result and return its path."""
        record = {
            "store_format": STORE_FORMAT,
            "key": key,
            "created": time.time(),
            "task": task,
            "result": result,
        }
        record.update(extra)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(record, sort_keys=True, indent=1)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        self._append_index(key, task)
        return path

    def _append_index(self, key: str, task: dict) -> None:
        """Best-effort append-only ledger; never fails a put."""
        line = json.dumps({"key": key, "created": time.time(),
                           "scenario": task.get("scenario"),
                           "protocol": task.get("protocol"),
                           "label": task.get("label"),
                           "seed_index": task.get("seed_index")},
                          sort_keys=True)
        try:
            with (self.root / "index.jsonl").open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError:
            pass

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}
