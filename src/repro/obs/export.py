"""Timeline and meter export: JSONL, CSV, and session bundles.

JSONL export writes one compact JSON object per row
(``separators=(",", ":")``).  CSV export flattens the union of row keys
into a fixed header so ragged event rows (an ``epoch`` row has different
fields from a ``loss`` row) land in one rectangular file.  Both timeline
writers return the number of rows written.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .timeline import TelemetrySession

#: Columns every timeline row carries, in export order; event-specific
#: fields follow alphabetically.
_LEAD_COLUMNS = ("time", "event", "source", "flow")


def export_timeline_jsonl(rows: Iterable[dict], path) -> int:
    """One compact JSON object per timeline row.  Returns lines written."""
    count = 0
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":"), sort_keys=False)
                     + "\n")
            count += 1
    return count


def export_timeline_csv(rows: Sequence[dict], path) -> int:
    """Rectangular CSV over the union of row keys.  Returns rows written."""
    extra = sorted({key for row in rows for key in row}
                   - set(_LEAD_COLUMNS))
    header = [*_LEAD_COLUMNS, *extra]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)


def write_session(session: TelemetrySession, directory,
                  prefix: str = "telemetry",
                  csv_too: bool = False) -> List[str]:
    """Write a session's artifacts next to experiment results.

    Emits ``<prefix>_timeline.jsonl`` and ``<prefix>_summary.json``
    (meters + ring-buffer accounting), plus an optional
    ``<prefix>_timeline.csv``.  Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[str] = []

    rows = session.rows()
    timeline_path = directory / f"{prefix}_timeline.jsonl"
    export_timeline_jsonl(rows, timeline_path)
    written.append(str(timeline_path))

    if csv_too:
        csv_path = directory / f"{prefix}_timeline.csv"
        export_timeline_csv(rows, csv_path)
        written.append(str(csv_path))

    summary_path = directory / f"{prefix}_summary.json"
    summary_path.write_text(json.dumps(session.summary(), indent=2,
                                       sort_keys=True) + "\n")
    written.append(str(summary_path))
    return written
