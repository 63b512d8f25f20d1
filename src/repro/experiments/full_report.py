"""One-shot reproduction report: run every checked paper item, emit markdown.

``python -m repro report`` (or :func:`generate_report`) runs each item
of :data:`repro.experiments.registry.ITEMS` at its ``test`` size, with
every run lasting at least ``duration`` simulated seconds, evaluates the
item's shape checks at ``test`` thresholds, and writes a self-contained
markdown report — the artefact a reproduction study would attach to a
paper review.

Items are submitted through the campaign executor
(:func:`repro.campaign.run_tasks`), which provides the uniform failure
path — one crashed figure becomes a failed row instead of aborting the
report — and, with ``jobs > 1``, runs items on a process pool.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import List, Optional

from .registry import ITEMS


@dataclass
class ItemResult:
    """Outcome of one reproduced figure/table."""

    item: str
    description: str
    shape_ok: bool
    details: List[str] = field(default_factory=list)
    seconds: float = 0.0
    error: Optional[str] = None


def run_report_item(payload: dict) -> ItemResult:
    """Execute one report item, stdout silenced.

    Module-level so the campaign executor can ship it to pool workers;
    exceptions propagate into the executor's failure path.
    """
    name = payload["item"]
    item = ITEMS[name]
    kwargs = dict(item.sizes["test"])
    if "duration" in kwargs:
        kwargs["duration"] = max(kwargs["duration"], payload["duration"])
    with redirect_stdout(io.StringIO()):
        result = item.call(**kwargs)
    checks = item.check(result, "test")
    details = item.details(result) if item.details else []
    details += [f"failed check: {check}"
                for check, ok in checks.items() if not ok]
    return ItemResult(name, item.title, all(checks.values()), details)


def generate_report(duration: float = 45.0,
                    items: Optional[List[str]] = None,
                    jobs: int = 1) -> str:
    """Run the selected (default: all) report items and return markdown.

    ``jobs`` > 1 fans the items out over the campaign engine's process
    pool; the default of 1 runs them serially in-process.
    """
    from ..campaign import run_tasks

    chosen = items if items is not None else list(ITEMS)
    for name in chosen:
        if name not in ITEMS:
            raise ValueError(f"unknown report item {name!r}; "
                             f"choose from {sorted(ITEMS)}")
    run = run_tasks([{"item": name, "duration": duration} for name in chosen],
                    run_report_item, jobs=jobs, retries=0)
    results: List[ItemResult] = []
    for name, outcome in zip(chosen, run.outcomes):
        if outcome.ok:
            result = outcome.result
        else:
            result = ItemResult(name, "crashed", False, error=outcome.error)
        result.seconds = outcome.seconds
        results.append(result)

    lines = ["# Verus reproduction report", ""]
    passed = sum(1 for r in results if r.shape_ok)
    lines.append(f"Shape checks passed: **{passed}/{len(results)}** "
                 f"(duration setting: {duration:.0f} s per run)")
    lines.append("")
    lines.append("| item | claim | shape | runtime |")
    lines.append("|---|---|---|---|")
    for result in results:
        mark = "✓" if result.shape_ok else "✗"
        lines.append(f"| {result.item} | {result.description} | {mark} | "
                     f"{result.seconds:.0f}s |")
    lines.append("")
    for result in results:
        lines.append(f"## {result.item}")
        if result.error:
            lines.append(f"ERROR: {result.error}")
        for detail in result.details:
            lines.append(f"- {detail}")
        lines.append("")
    return "\n".join(lines)
