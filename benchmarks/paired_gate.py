"""Same-host paired benchmark gate: is one checkout slower than another?

Usage::

    python3 benchmarks/paired_gate.py BASE_DIR HEAD_DIR

``BASE_DIR`` and ``HEAD_DIR`` are two checkouts of this repository: in CI,
the merge-base (a ``git worktree``) and the change under test.  The gate
first copies HEAD's ``perfbench/`` and ``BENCHMARK.json`` into BASE, so
both sides are measured by the same benchmark code against the same pins.
Then, for each workload, it runs ``perfbench/run.py --trace 0``
``PAIRS`` times on each checkout, alternating between them and switching
which side goes first from one pair to the next, and reads the JSON
result on the last line of each run's output.

A workload fails the gate when

* HEAD's median ``wall_s`` is more than ``BOUND`` times BASE's *and* HEAD
  is slower than BASE in most pairs;
* HEAD fails more operations than BASE over all its runs;
* or any run exits non-zero or prints no well-formed result line.

Both sides run on the same host in the same minutes, so a slower or
busier host slows both alike, and no result measured elsewhere is read.
What remains is run-to-run noise, which the median and the majority of
pairs must both see before the gate fails.
The gate prints one table row per workload and exits 1 when any workload
fails, 0 otherwise, and 2 on bad arguments.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

#: Base/head run pairs per workload; even, so each side goes first in
#: half of them.
PAIRS = 6
#: ``--seconds`` of every run: each run repeats its pass for this long,
#: and at least twice.  Identical checkouts on a shared 2-vCPU virtual
#: machine differ by up to 30% from one 3 s run to the next; a longer run
#: takes its median over more passes.
SECONDS = 10.0
#: HEAD fails when its median wall time exceeds BASE's by this factor
#: (and it loses most pairs).
BOUND = 1.10
#: The metric the bound applies to.
METRIC = "wall_s"
#: Workload -> seed: each workload's pinned default seed.
SEEDS = {"fig10-verus": 5, "fig8-baselines": 42, "corpus-sweep": 0,
         "conformance": 0}
#: A run that takes longer than this is killed and counts as failed.
RUN_TIMEOUT_S = 900


@dataclass
class Verdict:
    """The gate's decision on one workload."""

    base_wall: Optional[float] = None
    head_wall: Optional[float] = None
    ratio: Optional[float] = None
    head_slower: int = 0
    pairs: int = 0
    base_failed: int = 0
    head_failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def parse_result(output: Optional[str]) -> Optional[dict]:
    """The result object on the last non-empty line of a run's standard
    output, or None when the run printed none or it is malformed."""
    if not output:
        return None
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
        wall = float(result["metrics"][METRIC]["value"])
        failed = int(result["failed"])
    except (ValueError, TypeError, KeyError):
        return None
    if not wall > 0.0 or failed < 0:
        return None
    return {"wall": wall, "failed": failed}


def decide(base_outputs: Sequence[Optional[str]],
           head_outputs: Sequence[Optional[str]]) -> Verdict:
    """Apply the gate's rule to one workload's paired runs.

    ``base_outputs[i]`` and ``head_outputs[i]`` are the standard outputs of
    pair ``i``; None stands for a run that exited non-zero.
    """
    verdict = Verdict(pairs=len(head_outputs))
    base = [parse_result(out) for out in base_outputs]
    head = [parse_result(out) for out in head_outputs]
    for side, results in (("base", base), ("head", head)):
        missing = sum(result is None for result in results)
        if missing:
            verdict.problems.append(
                f"{missing} {side} run(s) failed or printed no result")
    if verdict.problems:
        return verdict

    verdict.base_failed = sum(r["failed"] for r in base)
    verdict.head_failed = sum(r["failed"] for r in head)
    verdict.base_wall = statistics.median(r["wall"] for r in base)
    verdict.head_wall = statistics.median(r["wall"] for r in head)
    verdict.ratio = verdict.head_wall / verdict.base_wall
    verdict.head_slower = sum(h["wall"] > b["wall"]
                              for b, h in zip(base, head))
    if verdict.head_failed > verdict.base_failed:
        verdict.problems.append(
            f"head failed {verdict.head_failed} operations, "
            f"base {verdict.base_failed}")
    if verdict.ratio > BOUND and 2 * verdict.head_slower > verdict.pairs:
        verdict.problems.append(
            f"{METRIC} {verdict.ratio:.3f}x base, slower in "
            f"{verdict.head_slower} of {verdict.pairs} pairs")
    return verdict


def share_benchmark(base: Path, head: Path) -> None:
    """Replace BASE's benchmark code with HEAD's."""
    target = base / "perfbench"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(head / "perfbench", target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(head / "BENCHMARK.json", base / "BENCHMARK.json")


def run_once(checkout: Path, workload: str) -> Optional[str]:
    """One untraced benchmark run; its standard output, or None when it
    exits non-zero or times out."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEEDS[workload]), "--seconds", str(SECONDS),
               "--trace", "0"]
    try:
        proc = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {checkout}: {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        print(f"  {checkout}: {workload} exited {proc.returncode}\n{tail}",
              file=sys.stderr)
        return None
    return proc.stdout


def measure(base: Path, head: Path, workload: str) -> Verdict:
    """``PAIRS`` alternating runs of ``workload`` on both checkouts."""
    outputs = {base: [], head: []}
    for pair in range(PAIRS):
        order = (base, head) if pair % 2 == 0 else (head, base)
        for checkout in order:
            outputs[checkout].append(run_once(checkout, workload))
        walls = [parse_result(outputs[side][-1]) for side in (base, head)]
        shown = ["-" if r is None else f"{r['wall']:.3f}" for r in walls]
        print(f"  {workload}: pair {pair + 1}/{PAIRS}: {METRIC} base "
              f"{shown[0]} head {shown[1]}", file=sys.stderr)
    return decide(outputs[base], outputs[head])


def _fmt(value: Optional[float], spec: str) -> str:
    return "-" if value is None else format(value, spec)


def format_table(verdicts: dict) -> str:
    lines = [f"| workload | base {METRIC} | head {METRIC} | head/base "
             f"| head slower | failed ops (base/head) | verdict |",
             "|---|---|---|---|---|---|---|"]
    for workload, v in verdicts.items():
        lines.append(
            f"| {workload} | {_fmt(v.base_wall, '.3f')} "
            f"| {_fmt(v.head_wall, '.3f')} | {_fmt(v.ratio, '.3f')} "
            f"| {v.head_slower}/{v.pairs} | {v.base_failed}/{v.head_failed} "
            f"| {'pass' if v.ok else 'FAIL: ' + '; '.join(v.problems)} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (Path(arg).resolve() for arg in args)
    if base == head:
        print("error: BASE_DIR and HEAD_DIR are the same directory",
              file=sys.stderr)
        return 2
    for checkout in (base, head):
        if not (checkout / "src" / "repro" / "__init__.py").is_file():
            print(f"error: {checkout} is not a checkout of this repository",
                  file=sys.stderr)
            return 2

    share_benchmark(base, head)
    verdicts = {workload: measure(base, head, workload) for workload in SEEDS}
    print(f"Paired gate: {PAIRS} pairs per workload, --seconds {SECONDS:g}, "
          f"bound {BOUND:.2f}x on median {METRIC} and most pairs slower.\n")
    print(format_table(verdicts))
    failed = [w for w, v in verdicts.items() if not v.ok]
    print(f"\n{'FAILED: ' + ', '.join(failed) if failed else 'passed'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
