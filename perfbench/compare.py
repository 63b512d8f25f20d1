"""Compare two benchmark result records.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE.json NEW.json

The records are the files ``run.py`` writes under ``.perfbench/results/``.
Two records measured under different fingerprints (Python, numpy, scipy,
nproc or machine) are refused with exit code 2.  Otherwise every metric
is printed with both values, the change as a share of the base, and the
end-to-end bound ``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.fingerprint import incomparable

    base, new = (json.loads(Path(p).read_text()) for p in args)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]!r} vs {new[key]!r})",
                  file=sys.stderr)
            return 2
    mismatch = incomparable(base["fingerprint"], new["fingerprint"])
    if mismatch:
        print("refused: fingerprints differ: " + "; ".join(mismatch),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name, entry in base["metrics"].items():
        before = entry["value"]
        after = new["metrics"][name]["value"]
        change = (after - before) / before if before else float("nan")
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            worse = change if bound["better"] == "lower" else -change
            note = (f"bound {bound['bound']:.0%}"
                    + ("  WORSE THAN BOUND" if worse > bound["bound"] else ""))
        print(f"{name:28s} {before:12.6g} -> {after:12.6g} "
              f"{entry['unit']:6s} {change:+8.1%}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
