"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig10-verus --seed 5 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  Every metric is printed by name with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment fingerprint, goes to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.

``--pin`` re-pins the output digests of this workload and seed in
``perfbench/digests.json``; re-pinning is a benchmark change of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write this seed's digests to digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.fingerprint import finish, fingerprint
    from perfbench.harness import PINS_PATH, Harness, load_pins
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    harness = Harness(ROOT, args.workload, args.seed,
                      check_pins=not args.pin)
    harness.import_program()
    env = fingerprint(ROOT)
    run = harness.run(args.seconds, trace=bool(args.trace))
    finish(env)
    verdict = run["verdict"]
    metrics = {name: {"value": value, "unit": run["units"][name]}
               for name, value in run["metrics"].items()}

    for error in verdict.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'error_rate':28s} "
          f"{verdict.failed / max(1, verdict.attempted):.6g} "
          f"({verdict.failed} of {verdict.attempted} operations failed)")
    if "cell_samples" in run:
        print(f"{'cell samples':28s} {run['cell_samples']} per pass "
              f"({run['cell_samples_beyond_p75']} beyond p75), "
              f"{run['passes']} passes")

    record = {k: v for k, v in run.items()
              if k not in ("verdict", "units", "metrics", "first_pass")}
    record.update(workload=args.workload, seed=args.seed,
                  trace=args.trace, fingerprint=env, metrics=metrics,
                  attempted=verdict.attempted, failed=verdict.failed,
                  errors=verdict.errors,
                  digests={op.label: op.digest
                           for op in run["first_pass"].ops})
    results = harness.scratch / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    if args.pin:
        if verdict.failed:
            print("error: not pinning a run with failed operations",
                  file=sys.stderr)
            return 1
        pins = load_pins()
        pins.setdefault(args.workload, {})[str(args.seed)] = record["digests"]
        PINS_PATH.write_text(
            json.dumps(pins, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"correct": verdict.failed == 0,
                      "attempted": verdict.attempted,
                      "failed": verdict.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
