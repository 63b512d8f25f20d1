"""Command-line interface: run paper experiments from a shell.

Usage::

    python -m repro list                      # available experiments
    python -m repro run fig3                  # regenerate Fig 3's rows
    python -m repro run table1 --duration 30  # faster, lower fidelity
    python -m repro quickstart                # Verus vs Cubic in one line
    python -m repro trace --scenario city_driving --out trace.txt
    python -m repro live --protocol verus --protocol cubic --duration 10
    python -m repro sweep --scenario city_driving --protocol verus \
        --protocol cubic --seeds 3 --jobs 4   # cached parallel campaign
    python -m repro corpus build --preset default   # trace corpus
    python -m repro corpus stats --json
    python -m repro sweep --corpus .repro-corpus --protocol verus
    python -m repro chaos --protocol verus --fault blackout \
        --fault chaos --backend both          # fault-injection matrix
    python -m repro soak --budget-cells 20 --seed 7   # drawn chaos cells
    python -m repro check                     # conformance suite
    python -m repro check --bless             # re-bless golden traces

Every experiment honours ``--seed`` so invocations are reproducible
from the shell; without it each experiment keeps its paper-default
seed.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import format_table
from .experiments.registry import ITEMS


def _seed_kwargs(args) -> dict:
    """``{'seed': n}`` when ``--seed`` was given, else {} (paper default)."""
    seed = getattr(args, "seed", None)
    return {} if seed is None else {"seed": seed}


def _run_live(args) -> None:
    """``repro live``: a real UDP session through the link emulator."""
    from .cellular import generate_scenario_trace
    from .experiments.runner import FlowSpec, run_trace_contention
    from .live import LiveSessionError, run_live_session

    protocols = args.protocol if args.protocol else ["verus"]
    try:
        specs = [FlowSpec(protocol=p,
                          options={"r": 2.0} if p == "verus" else {})
                 for p in protocols]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    seed = args.seed if args.seed is not None else 1
    if args.trace:
        from .traces.formats import read_trace_seconds
        try:
            # Any corpus format works here: mahimahi, seconds or CSV,
            # auto-detected by extension/content.
            trace = read_trace_seconds(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace file: {exc}", file=sys.stderr)
            raise SystemExit(2)
    else:
        trace = generate_scenario_trace(args.scenario,
                                        duration=max(args.duration, 1.0),
                                        technology=args.technology,
                                        seed=seed)
    try:
        result = run_live_session(specs, trace=trace,
                                  duration=args.duration,
                                  warmup=min(1.0, args.duration / 5.0),
                                  seed=seed)
    except LiveSessionError as exc:
        print(f"live session unavailable: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except KeyboardInterrupt:
        print("live session interrupted", file=sys.stderr)
        raise SystemExit(130)
    rows = [s.as_dict() for s in result.all_stats()]
    print(format_table(rows, title=f"live UDP session ({args.scenario}, "
                                   f"{args.duration:g}s wall clock)"))
    stats = result.emulator_stats
    print(f"emulator: {stats.delivered} delivered, "
          f"{stats.wasted_opportunities} wasted opportunities, "
          f"{stats.stochastic_losses} losses, "
          f"{stats.acks_forwarded} acks forwarded")
    if args.compare_sim:
        sim_result = run_trace_contention(trace, specs,
                                          duration=args.duration,
                                          warmup=min(1.0, args.duration / 5.0),
                                          seed=seed)
        sim_rows = [s.as_dict() for s in sim_result.all_stats()]
        print(format_table(sim_rows,
                           title="equivalent simulated run (same trace)"))


def _run_grid(args, channels, grid: dict, *, noun: str, grid_title: str,
              columns, summarise, rows_title: str, note=None, verdict=None,
              telemetry: bool = False) -> int:
    """The driver ``repro sweep``, ``repro chaos`` and ``repro soak``
    share; returns the exit code.

    The grid is ``channels`` × the protocols × the ``grid`` axes
    (:func:`~repro.campaign.expand_grid` arguments); under ``--corpus``
    ``channels`` names corpus traces (None: every trace), otherwise
    synthetic scenarios.  A bad argument exits 2 before any cell runs,
    and ``--dry-run`` prints the grid and exits 0.  Otherwise every cell
    runs through :func:`~repro.campaign.run_campaign` and the store,
    ``summarise(result)`` turns the run into the printed (and ``--out``)
    rows, and ``verdict(result)`` gives the exit code (by default 0 iff
    every cell ran).
    """
    from .campaign import (
        ResultStore,
        aggregate_timings,
        expand_grid,
        rows_as_json,
        run_campaign,
    )
    from .traces import CorpusError, expand_corpus, load_corpus

    protocols = args.protocol or ["verus", "cubic"]
    grid = dict(grid, seeds=args.seeds, duration=args.duration,
                base_seed=args.base_seed)
    try:
        if args.corpus:
            tasks = expand_corpus(load_corpus(args.corpus), protocols,
                                  names=channels, **grid)
        else:
            tasks = expand_grid(channels, protocols, **grid)
    except (ValueError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        rows = [{"task": i, **{c: getattr(t, c) for c in columns},
                 "seed_index": t.seed_index, "seed": t.seed,
                 "key": t.key()[:12]} for i, t in enumerate(tasks)]
        print(format_table(rows, title=f"{grid_title} ({len(tasks)} "
                                       f"{noun}s, dry run)"))
        return 0

    store = None if args.no_cache else ResultStore(args.cache_dir)

    def progress(outcome, done, total) -> None:
        status = outcome.status
        if note is not None and outcome.ok:
            status += note(outcome.result)
        if outcome.error:
            status += f": {outcome.error}"
        print(f"[{done}/{total}] {noun} {outcome.index} {status} "
              f"({outcome.seconds:.1f}s)", file=sys.stderr)

    result = run_campaign(tasks, jobs=args.jobs, store=store,
                          resume=args.resume, timeout=args.timeout,
                          retries=args.retries, progress=progress,
                          collect_timings=telemetry)
    rows = summarise(result)
    print(format_table(rows, title=rows_title))
    stats = result.stats
    print(f"{noun}s: {stats.total}  executed: {stats.executed}  "
          f"cached: {stats.cached}  failed: "
          f"{stats.failed + stats.timeouts}  retries: {stats.retries}")
    if telemetry:
        rollup = aggregate_timings(result.outcomes)
        if rollup is None:
            print("telemetry: no task carried timings (all results were "
                  "cached; use --fresh to re-measure)")
        else:
            print(f"telemetry: {rollup['tasks_with_timings']}/"
                  f"{rollup['tasks']} tasks timed  "
                  f"cache lookups: {stats.cache_lookup_seconds * 1e3:.1f}ms")
            timing_rows = [
                {"span": key, "mean_s": rollup["mean"][key],
                 "total_s": rollup["total"][key],
                 "max_s": rollup["max"][key]}
                for key in rollup["mean"]
            ]
            print(format_table(timing_rows, title="per-task span timings"))
    if store is not None:
        print(f"cache '{args.cache_dir}': {store.hits} hits, "
              f"{store.misses} misses, {store.writes} writes")
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(rows_as_json(rows))
        print(f"wrote rows to {args.out}")
    if verdict is not None:
        return verdict(result)
    return 0 if result.all_ok else 1


def _run_sweep(args) -> int:
    """``repro sweep``: expand a campaign grid, run it through the
    engine, print the aggregated table plus cache accounting.

    With ``--corpus``, the scenario axis comes from a trace corpus
    instead of the synthetic channel: every (selected) trace becomes a
    grid entry whose cells replay that trace, pinned by content hash.
    """
    from .campaign import aggregate_campaign

    channels = args.scenario
    grid = {"flow_counts": args.flows or [3]}
    if not args.corpus:
        channels = channels or ["campus_pedestrian", "city_driving"]
        grid["technology"] = args.technology
    return _run_grid(
        args, channels, grid, noun="task", grid_title="campaign grid",
        columns=("scenario", "protocol", "label", "flows"),
        summarise=lambda run: aggregate_campaign(run.tasks, run.outcomes),
        rows_title="campaign summary (mean over seeds, 95% CI)",
        telemetry=args.telemetry)


def _chaos_note(result: dict) -> str:
    note = " recovered" if result.get("recovered") else " NOT-RECOVERED"
    if not result.get("invariant", {"ok": True})["ok"]:
        note += " INVARIANT"
    return note + (" degraded" if result.get("degraded") else "")


def _chaos_verdict(result) -> int:
    if not result.all_ok:
        print("FAIL: some cells did not execute", file=sys.stderr)
        return 1
    if not all(o.result.get("recovered") for o in result.outcomes):
        print("FAIL: some flows did not recover post-disruption",
              file=sys.stderr)
        return 1
    print("all flows recovered")
    return 0


def _run_chaos(args) -> int:
    """``repro chaos``: expand a (protocol × fault × seed) acceptance
    matrix, run it through the campaign engine, and fail unless every
    cell recovered post-disruption."""
    from .faults import chaos_warmup, recovery_rows

    grid = dict(flow_counts=[args.flows],
                faults=args.fault or ["blackout", "chaos"],
                backends=(["sim", "live"] if args.backend == "both"
                          else [args.backend]),
                deadline=args.deadline, default_duration=20.0,
                warmup=chaos_warmup)
    return _run_grid(
        args, args.trace if args.corpus else [args.scenario], grid,
        noun="cell", grid_title="chaos matrix",
        columns=("protocol", "fault", "backend"),
        summarise=lambda run: recovery_rows(run.tasks, run.outcomes),
        rows_title="chaos acceptance matrix (recovered / cells per group)",
        note=_chaos_note, verdict=_chaos_verdict)


def _run_check(args) -> int:
    """``repro check``: run the conformance pipeline — invariant-audited
    scenarios, golden-trace diffs (or ``--bless``), the sim<->live
    differential harness, and the mutation smoke."""
    from .check import run_conformance

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    result = run_conformance(
        protocols=args.protocol or None,
        golden_dir=args.golden_dir,
        jobs=args.jobs,
        bless=args.bless,
        with_differential=not args.no_live,
        with_mutation=not args.no_mutation,
        differential_duration=args.live_duration,
        log=log,
    )

    print(format_table([row.to_dict() for row in result.rows],
                       title="invariant audit + golden traces"))
    for row in result.rows:
        for message in row.messages:
            print(f"  {row.protocol}: {message}", file=sys.stderr)
    if result.blessed_paths:
        for path in result.blessed_paths:
            print(f"blessed {path}")
    if result.differential:
        print(format_table(
            [d.to_dict() for d in result.differential],
            title="differential sim<->live (calibrated envelopes)"))
        for d in result.differential:
            for message in d.messages:
                print(f"  {d.protocol}: {message}", file=sys.stderr)
    if result.mutants:
        print(format_table(
            [{"mutant": m.name, "protocol": m.protocol,
              "caught_by": ", ".join(m.caught_by) or "NOT CAUGHT"}
             for m in result.mutants],
            title="mutation smoke (every mutant must be caught)"))
    if result.ok:
        print("conformance: OK")
        return 0
    print("conformance: FAIL", file=sys.stderr)
    return 1


def _run_corpus(args) -> int:
    """``repro corpus``: manage content-addressed trace corpora — build
    preset families, verify integrity, characterize, import, convert."""
    from .traces import (
        CorpusError,
        build_corpus,
        convert,
        import_trace,
        load_corpus,
    )

    try:
        if args.action == "build":
            def progress(name: str, status: str) -> None:
                print(f"  {name}: {status}", file=sys.stderr)
            report = build_corpus(root=args.dir, preset=args.preset,
                                  jobs=args.jobs, force=args.force,
                                  progress=progress)
            print(f"corpus '{report.corpus.name}' at {args.dir}: "
                  f"built: {len(report.built)}  "
                  f"unchanged: {len(report.unchanged)}")
            return 0
        if args.action == "convert":
            count = convert(args.src, args.dst, from_fmt=args.from_fmt,
                            to_fmt=args.to_fmt)
            print(f"wrote {count} delivery opportunities to {args.dst}")
            return 0

        corpus = load_corpus(args.dir)
        if args.action == "verify":
            report = corpus.verify()
            rows = [{"trace": name, "status": status}
                    for name, status in sorted(report.items())]
            print(format_table(rows, title=f"corpus verify ({args.dir})"))
            mismatched = sum(1 for s in report.values()
                             if s.startswith("mismatch"))
            missing = sum(1 for s in report.values() if s == "missing")
            print(f"ok: {len(report) - mismatched - missing}  "
                  f"missing: {missing}  mismatched: {mismatched}")
            return 1 if mismatched else 0
        if args.action == "list":
            rows = [{"trace": name,
                     "kind": corpus.entries[name].source.get("kind"),
                     "opportunities": corpus.entries[name].opportunities,
                     "duration_s": corpus.entries[name].stats.get(
                         "duration_s"),
                     "sha256": corpus.entries[name].sha256[:12]}
                    for name in corpus.names()]
            print(format_table(rows, title=f"corpus '{corpus.name}' "
                                           f"({len(rows)} traces)"))
            return 0
        if args.action == "stats":
            names = args.trace or corpus.names()
            payload = {name: corpus.entry(name).stats for name in names}
            if args.json:
                import json
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                rows = [{"trace": name, **stats}
                        for name, stats in sorted(payload.items())]
                print(format_table(rows, title="corpus trace statistics"))
            return 0
        if args.action == "import":
            entry = import_trace(corpus, args.file, name=args.name,
                                 fmt=args.format, overwrite=args.overwrite)
            print(f"imported {entry.name!r}: {entry.opportunities} "
                  f"opportunities, sha256 {entry.sha256[:12]}")
            return 0
    except (CorpusError, ValueError, OSError) as exc:
        # TraceFormatError is a ValueError, so malformed files land here
        # too, not as tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"error: unknown corpus action {args.action!r}", file=sys.stderr)
    return 2


def _soak_verdict(result) -> int:
    """Exit 1 on any cell that failed or timed out, broke a control-law
    invariant, or ended degraded; list each on stdout."""
    findings = []
    for task, outcome in zip(result.tasks, result.outcomes):
        cell = (f"cell {outcome.index} ({task.protocol}, {task.fault}, "
                f"{task.scenario})")
        if not outcome.ok:
            findings.append(f"{cell}: {outcome.status}: {outcome.error}")
            continue
        invariant = outcome.result.get("invariant")
        if invariant is not None and not invariant["ok"]:
            from .check.report import InvariantReport
            report = InvariantReport.from_dict(invariant)
            findings.append(f"{cell}: invariant: {report.summary()}")
        if outcome.result.get("degraded"):
            findings.append(f"{cell}: degraded: "
                            f"{outcome.result.get('degraded_reason')}")
    for finding in findings:
        print(finding)
    if findings:
        print(f"soak: FAIL ({len(findings)} findings)", file=sys.stderr)
        return 1
    print("soak: OK")
    return 0


def _run_soak(args) -> int:
    """``repro soak``: ``--budget-cells`` chaos cells drawn from protocol
    × fault × channel, cell *i* a pure function of (seed, i), run like
    ``repro chaos`` through the campaign engine and the store; fails on
    any cell that did not run clean (see :func:`_soak_verdict`)."""
    from .cellular import SCENARIO_NAMES
    from .faults import FAULT_PRESETS, chaos_warmup, recovery_rows

    args.protocol = args.protocol or ["verus", "sprout", "cubic", "newreno"]
    channels = args.scenario
    if not args.corpus:
        channels = channels or list(SCENARIO_NAMES)
    grid = dict(flow_counts=[args.flows],
                faults=args.fault or list(FAULT_PRESETS),
                deadline=1.5, warmup=chaos_warmup, draws=args.budget_cells)
    return _run_grid(
        args, channels, grid, noun="cell", grid_title="soak draw",
        columns=("scenario", "protocol", "fault"),
        summarise=lambda run: recovery_rows(run.tasks, run.outcomes),
        rows_title="soak (recovered / cells per group)",
        note=_chaos_note, verdict=_soak_verdict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="verus-repro",
        description="Reproduce experiments from the Verus paper (SIGCOMM'15)")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(ITEMS))
    run.add_argument("--duration", type=float, default=60.0,
                     help="simulated seconds per run (default 60)")
    run.add_argument("--reps", type=int, default=2,
                     help="repetitions for averaged experiments")
    run.add_argument("--telemetry", action="store_true",
                     help="attach a telemetry session and write "
                          "timeline/meter artifacts after the run")
    run.add_argument("--telemetry-out", default=".", metavar="DIR",
                     help="directory for --telemetry artifacts (default .)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the experiment's paper-default seed")

    quick = sub.add_parser("quickstart", help="Verus vs Cubic on one trace")
    quick.add_argument("--duration", type=float, default=30.0)
    quick.add_argument("--seed", type=int, default=None,
                       help="channel/queue seed (default 1)")

    live = sub.add_parser(
        "live", help="run protocols over real UDP through the link emulator")
    live.add_argument("--protocol", action="append", default=None,
                      help="flow protocol; repeat for several concurrent "
                           "flows (default: verus)")
    live.add_argument("--scenario", default="city_driving")
    live.add_argument("--technology", default="3g", choices=["3g", "lte"])
    live.add_argument("--duration", type=float, default=10.0,
                      help="wall-clock seconds (default 10)")
    live.add_argument("--seed", type=int, default=None,
                      help="channel/queue seed (default 1)")
    live.add_argument("--trace", default=None,
                      help="replay a Mahimahi-style trace file instead of "
                           "generating the scenario")
    live.add_argument("--compare-sim", action="store_true",
                      help="also run the equivalent simulated session and "
                           "print both result tables")

    report = sub.add_parser(
        "report", help="run every paper item's shape checks and write a "
                       "markdown report")
    report.add_argument("--duration", type=float, default=45.0,
                        help="minimum simulated seconds per run "
                             "(default 45)")
    report.add_argument("--items", nargs="*", default=None,
                        help="subset of report items (default: all)")
    report.add_argument("--jobs", type=int, default=1,
                        help="run report items on N worker processes "
                             "(default 1: serial, in-process)")
    report.add_argument("--out", default=None,
                        help="write to a file instead of stdout")

    sweep = sub.add_parser(
        "sweep", help="run a scenario×protocol×seeds campaign grid with "
                      "process-level parallelism and a durable result cache")
    sweep.add_argument("--scenario", action="append", default=None,
                       help="scenario name (or, with --corpus, a trace "
                            "name); repeat for several "
                            "(default: campus_pedestrian, city_driving / "
                            "every corpus trace)")
    sweep.add_argument("--corpus", default=None, metavar="DIR",
                       help="draw the scenario axis from a trace corpus: "
                            "every trace (or the --scenario subset) becomes "
                            "a replayed grid entry pinned by content hash")
    sweep.add_argument("--protocol", action="append", default=None,
                       help="protocol name; repeat for several "
                            "(default: verus, cubic)")
    sweep.add_argument("--flows", action="append", type=int, default=None,
                       help="concurrent flows per cell; repeat for several "
                            "(default: 3)")
    sweep.add_argument("--seeds", type=int, default=1,
                       help="seed repetitions per cell (default 1)")
    sweep.add_argument("--duration", type=float, default=None,
                       help="simulated seconds per cell (default 30; with "
                            "--corpus, each trace's own recorded length)")
    sweep.add_argument("--technology", default="3g", choices=["3g", "lte"])
    sweep.add_argument("--base-seed", type=int, default=0,
                       help="campaign seed; per-task seeds are derived "
                            "deterministically from it (default 0)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1: serial)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-task timeout in seconds (pooled runs only)")
    sweep.add_argument("--retries", type=int, default=1,
                       help="retries per failing task (default 1)")
    sweep.add_argument("--cache-dir", default=".repro-cache",
                       help="result store location (default .repro-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="run without reading or writing the store")
    sweep.add_argument("--resume", dest="resume", action="store_true",
                       default=True,
                       help="skip tasks already in the store (default)")
    sweep.add_argument("--fresh", dest="resume", action="store_false",
                       help="re-execute every task, ignoring stored results")
    sweep.add_argument("--telemetry", action="store_true",
                       help="collect per-task span timings (queue wait, "
                            "trace generation, simulation run) and print "
                            "the rollup")
    sweep.add_argument("--dry-run", action="store_true",
                       help="print the expanded grid and exit")
    sweep.add_argument("--out", default=None,
                       help="also write aggregated rows as JSON")

    chaos = sub.add_parser(
        "chaos", help="run the fault-injection acceptance matrix: every "
                      "protocol must recover after every fault schedule")
    chaos.add_argument("--protocol", action="append", default=None,
                       help="protocol name; repeat for several "
                            "(default: verus, cubic)")
    chaos.add_argument("--fault", action="append", default=None,
                       help="fault preset; repeat for several "
                            "(default: blackout, chaos)")
    chaos.add_argument("--backend", default="sim",
                       choices=["sim", "live", "both"],
                       help="where cells run: the simulator, the live UDP "
                            "loopback emulator, or both (default sim)")
    chaos.add_argument("--scenario", default="campus_stationary")
    chaos.add_argument("--corpus", default=None, metavar="DIR",
                       help="run cells over the traces of a corpus instead "
                            "of the synthesized --scenario channel")
    chaos.add_argument("--trace", action="append", default=None,
                       help="with --corpus: restrict to these trace names; "
                            "repeat for several (default: every trace)")
    chaos.add_argument("--flows", type=int, default=1,
                       help="concurrent flows per cell (default 1)")
    chaos.add_argument("--seeds", type=int, default=1,
                       help="seed repetitions per cell (default 1)")
    chaos.add_argument("--duration", type=float, default=None,
                       help="seconds per cell — wall-clock on the live "
                            "backend (default 20; with --corpus, each "
                            "trace's own recorded length)")
    chaos.add_argument("--deadline", type=float, default=3.0,
                       help="post-disruption recovery deadline in seconds "
                            "(default 3)")
    chaos.add_argument("--base-seed", type=int, default=0)
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1: serial)")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-cell timeout in seconds (pooled runs only)")
    chaos.add_argument("--retries", type=int, default=1)
    chaos.add_argument("--cache-dir", default=".repro-cache",
                       help="result store location (default .repro-cache)")
    chaos.add_argument("--no-cache", action="store_true")
    chaos.add_argument("--resume", dest="resume", action="store_true",
                       default=True,
                       help="skip cells already in the store (default)")
    chaos.add_argument("--fresh", dest="resume", action="store_false",
                       help="re-execute every cell, ignoring stored results")
    chaos.add_argument("--dry-run", action="store_true",
                       help="print the expanded matrix and exit")
    chaos.add_argument("--out", default=None,
                       help="also write matrix rows as JSON")

    check = sub.add_parser(
        "check", help="run the conformance suite: invariant monitors, "
                      "golden-trace diffs, sim<->live differential, and "
                      "mutation smoke")
    check.add_argument("--protocol", action="append", default=None,
                       help="protocol to audit; repeat for several "
                            "(default: verus, cubic, vegas)")
    check.add_argument("--bless", action="store_true",
                       help="regenerate the golden traces instead of "
                            "diffing against them")
    check.add_argument("--golden-dir", default=None,
                       help="golden trace directory "
                            "(default: tests/golden in the repo)")
    check.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the audited scenarios "
                            "(default 1: serial; results are bit-identical "
                            "either way)")
    check.add_argument("--no-live", action="store_true",
                       help="skip the sim<->live differential harness")
    check.add_argument("--no-mutation", action="store_true",
                       help="skip the mutation smoke")
    check.add_argument("--live-duration", type=float, default=3.0,
                       help="wall-clock seconds per differential run "
                            "(default 3)")

    corpus = sub.add_parser(
        "corpus", help="manage content-addressed trace corpora: build "
                       "seeded presets, verify integrity, characterize, "
                       "import and convert trace files")
    corpus_sub = corpus.add_subparsers(dest="action", required=True)

    def _corpus_dir(p) -> None:
        p.add_argument("--dir", default=".repro-corpus",
                       help="corpus directory (default .repro-corpus)")

    cb = corpus_sub.add_parser(
        "build", help="synthesize a preset trace family; re-running is a "
                      "content-addressed no-op")
    _corpus_dir(cb)
    cb.add_argument("--preset", default="default",
                    help="corpus preset name: default or mini")
    cb.add_argument("--jobs", type=int, default=1,
                    help="synthesis worker processes (default 1; output is "
                         "bit-identical at any value)")
    cb.add_argument("--force", action="store_true",
                    help="re-synthesize even if files are already current")

    cv = corpus_sub.add_parser(
        "verify", help="re-hash every trace file against the manifest")
    _corpus_dir(cv)

    cs = corpus_sub.add_parser(
        "stats", help="per-trace characterization (rates, outages, "
                      "burstiness)")
    _corpus_dir(cs)
    cs.add_argument("--trace", action="append", default=None,
                    help="trace name; repeat for several (default: all)")
    cs.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON instead of a table")

    cl = corpus_sub.add_parser("list", help="list the corpus manifest")
    _corpus_dir(cl)

    ci = corpus_sub.add_parser(
        "import", help="import an external trace file (any supported "
                       "format) with provenance")
    _corpus_dir(ci)
    ci.add_argument("file", help="trace file to import")
    ci.add_argument("--name", default=None,
                    help="corpus trace name (default: the file's stem)")
    ci.add_argument("--format", default=None,
                    choices=["mahimahi", "seconds", "csv"],
                    help="source format (default: auto-detect)")
    ci.add_argument("--overwrite", action="store_true",
                    help="replace an existing trace of the same name")

    cc = corpus_sub.add_parser(
        "convert", help="convert a trace file between formats (lossless)")
    cc.add_argument("src", help="input trace file")
    cc.add_argument("dst", help="output trace file")
    cc.add_argument("--from", dest="from_fmt", default=None,
                    choices=["mahimahi", "seconds", "csv"],
                    help="input format (default: auto-detect)")
    cc.add_argument("--to", dest="to_fmt", default=None,
                    choices=["mahimahi", "seconds", "csv"],
                    help="output format (default: by extension, mahimahi)")

    soak = sub.add_parser(
        "soak", help="draw seed-reproducible protocol × fault × channel "
                     "cells and run them like the chaos matrix; fails on "
                     "any failed, law-violating or degraded cell")
    soak.add_argument("--budget-cells", type=int, default=50,
                      help="number of cells to draw (default 50)")
    soak.add_argument("--seed", dest="base_seed", type=int, default=0,
                      help="base seed; cell i is a pure function of "
                           "(seed, i) (default 0)")
    soak.add_argument("--protocol", action="append", default=None,
                      help="protocol axis entry; repeat for several "
                           "(default: verus, sprout, cubic, newreno)")
    soak.add_argument("--fault", action="append", default=None,
                      help="fault-preset axis entry; repeat for several "
                           "(default: every preset)")
    soak.add_argument("--scenario", action="append", default=None,
                      help="channel axis entry: a synth scenario (or, with "
                           "--corpus, a trace name); repeat for several "
                           "(default: all seven paper scenarios / every "
                           "corpus trace)")
    soak.add_argument("--corpus", default=None, metavar="DIR",
                      help="draw the channel axis from a trace corpus "
                           "instead of synth scenarios")
    soak.add_argument("--duration", type=float, default=4.0,
                      help="simulated seconds per cell (default 4)")
    soak.add_argument("--flows", type=int, default=1)
    soak.add_argument("--jobs", type=int, default=2,
                      help="worker processes (default 2; a timeout needs "
                           "a pool to preempt)")
    soak.add_argument("--timeout", type=float, default=60.0,
                      help="per-cell wall deadline in seconds (default 60)")
    soak.add_argument("--retries", type=int, default=1)
    soak.add_argument("--state-dir", dest="cache_dir", default=".repro-soak",
                      help="result store location (default .repro-soak)")
    soak.add_argument("--fresh", dest="resume", action="store_false",
                      default=True,
                      help="re-execute every cell, ignoring stored results")
    soak.set_defaults(seeds=1, no_cache=False, dry_run=False, out=None)

    trace = sub.add_parser("trace", help="generate a channel trace file")
    trace.add_argument("--scenario", default="city_driving")
    trace.add_argument("--technology", default="3g", choices=["3g", "lte"])
    trace.add_argument("--duration", type=float, default=60.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "list" or args.command is None:
        for name in sorted(ITEMS):
            print(name)
        return 0
    if args.command == "run":
        item = ITEMS[args.experiment]

        def run_item() -> None:
            item.render(item.call(**item.run_args(args.duration, args.reps),
                                  **_seed_kwargs(args)))

        if args.telemetry:
            from .obs import TelemetrySession, telemetry, write_session
            session = TelemetrySession()
            with telemetry(session):
                run_item()
            for path in write_session(session, args.telemetry_out,
                                      prefix=f"telemetry_{args.experiment}"):
                print(f"wrote {path}")
        else:
            run_item()
        return 0
    if args.command == "quickstart":
        from . import quick_comparison
        print(format_table(quick_comparison(duration=args.duration,
                                            **_seed_kwargs(args)),
                           title="Verus vs TCP Cubic (shared 3G trace)"))
        return 0
    if args.command == "live":
        _run_live(args)
        return 0
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "check":
        return _run_check(args)
    if args.command == "corpus":
        return _run_corpus(args)
    if args.command == "soak":
        return _run_soak(args)
    if args.command == "report":
        from .experiments.full_report import generate_report
        text = generate_report(duration=args.duration, items=args.items,
                               jobs=args.jobs)
        if args.out:
            from pathlib import Path
            Path(args.out).write_text(text)
            print(f"wrote report to {args.out}")
        else:
            print(text)
        return 0
    if args.command == "trace":
        from .cellular import generate_scenario_trace, save_trace
        trace_arr = generate_scenario_trace(args.scenario,
                                            duration=args.duration,
                                            technology=args.technology,
                                            seed=args.seed)
        save_trace(args.out, trace_arr)
        print(f"wrote {trace_arr.size} delivery opportunities to {args.out}")
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
