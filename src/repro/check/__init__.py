"""Conformance subsystem: invariant monitors, golden traces, differential
harness, and mutation smoke.

Entry points:

* :func:`run_conformance` — the full ``repro check`` pipeline;
* :func:`run_audited` — one protocol's scenario with all monitors attached;
* :func:`run_mutation_smoke` — seeded defects vs the oracle net;
* :func:`run_differential` — one sim ↔ live comparison.
"""

from .differential import DifferentialResult, run_differential
from .golden import (
    compare_golden,
    default_golden_dir,
    golden_path,
    load_golden,
    render_golden,
    write_golden,
)
from .monitors import (
    MonitorSession,
    MonotoneClockMonitor,
    QueueAccountingMonitor,
    TcpLawMonitor,
    VerusLawMonitor,
    arm_monitors,
    audit_conservation,
)
from .mutation import MUTANTS, Mutant, MutantResult, run_mutation_smoke
from .report import InvariantReport, Violation
from .runner import (
    CheckRow,
    ConformanceResult,
    run_check_task,
    run_conformance,
)
from .scenarios import (
    CHECK_PROTOCOLS,
    AuditedRun,
    CheckScenario,
    build_scenario,
    run_audited,
)

__all__ = [
    "AuditedRun",
    "CHECK_PROTOCOLS",
    "CheckRow",
    "CheckScenario",
    "ConformanceResult",
    "DifferentialResult",
    "InvariantReport",
    "MUTANTS",
    "MonitorSession",
    "MonotoneClockMonitor",
    "Mutant",
    "MutantResult",
    "QueueAccountingMonitor",
    "TcpLawMonitor",
    "VerusLawMonitor",
    "Violation",
    "arm_monitors",
    "audit_conservation",
    "build_scenario",
    "compare_golden",
    "default_golden_dir",
    "golden_path",
    "load_golden",
    "render_golden",
    "run_audited",
    "run_check_task",
    "run_conformance",
    "run_differential",
    "run_mutation_smoke",
    "write_golden",
]
