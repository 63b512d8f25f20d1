"""Campaign engine: parallel sweep orchestration with a durable cache.

The evaluation grid of the paper — protocols × scenarios × flow counts ×
seeds, plus fault and backend axes for the chaos matrix — is expanded by
:func:`expand_grid` (or :class:`CampaignSpec`) into hashable
:class:`TaskSpec` cells, executed on a crash-isolated process pool
(:func:`run_campaign` / :func:`run_tasks`), memoised in a
content-addressed :class:`ResultStore`, and reduced back into paper-style
tables (:func:`aggregate_campaign`).

Dataflow::

    expand_grid -----------> [TaskSpec] --key()--> ResultStore lookup
          |                      |                     | hit: reuse
          |                      v miss                v
          |            ProcessPoolExecutor --summary--> ResultStore.put
          |                      |
          +---- aggregate_campaign(tasks, outcomes) ----> rows
"""

from .aggregate import (
    aggregate_campaign,
    aggregate_timings,
    mean_ci,
    rows_as_json,
)
from .executor import (
    CampaignResult,
    ExecutorStats,
    RunResult,
    TaskOutcome,
    run_campaign,
    run_tasks,
)
from .spec import (
    DEFAULT_PROTOCOL_OPTIONS,
    CampaignSpec,
    Channel,
    TaskSpec,
    expand_grid,
    run_simulation_task,
)
from .store import DEFAULT_CACHE_DIR, ResultStore

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "Channel",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_PROTOCOL_OPTIONS",
    "ExecutorStats",
    "ResultStore",
    "RunResult",
    "TaskOutcome",
    "TaskSpec",
    "aggregate_campaign",
    "aggregate_timings",
    "expand_grid",
    "mean_ci",
    "rows_as_json",
    "run_campaign",
    "run_simulation_task",
    "run_tasks",
]
