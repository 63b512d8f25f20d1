"""The package runs on its one declared dependency, numpy."""

import os
import subprocess
import sys
from pathlib import Path

import repro

# Runs in a fresh interpreter.  Importing the package and its subsystems
# must not load scipy, even where it is installed.  Then scipy is blocked
# (``import scipy`` raises, as on a numpy-only install) and a Sprout cell
# must complete with censored ticks, which need the Poisson tail.
SCRIPT = """
import sys
import repro, repro.campaign, repro.check.runner, repro.traces, repro.obs
assert "scipy" not in sys.modules
sys.modules["scipy"] = None
from repro.cellular import generate_scenario_trace
from repro.experiments import repeat_flows, run_trace_contention
from repro.sprout import forecast
trace = generate_scenario_trace("campus_stationary", duration=4.0, seed=1)
result = run_trace_contention(trace, repeat_flows("sprout", 1), duration=4.0,
                              warmup=1.0)
assert result.all_stats()[0].throughput_bps > 0
assert forecast._TAIL_TABLES, "no censored tick was observed"
print("ok")
"""


def test_numpy_only_sprout_cell():
    src = Path(repro.__file__).parents[1]
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
