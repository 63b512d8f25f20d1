"""Benchmark of the Verus reproduction: workloads users run, end-to-end
metrics, and a layer-attributed traced run.  See ``README.md``."""
