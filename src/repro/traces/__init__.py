"""Trace corpus subsystem: ingestion, synthesis, characterization and
workload generation.

The paper's headline results are all driven by recorded cellular traces;
this package turns traces from ad-hoc files into a managed, reproducible
input layer:

* :mod:`~repro.traces.formats` — mahimahi / newline-seconds / CSV
  readers and writers with auto-detection and lossless conversion;
* :mod:`~repro.traces.synth` — seeded synthesis from the channel
  model's regime presets, regenerable bit-identically from a manifest;
* :mod:`~repro.traces.stats` — per-trace characterization (rates,
  outages, burstiness, short-timescale variability) emitted as JSON;
* :mod:`~repro.traces.corpus` — a content-addressed registry with
  SHA-256 integrity, named presets and import provenance;
* :mod:`~repro.traces.workload` — deterministic augmentation
  (scale / splice / resample) and expansion of a corpus into grid
  cells.

Dataflow::

    formats  --read/convert-->  canonical ms trace
    synth    --SynthSpec----->  canonical ms trace
                 |                       |
                 v                       v
    corpus (manifest.json + traces/*.pps, SHA-256 addressed)
                 |
                 v
    workload --expand--> TaskSpec --> repro sweep / chaos / soak
"""

from .corpus import (
    CORPUS_PRESETS,
    DEFAULT_CORPUS_DIR,
    BuildReport,
    Corpus,
    CorpusError,
    TraceEntry,
    build_corpus,
    import_trace,
    load_corpus,
    trace_sha256,
)
from .formats import (
    FORMATS,
    as_milliseconds,
    as_seconds,
    convert,
    detect_format,
    read_trace_ms,
    read_trace_seconds,
    write_trace_ms,
)
from .stats import TraceStats, characterize
from .synth import REGIMES, SynthSpec, synthesize
from .workload import (
    AUGMENT_OPS,
    apply_augment,
    augment_corpus,
    corpus_channels,
    derive_seed,
    expand_corpus,
    splice_traces,
)

__all__ = [
    "AUGMENT_OPS",
    "BuildReport",
    "CORPUS_PRESETS",
    "Corpus",
    "CorpusError",
    "DEFAULT_CORPUS_DIR",
    "FORMATS",
    "REGIMES",
    "SynthSpec",
    "TraceEntry",
    "TraceStats",
    "apply_augment",
    "as_milliseconds",
    "as_seconds",
    "augment_corpus",
    "build_corpus",
    "characterize",
    "convert",
    "corpus_channels",
    "derive_seed",
    "detect_format",
    "expand_corpus",
    "import_trace",
    "load_corpus",
    "read_trace_ms",
    "read_trace_seconds",
    "splice_traces",
    "synthesize",
    "trace_sha256",
    "write_trace_ms",
]
