"""Workload generation: trace augmentation and campaign expansion.

Two halves:

1. **Augmentation** grows the workload family beyond what the channel
   model synthesizes, with deterministic, manifest-recordable recipes —
   each op maps ``(parent_ms, params, seed) → ms`` and is registered in
   :data:`AUGMENT_OPS` so a corpus can regenerate derived traces from
   provenance alone:

   * ``scale`` — scale the offered *rate* by thinning (factor < 1) or
     duplicating (factor > 1) delivery opportunities;
   * ``splice`` — cut the trace into contiguous segments and splice
     them back in seeded-random order (regime-mixing without changing
     the marginal rate);
   * ``resample`` — block bootstrap: sample fixed-length blocks with
     replacement to any target duration (new trace, same short-timescale
     structure).

   Seeds are *derived* (SeedSequence over base seed + trace name + op),
   so augmenting a corpus twice yields identical traces.

2. **Expansion** turns a corpus into grid cells: every trace becomes a
   channel axis entry whose :class:`TaskSpec` pins the trace content by
   SHA-256, so ``repro sweep --corpus`` and ``repro chaos --corpus`` run
   straight off the registry with full cache correctness.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..campaign.spec import Channel, TaskSpec, expand_grid
from .corpus import Corpus, TraceEntry
from .formats import validate_ms

#: Registered augmentation ops: name -> (parent_ms, params, seed) -> ms.
AUGMENT_OPS: Dict[str, Callable[[np.ndarray, dict, int], np.ndarray]] = {}


def _op(name: str):
    def register(fn):
        AUGMENT_OPS[name] = fn
        return fn
    return register


def derive_seed(base_seed: int, *entropy: str) -> int:
    """A well-separated child seed bound to string entropy (trace name,
    op, ...), stable across runs and machines."""
    words = [int.from_bytes(hashlib.sha256(item.encode()).digest()[:4], "big")
             for item in entropy]
    return int(np.random.SeedSequence([base_seed, *words])
               .generate_state(1)[0])


# ----------------------------------------------------------------------
# Augmentation ops
# ----------------------------------------------------------------------
@_op("scale")
def scale_rate(parent_ms: np.ndarray, params: dict, seed: int) -> np.ndarray:
    """Scale the offered rate by ``factor`` without changing duration.

    factor < 1 thins opportunities (each kept with probability factor);
    factor > 1 emits ``floor(factor)`` copies of each opportunity plus a
    fractional-probability extra.  Timestamps are never moved, so the
    burst *timing* structure is preserved — only its density changes.
    """
    factor = float(params["factor"])
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    arr = validate_ms(parent_ms)
    if arr.size == 0:
        return arr
    rng = np.random.default_rng(seed)
    whole = int(factor)
    frac = factor - whole
    repeats = np.full(arr.size, whole, dtype=np.int64)
    if frac > 0:
        repeats += (rng.random(arr.size) < frac).astype(np.int64)
    return np.repeat(arr, repeats)


@_op("splice")
def splice_segments(parent_ms: np.ndarray, params: dict,
                    seed: int) -> np.ndarray:
    """Cut into ``segments`` equal time slices, splice in random order.

    Each reordered slice continues 1 ms after the previous one (the same
    seam rule as :class:`~repro.netsim.trace_link.TraceLink` looping),
    so total duration shrinks only by the removed inter-slice idle.
    """
    segments = int(params.get("segments", 4))
    if segments < 2:
        raise ValueError("splice needs at least 2 segments")
    arr = validate_ms(parent_ms)
    if arr.size == 0:
        return arr
    rng = np.random.default_rng(seed)
    start, end = int(arr[0]), int(arr[-1]) + 1
    edges = np.linspace(start, end, segments + 1).astype(np.int64)
    order = rng.permutation(segments)
    parts: List[np.ndarray] = []
    offset = 0
    for idx in order:
        chunk = arr[(arr >= edges[idx]) & (arr < edges[idx + 1])]
        if chunk.size == 0:
            continue
        parts.append(chunk - chunk[0] + offset)
        offset = int(parts[-1][-1]) + 1
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


@_op("resample")
def bootstrap_resample(parent_ms: np.ndarray, params: dict,
                       seed: int) -> np.ndarray:
    """Block bootstrap: fixed-length blocks sampled with replacement.

    ``block_ms`` controls which timescales survive (structure shorter
    than a block is kept, longer correlation is broken);
    ``duration_ms`` sets the output length, so one capture can seed
    arbitrarily long workloads.
    """
    block_ms = int(params.get("block_ms", 1000))
    duration_ms = int(params["duration_ms"])
    if block_ms <= 0 or duration_ms <= 0:
        raise ValueError("block_ms and duration_ms must be positive")
    arr = validate_ms(parent_ms)
    if arr.size == 0:
        return arr
    rng = np.random.default_rng(seed)
    start, end = int(arr[0]), int(arr[-1]) + 1
    span = max(end - start - block_ms, 1)
    parts: List[np.ndarray] = []
    offset = 0
    while offset < duration_ms:
        block_start = start + int(rng.integers(0, span))
        chunk = arr[(arr >= block_start) & (arr < block_start + block_ms)]
        if chunk.size:
            parts.append(chunk - block_start + offset)
        offset += block_ms
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def apply_augment(op: str, parent_ms: np.ndarray, params: dict,
                  seed: int) -> np.ndarray:
    """Dispatch a registered op; the hook corpus regeneration uses."""
    if op not in AUGMENT_OPS:
        raise ValueError(f"unknown augmentation op {op!r}; "
                         f"choose from {sorted(AUGMENT_OPS)}")
    return AUGMENT_OPS[op](parent_ms, params, seed)


def splice_traces(a_ms: np.ndarray, b_ms: np.ndarray,
                  gap_ms: int = 1) -> np.ndarray:
    """Join two traces back to back in the ms domain (programmatic
    two-trace splice; the corpus-recipe ``splice`` op is unary)."""
    a = validate_ms(a_ms)
    b = validate_ms(b_ms)
    if a.size == 0:
        return b.copy()
    if b.size == 0:
        return a.copy()
    return np.concatenate([a, b - b[0] + int(a[-1]) + int(gap_ms)])


def augment_corpus(corpus: Corpus, name: str, op: str, parent: str,
                   params: Optional[dict] = None, base_seed: int = 0,
                   overwrite: bool = False) -> TraceEntry:
    """Add a derived trace to a corpus with full provenance.

    The derived seed binds (base_seed, parent, op, name), so re-running
    the same augmentation is a content-addressed no-op and the entry
    regenerates bit-identically from the manifest.
    """
    params = dict(params or {})
    seed = derive_seed(base_seed, parent, op, name)
    parent_ms = corpus.load_ms(parent)
    times_ms = apply_augment(op, parent_ms, params, seed)
    if times_ms.size == 0:
        raise ValueError(f"augment {op!r} of {parent!r} produced an "
                         f"empty trace")
    source = {"kind": "augment", "op": op, "parent": parent,
              "params": params, "seed": seed}
    return corpus.add_trace(name, times_ms, source, overwrite=overwrite)


# ----------------------------------------------------------------------
# Corpus -> campaign expansion
# ----------------------------------------------------------------------
def corpus_channels(corpus: Corpus,
                    names: Optional[Sequence[str]] = None) -> List[Channel]:
    """The corpus's traces (every one, or ``names``) as grid channels
    pinned by content hash, each carrying its recorded duration."""
    channels = []
    for name in (list(names) if names is not None else corpus.names()):
        entry = corpus.entry(name)   # raises early on unknown names
        channels.append(Channel(name,
                                str((corpus.root / entry.file).resolve()),
                                entry.sha256, entry.stats.get("duration_s")))
    return channels


def expand_corpus(corpus: Corpus, protocols: Sequence[str],
                  flow_counts: Sequence[int] = (3,), seeds: int = 1,
                  duration: Optional[float] = None, *,
                  names: Optional[Sequence[str]] = None,
                  **grid) -> List[TaskSpec]:
    """Expand traces × protocols × flow_counts × seeds into cells.

    :func:`~repro.campaign.spec.expand_grid` over
    :func:`corpus_channels`; every further keyword (``base_seed``,
    ``warmup``, ``faults``, ``backends``, ...) is an ``expand_grid``
    argument.  ``duration=None`` runs each trace for its own recorded
    length.
    """
    return expand_grid(corpus_channels(corpus, names), protocols,
                       flow_counts, seeds, duration=duration, **grid)
