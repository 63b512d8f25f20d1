"""Content-addressed trace corpora: manifest, integrity, provenance.

A *corpus* is a directory::

    <root>/manifest.json        # the registry (committed / shared)
    <root>/traces/<name>.pps    # canonical mahimahi trace files (cache)

The manifest records, per trace: the canonical file, its SHA-256, the
opportunity count, descriptive stats, and a **source** provenance record
— either a :class:`~repro.traces.synth.SynthSpec` (``kind: synth``,
regenerable bit-identically), an external import (``kind: import``, with
the original path/format/hash), or an augmentation recipe
(``kind: augment``, see :mod:`repro.traces.workload`).

Because synthesis is seeded and the on-disk encoding canonical, a
manifest with only ``synth``/``augment`` sources is self-contained: the
trace files can be deleted and regenerated, and ``repro corpus build``
run twice (at any ``--jobs``) yields byte-identical files and manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cellular.trace_io import TraceFormatError
from .formats import encode_mahimahi, read_trace_ms, validate_ms
from .stats import characterize
from .synth import SynthSpec

PathLike = Union[str, os.PathLike]

#: Default on-disk location, mirroring the campaign cache's dot-dir.
DEFAULT_CORPUS_DIR = ".repro-corpus"
MANIFEST_NAME = "manifest.json"
TRACE_SUBDIR = "traces"
MANIFEST_VERSION = 1

#: Named corpora: regime × technology families regenerable from seeds.
CORPUS_PRESETS: Dict[str, List[SynthSpec]] = {
    "default": [
        SynthSpec(regime=regime, technology=tech, duration=30.0, seed=seed)
        for regime in ("stationary", "walking", "driving")
        for tech, seed in (("3g", 1), ("lte", 2))
    ],
    "mini": [
        SynthSpec(regime="stationary", technology="3g", duration=10.0, seed=1),
        SynthSpec(regime="driving", technology="3g", duration=10.0, seed=3),
    ],
}


def encode_canonical(times_ms: np.ndarray) -> bytes:
    """The canonical byte encoding a trace is content-addressed by:
    its mahimahi text file, one integer millisecond per line."""
    return encode_mahimahi(times_ms)


def trace_sha256(times_ms: np.ndarray) -> str:
    return hashlib.sha256(encode_canonical(times_ms)).hexdigest()


#: ``10**1 .. 10**18``: for ``0 <= v < 10**18``, ``searchsorted(_POW10,
#: v, "right") + 1`` is the number of decimal digits of ``v``.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _parse_canonical(data: bytes) -> Optional[np.ndarray]:
    """The trace ``data`` encodes if it is already in canonical form
    (``encode_canonical`` of that trace reproduces ``data`` byte for
    byte), else ``None``.

    Canonical means digits and ``\\n`` only, newline-terminated, no
    blank line, no leading zero, sorted.  ``np.fromstring`` skips blank
    lines and leading zeros, so they are caught by length: the bytes
    must be exactly the values' digit counts plus one newline each.  An
    input without any digit would parse as ``[0]``, hence the first-byte
    test; values from ``10**18`` up are left to the strict reader, since
    ``np.fromstring`` saturates at the int64 limit instead of failing.
    """
    if data == b"\n":
        return np.empty(0, dtype=np.int64)
    if not data.endswith(b"\n") or data.startswith(b"\n") \
            or data.translate(None, b"0123456789\n"):
        return None
    arr = np.fromstring(data, dtype=np.int64, sep="\n")
    if np.any(np.diff(arr) < 0) or arr[-1] >= _POW10[-1]:
        return None
    digits = int(np.searchsorted(_POW10, arr, side="right").sum())
    if digits + 2 * arr.size != len(data):
        return None
    return arr


def read_pinned_ms(path: PathLike, sha256: str) -> Tuple[np.ndarray, str]:
    """Read a mahimahi trace that is pinned to a content hash.

    Returns ``(times_ms, digest)`` exactly as ``read_trace_ms(path,
    "mahimahi")`` and ``trace_sha256`` of its result would -- the same
    arrays, the same ``TraceFormatError`` for an unreadable file -- and
    leaves comparing ``digest`` with ``sha256`` to the caller.  A file
    whose raw bytes hash to ``sha256`` and are already canonical is
    parsed in one numpy pass; every other file takes the strict path.
    """
    data = Path(path).read_bytes()
    if hashlib.sha256(data).hexdigest() == sha256:
        times_ms = _parse_canonical(data)
        if times_ms is not None:
            return times_ms, sha256
    times_ms = read_trace_ms(path, fmt="mahimahi")
    return times_ms, trace_sha256(times_ms)


def _file_matches(path: Path, sha256: str) -> bool:
    """Whether ``path`` exists and holds a readable trace hashing to
    ``sha256``."""
    if not path.exists():
        return False
    try:
        return read_pinned_ms(path, sha256)[1] == sha256
    except TraceFormatError:
        return False


def sha256_file(path: PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class TraceEntry:
    """One manifest row: where a trace lives and where it came from."""

    name: str
    file: str                       # relative to the corpus root
    sha256: str
    opportunities: int
    source: dict                    # {"kind": "synth"|"import"|"augment", ...}
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "sha256": self.sha256,
            "opportunities": self.opportunities,
            "source": self.source,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "TraceEntry":
        return cls(name=name, file=payload["file"], sha256=payload["sha256"],
                   opportunities=int(payload["opportunities"]),
                   source=dict(payload["source"]),
                   stats=dict(payload.get("stats", {})))


class CorpusError(RuntimeError):
    """Manifest missing/corrupt, hash mismatch, unknown trace, ..."""


class Corpus:
    """An open corpus directory; entries keyed by trace name."""

    def __init__(self, root: PathLike,
                 entries: Optional[Dict[str, TraceEntry]] = None,
                 name: str = ""):
        self.root = Path(root)
        self.name = name or self.root.name
        self.entries: Dict[str, TraceEntry] = dict(entries or {})

    # -- paths ----------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def trace_path(self, name: str) -> Path:
        return self.root / self.entry(name).file

    def entry(self, name: str) -> TraceEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise CorpusError(
                f"corpus {self.root}: no trace named {name!r} "
                f"(have: {', '.join(sorted(self.entries)) or 'none'})"
            ) from None

    def names(self) -> List[str]:
        return sorted(self.entries)

    # -- manifest I/O ---------------------------------------------------
    def save_manifest(self) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "name": self.name,
            "traces": {name: self.entries[name].to_dict()
                       for name in sorted(self.entries)},
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        _atomic_write_bytes(self.manifest_path, text.encode("utf-8"))

    # -- content access -------------------------------------------------
    def load_ms(self, name: str, verify: bool = True) -> np.ndarray:
        """Read a trace (canonical ms), regenerating a regenerable one
        whose file is missing, and checking the hash unless told not to."""
        entry = self.entry(name)
        path = self.trace_path(name)
        if not path.exists():
            return self._restore(name)
        if not verify:
            return read_trace_ms(path, fmt="mahimahi")
        times_ms, digest = read_pinned_ms(path, entry.sha256)
        if digest != entry.sha256:
            raise CorpusError(
                f"corpus {self.root}: trace {name!r} content hash "
                f"{digest[:12]} does not match manifest "
                f"{entry.sha256[:12]} — file modified or corrupt")
        return times_ms

    def load_seconds(self, name: str, verify: bool = True) -> np.ndarray:
        return self.load_ms(name, verify=verify).astype(float) / 1000.0

    def _regenerate(self, name: str) -> Tuple[np.ndarray, bytes]:
        """Recompute a trace from its provenance record alone; returns
        it with its canonical bytes, checked against the manifest hash."""
        entry = self.entry(name)
        kind = entry.source.get("kind")
        if kind == "synth":
            times_ms = SynthSpec.from_dict(entry.source).generate_ms()
        elif kind == "augment":
            from .workload import apply_augment
            parent = self.load_ms(entry.source["parent"])
            times_ms = apply_augment(entry.source["op"], parent,
                                     entry.source.get("params", {}),
                                     entry.source["seed"])
        else:
            raise CorpusError(
                f"corpus {self.root}: trace {name!r} has source kind "
                f"{kind!r} and its file is gone — imported traces cannot "
                f"be regenerated")
        data = encode_canonical(times_ms)
        digest = hashlib.sha256(data).hexdigest()
        if digest != entry.sha256:
            raise CorpusError(
                f"corpus {self.root}: regenerating {name!r} produced hash "
                f"{digest[:12]}, manifest says {entry.sha256[:12]} — "
                f"channel model or spec drift; rebuild the corpus")
        return times_ms, data

    def _restore(self, name: str) -> np.ndarray:
        """Regenerate a trace and (re)write its file; returns the trace."""
        times_ms, data = self._regenerate(name)
        _atomic_write_bytes(self.trace_path(name), data)
        return times_ms

    # -- integrity ------------------------------------------------------
    def verify(self) -> Dict[str, str]:
        """Re-hash every trace file against the manifest.

        Returns name → ``"ok"`` / ``"missing"`` / ``"mismatch: ..."``;
        a missing regenerable trace is not an error (the manifest can
        rebuild it) but is still reported as missing.
        """
        report: Dict[str, str] = {}
        for name in self.names():
            entry = self.entries[name]
            path = self.root / entry.file
            if not path.exists():
                report[name] = "missing"
                continue
            try:
                digest = read_pinned_ms(path, entry.sha256)[1]
            except TraceFormatError as exc:
                report[name] = f"mismatch: unreadable ({exc})"
                continue
            report[name] = ("ok" if digest == entry.sha256
                            else f"mismatch: {digest[:12]} != "
                                 f"{entry.sha256[:12]}")
        return report

    def materialize(self) -> List[str]:
        """Regenerate every regenerable trace file that is missing or
        stale (including unreadable); returns the names written."""
        written = []
        for name in self.names():
            entry = self.entries[name]
            if _file_matches(self.root / entry.file, entry.sha256):
                continue
            self._restore(name)
            written.append(name)
        return written

    # -- mutation -------------------------------------------------------
    def add_trace(self, name: str, times_ms: np.ndarray, source: dict,
                  overwrite: bool = False) -> TraceEntry:
        """Register a trace: write the canonical file and manifest row."""
        if name in self.entries and not overwrite:
            raise CorpusError(f"corpus {self.root}: trace {name!r} already "
                              f"exists (pass overwrite=True to replace)")
        times_ms = validate_ms(times_ms, name)
        data = encode_canonical(times_ms)
        rel = f"{TRACE_SUBDIR}/{name}.pps"
        _atomic_write_bytes(self.root / rel, data)
        entry = TraceEntry(
            name=name, file=rel,
            sha256=hashlib.sha256(data).hexdigest(),
            opportunities=int(times_ms.size),
            source=dict(source),
            stats=characterize(times_ms).to_dict(),
        )
        self.entries[name] = entry
        self.save_manifest()
        return entry


# ----------------------------------------------------------------------
# Opening / building / importing
# ----------------------------------------------------------------------
def load_corpus(root: PathLike) -> Corpus:
    """Open an existing corpus directory (its manifest must exist)."""
    root = Path(root)
    manifest = root / MANIFEST_NAME
    if not manifest.exists():
        raise CorpusError(f"no corpus at {root}: {MANIFEST_NAME} not found "
                          f"(run 'repro corpus build' first?)")
    try:
        payload = json.loads(manifest.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"corpus {root}: unreadable manifest: {exc}")
    if payload.get("version") != MANIFEST_VERSION:
        raise CorpusError(f"corpus {root}: unsupported manifest version "
                          f"{payload.get('version')!r}")
    entries = {name: TraceEntry.from_dict(name, row)
               for name, row in payload.get("traces", {}).items()}
    return Corpus(root, entries=entries, name=payload.get("name", ""))


def _synth_build_task(payload: dict) -> dict:
    """One corpus cell: synthesize, encode, hash.  Module-level so the
    campaign pool can pickle it; the parent writes files afterwards, so
    output is byte-identical at any ``--jobs``."""
    spec = SynthSpec.from_dict(payload["spec"])
    times_ms = spec.generate_ms()
    data = encode_canonical(times_ms)
    return {
        "name": payload["name"],
        "data": data,
        "sha256": hashlib.sha256(data).hexdigest(),
        "opportunities": int(times_ms.size),
        "stats": characterize(times_ms).to_dict(),
    }


@dataclass
class BuildReport:
    """What a (re)build did: names freshly written vs already current."""

    corpus: Corpus
    built: List[str]
    unchanged: List[str]

    @property
    def total(self) -> int:
        return len(self.built) + len(self.unchanged)


def build_corpus(root: PathLike = DEFAULT_CORPUS_DIR,
                 preset: str = "default",
                 specs: Optional[Sequence[SynthSpec]] = None,
                 jobs: int = 1, force: bool = False,
                 progress: Optional[Callable[[str, str], None]] = None
                 ) -> BuildReport:
    """Build (or refresh) a corpus from a named preset or explicit specs.

    Synthesis cells run through the campaign executor when ``jobs > 1``;
    files and the manifest are written by the parent in sorted-name
    order, so the result is bit-identical across runs and across
    ``--jobs 1`` vs ``--jobs N``.  A trace whose file already matches
    its spec's content hash is left untouched (content-addressed no-op)
    unless ``force`` is set.
    """
    from ..campaign.executor import run_tasks

    if specs is None:
        if preset not in CORPUS_PRESETS:
            raise CorpusError(f"unknown corpus preset {preset!r}; "
                              f"choose from {sorted(CORPUS_PRESETS)}")
        specs = CORPUS_PRESETS[preset]
    by_name = {spec.default_name(): spec for spec in specs}
    if len(by_name) != len(specs):
        raise CorpusError("duplicate trace names in corpus specs")

    root = Path(root)
    corpus: Corpus
    if (root / MANIFEST_NAME).exists():
        corpus = load_corpus(root)
    else:
        corpus = Corpus(root, name=preset)

    # Decide which cells need synthesis: a cell is current iff its
    # manifest row records the same spec AND the file hash matches.
    todo: List[dict] = []
    unchanged: List[str] = []
    for name in sorted(by_name):
        spec = by_name[name]
        entry = corpus.entries.get(name)
        if not force and entry is not None \
                and entry.source == spec.to_dict() \
                and _file_matches(root / entry.file, entry.sha256):
            unchanged.append(name)
            continue
        todo.append({"name": name, "spec": spec.to_dict()})

    built: List[str] = []
    if todo:
        def report(outcome, done, total) -> None:
            if progress is not None:
                status = outcome.status if outcome.ok else \
                    f"{outcome.status}: {outcome.error}"
                progress(todo[outcome.index]["name"], status)

        run = run_tasks(todo, _synth_build_task, jobs=jobs,
                        progress=report if progress is not None else None)
        failures = [o for o in run.outcomes if not o.ok]
        if failures:
            first = failures[0]
            raise CorpusError(f"corpus build failed for "
                              f"{todo[first.index]['name']!r}: {first.error}")
        # Parent-side writes, in sorted-name order (jobs-independent).
        for outcome in sorted(run.outcomes,
                              key=lambda o: todo[o.index]["name"]):
            name = todo[outcome.index]["name"]
            result = outcome.result
            rel = f"{TRACE_SUBDIR}/{name}.pps"
            _atomic_write_bytes(root / rel, result["data"])
            corpus.entries[name] = TraceEntry(
                name=name, file=rel, sha256=result["sha256"],
                opportunities=result["opportunities"],
                source=by_name[name].to_dict(), stats=result["stats"])
            built.append(name)

    # Drop manifest rows for synth traces no longer in the spec family,
    # keeping imports/augments (they are user data, not preset output).
    for name in list(corpus.entries):
        if name not in by_name \
                and corpus.entries[name].source.get("kind") == "synth":
            del corpus.entries[name]

    corpus.name = corpus.name or preset
    corpus.save_manifest()
    return BuildReport(corpus=corpus, built=built, unchanged=unchanged)


def import_trace(corpus: Corpus, src: PathLike, name: Optional[str] = None,
                 fmt: Optional[str] = None,
                 overwrite: bool = False) -> TraceEntry:
    """Import an external trace file, converting to the canonical format
    and recording provenance (original path, format and content hash)."""
    src = Path(src)
    resolved_fmt = fmt
    if resolved_fmt is None:
        from .formats import detect_format
        resolved_fmt = detect_format(src)
    times_ms = read_trace_ms(src, resolved_fmt)
    if times_ms.size == 0:
        raise TraceFormatError(f"{src}: refusing to import an empty trace")
    if name is None:
        name = src.stem
    source = {
        "kind": "import",
        "path": str(src),
        "format": resolved_fmt,
        "original_sha256": sha256_file(src),
    }
    return corpus.add_trace(name, times_ms, source, overwrite=overwrite)
