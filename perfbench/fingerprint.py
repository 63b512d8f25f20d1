"""The environment a benchmark result was measured in.

Sprout's censored ticks import ``scipy.special.gammainc`` although only
numpy is a declared dependency, so Sprout figures are comparable only
between runs with the same scipy status.  :func:`incomparable` is the
rule every comparison of results goes through.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Dict, List

#: Fingerprint fields that must be equal for two results to be compared.
#: The commit is left out on purpose: comparing two commits is the point.
COMPARABLE_FIELDS = ("python", "numpy", "scipy", "nproc", "machine")


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` in a checkout that is not a git repository."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    """Everything but the end-of-run load, which :func:`finish` adds."""
    import repro

    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "repro_version": repro.__version__,
        "git_commit": git_commit(root),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def finish(record: Dict[str, object]) -> Dict[str, object]:
    record["loadavg_1m_end"] = os.getloadavg()[0]
    return record


def incomparable(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """The fields on which two fingerprints disagree; empty when the
    results may be compared."""
    return [f"{key}: {a.get(key)!r} != {b.get(key)!r}"
            for key in COMPARABLE_FIELDS if a.get(key) != b.get(key)]
