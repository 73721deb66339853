"""On-disk cache of completed sweep points, keyed by content hashes.

A *point key* is the SHA-256 of the canonical JSON of::

    {figure, sweep params, RuntimeConfig+HierarchyConfig defaults,
     code version}

so a cached measurement is reused only while everything that could have
produced a different number is unchanged.  The code version hashes every
``src/repro/**/*.py`` source *except* the presentation/orchestration
modules (this file, ``bench/orchestrator.py``, ``bench/report.py``,
``cli.py``) — editing how results are scheduled or rendered does not
invalidate the measurements themselves, so re-runs after such edits are
near-instant; editing any model/runtime module invalidates everything,
conservatively.

Entries are one JSON file per point under ``<root>/<key[:2]>/<key>.json``
and self-describing: each records the figure, params, and its own key.
On load the key is recomputed from the recorded figure/params under the
*current* config fingerprint and code version; any mismatch (tampered
file, renamed key, changed config, changed code) is treated as a miss and
the entry is ignored.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import subprocess
from dataclasses import asdict
from pathlib import Path

from ..core.config import RuntimeConfig
from ..machine.hierarchy import HierarchyConfig

#: Version of the ``BENCH_<figure>.json`` document layout (see
#: docs/BENCHMARKS.md); bumped on any breaking schema change.
#: v2: ``meta.metrics`` block (docs/METRICS.md) joined the document.
SCHEMA_VERSION = 2

# bench-orchestration modules whose edits cannot change measured numbers
_VERSION_EXCLUDES = {
    "bench/orchestrator.py",
    "bench/resultstore.py",
    "bench/report.py",
    "cli.py",
}

_code_version_cache: str | None = None


def _jsonable(obj):
    """Recursively convert enums so dataclass dicts serialize to JSON."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def config_fingerprint() -> dict:
    """Default RuntimeConfig + HierarchyConfig, as plain JSON data."""
    return {"runtime": _jsonable(asdict(RuntimeConfig())),
            "hierarchy": _jsonable(asdict(HierarchyConfig()))}


def code_version() -> str:
    """SHA-256 over the simulator/runtime sources (cached per process)."""
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in _VERSION_EXCLUDES:
                continue
            digest.update(rel.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def git_sha() -> str | None:
    """Current repo HEAD, if the working tree is a git checkout."""
    import repro

    try:
        out = subprocess.run(
            ["git", "-C", os.path.dirname(repro.__file__), "rev-parse",
             "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def point_key(figure: str, params: dict, *, fingerprint: dict | None = None,
              version: str | None = None) -> str:
    """Stable cache key for one (figure, sweep-point) pair."""
    doc = {
        "figure": figure,
        "params": params,
        "config": fingerprint if fingerprint is not None
        else config_fingerprint(),
        "code": version if version is not None else code_version(),
    }
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class ResultStore:
    """Directory of cached point rows with self-verifying keys."""

    def __init__(self, root: str | os.PathLike, *,
                 fingerprint: dict | None = None,
                 version: str | None = None) -> None:
        self.root = Path(root)
        self.fingerprint = (fingerprint if fingerprint is not None
                            else config_fingerprint())
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0

    def key_for(self, figure: str, params: dict) -> str:
        return point_key(figure, params, fingerprint=self.fingerprint,
                         version=self.version)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get_entry(self, key: str,
                  require_metrics: bool = False) -> dict | None:
        """The full cached entry for ``key`` (``row`` plus the optional
        deterministic ``metrics`` snapshot), or None on a miss.  Entries
        written before the metrics subsystem lack the field; with
        ``require_metrics`` they count as misses, so a metrics-on run
        transparently refreshes them."""
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        expected = self.key_for(entry.get("figure", ""),
                                entry.get("params", {}))
        if entry.get("key") != key or expected != key:
            self.misses += 1
            return None
        if require_metrics and "metrics" not in entry:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def get(self, key: str) -> dict | None:
        """The cached row for ``key``, or None (miss/tampered/stale)."""
        entry = self.get_entry(key)
        return entry["row"] if entry is not None else None

    def put(self, key: str, figure: str, params: dict, row: dict,
            metrics: dict | None = None) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        entry = {"key": key, "figure": figure, "params": params, "row": row}
        if metrics is not None:
            # The stable-metrics snapshot is as deterministic as the row
            # itself, so caching it keeps metrics-on re-runs warm.
            entry["metrics"] = metrics
        tmp.write_text(json.dumps(entry, indent=1))
        os.replace(tmp, path)

